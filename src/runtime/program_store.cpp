#include "runtime/program_store.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "compiler/encoding.hpp"
#include "compiler/fnv.hpp"

namespace orianna::runtime {

namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kStoreMagic = 0x5453524f; // "ORST".
constexpr std::uint32_t kStoreVersion = 1;
constexpr const char *kEntrySuffix = ".oprog";
constexpr const char *kTempPrefix = ".tmp.";

std::uint64_t
checksum(const std::uint8_t *data, std::size_t size)
{
    comp::Fnv1a hash;
    hash.bytes(data, size);
    return hash.value();
}

/** Little-endian POD append (mirrors the program encoding's writer). */
template <typename T>
void
putPod(std::vector<std::uint8_t> &out, T value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const auto *raw = reinterpret_cast<const std::uint8_t *>(&value);
    out.insert(out.end(), raw, raw + sizeof(T));
}

/** Bounds-checked POD read; false on truncation. */
template <typename T>
bool
getPod(const std::vector<std::uint8_t> &in, std::size_t &offset,
       T &value)
{
    if (offset + sizeof(T) > in.size())
        return false;
    std::memcpy(&value, in.data() + offset, sizeof(T));
    offset += sizeof(T);
    return true;
}

} // namespace

ProgramStore::ProgramStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    available_ = !ec && fs::is_directory(dir_, ec) && !ec;
    if (!available_)
        return;
    // Probe writability once: an unwritable directory behaves like a
    // permanently cold cache instead of failing every compile later.
    const fs::path probe =
        fs::path(dir_) / (std::string(kTempPrefix) + "probe");
    std::ofstream out(probe, std::ios::binary);
    available_ = static_cast<bool>(out);
    out.close();
    fs::remove(probe, ec);
    // Sweep temp files orphaned by a killed writer. Entries are never
    // dot-prefixed, so this cannot race a concurrent publish's target;
    // a temp file a live writer is still filling may be unlinked, in
    // which case its rename recreates the entry path — publishing
    // still succeeds or fails atomically.
    if (available_) {
        for (const auto &item : fs::directory_iterator(dir_, ec)) {
            const std::string name = item.path().filename().string();
            if (name.rfind(kTempPrefix, 0) == 0)
                fs::remove(item.path(), ec);
        }
    }
}

std::string
ProgramStore::entryName(std::uint64_t fingerprint)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return std::string(buffer) + kEntrySuffix;
}

std::string
ProgramStore::entryPath(std::uint64_t fingerprint) const
{
    return (fs::path(dir_) / entryName(fingerprint)).string();
}

std::shared_ptr<const comp::Program>
ProgramStore::load(std::uint64_t fingerprint,
                   const std::string &passSpec)
{
    const auto miss = [this](bool present) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        if (present)
            rejected_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    };
    if (!available_)
        return miss(/*present=*/false);

    std::ifstream in(entryPath(fingerprint), std::ios::binary);
    if (!in)
        return miss(/*present=*/false);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        return miss(/*present=*/true);

    // Validation ladder: every rung is a clean miss, never an error.
    std::size_t offset = 0;
    std::uint32_t magic = 0;
    std::uint32_t store_version = 0;
    std::uint32_t encoding_version = 0;
    std::uint64_t stored_fingerprint = 0;
    if (!getPod(bytes, offset, magic) || magic != kStoreMagic)
        return miss(/*present=*/true);
    if (!getPod(bytes, offset, store_version) ||
        store_version != kStoreVersion)
        return miss(/*present=*/true);
    if (!getPod(bytes, offset, encoding_version) ||
        encoding_version < comp::minEncodingVersion() ||
        encoding_version > comp::encodingVersion())
        return miss(/*present=*/true);
    if (!getPod(bytes, offset, stored_fingerprint) ||
        stored_fingerprint != fingerprint)
        return miss(/*present=*/true);
    std::uint32_t spec_size = 0;
    if (!getPod(bytes, offset, spec_size) ||
        offset + spec_size > bytes.size())
        return miss(/*present=*/true);
    const std::string stored_spec(bytes.begin() + offset,
                                  bytes.begin() + offset + spec_size);
    offset += spec_size;
    if (stored_spec != passSpec)
        return miss(/*present=*/true);
    std::uint64_t payload_size = 0;
    std::uint64_t stored_checksum = 0;
    if (!getPod(bytes, offset, payload_size) ||
        !getPod(bytes, offset, stored_checksum))
        return miss(/*present=*/true);
    if (payload_size != bytes.size() - offset)
        return miss(/*present=*/true);
    if (stored_checksum !=
        checksum(bytes.data() + offset, payload_size))
        return miss(/*present=*/true);

    try {
        std::vector<std::uint8_t> payload(bytes.begin() + offset,
                                          bytes.end());
        auto program = std::make_shared<comp::Program>(
            comp::decodeProgram(payload));
        hits_.fetch_add(1, std::memory_order_relaxed);
        return program;
    } catch (const std::exception &) {
        // A checksum-clean payload the decoder rejects (e.g. written
        // by a newer encoder within the accepted version range).
        return miss(/*present=*/true);
    }
}

bool
ProgramStore::store(std::uint64_t fingerprint,
                    const std::string &passSpec,
                    const comp::Program &program)
{
    const auto fail = [this] {
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        return false;
    };
    if (!available_)
        return fail();

    std::vector<std::uint8_t> bytes;
    try {
        const std::vector<std::uint8_t> payload =
            comp::encodeProgram(program);
        putPod(bytes, kStoreMagic);
        putPod(bytes, kStoreVersion);
        putPod(bytes, comp::encodingVersion());
        putPod(bytes, fingerprint);
        putPod(bytes, static_cast<std::uint32_t>(passSpec.size()));
        bytes.insert(bytes.end(), passSpec.begin(), passSpec.end());
        putPod(bytes, static_cast<std::uint64_t>(payload.size()));
        putPod(bytes, checksum(payload.data(), payload.size()));
        bytes.insert(bytes.end(), payload.begin(), payload.end());
    } catch (const std::exception &) {
        return fail();
    }

    // Unique temp name per (process, store, publish): concurrent
    // writers — other threads of this engine or other processes on
    // the same directory — never collide before the atomic rename.
    const std::string temp =
        (fs::path(dir_) /
         (std::string(kTempPrefix) +
          std::to_string(static_cast<unsigned long long>(
              ::getpid())) +
          "." +
          std::to_string(tempSeq_.fetch_add(
              1, std::memory_order_relaxed)) +
          "." + entryName(fingerprint)))
            .string();
    {
        std::ofstream out(temp, std::ios::binary);
        if (!out)
            return fail();
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        out.close();
        if (!out) {
            std::error_code ec;
            fs::remove(temp, ec);
            return fail();
        }
    }
    // rename(2) is atomic within a filesystem: readers see the old
    // entry (or none) right up until the complete new one appears.
    if (std::rename(temp.c_str(),
                    entryPath(fingerprint).c_str()) != 0) {
        std::error_code ec;
        fs::remove(temp, ec);
        return fail();
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

ProgramStore::Stats
ProgramStore::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.writes = writes_.load(std::memory_order_relaxed);
    s.writeFailures =
        writeFailures_.load(std::memory_order_relaxed);
    return s;
}

} // namespace orianna::runtime
