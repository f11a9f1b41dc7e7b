#pragma once

// Checked-in golden files shared by the regression suites: compare a
// computed digest against tests/golden/, or rewrite the file when
// ORIANNA_REGEN_GOLDEN is set, plus the FNV-1a hash the digests use.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace orianna::test {

/**
 * Compare @p digest against the checked-in file at @p path, or
 * rewrite that file when ORIANNA_REGEN_GOLDEN is set.
 */
inline void
expectGolden(const char *path, const std::string &digest)
{
    if (std::getenv("ORIANNA_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << digest;
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " (regenerate with ORIANNA_REGEN_GOLDEN=1)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(digest, golden.str())
        << path << " moved; if intentional, regenerate it by running "
                   "this test binary with ORIANNA_REGEN_GOLDEN=1";
}

/** 64-bit FNV-1a of @p n bytes at @p data, continuing from @p hash. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t hash = 0xcbf29ce484222325ull)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

inline std::uint64_t
fnv1a(const std::string &bytes,
      std::uint64_t hash = 0xcbf29ce484222325ull)
{
    return fnv1a(bytes.data(), bytes.size(), hash);
}

/** @p value as 16 lower-case hex digits. */
inline std::string
hex(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

} // namespace orianna::test
