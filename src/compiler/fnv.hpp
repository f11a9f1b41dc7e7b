#pragma once

#include <cstddef>
#include <cstdint>

namespace orianna::comp {

/**
 * 64-bit FNV-1a, the one hash behind graph and update fingerprints
 * and store checksums. Those name and guard store entries across
 * processes and builds, so its bits never change.
 */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; ++i)
            byte(static_cast<const unsigned char *>(data)[i]);
    }

    /** The eight bytes of @p v, least significant first. */
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }

    std::uint64_t value() const { return state_; }

  private:
    void byte(unsigned char b) { state_ = (state_ ^ b) * 1099511628211ull; }

    std::uint64_t state_ = 1469598103934665603ull;
};

} // namespace orianna::comp
