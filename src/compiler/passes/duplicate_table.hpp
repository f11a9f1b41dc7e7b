#pragma once

// The duplicate finder the cse and dedup passes share (DESIGN.md §7).

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "compiler/isa.hpp"

namespace orianna::comp::passes {

/**
 * 64-bit hash of a candidate, mixed directly from the fields it is
 * compared by. Doubles enter by their bits, like the comparison.
 */
class FieldHash
{
  public:
    void
    word(std::uint64_t v)
    {
        state_ = (state_ ^ v) * 0x9e3779b97f4a7c15ull;
        state_ ^= state_ >> 32;
    }

    void bits(double v) { word(std::bit_cast<std::uint64_t>(v)); }

    void
    doubles(const std::vector<double> &values)
    {
        word(values.size());
        for (double v : values)
            bits(v);
    }

    /** The hash, every bit depending on every field (fmix64). */
    std::uint64_t
    value() const
    {
        std::uint64_t h = state_;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ull;
        h ^= h >> 33;
        return h;
    }

  private:
    std::uint64_t state_ = 0x243f6a8885a308d3ull;
};

/** Equal bits: +0.0 and -0.0 differ, NaNs with equal bits match. */
inline bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Equal sizes and equal bits, as sameBits(double, double). */
inline bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

/** The LOADC fields: constMat shape and bits, constVec size and bits. */
inline void
mixConstants(FieldHash &h, const Payload &payload)
{
    h.word(payload.constMat.rows());
    h.word(payload.constMat.cols());
    h.doubles(payload.constMat.data());
    h.doubles(payload.constVec.data());
}

/** Whether mixConstants() reads the same fields from @p a and @p b. */
inline bool
sameConstants(const Payload &a, const Payload &b)
{
    return a.constMat.rows() == b.constMat.rows() &&
           a.constMat.cols() == b.constMat.cols() &&
           sameBits(a.constMat.data(), b.constMat.data()) &&
           sameBits(a.constVec.data(), b.constVec.data());
}

/**
 * The first occurrences of one pass run: open addressing with linear
 * probing over a power-of-two array that is sized once for the run's
 * candidates and then only probed, never grown, iterated or erased
 * from, so no merge depends on a table order. An entry holds a
 * candidate's index and the high half of its hash. A lookup confirms
 * a hash match with the caller's field-by-field comparison before it
 * reports a duplicate, so a collision costs a comparison, never a
 * wrong merge.
 */
class DuplicateTable
{
  public:
    /** firstOccurrence() result for a candidate seen for the first time. */
    static constexpr std::uint32_t kNew = 0xffffffffu;

    /** An empty table with room for @p candidates entries. */
    explicit DuplicateTable(std::size_t candidates)
    {
        if (candidates >= kNew / 2)
            throw std::length_error("DuplicateTable: too many candidates");
        std::size_t buckets = 8;
        while (buckets < 2 * candidates)
            buckets *= 2;
        entries_.assign(buckets, 0);
        mask_ = buckets - 1;
    }

    /**
     * The candidate inserted before with @p hash for which
     * @p same(index) holds; when there is none, insert @p candidate
     * and return kNew. Each inserted candidate matches no earlier
     * one, so the candidate returned is the first occurrence.
     */
    template <typename Same>
    std::uint32_t
    firstOccurrence(std::uint64_t hash, std::uint32_t candidate,
                    Same &&same)
    {
        constexpr std::uint64_t kIndexBits = 0xffffffffull;
        const std::uint64_t tag = hash & ~kIndexBits;
        for (std::size_t b = hash & mask_;; b = (b + 1) & mask_) {
            const std::uint64_t entry = entries_[b];
            if (entry == 0) {
                entries_[b] = tag | (std::uint64_t{candidate} + 1);
                return kNew;
            }
            if ((entry & ~kIndexBits) == tag) {
                const auto index =
                    static_cast<std::uint32_t>((entry & kIndexBits) - 1);
                if (same(index))
                    return index;
            }
        }
    }

  private:
    std::vector<std::uint64_t> entries_; //!< 0 = empty bucket.
    std::size_t mask_ = 0;
};

} // namespace orianna::comp::passes
