#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/isa.hpp"

namespace orianna::comp {

/**
 * Binary encoding of compiled programs — the artifact the toolchain
 * hands to the accelerator (or stores next to a bitstream). The
 * format is a little-endian, versioned, self-contained container:
 * every constant, camera intrinsic, SDF obstacle and gather placement
 * is embedded, so a decoded program executes without access to the
 * factor graph that produced it.
 */

/** Container version the encoder writes (currently 2). */
std::uint32_t encodingVersion();

/** Oldest container version the decoder still accepts (currently 1). */
std::uint32_t minEncodingVersion();

/**
 * Serialize @p program to bytes. The format still carries each
 * instruction's deps and each placement's src; both are written as
 * derived from the srcs (Program::producers).
 * @throws std::logic_error on a program producers() rejects.
 */
std::vector<std::uint8_t> encodeProgram(const Program &program);

/**
 * Parse a binary program. Beyond the framing it checks what the
 * record no longer stores: every src, dst and delta binding below
 * valueSlots, no slot defined twice, every encoded dep the producer
 * of its src, and GATHER/GSCALE placements matching the srcs one for
 * one (no other op has placements).
 * @throws std::runtime_error on truncation, bad magic or version, or
 *         a failed structural check.
 */
Program decodeProgram(const std::vector<std::uint8_t> &bytes);

/** Convenience: encode to / decode from a file. */
void saveProgram(const std::string &path, const Program &program);
Program loadProgram(const std::string &path);

} // namespace orianna::comp
