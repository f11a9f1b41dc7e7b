#include "compiler/isa.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace orianna::comp {

const char *
precisionName(Precision precision)
{
    switch (precision) {
    case Precision::Fp64:
        return "fp64";
    case Precision::Fp32:
        return "fp32";
    }
    return "unknown";
}

bool
parsePrecision(const std::string &spec, Precision &out)
{
    if (spec == "fp64" || spec == "double") {
        out = Precision::Fp64;
        return true;
    }
    if (spec == "fp32" || spec == "float") {
        out = Precision::Fp32;
        return true;
    }
    return false;
}

const char *
isaOpName(IsaOp op)
{
    switch (op) {
      case IsaOp::EXP: return "EXP";
      case IsaOp::LOG: return "LOG";
      case IsaOp::RT: return "RT";
      case IsaOp::RR: return "RR";
      case IsaOp::MM: return "MM";
      case IsaOp::RV: return "RV";
      case IsaOp::MV: return "MV";
      case IsaOp::VADD: return "VADD";
      case IsaOp::VSUB: return "VSUB";
      case IsaOp::NEG: return "NEG";
      case IsaOp::HAT: return "HAT";
      case IsaOp::JR: return "JR";
      case IsaOp::JRINV: return "JRINV";
      case IsaOp::PROJ: return "PROJ";
      case IsaOp::PROJJ: return "PROJJ";
      case IsaOp::SDF: return "SDF";
      case IsaOp::SDFJ: return "SDFJ";
      case IsaOp::HINGE: return "HINGE";
      case IsaOp::HINGEJ: return "HINGEJ";
      case IsaOp::NORM: return "NORM";
      case IsaOp::NORMJ: return "NORMJ";
      case IsaOp::HUBERW: return "HUBERW";
      case IsaOp::SMUL: return "SMUL";
      case IsaOp::SCALER: return "SCALER";
      case IsaOp::GATHER: return "GATHER";
      case IsaOp::QR: return "QR";
      case IsaOp::EXTRACT: return "EXTRACT";
      case IsaOp::BSUB: return "BSUB";
      case IsaOp::LOADC: return "LOADC";
      case IsaOp::LOADV: return "LOADV";
      case IsaOp::STORE: return "STORE";
      case IsaOp::GSCALE: return "GSCALE";
      case IsaOp::MVSUB: return "MVSUB";
    }
    return "?";
}

OperandList::OperandList(std::initializer_list<std::uint32_t> values)
{
    resize(values.size());
    std::copy(values.begin(), values.end(), data());
}

OperandList::OperandList(const OperandList &other)
{
    resize(other.size_);
    std::copy(other.begin(), other.end(), data());
}

OperandList::OperandList(OperandList &&other) noexcept
    : size_(other.size_)
{
    std::copy(other.words_, other.words_ + kInline, words_);
    other.size_ = 0; // The block, if any, is ours now.
}

OperandList &
OperandList::operator=(const OperandList &other)
{
    if (this != &other) {
        resize(other.size_);
        std::copy(other.begin(), other.end(), data());
    }
    return *this;
}

OperandList &
OperandList::operator=(OperandList &&other) noexcept
{
    if (this != &other) {
        release();
        size_ = other.size_;
        std::copy(other.words_, other.words_ + kInline, words_);
        other.size_ = 0;
    }
    return *this;
}

void
OperandList::push_back(std::uint32_t value)
{
    if (size_ < kInline) {
        words_[size_++] = value;
        return;
    }
    if (size_ == capacity()) {
        // Full (inline, or a full block): double into a new block.
        if (size_ > std::numeric_limits<std::uint32_t>::max() / 2)
            throw std::length_error("OperandList: too many operands");
        const std::uint32_t grown = 2 * size_;
        auto *block = new std::uint32_t[grown];
        std::copy(begin(), end(), block);
        release();
        setHeap(block, grown);
        block[size_++] = value; // size_ > kInline: spilled from here.
        return;
    }
    heap()[size_++] = value;
}

void
OperandList::resize(std::size_t n)
{
    if (n > std::numeric_limits<std::uint32_t>::max() / 2)
        throw std::length_error("OperandList: too many operands");
    const auto count = static_cast<std::uint32_t>(n);
    if (count <= kInline) {
        if (spilled()) {
            std::uint32_t *block = heap();
            std::copy(block, block + count, words_);
            delete[] block;
        } else if (count > size_) {
            std::fill(words_ + size_, words_ + count, 0u);
        }
    } else if (count > capacity()) {
        auto *block = new std::uint32_t[count];
        std::copy(begin(), end(), block);
        std::fill(block + size_, block + count, 0u);
        release();
        setHeap(block, count);
    } else if (count > size_) {
        std::fill(heap() + size_, heap() + count, 0u);
    }
    size_ = count;
}

std::size_t
Payload::heapBytes() const
{
    return (constMat.rows() * constMat.cols() + constVec.size()) *
               sizeof(double) +
           placements.capacity() * sizeof(GatherPlacement);
}

const Payload &
Program::emptyPayload()
{
    static const Payload empty;
    return empty;
}

std::vector<std::uint32_t>
Program::producers() const
{
    std::vector<std::uint32_t> producer(valueSlots, kNoProducer);
    for (std::size_t i = 0; i < instructions.size(); ++i) {
        const Instruction &inst = instructions[i];
        if (inst.dst >= valueSlots)
            throw std::logic_error("program: dst out of range");
        for (std::uint32_t src : inst.srcs)
            if (src >= valueSlots)
                throw std::logic_error("program: src out of range");
        if (inst.op == IsaOp::STORE)
            continue;
        if (producer[inst.dst] != kNoProducer)
            throw std::logic_error("program: slot defined twice");
        producer[inst.dst] = static_cast<std::uint32_t>(i);
    }
    return producer;
}

std::uint32_t
Program::addPayload(Payload entry)
{
    payloads.push_back(std::move(entry));
    return static_cast<std::uint32_t>(payloads.size());
}

Payload &
Program::editPayload(Instruction &inst)
{
    if (inst.payload == 0)
        inst.payload = addPayload({});
    return payloads[inst.payload - 1];
}

std::size_t
Program::footprintBytes() const
{
    std::size_t bytes = instructions.capacity() * sizeof(Instruction) +
                        payloads.capacity() * sizeof(Payload) +
                        deltas.capacity() * sizeof(DeltaBinding);
    for (const Instruction &inst : instructions)
        bytes += inst.srcs.spillBytes();
    for (const Payload &entry : payloads)
        bytes += entry.heapBytes();
    return bytes;
}

std::vector<std::size_t>
Program::opHistogram() const
{
    std::vector<std::size_t> histogram(kIsaOpCount, 0);
    for (const Instruction &inst : instructions)
        ++histogram[static_cast<std::size_t>(inst.op)];
    return histogram;
}

std::string
Program::str() const
{
    const std::vector<std::uint32_t> producer = producers();
    std::ostringstream os;
    os << "program " << name << " (" << instructions.size()
       << " instructions, " << valueSlots << " slots)\n";
    for (std::size_t i = 0; i < instructions.size(); ++i) {
        const Instruction &inst = instructions[i];
        os << "  %" << i << ": " << isaOpName(inst.op) << " ["
           << inst.rows << "x" << inst.cols;
        if (inst.depth)
            os << "x" << inst.depth;
        os << "] -> v" << inst.dst;
        if (!inst.srcs.empty()) {
            os << " <-";
            for (std::uint32_t s : inst.srcs)
                os << " v" << s;
        }
        const char *sep = " deps";
        forEachDep(inst, producer, [&](std::uint32_t d) {
            os << sep << " %" << d;
            sep = "";
        });
        os << "\n";
    }
    return os.str();
}

} // namespace orianna::comp
