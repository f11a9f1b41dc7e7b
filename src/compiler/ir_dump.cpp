#include "compiler/ir_dump.hpp"

#include <sstream>

namespace orianna::comp {

namespace {

const char *
phaseColor(std::uint8_t phase)
{
    switch (phase) {
      case 0: return "lightblue";   // Forward/backward lowering.
      case 1: return "lightyellow"; // Gather/QR elimination.
      case 2: return "palegreen";   // Back-substitution.
    }
    return "gray90";
}

} // namespace

std::string
programToDot(const Program &program)
{
    std::ostringstream os;
    // Quoted: program names carry paths ("/tmp/a.g2o") and slashes
    // are not legal in a bare DOT identifier.
    os << "digraph \""
       << (program.name.empty() ? "program" : program.name) << "\" {\n"
       << "  rankdir=LR;\n"
       << "  node [fontsize=10, shape=box, style=filled];\n";
    const std::vector<std::uint32_t> producers = program.producers();
    for (std::size_t i = 0; i < program.instructions.size(); ++i) {
        const Instruction &inst = program.instructions[i];
        os << "  i" << i << " [label=\"%" << i << " "
           << isaOpName(inst.op) << "\\n" << inst.rows << "x"
           << inst.cols;
        if (inst.depth)
            os << "x" << inst.depth;
        os << " -> v" << inst.dst << "\", fillcolor="
           << phaseColor(inst.phase) << "];\n";
        forEachDep(inst, producers, [&](std::uint32_t dep) {
            os << "  i" << dep << " -> i" << i << ";\n";
        });
    }
    os << "}\n";
    return os.str();
}

std::string
programListing(const Program &program)
{
    std::ostringstream os;
    os << program.str();
    os << "phases:";
    const char *names[] = {"lower", "eliminate", "backsub"};
    std::size_t counts[3] = {0, 0, 0};
    for (const Instruction &inst : program.instructions)
        if (inst.phase < 3)
            ++counts[inst.phase];
    for (std::size_t p = 0; p < 3; ++p)
        os << " " << names[p] << "=" << counts[p];
    os << "\n";
    const std::vector<std::size_t> histogram = program.opHistogram();
    os << "ops:";
    for (std::size_t op = 0; op < histogram.size(); ++op)
        if (histogram[op] > 0)
            os << " " << isaOpName(static_cast<IsaOp>(op)) << "="
               << histogram[op];
    os << "\n";
    return os.str();
}

} // namespace orianna::comp
