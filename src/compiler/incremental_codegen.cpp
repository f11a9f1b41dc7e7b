#include "compiler/incremental_codegen.hpp"

namespace orianna::comp {

namespace {

/** Key spaces of the synthetic host boundary (see UpdateLayout). */
constexpr Key kInputBase = 1ull << 40;
constexpr Key kOutputBase = 1ull << 41;
constexpr Key kDeltaBase = 1ull << 42;

/** FNV-1a mixer (same scheme as the engine's graph fingerprint). */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    mix(const char *s)
    {
        for (; *s; ++s) {
            h ^= static_cast<unsigned char>(*s);
            h *= 1099511628211ull;
        }
    }
};

} // namespace

UpdateLayout
updateLayout(const UpdateSpec &spec)
{
    UpdateLayout layout;
    Key next = kInputBase;
    for (const UpdateSpec::Row &row : spec.rows) {
        UpdateLayout::RowKeys keys;
        for (std::uint32_t position : row.blocks) {
            std::vector<Key> cols(spec.dofs.at(position));
            for (Key &key : cols)
                key = next++;
            keys.blockColumns.push_back(std::move(cols));
        }
        keys.rhs = next++;
        layout.inputs.push_back(std::move(keys));
    }

    next = kOutputBase;
    for (const UpdateSpec::Step &step : spec.steps) {
        UpdateLayout::StepKeys keys;
        std::size_t ncols = 0;
        for (std::uint32_t position : step.columns)
            ncols += spec.dofs.at(position);
        keys.columns.resize(ncols + 1);
        for (Key &key : keys.columns)
            key = next++;
        keys.dv = spec.dofs.at(step.columns.front());
        keys.height = keys.dv + step.kept;
        layout.outputs.push_back(std::move(keys));
    }

    for (std::size_t p = 0; p < spec.dofs.size(); ++p)
        layout.deltaKeys.push_back(kDeltaBase + p);
    return layout;
}

std::uint64_t
updateFingerprint(const UpdateSpec &spec)
{
    Fnv f;
    f.mix("orianna-update-v1");
    f.mix(spec.dofs.size());
    for (std::uint32_t d : spec.dofs)
        f.mix(d);
    f.mix(spec.rows.size());
    for (const UpdateSpec::Row &row : spec.rows) {
        f.mix(row.dim);
        f.mix(row.blocks.size());
        for (std::uint32_t p : row.blocks)
            f.mix(p);
    }
    f.mix(spec.steps.size());
    for (const UpdateSpec::Step &step : spec.steps) {
        f.mix(step.rowRefs.size());
        for (std::uint32_t r : step.rowRefs)
            f.mix(r);
        f.mix(step.columns.size());
        for (std::uint32_t c : step.columns)
            f.mix(c);
        f.mix(step.kept);
    }
    return f.h;
}

} // namespace orianna::comp
