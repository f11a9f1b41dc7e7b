#include "compiler/incremental_codegen.hpp"

#include <string_view>

#include "compiler/fnv.hpp"

namespace orianna::comp {

namespace {

/** Key spaces of the synthetic host boundary (see UpdateLayout). */
constexpr Key kInputBase = 1ull << 40;
constexpr Key kOutputBase = 1ull << 41;
constexpr Key kDeltaBase = 1ull << 42;

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
    Fnv1a f;
    // The domain tag mixes its characters only, no length.
    const std::string_view tag = "orianna-update-v1";
    f.bytes(tag.data(), tag.size());
    f.u64(spec.dofs.size());
    for (std::uint32_t d : spec.dofs)
        f.u64(d);
    f.u64(spec.rows.size());
    for (const UpdateSpec::Row &row : spec.rows) {
        f.u64(row.dim);
        f.u64(row.blocks.size());
        for (std::uint32_t p : row.blocks)
            f.u64(p);
    }
    f.u64(spec.steps.size());
    for (const UpdateSpec::Step &step : spec.steps) {
        f.u64(step.rowRefs.size());
        for (std::uint32_t r : step.rowRefs)
            f.u64(r);
        f.u64(step.columns.size());
        for (std::uint32_t c : step.columns)
            f.u64(c);
        f.u64(step.kept);
    }
    return f.value();
}

} // namespace orianna::comp
