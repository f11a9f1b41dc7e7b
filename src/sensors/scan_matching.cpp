#include "sensors/scan_matching.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "lie/so.hpp"
#include "matrix/kernels.hpp"
#include "matrix/mac_counter.hpp"

namespace orianna::sensors {

Scan
renderScan(const Pose &pose, const std::vector<Vector> &landmarks,
           double max_range, double noise, std::mt19937 &rng)
{
    if (pose.spaceDim() != 2)
        throw std::invalid_argument("renderScan: pose must be planar");
    // A unit normal scaled by hand: std::normal_distribution needs a
    // positive stddev, and z * noise + 0.0 is exactly what it would
    // compute, so noisy scans keep their bits and noise 0 is allowed.
    std::normal_distribution<double> unit(0.0, 1.0);
    const auto draw = [&] { return unit(rng) * noise + 0.0; };
    const mat::Matrix rt = pose.rotation().transpose();

    Scan scan;
    for (const Vector &landmark : landmarks) {
        const Vector local = rt * (landmark - pose.t());
        if (local.norm() > max_range)
            continue;
        scan.points.push_back(local + Vector{draw(), draw()});
    }
    return scan;
}

IcpResult
icp2d(const Scan &from, const Scan &to, const Pose &initial_guess,
      const IcpParams &params)
{
    if (from.points.empty() || to.points.empty())
        throw std::invalid_argument("icp2d: empty scan");
    if (initial_guess.spaceDim() != 2)
        throw std::invalid_argument("icp2d: pose must be planar");
    for (const Scan *scan : {&from, &to})
        for (const Vector &point : scan->points)
            if (point.size() != 2 || !std::isfinite(point[0]) ||
                !std::isfinite(point[1]))
                throw std::invalid_argument(
                    "icp2d: points must be finite and 2-D");

    // The nearest neighbour of a mapped point is the first `from`
    // index at the least distance, as a scan over every index in order
    // finds it. The search visits `from` sorted by x, outward from the
    // mapped point's x, and stops on a side once the x gap alone
    // exceeds the best distance: a distance is never below its x gap
    // (sqrt(x * x) == |x| in binary floating point while x * x does
    // not underflow, Boldo 2015), so no skipped point could win or tie.
    // Each candidate's difference goes into one reused vector and its
    // distance still comes from Vector::norm(), and the mapped point
    // from the kernel behind Matrix * Vector, so every match and
    // residual keeps its bits on every kernel tier.
    const std::size_t n = from.points.size();
    std::vector<std::size_t> by_x(n);
    std::iota(by_x.begin(), by_x.end(), std::size_t{0});
    std::sort(by_x.begin(), by_x.end(), [&](std::size_t a, std::size_t b) {
        return from.points[a][0] < from.points[b][0];
    });
    std::vector<double> xs(n);
    for (std::size_t k = 0; k < n; ++k)
        xs[k] = from.points[by_x[k]][0];
    constexpr double kNoUnderflow = 0x1p-500; // gap * gap stays normal.

    IcpResult result;
    result.relative = initial_guess;
    Vector mapped(2);
    Vector diff(2);
    for (std::size_t iter = 0; iter < params.maxIterations; ++iter) {
        ++result.iterations;
        const mat::Matrix r = result.relative.rotation();

        // Nearest-neighbor correspondences under the current motion.
        std::vector<std::pair<const Vector *, const Vector *>>
            pairs; // (from, to).
        double residual = 0.0;
        for (const Vector &q : to.points) {
            // mapped = r * q + t, with the MACs Matrix * Vector reports.
            mapped[0] = 0.0;
            mapped[1] = 0.0;
            mat::kernels::gemv(r.data().data(), q.data().data(),
                               &mapped[0], 2, 2);
            mat::MacCounter::add(4);
            mapped += result.relative.t();

            double best = std::numeric_limits<double>::max();
            std::size_t match = n;
            const auto pruned = [&](std::size_t k) {
                const double gap = std::abs(mapped[0] - xs[k]);
                return gap > best && gap > kNoUnderflow;
            };
            const auto consider = [&](std::size_t k) {
                const std::size_t i = by_x[k];
                diff[0] = mapped[0] - xs[k];
                diff[1] = mapped[1] - from.points[i][1];
                const double d = diff.norm();
                if (d < best || (d == best && i < match)) {
                    best = d;
                    match = i;
                }
            };
            std::size_t up = static_cast<std::size_t>(
                std::lower_bound(xs.begin(), xs.end(), mapped[0]) -
                xs.begin());
            std::size_t down = up;
            bool up_open = true;
            bool down_open = true;
            while (up_open || down_open) {
                up_open = up_open && up < n && !pruned(up);
                if (up_open)
                    consider(up++);
                down_open = down_open && down > 0 && !pruned(down - 1);
                if (down_open)
                    consider(--down);
            }
            if (match < n && best <= params.maxCorrespondence) {
                pairs.emplace_back(&from.points[match], &q);
                residual += best;
            }
        }
        if (pairs.size() < 2)
            break; // Not enough overlap to align.
        result.meanResidual =
            residual / static_cast<double>(pairs.size());

        // Closed-form 2-D alignment of the correspondences.
        Vector p_bar(2);
        Vector q_bar(2);
        for (const auto &[p, q] : pairs) {
            p_bar += *p;
            q_bar += *q;
        }
        const double inv = 1.0 / static_cast<double>(pairs.size());
        p_bar = p_bar * inv;
        q_bar = q_bar * inv;
        double sxx = 0.0;
        double sxy = 0.0;
        for (const auto &[p, q] : pairs) {
            const Vector pc = *p - p_bar;
            const Vector qc = *q - q_bar;
            sxx += qc[0] * pc[0] + qc[1] * pc[1];
            sxy += qc[0] * pc[1] - qc[1] * pc[0];
        }
        const double theta = std::atan2(sxy, sxx);
        const mat::Matrix r_new = lie::expSo(Vector{theta});
        const Vector t_new = p_bar - r_new * q_bar;
        const Pose updated(Vector{theta}, t_new);

        const double step =
            lie::poseDistance(updated, result.relative);
        result.relative = updated;
        if (step < params.tolerance) {
            result.converged = true;
            break;
        }
    }
    return result;
}

} // namespace orianna::sensors
