#pragma once

#include <random>
#include <vector>

#include "lie/pose.hpp"

namespace orianna::sensors {

using lie::Pose;
using mat::Vector;

/** A 2-D range scan: points in the sensor (body) frame. */
struct Scan
{
    std::vector<Vector> points;
};

/**
 * Render a scan of a 2-D point landmark map from @p pose: landmarks
 * within @p max_range are transformed into the body frame and
 * perturbed with isotropic noise.
 */
Scan renderScan(const Pose &pose, const std::vector<Vector> &landmarks,
                double max_range, double noise, std::mt19937 &rng);

/** Knobs of the ICP loop. */
struct IcpParams
{
    std::size_t maxIterations = 25;
    double tolerance = 1e-7;        //!< Step size to declare converged.
    double maxCorrespondence = 2.0; //!< Reject pairs farther apart.
};

/** Outcome of icp2d(). */
struct IcpResult
{
    Pose relative = Pose::identity(2); //!< Estimated motion from -> to.
    std::size_t iterations = 0;
    double meanResidual = 0.0;  //!< Mean point distance at the end.
    bool converged = false;
};

/**
 * Point-to-point 2-D ICP: estimate the sensor motion between two
 * scans (the LiDAR scan-matching front end that produces the
 * LiDARFactor measurements of Tbl. 2). Nearest-neighbor
 * correspondences alternate with the closed-form 2-D alignment
 * (centroid shift plus the cross-correlation angle). Each `to` point
 * pairs with the first `from` point at the least distance, found by
 * an x-ordered search that skips only points that cannot win.
 *
 * @param from          scan taken at the earlier pose.
 * @param to            scan taken at the later pose.
 * @param initial_guess motion prior (e.g. from odometry); identity
 *                      works for small motions.
 * @throws std::invalid_argument on an empty scan, a non-planar
 *         guess, or a point that is not finite and 2-D.
 */
IcpResult icp2d(const Scan &from, const Scan &to,
                const Pose &initial_guess, const IcpParams &params = {});

} // namespace orianna::sensors
