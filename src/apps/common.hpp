#pragma once

// Shared workload-generation helpers for the benchmark applications.

#include <random>

#include "fg/factors.hpp"
#include "lie/pose.hpp"

namespace orianna::apps {

using fg::Key;
using lie::Pose;
using mat::Matrix;
using mat::Vector;

/** Uniform random vector in [-scale, scale]^n. */
inline Vector
uniformVector(std::size_t n, std::mt19937 &rng, double scale)
{
    std::uniform_real_distribution<double> dist(-scale, scale);
    Vector out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = dist(rng);
    return out;
}

/** Zero-mean Gaussian vector with per-entry sigma. */
inline Vector
gaussianVector(std::size_t n, std::mt19937 &rng, double sigma)
{
    // A unit normal scaled by hand: std::normal_distribution needs a
    // positive stddev, and z * sigma + 0.0 is exactly what it would
    // compute, so draws keep their bits and sigma 0 is allowed.
    std::normal_distribution<double> unit(0.0, 1.0);
    Vector out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = unit(rng) * sigma + 0.0;
    return out;
}

/** Perturb a pose on-manifold with Gaussian rotation/translation. */
inline Pose
perturbPose(const Pose &pose, std::mt19937 &rng, double rot_sigma,
            double trans_sigma)
{
    const std::size_t tdim = pose.phi().size();
    Vector delta = gaussianVector(tdim, rng, rot_sigma)
                       .concat(gaussianVector(pose.t().size(), rng,
                                              trans_sigma));
    return pose.retract(delta);
}

/** Mean translational error between estimate and ground truth. */
inline double
meanPositionError(const fg::Values &estimate,
                  const std::vector<Pose> &truth, Key first_key)
{
    double total = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i)
        total += (estimate.pose(first_key + i).t() - truth[i].t()).norm();
    return total / static_cast<double>(truth.size());
}

} // namespace orianna::apps
