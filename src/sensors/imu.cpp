#include "sensors/imu.hpp"

#include <stdexcept>

#include "lie/so.hpp"
#include "matrix/qr.hpp"

namespace orianna::sensors {

ImuPreintegrator::ImuPreintegrator(std::size_t space_dim)
    : spaceDim_(space_dim), delta_(Pose::identity(space_dim))
{
    lie::tangentDim(space_dim); // Validates 2 or 3.
}

void
ImuPreintegrator::add(const ImuSample &sample)
{
    if (sample.gyro.size() != lie::tangentDim(spaceDim_) ||
        sample.velocity.size() != spaceDim_)
        throw std::invalid_argument(
            "ImuPreintegrator::add: sample dimension mismatch");
    if (sample.dt <= 0.0)
        throw std::invalid_argument("ImuPreintegrator::add: dt <= 0");

    // Right-multiplicative integration over the window:
    //   delta <- delta (+) <Exp-step, v dt>.
    const Pose step(sample.gyro * sample.dt,
                    sample.velocity * sample.dt);
    delta_ = delta_.oplus(step);
    elapsed_ += sample.dt;
    ++count_;
}

void
ImuPreintegrator::reset()
{
    delta_ = Pose::identity(spaceDim_);
    elapsed_ = 0.0;
    count_ = 0;
}

std::vector<ImuSample>
synthesizeImuSegment(const Pose &a, const Pose &b, std::size_t steps,
                     double duration, std::mt19937 &rng,
                     double gyro_noise, double velocity_noise)
{
    if (steps == 0 || duration <= 0.0)
        throw std::invalid_argument(
            "synthesizeImuSegment: bad discretization");
    const Pose relative = b.ominus(a);
    const double dt = duration / static_cast<double>(steps);

    // Constant body rates reproducing the relative motion exactly:
    // with rotation steps R_k = Exp(k phi / n), the integrated
    // translation is (sum_k R_k) u, so the per-step body displacement
    // is u = (sum_k R_k)^-1 t.
    const double inv = 1.0 / static_cast<double>(steps);
    const Vector gyro = relative.phi() * (1.0 / duration);
    mat::Matrix s(a.spaceDim(), a.spaceDim());
    for (std::size_t k = 0; k < steps; ++k)
        s += lie::expSo(relative.phi() * (static_cast<double>(k) * inv));
    const Vector u = mat::leastSquares(s, relative.t());

    // Unit normals scaled by hand: std::normal_distribution needs a
    // positive stddev, and z * sigma + 0.0 is exactly what it would
    // compute, so noisy samples keep their bits and noise 0 is allowed.
    std::normal_distribution<double> gyro_unit(0.0, 1.0);
    std::normal_distribution<double> vel_unit(0.0, 1.0);

    std::vector<ImuSample> samples;
    samples.reserve(steps);
    for (std::size_t k = 0; k < steps; ++k) {
        ImuSample sample;
        sample.dt = dt;
        sample.gyro = gyro;
        for (std::size_t i = 0; i < sample.gyro.size(); ++i)
            sample.gyro[i] += gyro_unit(rng) * gyro_noise + 0.0;
        sample.velocity = u * (1.0 / dt);
        for (std::size_t i = 0; i < sample.velocity.size(); ++i)
            sample.velocity[i] += vel_unit(rng) * velocity_noise + 0.0;
        samples.push_back(std::move(sample));
    }
    return samples;
}

} // namespace orianna::sensors
