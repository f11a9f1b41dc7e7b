#pragma once

#include <memory>
#include <vector>

#include "matrix/dense.hpp"

namespace orianna::fg {

using mat::Vector;

/**
 * Signed distance field over a union of spherical obstacles.
 *
 * Collision-free factors (Tbl. 2) evaluate the clearance of trajectory
 * states against this map, exactly as GPMP2-style planners do. An
 * analytic union-of-spheres field keeps distance() and gradient()
 * exact, which the DFG autodiff and the finite-difference tests rely
 * on.
 */
class SdfMap
{
  public:
    /** Empty map: infinite clearance everywhere. */
    SdfMap() = default;

    /** Add a spherical (circular in 2-D) obstacle. */
    void addObstacle(Vector center, double radius);

    std::size_t obstacleCount() const { return obstacles_.size(); }

    /** Obstacles as (center, radius) pairs (for serialization). */
    std::vector<std::pair<Vector, double>> obstacles() const;

    /** Center of obstacle @p i (i < obstacleCount()), not copied. */
    const Vector &obstacleCenter(std::size_t i) const
    {
        return obstacles_[i].center;
    }

    /** Radius of obstacle @p i (i < obstacleCount()). */
    double obstacleRadius(std::size_t i) const
    {
        return obstacles_[i].radius;
    }

    /**
     * Signed distance from @p point to the closest obstacle surface
     * (positive outside). Returns a large constant for an empty map.
     */
    double distance(const Vector &point) const;

    /**
     * Gradient of distance() with respect to the point, as a row
     * vector. Zero at obstacle centers (where the field is not
     * differentiable) and for empty maps.
     */
    Vector gradient(const Vector &point) const;

  private:
    struct Obstacle
    {
        Vector center;
        double radius;
    };

    std::vector<Obstacle> obstacles_;
};

using SdfMapPtr = std::shared_ptr<const SdfMap>;

} // namespace orianna::fg
