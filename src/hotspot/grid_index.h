#ifndef ACTOR_HOTSPOT_GRID_INDEX_H_
#define ACTOR_HOTSPOT_GRID_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/record.h"

namespace actor {

/// Uniform-grid nearest-neighbor index over a fixed point set. Queries
/// expand cell rings outward from the query's cell until no closer point
/// can exist. The paper-scale datasets have ~10k spatial hotspots and
/// ~10^6 assignment queries, where the brute-force scan in
/// SpatialHotspots::Assign dominates preprocessing time; this index makes
/// assignment ~O(1) for well-spread hotspots. A query so far outside the
/// points' box that the first ring able to reach a point has more cells
/// than there are points is answered by the linear NearestPoint scan
/// instead, so the walk never grows with the query's distance. Ties break toward the smallest point index (matching the
/// linear scan).
class Grid2dIndex {
 public:
  /// `cell_size` <= 0 picks span / sqrt(n) automatically.
  explicit Grid2dIndex(std::vector<GeoPoint> points, double cell_size = 0.0);

  /// Index of the nearest point, or -1 when the set is empty or the query
  /// is not finite.
  int32_t Nearest(const GeoPoint& query) const;

  std::size_t size() const { return points_.size(); }

 private:
  int64_t CellKey(int ix, int iy) const {
    return (static_cast<int64_t>(ix) << 32) ^
           (static_cast<int64_t>(iy) & 0xffffffffLL);
  }
  int CellIndex(double v) const;

  std::vector<GeoPoint> points_;
  double cell_ = 1.0;
  std::unordered_map<int64_t, std::vector<int32_t>> cells_;
  int min_ix_ = 0, max_ix_ = 0, min_iy_ = 0, max_iy_ = 0;
};

}  // namespace actor

#endif  // ACTOR_HOTSPOT_GRID_INDEX_H_
