#ifndef ACTOR_DATA_RECORD_H_
#define ACTOR_DATA_RECORD_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace actor {

/// A point in the city plane. Coordinates are kilometres relative to the
/// city origin (planar approximation of lat/lon; all generated corpora are
/// metropolitan scale where this is accurate to metres).
struct GeoPoint {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance between two points, in kilometres.
double Distance(const GeoPoint& a, const GeoPoint& b);

/// One raw mobile-data record r = <t, l, W> plus its author and @-mentions
/// (paper §3 and Definition 2). Timestamps are seconds since the corpus
/// epoch.
struct RawRecord {
  int64_t id = 0;
  int64_t user_id = 0;
  double timestamp = 0.0;
  GeoPoint location;
  std::string text;
  std::vector<int64_t> mentioned_user_ids;
};

/// A record after tokenization: `word_ids` index into a Vocabulary.
struct TokenizedRecord {
  int64_t id = 0;
  int64_t user_id = 0;
  double timestamp = 0.0;
  GeoPoint location;
  std::vector<int32_t> word_ids;
  std::vector<int64_t> mentioned_user_ids;
};

/// Seconds in one day; timestamps mod this give time-of-day.
inline constexpr double kSecondsPerDay = 86400.0;

/// Hour-of-day in [0, 24) for a timestamp.
double HourOfDay(double timestamp);

/// Shortest circular distance between two hours-of-day, in hours (<= 12).
double CircularHourDistance(double h1, double h2);

/// Outcome of a nearest-entry scan: the index of the nearest entry and its
/// distance. index is -1 (distance +inf) when no entry lies at a finite
/// distance — an empty set, or a NaN/infinite query.
struct NearestHit {
  int32_t index = -1;
  double distance = std::numeric_limits<double>::infinity();
};

/// Linear scan for the point nearest to `query` (Euclidean, km) — the
/// paper's rule for assigning a new point to a hotspot (§4.3). Ties break
/// toward the smallest index.
NearestHit NearestPoint(const std::vector<GeoPoint>& points,
                        const GeoPoint& query);

/// Linear scan for the hour circularly nearest to `hour` on the 24-hour
/// clock. Ties break toward the smallest index.
NearestHit NearestHour(const std::vector<double>& hours, double hour);

}  // namespace actor

#endif  // ACTOR_DATA_RECORD_H_
