#include "data/record.h"

#include <cmath>

namespace actor {

double Distance(const GeoPoint& a, const GeoPoint& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

double HourOfDay(double timestamp) {
  double day_seconds = std::fmod(timestamp, kSecondsPerDay);
  if (day_seconds < 0.0) day_seconds += kSecondsPerDay;
  return day_seconds / 3600.0;
}

double CircularHourDistance(double h1, double h2) {
  double d = std::fabs(h1 - h2);
  d = std::fmod(d, 24.0);
  return d > 12.0 ? 24.0 - d : d;
}

NearestHit NearestPoint(const std::vector<GeoPoint>& points,
                        const GeoPoint& query) {
  NearestHit hit;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = Distance(query, points[i]);
    if (d < hit.distance) hit = {static_cast<int32_t>(i), d};
  }
  return hit;
}

NearestHit NearestHour(const std::vector<double>& hours, double hour) {
  NearestHit hit;
  for (std::size_t i = 0; i < hours.size(); ++i) {
    const double d = CircularHourDistance(hour, hours[i]);
    if (d < hit.distance) hit = {static_cast<int32_t>(i), d};
  }
  return hit;
}

}  // namespace actor
