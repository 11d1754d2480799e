#include "metrics/cdf.h"

#include <algorithm>

#include "metrics/stats.h"
#include "util/check.h"

namespace ds::metrics {

void Cdf::add(double v) {
  samples_.push_back(v);
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::mean() const {
  DS_CHECK(!samples_.empty());
  double sum = 0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double Cdf::percentile(double p) const {
  DS_CHECK(!samples_.empty());
  ensure_sorted();
  return metrics::percentile(samples_, p);
}

double Cdf::fraction_below(double v) const {
  DS_CHECK(!samples_.empty());
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), v);
  return 100.0 * static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<Cdf::Point> Cdf::points(int n) const {
  DS_CHECK(n >= 2);
  DS_CHECK(!samples_.empty());
  ensure_sorted();
  std::vector<Point> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double p = 100.0 * static_cast<double>(i) / static_cast<double>(n - 1);
    out.push_back(Point{percentile(p), p});
  }
  return out;
}

}  // namespace ds::metrics
