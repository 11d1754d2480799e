// Empirical CDF: accumulate samples, query percentiles, and emit the
// (value, cumulative %) rows the paper's CDF figures (2, 3, 14) plot.
#pragma once

#include <vector>

namespace ds::metrics {

class Cdf {
 public:
  void add(double v);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  // Value at percentile p (0..100).
  double percentile(double p) const;
  // Fraction of samples <= v, in percent.
  double fraction_below(double v) const;

  struct Point {
    double value;
    double cum_percent;
  };
  // `n` evenly spaced points in percentile space (plus the 100% point).
  std::vector<Point> points(int n = 20) const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace ds::metrics
