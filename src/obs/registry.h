// Lock-cheap metrics registry: counters, gauges and streaming-quantile
// histograms.
//
// Instrumented code resolves *typed handles* once, at construction, and
// updates them on hot paths without a string lookup: a counter or gauge
// update is a single relaxed atomic op, a histogram observation one
// uncontended per-histogram mutex around a QuantileSketch update. The
// registry's own mutex only guards handle creation and export. A
// default-constructed handle is *disabled*: every update is one null-pointer
// branch, which is what every subsystem holds when the caller passed no
// Observability sink (the compiled-in-but-off path measured by
// bench_obs_overhead).
//
// A histogram is a QuantileSketch at its default 1% relative accuracy plus
// an exact running sum: quantile(q) is within a factor (1 ± 0.01) of the
// exact sample quantile inside the sketch's tracked range, and identical
// sample multisets give bit-identical quantiles in any observation order.
// Exact order statistics stay with metrics::Cdf.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/quantile_sketch.h"

namespace ds::obs {

namespace detail {

inline void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct GaugeCell {
  std::atomic<double> value{0.0};
};

struct HistogramCell {
  std::mutex mu;  // guards sketch and sum
  QuantileSketch sketch;
  double sum = 0;

  double mean() const {
    const std::uint64_t n = sketch.count();
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }
};

}  // namespace detail

class MetricsRegistry;

class Counter {
 public:
  Counter() = default;  // disabled: inc() is a no-op
  void inc(std::uint64_t delta = 1) const {
    if (cell_ != nullptr) cell_->value.fetch_add(delta, std::memory_order_relaxed);
  }
  bool enabled() const { return cell_ != nullptr; }
  std::uint64_t value() const {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;  // disabled
  void set(double v) const {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }
  void add(double d) const {
    if (cell_ != nullptr) detail::atomic_add(cell_->value, d);
  }
  bool enabled() const { return cell_ != nullptr; }
  double value() const {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;  // disabled
  void observe(double v) const;
  bool enabled() const { return cell_ != nullptr; }

  std::uint64_t count() const;
  double sum() const;
  double mean() const;
  // q in [0, 1]; the sketch's nearest-rank estimate (0 when empty).
  double quantile(double q) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

// One histogram's derived summary inside a MetricsSnapshot.
struct HistogramStat {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

// A point-in-time copy of every metric, names sorted — what the streaming
// telemetry sink serializes on each cadence tick. Values are read relaxed;
// for the deterministic (sim-event-driven) metrics a snapshot taken at a
// fixed sim time is bit-reproducible.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramStat> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Resolve (creating on first use) the named metric. Handles stay valid for
  // the registry's lifetime; resolving the same name again returns a handle
  // to the same cell.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  // Read-only lookups for export and tests; a missing name yields a disabled
  // handle (value() == 0).
  Counter find_counter(const std::string& name) const;
  Gauge find_gauge(const std::string& name) const;
  Histogram find_histogram(const std::string& name) const;

  // Dump every metric as JSON, names sorted, histograms with count, sum,
  // mean and a 20-point CDF from sketch quantiles. Values are read relaxed:
  // quiesce writers for exact totals.
  void write_json(std::ostream& os) const;

  // Point-in-time copy of every metric (see MetricsSnapshot).
  MetricsSnapshot snapshot() const;

  // Prometheus text exposition (version 0.0.4): dots become underscores,
  // counters get a _total suffix, histograms are summaries with
  // {quantile="0.5"|"0.9"|"0.99"} series plus _sum and _count — ready for a
  // scrape endpoint or promtool.
  void write_prometheus(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

}  // namespace ds::obs
