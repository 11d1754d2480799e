#include "obs/registry.h"

#include <ostream>

#include "util/json.h"

namespace ds::obs {

void Histogram::observe(double v) const {
  if (cell_ == nullptr) return;
  std::lock_guard<std::mutex> lock(cell_->mu);
  cell_->sketch.observe(v);
  cell_->sum += v;
}

std::uint64_t Histogram::count() const {
  if (cell_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(cell_->mu);
  return cell_->sketch.count();
}

double Histogram::sum() const {
  if (cell_ == nullptr) return 0.0;
  std::lock_guard<std::mutex> lock(cell_->mu);
  return cell_->sum;
}

double Histogram::mean() const {
  if (cell_ == nullptr) return 0.0;
  std::lock_guard<std::mutex> lock(cell_->mu);
  return cell_->mean();
}

double Histogram::quantile(double q) const {
  if (cell_ == nullptr) return 0.0;
  std::lock_guard<std::mutex> lock(cell_->mu);
  return cell_->sketch.quantile(q);
}

Counter MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = counters_[name];
  if (cell == nullptr) cell = std::make_unique<detail::CounterCell>();
  return Counter(cell.get());
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = gauges_[name];
  if (cell == nullptr) cell = std::make_unique<detail::GaugeCell>();
  return Gauge(cell.get());
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = histograms_[name];
  if (cell == nullptr) cell = std::make_unique<detail::HistogramCell>();
  return Histogram(cell.get());
}

Counter MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? Counter(it->second.get()) : Counter();
}

Gauge MetricsRegistry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? Gauge(it->second.get()) : Gauge();
}

Histogram MetricsRegistry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? Histogram(it->second.get()) : Histogram();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << name
       << "\": " << cell->value.load(std::memory_order_relaxed);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, cell] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": "
       << json::number(cell->value.load(std::memory_order_relaxed));
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, cell] : histograms_) {
    std::lock_guard<std::mutex> cell_lock(cell->mu);
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\n"
       << "      \"count\": " << cell->sketch.count() << ",\n"
       << "      \"sum\": " << json::number(cell->sum) << ",\n"
       << "      \"mean\": " << json::number(cell->mean())
       << ",\n      \"cdf\": [";
    if (!cell->sketch.empty()) {
      constexpr int kPoints = 20;
      for (int i = 0; i < kPoints; ++i) {
        const double q =
            static_cast<double>(i) / static_cast<double>(kPoints - 1);
        os << (i == 0 ? "" : ", ") << "{\"value\": "
           << json::number(cell->sketch.quantile(q)) << ", \"cum_percent\": "
           << json::number(100.0 * q) << '}';
      }
    }
    os << "]\n    }";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_)
    snap.counters.emplace_back(name,
                               cell->value.load(std::memory_order_relaxed));
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_)
    snap.gauges.emplace_back(name,
                             cell->value.load(std::memory_order_relaxed));
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    std::lock_guard<std::mutex> cell_lock(cell->mu);
    HistogramStat stat;
    stat.name = name;
    stat.count = cell->sketch.count();
    stat.sum = cell->sum;
    stat.mean = cell->mean();
    stat.p50 = cell->sketch.quantile(0.50);
    stat.p90 = cell->sketch.quantile(0.90);
    stat.p99 = cell->sketch.quantile(0.99);
    snap.histograms.push_back(std::move(stat));
  }
  return snap;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted names
// map onto underscores ("sched.queue_depth" → "sched_queue_depth").
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, cell] : counters_) {
    const std::string p = prom_name(name) + "_total";
    os << "# TYPE " << p << " counter\n"
       << p << ' ' << cell->value.load(std::memory_order_relaxed) << '\n';
  }
  for (const auto& [name, cell] : gauges_) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " gauge\n"
       << p << ' '
       << json::number(cell->value.load(std::memory_order_relaxed)) << '\n';
  }
  for (const auto& [name, cell] : histograms_) {
    const std::string p = prom_name(name);
    std::lock_guard<std::mutex> cell_lock(cell->mu);
    os << "# TYPE " << p << " summary\n";
    for (double q : {0.5, 0.9, 0.99}) {
      os << p << "{quantile=\"" << json::number(q) << "\"} "
         << json::number(cell->sketch.quantile(q)) << '\n';
    }
    os << p << "_sum " << json::number(cell->sum) << '\n'
       << p << "_count " << cell->sketch.count() << '\n';
  }
}

}  // namespace ds::obs
