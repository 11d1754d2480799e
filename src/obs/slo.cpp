#include "obs/slo.h"

#include <cstdlib>
#include <ostream>

#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/json.h"

namespace ds::obs {

namespace {

Status bad_rule(std::string_view text, const char* why) {
  return Status::error("bad SLO rule '" + std::string(text) + "': " + why +
                       " (expected p<quantile>_<metric><=<threshold>, e.g. "
                       "p99_slowdown<=2.5)");
}

}  // namespace

const char* to_string(SloMetric metric) {
  switch (metric) {
    case SloMetric::kJct: return "jct";
    case SloMetric::kSlowdown: return "slowdown";
    case SloMetric::kQueueWait: return "queue_wait";
    case SloMetric::kPlanLatency: return "plan_latency";
  }
  return "?";
}

Status parse_slo_rule(std::string_view text, SloRule* out) {
  DS_CHECK(out != nullptr);
  if (text.empty() || text[0] != 'p') return bad_rule(text, "must start with p");
  const std::size_t underscore = text.find('_');
  if (underscore == std::string_view::npos)
    return bad_rule(text, "missing _ after the quantile");
  const std::string qtext(text.substr(1, underscore - 1));
  char* end = nullptr;
  const double percent = std::strtod(qtext.c_str(), &end);
  if (end == qtext.c_str() || *end != '\0' || percent <= 0 || percent >= 100)
    return bad_rule(text, "quantile must be in (0, 100)");
  const std::size_t le = text.find("<=", underscore);
  if (le == std::string_view::npos) return bad_rule(text, "missing <=");
  const std::string_view metric = text.substr(underscore + 1,
                                              le - underscore - 1);
  SloRule rule;
  if (metric == "jct") {
    rule.metric = SloMetric::kJct;
  } else if (metric == "slowdown") {
    rule.metric = SloMetric::kSlowdown;
  } else if (metric == "queue_wait") {
    rule.metric = SloMetric::kQueueWait;
  } else if (metric == "plan_latency") {
    rule.metric = SloMetric::kPlanLatency;
  } else {
    return bad_rule(text, "unknown metric (jct | slowdown | queue_wait | "
                          "plan_latency)");
  }
  const std::string ttext(text.substr(le + 2));
  end = nullptr;
  const double threshold = std::strtod(ttext.c_str(), &end);
  if (end == ttext.c_str() || *end != '\0' || threshold <= 0)
    return bad_rule(text, "threshold must be a positive number");
  rule.quantile = percent / 100.0;
  rule.threshold = threshold;
  rule.spec = std::string(text);
  *out = std::move(rule);
  return Status::ok();
}

SloTracker::SloTracker(SloOptions opt, Observability* obs,
                       FlightRecorder* flight)
    : opt_(std::move(opt)), flight_(flight) {
  violated_.resize(opt_.rules.size(), false);
  rule_gauges_.reserve(opt_.rules.size());
  for (const SloRule& rule : opt_.rules) {
    DS_CHECK_MSG(rule.quantile > 0 && rule.quantile < 1,
                 "SLO quantile out of range: " << rule.spec);
    DS_CHECK_MSG(rule.threshold > 0,
                 "SLO threshold must be positive: " << rule.spec);
    rule_gauges_.push_back(gauge(obs, "slo." + rule.spec));
  }
  if (!opt_.rules.empty()) m_violations_ = counter(obs, "slo.violations");
}

QuantileSketch& SloTracker::sketch(SloMetric metric, int priority) {
  const auto key = std::make_pair(static_cast<int>(metric), priority);
  auto it = sketches_.find(key);
  if (it == sketches_.end())
    it = sketches_.emplace(key, QuantileSketch(opt_.relative_accuracy)).first;
  return it->second;
}

void SloTracker::observe_queue_wait(int priority, double seconds) {
  sketch(SloMetric::kQueueWait, priority).observe(seconds);
}

void SloTracker::observe_plan_latency(int priority, double seconds) {
  sketch(SloMetric::kPlanLatency, priority).observe(seconds);
}

void SloTracker::observe_finish(int priority, double jct, double slowdown) {
  sketch(SloMetric::kJct, priority).observe(jct);
  sketch(SloMetric::kSlowdown, priority).observe(slowdown);
}

QuantileSketch SloTracker::merged(SloMetric metric) const {
  QuantileSketch out(opt_.relative_accuracy);
  for (const auto& [key, s] : sketches_)
    if (key.first == static_cast<int>(metric)) out.merge(s);
  return out;
}

void SloTracker::evaluate(double t) {
  for (std::size_t i = 0; i < opt_.rules.size(); ++i) {
    const SloRule& rule = opt_.rules[i];
    const QuantileSketch fleet = merged(rule.metric);
    if (fleet.empty()) continue;
    const double value = fleet.quantile(rule.quantile);
    rule_gauges_[i].set(value);
    const bool bad = value > rule.threshold;
    if (bad && !violated_[i]) {
      ++violations_;
      m_violations_.inc();
      if (flight_ != nullptr) {
        FlightRecord r;
        r.t = t;
        r.kind = FlightKind::kSloViolation;
        r.label = flight_->intern(rule.spec);
        r.value = value;
        r.aux = rule.threshold;
        flight_->record(r);
      }
    }
    violated_[i] = bad;
  }
}

bool SloTracker::violated(std::size_t rule_index) const {
  DS_CHECK(rule_index < violated_.size());
  return violated_[rule_index];
}

void SloTracker::write_ndjson(std::ostream& os, double t) const {
  os << "{\"v\": 1, \"ev\": \"slo\", \"t\": " << json::number(t, 12)
     << ", \"violations\": " << violations_ << ", \"rules\": [";
  for (std::size_t i = 0; i < opt_.rules.size(); ++i) {
    const SloRule& rule = opt_.rules[i];
    const QuantileSketch fleet = merged(rule.metric);
    os << (i == 0 ? "" : ", ") << "{\"spec\": ";
    json::write_string(os, rule.spec);
    os << ", \"metric\": \"" << to_string(rule.metric)
       << "\", \"quantile\": " << json::number(rule.quantile, 12)
       << ", \"threshold\": " << json::number(rule.threshold, 12)
       << ", \"count\": " << fleet.count() << ", \"value\": "
       << json::number(fleet.empty() ? 0.0 : fleet.quantile(rule.quantile), 12)
       << ", \"violated\": " << (violated_[i] ? "true" : "false") << '}';
  }
  os << "]}\n";
}

}  // namespace ds::obs
