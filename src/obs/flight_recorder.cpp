#include "obs/flight_recorder.h"

#include <atomic>
#include <fstream>
#include <iostream>
#include <ostream>

#include "util/check.h"
#include "util/json.h"

namespace ds::obs {

namespace {

// The recorder registered for crash dumps (at most one per process).
std::atomic<FlightRecorder*> g_crash_recorder{nullptr};

void crash_hook(const std::string& what) {
  if (FlightRecorder* rec = g_crash_recorder.load(std::memory_order_acquire))
    rec->on_anomaly(what.c_str());
}

void write_record(std::ostream& os, const FlightRecord& r) {
  os << "{\"v\": 1, \"seq\": " << r.seq << ", \"t\": " << json::number(r.t, 12)
     << ", \"ev\": \"" << to_string(r.kind) << '"';
  if (r.job != 0) os << ", \"job\": " << r.job;
  if (r.stage >= 0) os << ", \"stage\": " << r.stage;
  os << ", \"priority\": " << r.priority;
  if (r.label != nullptr && r.label[0] != '\0') {
    os << ", \"label\": ";
    json::write_string(os, r.label);
  }
  if (r.queue_depth >= 0)
    os << ", \"queue_depth\": " << json::number(r.queue_depth, 12);
  if (r.occupancy >= 0)
    os << ", \"occupancy\": " << json::number(r.occupancy, 12);
  os << ", \"value\": " << json::number(r.value, 12)
     << ", \"aux\": " << json::number(r.aux, 12);
  if (r.cache >= 0) os << ", \"cache\": \"" << (r.cache ? "hit" : "miss")
                       << '"';
  os << "}\n";
}

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kSubmit: return "submit";
    case FlightKind::kAdmit: return "admit";
    case FlightKind::kGrant: return "grant";
    case FlightKind::kPlan: return "plan";
    case FlightKind::kRunStart: return "run";
    case FlightKind::kStageFinish: return "stage";
    case FlightKind::kReplan: return "replan";
    case FlightKind::kRecovery: return "recovery";
    case FlightKind::kRelease: return "release";
    case FlightKind::kFinish: return "finish";
    case FlightKind::kFail: return "fail";
    case FlightKind::kSloViolation: return "slo_violation";
    case FlightKind::kMark: return "mark";
  }
  return "?";
}

FlightRecorder::FlightRecorder(FlightRecorderOptions opt)
    : opt_(std::move(opt)), ring_(opt_.enabled ? opt_.capacity : 0) {
  DS_CHECK_MSG(!opt_.enabled || opt_.capacity > 0,
               "flight recorder needs capacity >= 1");
}

FlightRecorder::~FlightRecorder() {
  FlightRecorder* expected = this;
  g_crash_recorder.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_acq_rel);
}

void FlightRecorder::record(FlightRecord r) {
  if (!opt_.enabled) return;
  if (r.label == nullptr) r.label = "";
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push(r);
}

const char* FlightRecorder::intern(const std::string& s) {
  return interned_.intern(s);
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.pushed();
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.dropped();
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(ring_.kept());
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(ring_.kept()));
  ring_.append_to(out);
  return out;
}

void FlightRecorder::write_ndjson(std::ostream& os) const {
  for (const FlightRecord& r : snapshot()) write_record(os, r);
}

bool FlightRecorder::dump_now(const char* reason) {
  if (!opt_.enabled || opt_.dump_path.empty()) return false;
  const auto trail = snapshot();
  auto write_all = [&](std::ostream& os) {
    os << "{\"v\": 1, \"ev\": \"dump\", \"reason\": ";
    json::write_string(os, reason != nullptr ? reason : "");
    os << ", \"recorded\": " << recorded() << ", \"dropped\": " << dropped()
       << "}\n";
    for (const FlightRecord& r : trail) write_record(os, r);
  };
  if (opt_.dump_path == "-") {
    write_all(std::cerr);
    return true;
  }
  std::ofstream out(opt_.dump_path);
  if (!out) return false;  // a failed audit dump must not throw
  write_all(out);
  return static_cast<bool>(out);
}

void FlightRecorder::on_anomaly(const char* reason) {
  if (!opt_.enabled) return;
  FlightRecord r;
  r.kind = FlightKind::kMark;
  r.label = intern(std::string("anomaly: ") +
                   (reason != nullptr ? reason : ""));
  record(r);
  dump_now(reason);
}

void install_crash_dump(FlightRecorder* rec) {
  g_crash_recorder.store(rec, std::memory_order_release);
  check_failure_hook() = rec != nullptr ? &crash_hook : nullptr;
}

}  // namespace ds::obs
