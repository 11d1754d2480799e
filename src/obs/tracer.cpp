#include "obs/tracer.h"

#include <algorithm>
#include <atomic>
#include <ostream>

#include "util/check.h"
#include "util/json.h"

namespace ds::obs {

namespace {

std::atomic<std::uint64_t> g_tracer_ids{1};

}  // namespace

Tracer::Tracer(TracerOptions opt)
    : opt_(opt),
      id_(g_tracer_ids.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {
  DS_CHECK_MSG(opt_.ring_capacity >= 2, "tracer ring too small");
}

double Tracer::wall_now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Tracer::ThreadLog& Tracer::local() {
  // One cache slot per thread: hits are two loads. A miss (first record from
  // this thread, or the thread last recorded into a different tracer) takes
  // the registry lock once.
  struct Cache {
    std::uint64_t tracer = 0;
    ThreadLog* log = nullptr;
  };
  thread_local Cache cache;
  if (cache.tracer == id_) return *cache.log;
  std::lock_guard<std::mutex> lock(mu_);
  const auto me = std::this_thread::get_id();
  for (const auto& l : logs_) {
    if (l->owner == me) {
      cache = {id_, l.get()};
      return *l;
    }
  }
  logs_.push_back(std::make_unique<ThreadLog>(
      ThreadLog{me, Ring<TraceEvent>(opt_.ring_capacity)}));
  cache = {id_, logs_.back().get()};
  return *cache.log;
}

void Tracer::record(const TraceEvent& ev) { local().ring.push(ev); }

void Tracer::complete(const char* cat, const char* name, double ts_s,
                      double dur_s, std::int32_t pid, std::int32_t tid,
                      const char* arg_name, double arg_value) {
  if (!opt_.enabled) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'X';
  ev.ts_us = ts_s * 1e6;
  ev.dur_us = dur_s * 1e6;
  ev.pid = pid;
  ev.tid = tid;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  record(ev);
}

void Tracer::instant(const char* cat, const char* name, double ts_s,
                     std::int32_t pid, std::int32_t tid, const char* arg_name,
                     double arg_value) {
  if (!opt_.enabled) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'i';
  ev.ts_us = ts_s * 1e6;
  ev.pid = pid;
  ev.tid = tid;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  record(ev);
}

void Tracer::counter(const char* cat, const char* name, double ts_s,
                     std::int32_t pid, double value) {
  if (!opt_.enabled) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'C';
  ev.ts_us = ts_s * 1e6;
  ev.pid = pid;
  ev.tid = 0;
  ev.arg_value = value;
  record(ev);
}

const char* Tracer::intern(const std::string& s) {
  return interned_.intern(s);
}

void Tracer::set_process_name(std::int32_t pid, const std::string& name) {
  if (!opt_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  meta_.push_back(Meta{pid, 0, false, name});
}

void Tracer::set_thread_name(std::int32_t pid, std::int32_t tid,
                             const std::string& name) {
  if (!opt_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  meta_.push_back(Meta{pid, tid, true, name});
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& l : logs_) n += l->ring.kept();
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& l : logs_) n += l->ring.dropped();
  return n;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& l : logs_) l->ring.append_to(out);
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.seq < b.seq;
  });
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  const std::uint64_t dropped_events = dropped();
  std::vector<Meta> meta;
  {
    std::lock_guard<std::mutex> lock(mu_);
    meta = meta_;
  }

  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& m : meta) {
    os << (first ? "\n" : ",\n")
       << R"({"ph":"M","name":")" << (m.thread ? "thread_name" : "process_name")
       << R"(","pid":)" << m.pid << R"(,"tid":)" << m.tid
       << R"(,"args":{"name":)";
    json::write_string(os, m.name.c_str());
    os << "}}";
    first = false;
  }
  for (const auto& ev : events) {
    os << (first ? "\n" : ",\n") << R"({"ph":")" << ev.phase << R"(","name":)";
    json::write_string(os, ev.name);
    os << R"(,"cat":)";
    json::write_string(os, ev.cat[0] != '\0' ? ev.cat : "trace");
    os << R"(,"ts":)";
    os << json::number(ev.ts_us);
    if (ev.phase == 'X') {
      os << R"(,"dur":)";
      os << json::number(ev.dur_us);
    }
    if (ev.phase == 'i') os << R"(,"s":"t")";
    os << R"(,"pid":)" << ev.pid << R"(,"tid":)" << ev.tid;
    if (ev.phase == 'C') {
      os << R"(,"args":{"value":)";
      os << json::number(ev.arg_value);
      os << "}";
    } else if (ev.arg_name != nullptr) {
      os << R"(,"args":{)";
      json::write_string(os, ev.arg_name);
      os << ':';
      os << json::number(ev.arg_value);
      os << '}';
    }
    os << '}';
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":"
     << dropped_events << "}}\n";
}

}  // namespace ds::obs
