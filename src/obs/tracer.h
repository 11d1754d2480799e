// Structured span tracer with per-thread ring buffers and Chrome trace_event
// export.
//
// Record calls append one fixed-size TraceEvent to the calling thread's ring
// buffer — no locking, no allocation after the ring is built, and bounded
// memory per thread (the ring wraps, counting what it overwrote in
// dropped()). Disabled tracers (the default) reject every record with one
// branch; callers that resolve their Tracer* through obs::tracer() hold
// nullptr instead and pay nothing at all.
//
// Export (write_chrome_json) merges all rings into one deterministically
// ordered Chrome `trace_event` array loadable by chrome://tracing or
// https://ui.perfetto.dev. Timestamps are microseconds; callers pass seconds
// (sim-time for engine spans, wall-clock via wall_now_s() for planner
// phases — the two live on different pid tracks, see obs.h).
//
// Event names must outlive the tracer: pass string literals, or intern()
// dynamic names (stage names, etc.).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/ring.h"

namespace ds::obs {

struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  char phase = 'i';       // 'X' complete, 'i' instant, 'C' counter
  double ts_us = 0;
  double dur_us = 0;      // 'X' only
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  const char* arg_name = nullptr;  // optional single numeric argument
  double arg_value = 0;
  std::uint64_t seq = 0;  // per-thread record index (stable sort tiebreak)
};

struct TracerOptions {
  bool enabled = false;
  // Events retained per recording thread; older events are overwritten.
  std::size_t ring_capacity = std::size_t{1} << 15;
};

class Tracer {
 public:
  explicit Tracer(TracerOptions opt = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return opt_.enabled; }

  // ts/dur in seconds (converted to µs on record).
  void complete(const char* cat, const char* name, double ts_s, double dur_s,
                std::int32_t pid, std::int32_t tid,
                const char* arg_name = nullptr, double arg_value = 0);
  void instant(const char* cat, const char* name, double ts_s,
               std::int32_t pid, std::int32_t tid,
               const char* arg_name = nullptr, double arg_value = 0);
  // A counter-track sample ('C'): one series per name, value at ts.
  void counter(const char* cat, const char* name, double ts_s,
               std::int32_t pid, double value);

  // Wall-clock seconds since this tracer was constructed (steady clock) —
  // the time base for host-side (planner) spans.
  double wall_now_s() const;

  // Copy a dynamic string into tracer-owned storage and return a pointer
  // valid for the tracer's lifetime. Deduplicates.
  const char* intern(const std::string& s);

  // chrome://tracing metadata: names for the pid/tid tracks.
  void set_process_name(std::int32_t pid, const std::string& name);
  void set_thread_name(std::int32_t pid, std::int32_t tid,
                       const std::string& name);

  // Events currently retained across all rings / overwritten by wraparound.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  // All retained events merged and sorted by (ts, pid, tid, seq) — the order
  // write_chrome_json emits. Deterministic for single-threaded recorders.
  std::vector<TraceEvent> snapshot() const;
  void write_chrome_json(std::ostream& os) const;

 private:
  struct ThreadLog {
    std::thread::id owner;
    Ring<TraceEvent> ring;
  };
  struct Meta {
    std::int32_t pid = 0;
    std::int32_t tid = 0;
    bool thread = false;  // false: process_name, true: thread_name
    std::string name;
  };

  void record(const TraceEvent& ev);
  ThreadLog& local();

  const TracerOptions opt_;
  const std::uint64_t id_;  // globally unique, keys the thread-local cache
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  InternTable interned_;
  std::vector<Meta> meta_;
};

}  // namespace ds::obs
