// Discrete-event simulator driver. Each Simulator instance is single-
// threaded by design — determinism and debuggability matter more here than
// intra-run speedup; cluster-scale throughput comes from running *many*
// independent instances in parallel (ThreadPool::parallel_for, one world per
// index). Callbacks are InlineFunction (see event_queue.h): the steady
// state allocates nothing per event.
#pragma once

#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace ds::sim {

class Simulator {
 public:
  // `obs` (optional) receives the "sim.events" counter; must outlive the
  // simulator. Observability is passive — it never affects event order.
  explicit Simulator(obs::Observability* obs = nullptr)
      : events_counter_(obs::counter(obs, "sim.events")) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule at an absolute time (must be >= now()).
  EventId schedule_at(SimTime t, EventFn fn);
  // Schedule `dt` seconds from now (dt >= 0).
  EventId schedule_after(Seconds dt, EventFn fn);
  void cancel(EventId id);

  // Run until the event queue is empty. Returns the final time.
  SimTime run();
  // Run all events with time <= t, then set now() = t. Returns true if any
  // event fired.
  bool run_until(SimTime t);
  // Fire exactly one event if any is pending.
  bool step();

  std::size_t events_processed() const { return processed_; }
  std::size_t events_pending() const { return queue_.size(); }
  // Time of the earliest pending event; only valid when events_pending() > 0.
  SimTime next_event_time() const { return queue_.next_time(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::size_t processed_ = 0;
  obs::Counter events_counter_;
};

}  // namespace ds::sim
