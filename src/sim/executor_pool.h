// Discrete executor slots (the cluster's CPU resource). Spark-style: a fixed
// number of executors per worker; waiting tasks are granted slots FIFO, each
// grant choosing the worker with the most free slots (load-balanced
// placement, which is also what the paper's Fuxi baseline does).
//
// Failure domains: a node can be taken offline (crash_node) — its slots stop
// being granted and any held slots are forfeited wholesale; restore_node
// brings it back empty. Slot holders must stop treating their grants as valid
// before crash_node runs (the FaultInjector notifies engines first).
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "util/inline_function.h"

namespace ds::sim {

using SlotRequestId = std::uint64_t;

// Grant callbacks use the same small-buffer-optimized callable as the event
// core: no per-request allocation as long as captures fit the inline buffer.
using GrantFn = util::InlineFunction<void(NodeId), kEventFnCapacity>;

class ExecutorPool {
 public:
  // `obs` (optional) receives slot request/grant counters, the queue-depth
  // gauge and the slot-wait histogram; must outlive the pool.
  ExecutorPool(Simulator& sim, std::vector<int> slots_per_node,
               obs::Observability* obs = nullptr);

  // Request one slot; `granted(node)` fires (via a zero-delay event) once a
  // slot is available. Waiters are served lowest `priority` first, FIFO
  // within a priority level (Spark's FIFO pool generalised — stage
  // priorities let Graphene-style critical-path-first scheduling reorder the
  // queue). Optionally restrict to a single node with `pinned_node` >= 0.
  SlotRequestId request(GrantFn granted, NodeId pinned_node = -1,
                        int priority = 0);
  // Drop a queued request. No-op if it was already granted or unknown.
  void cancel(SlotRequestId id);

  // Return a slot on `node` previously granted.
  void release(NodeId node);

  // Take `node` offline: its busy count is forfeited (the node is gone, the
  // slots die with it) and no further grants target it. Holders must already
  // have abandoned their grants — release() on an offline node is an error.
  void crash_node(NodeId node);
  // Bring a crashed node back with all slots free.
  void restore_node(NodeId node);
  bool offline(NodeId node) const {
    return offline_.at(static_cast<std::size_t>(node));
  }

  int num_nodes() const { return static_cast<int>(slots_.size()); }
  int slots(NodeId node) const { return slots_.at(static_cast<std::size_t>(node)); }
  int busy(NodeId node) const { return busy_.at(static_cast<std::size_t>(node)); }
  int free_slots(NodeId node) const {
    return offline(node) ? 0 : slots(node) - busy(node);
  }
  int total_slots() const;
  int total_busy() const;
  std::size_t queued() const { return waiters_.size(); }

 private:
  struct Waiter {
    SlotRequestId id;
    GrantFn granted;
    NodeId pinned_node;
    int priority;
    SimTime requested_at;  // for the slot-wait histogram
  };

  void pump();  // grant as many waiters as free slots allow

  Simulator& sim_;
  std::vector<int> slots_;
  std::vector<int> busy_;
  std::vector<bool> offline_;
  std::deque<Waiter> waiters_;
  SlotRequestId next_id_ = 1;
  bool pump_scheduled_ = false;
  std::vector<std::pair<GrantFn, NodeId>> grants_scratch_;
  obs::Counter requests_;
  obs::Counter grants_;
  obs::Gauge queued_gauge_;
  obs::Histogram wait_seconds_;
};

}  // namespace ds::sim
