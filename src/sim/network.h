// Fluid network fabric with max-min fair bandwidth sharing.
//
// Every node has a full-duplex NIC (egress and ingress capacities equal to
// its provisioned bandwidth) plus a fast loopback path for node-local reads.
// A remote flow consumes one unit of demand on the source's egress port and
// the destination's ingress port; flow rates are the max-min fair allocation
// over those ports (progressive water-filling), recomputed whenever a flow
// starts or finishes. This yields exactly the equal-share behaviour the
// paper's Eq. (1) assumes when parallel stages contend for a link, plus
// realistic incast when many reducers pull from one upstream node.
//
// Hot-path layout (this fabric is ~90% of engine-run time, so it follows the
// same discipline as the event core): flows live in a slab with an intrusive
// insertion-ordered list (handles are generation-tagged, cancel is O(1) and
// safe on stale ids), the water-filling works out of persistent scratch
// arenas (MaxMinScratch, flat CSR port->flow lists), and port capacities are
// cached between link-scale changes — the steady state allocates nothing per
// flow start/finish/cancel. Flow enumeration order is the insertion order,
// which also makes completion-callback order structurally deterministic
// (the old map-based fabric had to sort by id to get the same guarantee).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "util/units.h"

namespace ds::sim {

using NodeId = int;
using FlowId = std::uint64_t;

struct FlowSpec {
  NodeId src = 0;
  NodeId dst = 0;
  Bytes bytes = 0;
  // Contention group (typically the stage id). Ports serving flows from
  // multiple distinct groups lose aggregate efficiency (see group_penalty).
  // -1 = anonymous: all anonymous flows count as one group.
  int group = -1;
  EventFn on_complete{};
};

// Max-min fair allocation: flow i uses the ports in flow_ports[i] (unused
// entries are -1); caps[p] is port p's capacity. Exposed standalone so tests
// can pin the allocator against hand-computed allocations.
using FlowPorts = std::array<int, 3>;
std::vector<double> max_min_allocate(const std::vector<FlowPorts>& flow_ports,
                                     const std::vector<double>& caps);

// Reusable arenas for the water-filling pass: flat CSR port->flow lists plus
// the per-iteration residual state. Callers that allocate once and reuse
// (the fabric) run the allocator with zero steady-state allocations.
struct MaxMinScratch {
  std::vector<double> rates;      // result, indexed like flow_ports
  std::vector<double> cap_rem;    // residual capacity per port
  std::vector<int> port_count;    // unfrozen flows per port
  std::vector<int> offset;        // CSR offsets (np + 1)
  std::vector<int> cursor;        // CSR fill cursors
  std::vector<int> items;         // CSR flow indices, ascending per port
  std::vector<int> used_ports;    // ports with any flow, ascending
  std::vector<char> frozen;       // per-flow
};

// Same algorithm and floating-point operation order as max_min_allocate,
// but every intermediate lives in `s` (result in s.rates).
void max_min_allocate_into(const std::vector<FlowPorts>& flow_ports,
                           const std::vector<double>& caps, MaxMinScratch& s);

class NetworkFabric {
 public:
  // `nic_bw[n]` is node n's NIC bandwidth (applied to both directions).
  // `loopback_bw` bounds node-local transfers (shared per node, max-min like
  // any other port); it models memory/local-disk read speed, not the NIC.
  //
  // `group_penalty` (β ≥ 0) models the throughput loss real networks and
  // storage servers suffer when *unrelated* transfer sets interleave on one
  // port (TCP incast collapse, interleaved disk service on the shuffle
  // source): a port carrying flows from g distinct groups serves an
  // effective capacity C / (1 + β·(g − 1)). β = 0 restores the ideal
  // work-conserving fabric. This is the non-work-conserving contention the
  // paper's motivation measures (Figs. 4-5) and DelayStage exploits.
  // `site_of[n]` (optional) assigns node n to a geo site; flows between
  // different sites additionally cross a per-site-pair WAN port of capacity
  // `wan_bw` — the geo-distributed setting §6 names as future work.
  // `obs` (optional) receives flow counters and the flow-duration/volume
  // histograms; must outlive the fabric.
  NetworkFabric(Simulator& sim, std::vector<BytesPerSec> nic_bw,
                BytesPerSec loopback_bw, double group_penalty = 0.0,
                std::vector<int> site_of = {}, BytesPerSec wan_bw = 0,
                obs::Observability* obs = nullptr);
  ~NetworkFabric();
  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  FlowId start_flow(FlowSpec spec);
  // Abort a flow without firing its completion callback. Stale or unknown
  // ids (already completed, already cancelled) are a safe no-op.
  void cancel(FlowId id);

  int num_nodes() const { return static_cast<int>(nic_bw_.size()); }
  std::size_t active_flows() const { return num_active_; }
  BytesPerSec nic_bw(NodeId n) const { return nic_bw_.at(static_cast<std::size_t>(n)); }
  // Sum of provisioned access-link bandwidth across all nodes — the fabric's
  // aggregate capacity, used by capacity ledgers (ds::service::ClusterLedger)
  // as the bandwidth budget against which job commitments are charged.
  BytesPerSec total_nic_bw() const {
    BytesPerSec total = 0.0;
    for (BytesPerSec bw : nic_bw_) total += bw;
    return total;
  }

  // Scale node n's access link (egress + ingress) to `factor` × its
  // provisioned bandwidth — the FaultInjector's degradation windows. Active
  // flows are re-allocated immediately; 1.0 restores full capacity.
  void set_node_scale(NodeId n, double factor);
  double node_scale(NodeId n) const {
    return link_scale_.empty() ? 1.0 : link_scale_.at(static_cast<std::size_t>(n));
  }

  // Instantaneous NIC throughput for metrics sampling (remote flows only —
  // loopback traffic never touches the NIC).
  BytesPerSec node_rx_rate(NodeId n) const;
  BytesPerSec node_tx_rate(NodeId n) const;
  // Total bytes delivered over the fabric so far (lazy; call sync() to get
  // an up-to-the-instant figure).
  Bytes total_delivered() const { return delivered_; }
  void sync() { advance_to_now(); }

 private:
  // Slab node: flow state + intrusive list links + handle generation.
  struct Flow {
    NodeId src = 0;
    NodeId dst = 0;
    Bytes remaining = 0;
    int group = -1;
    BytesPerSec rate = 0;
    EventFn on_complete;
    SimTime started = 0;  // for the flow-duration histogram
    std::uint32_t gen = 1;
    std::int32_t prev = -1;
    std::int32_t next = -1;
    bool active = false;
  };

  int egress_port(NodeId n) const { return n; }
  int ingress_port(NodeId n) const { return num_nodes() + n; }
  int loopback_port(NodeId n) const { return 2 * num_nodes() + n; }
  int site_of(NodeId n) const {
    return site_of_.empty() ? 0 : site_of_[static_cast<std::size_t>(n)];
  }
  int wan_port(int src_site, int dst_site) const {
    return 3 * num_nodes() + src_site * num_sites_ + dst_site;
  }
  std::size_t num_ports() const {
    return static_cast<std::size_t>(3 * num_nodes() + num_sites_ * num_sites_);
  }

  // Slot whose (slot, gen) matches `id`, or -1 for stale/unknown handles.
  std::int32_t lookup(FlowId id) const;
  std::int32_t alloc_slot();
  // Unlink + recycle; retires every outstanding handle to the slot.
  void free_slot(std::int32_t slot);

  void advance_to_now();
  void rebuild_caps();
  void reallocate();
  void reschedule();
  void on_completion_event();

  Simulator& sim_;
  std::vector<BytesPerSec> nic_bw_;
  std::vector<double> link_scale_;  // lazily sized; empty = all 1.0
  BytesPerSec loopback_bw_;
  double group_penalty_;
  std::vector<int> site_of_;
  BytesPerSec wan_bw_ = 0;
  int num_sites_ = 1;

  std::vector<Flow> slab_;
  std::vector<std::int32_t> free_slots_;
  std::int32_t head_ = -1;
  std::int32_t tail_ = -1;
  std::size_t num_active_ = 0;

  SimTime last_advance_ = 0;
  EventId pending_event_ = kInvalidEvent;
  Bytes delivered_ = 0;

  // Persistent scratch (see header comment): rebuilt in place every
  // reallocation, never reallocated in steady state.
  std::vector<FlowPorts> sc_ports_;
  std::vector<std::int32_t> sc_slots_;
  std::vector<double> caps_base_;
  bool caps_dirty_ = true;
  std::vector<double> sc_caps_;
  std::vector<int> pg_count_, pg_offset_, pg_cursor_, pg_items_;
  MaxMinScratch mm_;
  std::vector<EventFn> done_scratch_;

  obs::Counter flows_started_;
  obs::Counter flows_completed_;
  obs::Gauge bytes_delivered_;
  obs::Histogram flow_seconds_;
  obs::Histogram flow_bytes_;
};

}  // namespace ds::sim
