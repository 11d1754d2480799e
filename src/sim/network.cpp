#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace ds::sim {

namespace {

inline FlowId encode_flow(std::int32_t slot, std::uint32_t gen) {
  // Low word = slot + 1 so a live id can never be 0 (callers use 0 as "no
  // flow", mirroring kInvalidEvent).
  return (static_cast<FlowId>(gen) << 32) |
         (static_cast<std::uint32_t>(slot) + 1);
}

}  // namespace

void max_min_allocate_into(const std::vector<FlowPorts>& flow_ports,
                           const std::vector<double>& caps, MaxMinScratch& s) {
  const std::size_t nf = flow_ports.size();
  const std::size_t np = caps.size();
  s.rates.assign(nf, 0.0);
  if (nf == 0) return;

  s.cap_rem.assign(caps.begin(), caps.end());
  s.port_count.assign(np, 0);
  for (std::size_t f = 0; f < nf; ++f) {
    for (int p : flow_ports[f]) {
      if (p < 0) continue;
      DS_CHECK_MSG(static_cast<std::size_t>(p) < np, "port index out of range");
      ++s.port_count[static_cast<std::size_t>(p)];
    }
  }

  // Flat CSR port->flow lists (flows ascending within each port — the same
  // order the vector-of-vectors built by appending in flow order had).
  s.offset.resize(np + 1);
  s.offset[0] = 0;
  for (std::size_t p = 0; p < np; ++p) s.offset[p + 1] = s.offset[p] + s.port_count[p];
  s.cursor.assign(s.offset.begin(), s.offset.end() - 1);
  s.items.resize(static_cast<std::size_t>(s.offset[np]));
  s.used_ports.clear();
  for (std::size_t p = 0; p < np; ++p) {
    if (s.port_count[p] > 0) s.used_ports.push_back(static_cast<int>(p));
  }
  for (std::size_t f = 0; f < nf; ++f) {
    for (int p : flow_ports[f]) {
      if (p < 0) continue;
      s.items[static_cast<std::size_t>(s.cursor[static_cast<std::size_t>(p)]++)] =
          static_cast<int>(f);
    }
  }

  s.frozen.assign(nf, 0);
  std::size_t remaining = nf;
  while (remaining > 0) {
    // Find the bottleneck port: smallest per-flow share among ports that
    // still carry unfrozen flows. used_ports is ascending, so the scan
    // visits candidates in the same order (and picks the same strict
    // minimum) as a dense 0..np sweep.
    double best_share = std::numeric_limits<double>::infinity();
    int best_port = -1;
    for (int p : s.used_ports) {
      const auto up = static_cast<std::size_t>(p);
      if (s.port_count[up] <= 0) continue;
      const double share = std::max(s.cap_rem[up], 0.0) / s.port_count[up];
      if (share < best_share) {
        best_share = share;
        best_port = p;
      }
    }
    DS_CHECK_MSG(best_port >= 0, "unfrozen flow with no live port");
    // Freeze every unfrozen flow crossing the bottleneck at the bottleneck
    // share and release its demand from all its ports.
    const auto bp = static_cast<std::size_t>(best_port);
    for (int i = s.offset[bp]; i < s.offset[bp + 1]; ++i) {
      const auto f = static_cast<std::size_t>(s.items[static_cast<std::size_t>(i)]);
      if (s.frozen[f]) continue;
      s.frozen[f] = 1;
      s.rates[f] = best_share;
      --remaining;
      for (int p : flow_ports[f]) {
        if (p < 0) continue;
        s.cap_rem[static_cast<std::size_t>(p)] -= best_share;
        --s.port_count[static_cast<std::size_t>(p)];
      }
    }
  }
}

std::vector<double> max_min_allocate(const std::vector<FlowPorts>& flow_ports,
                                     const std::vector<double>& caps) {
  MaxMinScratch s;
  max_min_allocate_into(flow_ports, caps, s);
  return std::move(s.rates);
}

NetworkFabric::NetworkFabric(Simulator& sim, std::vector<BytesPerSec> nic_bw,
                             BytesPerSec loopback_bw, double group_penalty,
                             std::vector<int> site_of, BytesPerSec wan_bw,
                             obs::Observability* obs)
    : sim_(sim),
      nic_bw_(std::move(nic_bw)),
      loopback_bw_(loopback_bw),
      group_penalty_(group_penalty),
      site_of_(std::move(site_of)),
      wan_bw_(wan_bw),
      last_advance_(sim.now()),
      flows_started_(obs::counter(obs, "net.flows_started")),
      flows_completed_(obs::counter(obs, "net.flows_completed")),
      bytes_delivered_(obs::gauge(obs, "net.bytes_delivered")),
      flow_seconds_(obs::histogram(obs, "net.flow_seconds")),
      flow_bytes_(obs::histogram(obs, "net.flow_bytes")) {
  DS_CHECK_MSG(!nic_bw_.empty(), "fabric needs at least one node");
  for (const auto bw : nic_bw_) DS_CHECK_MSG(bw > 0, "non-positive NIC bandwidth");
  DS_CHECK_MSG(loopback_bw_ > 0, "non-positive loopback bandwidth");
  DS_CHECK_MSG(group_penalty_ >= 0, "negative group penalty");
  if (!site_of_.empty()) {
    DS_CHECK_MSG(site_of_.size() == nic_bw_.size(),
                 "site_of must cover every node");
    for (int st : site_of_) {
      DS_CHECK_MSG(st >= 0, "negative site id");
      num_sites_ = std::max(num_sites_, st + 1);
    }
    DS_CHECK_MSG(num_sites_ == 1 || wan_bw_ > 0,
                 "multi-site fabric needs a positive wan_bw");
  }
}

NetworkFabric::~NetworkFabric() {
  if (pending_event_ != kInvalidEvent) sim_.cancel(pending_event_);
}

std::int32_t NetworkFabric::lookup(FlowId id) const {
  const std::uint64_t low = id & 0xffffffffu;
  if (low == 0) return -1;
  const auto slot = static_cast<std::size_t>(low - 1);
  if (slot >= slab_.size()) return -1;
  const Flow& f = slab_[slot];
  if (!f.active || f.gen != static_cast<std::uint32_t>(id >> 32)) return -1;
  return static_cast<std::int32_t>(slot);
}

std::int32_t NetworkFabric::alloc_slot() {
  std::int32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::int32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Flow& f = slab_[static_cast<std::size_t>(slot)];
  f.active = true;
  f.prev = tail_;
  f.next = -1;
  if (tail_ >= 0) {
    slab_[static_cast<std::size_t>(tail_)].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  ++num_active_;
  return slot;
}

void NetworkFabric::free_slot(std::int32_t slot) {
  Flow& f = slab_[static_cast<std::size_t>(slot)];
  if (f.prev >= 0) {
    slab_[static_cast<std::size_t>(f.prev)].next = f.next;
  } else {
    head_ = f.next;
  }
  if (f.next >= 0) {
    slab_[static_cast<std::size_t>(f.next)].prev = f.prev;
  } else {
    tail_ = f.prev;
  }
  f.active = false;
  f.on_complete = nullptr;
  ++f.gen;
  free_slots_.push_back(slot);
  --num_active_;
}

FlowId NetworkFabric::start_flow(FlowSpec spec) {
  DS_CHECK_MSG(spec.src >= 0 && spec.src < num_nodes(), "bad src node");
  DS_CHECK_MSG(spec.dst >= 0 && spec.dst < num_nodes(), "bad dst node");
  DS_CHECK_MSG(spec.bytes >= 0, "negative flow volume");
  advance_to_now();
  const std::int32_t slot = alloc_slot();
  Flow& f = slab_[static_cast<std::size_t>(slot)];
  f.src = spec.src;
  f.dst = spec.dst;
  f.remaining = spec.bytes;
  f.group = spec.group;
  f.rate = 0.0;
  f.on_complete = std::move(spec.on_complete);
  f.started = sim_.now();
  flows_started_.inc();
  flow_bytes_.observe(spec.bytes);
  reallocate();
  reschedule();
  return encode_flow(slot, f.gen);
}

void NetworkFabric::set_node_scale(NodeId n, double factor) {
  DS_CHECK_MSG(n >= 0 && n < num_nodes(), "set_node_scale: bad node");
  DS_CHECK_MSG(factor > 0, "set_node_scale: factor must be positive");
  if (link_scale_.empty()) link_scale_.assign(nic_bw_.size(), 1.0);
  if (link_scale_[static_cast<std::size_t>(n)] == factor) return;
  advance_to_now();
  link_scale_[static_cast<std::size_t>(n)] = factor;
  caps_dirty_ = true;
  reallocate();
  reschedule();
}

void NetworkFabric::cancel(FlowId id) {
  advance_to_now();
  const std::int32_t slot = lookup(id);
  if (slot < 0) return;
  free_slot(slot);
  reallocate();
  reschedule();
}

BytesPerSec NetworkFabric::node_rx_rate(NodeId n) const {
  BytesPerSec sum = 0;
  for (std::int32_t i = head_; i >= 0; i = slab_[static_cast<std::size_t>(i)].next) {
    const Flow& f = slab_[static_cast<std::size_t>(i)];
    if (f.dst == n && f.src != f.dst) sum += f.rate;
  }
  return sum;
}

BytesPerSec NetworkFabric::node_tx_rate(NodeId n) const {
  BytesPerSec sum = 0;
  for (std::int32_t i = head_; i >= 0; i = slab_[static_cast<std::size_t>(i)].next) {
    const Flow& f = slab_[static_cast<std::size_t>(i)];
    if (f.src == n && f.src != f.dst) sum += f.rate;
  }
  return sum;
}

void NetworkFabric::advance_to_now() {
  const SimTime now = sim_.now();
  const Seconds dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0) return;
  for (std::int32_t i = head_; i >= 0; i = slab_[static_cast<std::size_t>(i)].next) {
    Flow& f = slab_[static_cast<std::size_t>(i)];
    const Bytes used = std::min(f.remaining, f.rate * dt);
    f.remaining -= used;
    delivered_ += used;
  }
  bytes_delivered_.set(delivered_);
}

void NetworkFabric::rebuild_caps() {
  const int n = num_nodes();
  caps_base_.assign(num_ports(), 0.0);
  for (int i = 0; i < n; ++i) {
    const double scale =
        link_scale_.empty() ? 1.0 : link_scale_[static_cast<std::size_t>(i)];
    caps_base_[static_cast<std::size_t>(egress_port(i))] =
        nic_bw_[static_cast<std::size_t>(i)] * scale;
    caps_base_[static_cast<std::size_t>(ingress_port(i))] =
        nic_bw_[static_cast<std::size_t>(i)] * scale;
    caps_base_[static_cast<std::size_t>(loopback_port(i))] = loopback_bw_;
  }
  for (int a = 0; a < num_sites_; ++a)
    for (int b = 0; b < num_sites_; ++b)
      caps_base_[static_cast<std::size_t>(wan_port(a, b))] =
          wan_bw_ > 0 ? wan_bw_ : 1.0;
  caps_dirty_ = false;
}

void NetworkFabric::reallocate() {
  if (num_active_ == 0) return;
  sc_ports_.clear();
  sc_slots_.clear();
  for (std::int32_t i = head_; i >= 0; i = slab_[static_cast<std::size_t>(i)].next) {
    const Flow& f = slab_[static_cast<std::size_t>(i)];
    sc_slots_.push_back(i);
    if (f.src == f.dst) {
      sc_ports_.push_back({loopback_port(f.src), -1, -1});
    } else {
      int wan = -1;
      const int ss = site_of(f.src);
      const int ds = site_of(f.dst);
      if (ss != ds) wan = wan_port(ss, ds);
      sc_ports_.push_back({egress_port(f.src), ingress_port(f.dst), wan});
    }
  }
  if (caps_dirty_) rebuild_caps();
  sc_caps_.assign(caps_base_.begin(), caps_base_.end());

  // Cross-group contention: a port interleaving g distinct flow groups
  // (stages) serves only C / (1 + β·(g − 1)).
  if (group_penalty_ > 0) {
    const std::size_t np = sc_caps_.size();
    pg_count_.assign(np, 0);
    for (const FlowPorts& fp : sc_ports_) {
      for (int p : fp) {
        if (p >= 0) ++pg_count_[static_cast<std::size_t>(p)];
      }
    }
    pg_offset_.resize(np + 1);
    pg_offset_[0] = 0;
    for (std::size_t p = 0; p < np; ++p)
      pg_offset_[p + 1] = pg_offset_[p] + pg_count_[p];
    pg_cursor_.assign(pg_offset_.begin(), pg_offset_.end() - 1);
    pg_items_.resize(static_cast<std::size_t>(pg_offset_[np]));
    for (std::size_t fi = 0; fi < sc_ports_.size(); ++fi) {
      const int g = slab_[static_cast<std::size_t>(sc_slots_[fi])].group;
      for (int p : sc_ports_[fi]) {
        if (p >= 0)
          pg_items_[static_cast<std::size_t>(
              pg_cursor_[static_cast<std::size_t>(p)]++)] = g;
      }
    }
    for (std::size_t p = 0; p < np; ++p) {
      if (pg_count_[p] < 2) continue;
      const auto first = pg_items_.begin() + pg_offset_[p];
      const auto last = pg_items_.begin() + pg_offset_[p + 1];
      std::sort(first, last);
      const auto distinct = static_cast<double>(std::unique(first, last) - first);
      // Logarithmic degradation: doubling the number of interleaved stages
      // costs a constant efficiency factor (incast-style collapse saturates
      // rather than growing without bound).
      sc_caps_[p] /= 1.0 + group_penalty_ * std::log(distinct);
    }
  }

  max_min_allocate_into(sc_ports_, sc_caps_, mm_);
  for (std::size_t i = 0; i < sc_slots_.size(); ++i) {
    slab_[static_cast<std::size_t>(sc_slots_[i])].rate = mm_.rates[i];
  }
}

void NetworkFabric::reschedule() {
  if (pending_event_ != kInvalidEvent) {
    sim_.cancel(pending_event_);
    pending_event_ = kInvalidEvent;
  }
  if (num_active_ == 0) return;
  Seconds next = -1;
  for (std::int32_t i = head_; i >= 0; i = slab_[static_cast<std::size_t>(i)].next) {
    const Flow& f = slab_[static_cast<std::size_t>(i)];
    Seconds t;
    if (fluid_done(f.remaining, f.rate)) {
      t = 0.0;
    } else if (f.rate <= 0) {
      continue;  // starved flow; will be reconsidered at the next membership change
    } else {
      t = f.remaining / f.rate;
    }
    if (next < 0 || t < next) next = t;
  }
  if (next < 0) return;
  pending_event_ = sim_.schedule_after(next, [this] {
    pending_event_ = kInvalidEvent;
    on_completion_event();
  });
}

void NetworkFabric::on_completion_event() {
  advance_to_now();
  // Completions fire in flow start order (= the intrusive list order, = the
  // ascending-id order the old map-based fabric sorted into): callback order
  // is structurally deterministic. The scratch vector is detached while
  // callbacks run — they may start new flows, which re-enters the fabric.
  std::vector<EventFn> done = std::move(done_scratch_);
  done.clear();
  for (std::int32_t i = head_; i >= 0;) {
    Flow& f = slab_[static_cast<std::size_t>(i)];
    const std::int32_t next = f.next;
    if (fluid_done(f.remaining, f.rate)) {
      flows_completed_.inc();
      flow_seconds_.observe(sim_.now() - f.started);
      done.push_back(std::move(f.on_complete));
      free_slot(i);
    }
    i = next;
  }
  reallocate();
  reschedule();
  for (EventFn& fn : done) {
    if (fn) fn();
  }
  done.clear();
  done_scratch_ = std::move(done);
}

}  // namespace ds::sim
