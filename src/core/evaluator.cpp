#include "core/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"
#include "util/thread_pool.h"

namespace ds::core {

namespace {

enum class Phase { kWaiting, kDelayed, kRunning, kDone };

struct StageSim {
  Phase phase = Phase::kWaiting;
  int remaining_parents = 0;
  Seconds submit_at = -1;
  std::uint64_t submit_seq = 0;  // FIFO priority in the executor pool
  Bytes read_total = 0;
  Bytes read_left = 0;
  Seconds compute_total = 0;  // executor-seconds
  Seconds compute_left = 0;
  Bytes write_left = 0;
  double slots = 0;       // executors currently granted to this stage
  double prev_slots = 0;  // last allocation (wave size for release pacing)
  double read_share = 0;  // slots still occupied by fetching tasks
  double par_cap = 0;     // min(T_k, E): usable compute parallelism
  int num_tasks = 0;
  Seconds tail = 0;            // compute time of the largest task
  Seconds min_finish = -1;     // read_done + tail (set when read completes)

  double straggler_quarter = 1;  // straggler^0.25 (read-span inflation)
  Seconds read_done_at = -1;   // drain time inflated to the straggler's read

  // Per-slot progress applied by the last allocation step, kept so the
  // fast-forward path can repeat the identical arithmetic.
  Seconds compute_prog = 0;
  Bytes write_prog = 0;
  bool compute_exec_bound = false;  // prog == slot·execs (not data-gated)

  double read_frac() const {
    return read_total > 0 ? 1.0 - read_left / read_total : 1.0;
  }
  // Still occupying the network: bytes left, or the straggler task's fetch
  // tail still running.
  bool reading(Seconds now) const {
    return read_left > sim::kFluidEps ||
           (read_total > 0 && read_done_at > now + 1e-9);
  }
  // Executor slots this stage wants. The engine releases a slot as each
  // task finishes: with a wave of `prev_slots` tasks in flight, completions
  // begin once one wave's worth of compute is done and ramp linearly until
  // the stage ends. Homogeneous single-wave stages therefore hold all their
  // slots to the very end; multi-wave stages release steadily.
  double demand() const {
    const bool bulk_done = read_left <= sim::kFluidEps &&
                           compute_left <= sim::kFluidEps &&
                           write_left <= sim::kFluidEps;
    if (bulk_done) return 1.0;
    const double t = static_cast<double>(num_tasks);
    if (compute_total <= 0) return t;
    const double frac = 1.0 - compute_left / compute_total;
    const double wave = prev_slots > 0 ? std::min(1.0, prev_slots / t) : 1.0;
    if (frac <= wave || wave >= 1.0) return t;
    const double completed = t * (frac - wave) / (1.0 - wave);
    return std::max(1.0, t - completed);
  }
};

}  // namespace

struct EvalScratch::Impl {
  std::vector<StageSim> ss;
  std::vector<StageTimeline> tl;
  std::vector<dag::StageId> run_order;  // kRunning, sorted by submit_seq
  std::vector<dag::StageId> running_ids;  // kRunning, sorted by stage id
  std::vector<dag::StageId> delayed;    // kDelayed, sorted by stage id
  Seconds jct = -1;
  Seconds parallel_end = -1;
  // March state, persisted across a pause so a scan can snapshot/resume.
  Seconds now = 0;
  Seconds budget = 0;
  int done = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t n_stepped = 0;
  std::uint64_t n_skipped = 0;
};

EvalScratch::EvalScratch() : impl_(std::make_unique<Impl>()) {}
EvalScratch::~EvalScratch() = default;
EvalScratch::EvalScratch(EvalScratch&&) noexcept = default;
EvalScratch& EvalScratch::operator=(EvalScratch&&) noexcept = default;

std::size_t ScoreMemo::VecHash::operator()(
    const std::vector<Seconds>& v) const {
  // FNV-1a over the doubles' bit patterns (delays are produced by identical
  // arithmetic on every thread, so bit equality is the right key equality).
  std::uint64_t h = 1469598103934665603ull;
  for (const Seconds d : v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    h ^= bits;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

std::optional<Score> ScoreMemo::find(const std::vector<Seconds>& delay) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(delay);
  if (it == map_.end()) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void ScoreMemo::insert(std::vector<Seconds> delay, const Score& score) {
  std::lock_guard<std::mutex> lock(mu_);
  map_.emplace(std::move(delay), score);
}

std::size_t ScoreMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

ScheduleEvaluator::ScheduleEvaluator(const JobProfile& profile, Seconds slot,
                                     ModelOptions model)
    : profile_(profile), model_(profile, model), slot_(slot) {
  DS_CHECK_MSG(slot > 0, "slot width must be positive");
  const dag::JobDag& dag = *profile_.dag;
  const auto n = static_cast<std::size_t>(dag.num_stages());

  consts_.resize(n);
  // Safety bound: generous multiple of the fully-serialised schedule
  // (solo_time already includes the straggler tails).
  budget_base_ = 100.0 + 10.0 * slot_;
  for (dag::StageId s = 0; s < dag.num_stages(); ++s) {
    auto& c = consts_[static_cast<std::size_t>(s)];
    c.read_total = model_.read_work(s);
    c.compute_total = model_.compute_work(s);
    c.write_total = model_.write_work(s);
    c.par_cap = model_.usable_executors(s);
    c.num_tasks = dag.stage(s).num_tasks;
    c.tail = model_.straggler_tail(s);
    c.straggler_quarter = std::pow(model_.straggler_factor(s), 0.25);
    c.num_parents = static_cast<int>(dag.parents(s).size());
    c.is_source = dag.parents(s).empty();
    budget_base_ += (model_.solo_time(s) + c.tail) *
                    (2.0 + static_cast<double>(n));
  }
  k_set_ = dag.parallel_stage_set();

  const auto& cl = profile_.cluster;
  cluster_execs_ = cl.total_executors();
  worker_net_ = cl.num_workers * cl.nic_bw;
  storage_net_ =
      cl.num_storage_nodes > 0
          ? (cl.storage_net_bw > 0 ? cl.storage_net_bw
                                   : cl.num_storage_nodes * cl.nic_bw)
          : worker_net_;
  cluster_disk_ = cl.num_workers * cl.disk_bw;
  beta_ = cl.congestion_penalty;
}

void ScheduleEvaluator::init_run(const std::vector<Seconds>& delay,
                                 EvalScratch::Impl& sc) const {
  const dag::JobDag& dag = *profile_.dag;
  const auto n = consts_.size();
  for (Seconds d : delay) DS_CHECK_MSG(d >= 0, "negative delay");
  evals_.fetch_add(1, std::memory_order_relaxed);

  auto delay_for = [&](dag::StageId s) {
    const auto i = static_cast<std::size_t>(s);
    return i < delay.size() ? delay[i] : 0.0;
  };

  sc.tl.assign(n, StageTimeline{});
  sc.ss.assign(n, StageSim{});
  sc.run_order.clear();
  sc.running_ids.clear();
  sc.delayed.clear();
  for (std::size_t i = 0; i < n; ++i) {
    auto& x = sc.ss[i];
    const auto& c = consts_[i];
    x.remaining_parents = c.num_parents;
    x.read_total = c.read_total;
    x.read_left = c.read_total;
    x.compute_total = c.compute_total;
    x.compute_left = c.compute_total;
    x.write_left = c.write_total;
    x.par_cap = c.par_cap;
    x.num_tasks = c.num_tasks;
    x.tail = c.tail;
    x.straggler_quarter = c.straggler_quarter;
  }

  sc.budget = budget_base_;
  for (Seconds d : delay) sc.budget += d;
  sc.now = 0;
  sc.done = 0;
  sc.next_seq = 0;
  sc.n_stepped = 0;
  sc.n_skipped = 0;

  for (dag::StageId s : dag.sources()) {
    // Sources are admitted by the slot loop (FIFO over stage ids), exactly
    // like any other delayed stage whose submit time arrives.
    auto& x = sc.ss[static_cast<std::size_t>(s)];
    sc.tl[static_cast<std::size_t>(s)].ready = 0.0;
    x.submit_at = delay_for(s);
    x.phase = Phase::kDelayed;
    sc.delayed.insert(
        std::upper_bound(sc.delayed.begin(), sc.delayed.end(), s), s);
  }
}

bool ScheduleEvaluator::march(const std::vector<Seconds>& delay,
                              EvalScratch::Impl& sc,
                              dag::StageId pause_k) const {
  const dag::JobDag& dag = *profile_.dag;
  const auto n = consts_.size();

  auto delay_for = [&](dag::StageId s) {
    const auto i = static_cast<std::size_t>(s);
    return i < delay.size() ? delay[i] : 0.0;
  };

  const Seconds budget = sc.budget;
  int done = sc.done;
  const auto total = static_cast<int>(n);

  std::uint64_t next_seq = sc.next_seq;
  auto admit = [&](dag::StageId s, Seconds now) {
    auto& x = sc.ss[static_cast<std::size_t>(s)];
    x.phase = Phase::kRunning;
    x.submit_seq = next_seq++;
    sc.tl[static_cast<std::size_t>(s)].submitted = now;
    sc.run_order.push_back(s);  // seq is monotonic: stays sorted
    sc.running_ids.insert(
        std::upper_bound(sc.running_ids.begin(), sc.running_ids.end(), s), s);
  };
  auto mark_ready = [&](dag::StageId s, Seconds now) {
    auto& x = sc.ss[static_cast<std::size_t>(s)];
    sc.tl[static_cast<std::size_t>(s)].ready = now;
    x.submit_at = now + delay_for(s);
    x.phase = Phase::kDelayed;
    if (x.submit_at <= now + 1e-9) {
      admit(s, now);
    } else {
      sc.delayed.insert(
          std::upper_bound(sc.delayed.begin(), sc.delayed.end(), s), s);
    }
  };

  Seconds now = sc.now;
  std::uint64_t n_stepped = sc.n_stepped, n_skipped = sc.n_skipped;
  while (done < total) {
    if (pause_k >= 0) {
      const auto& px = sc.ss[static_cast<std::size_t>(pause_k)];
      if (px.phase == Phase::kDelayed && px.submit_at <= now + 1e-9) {
        // Park right before step 1 of the boundary that would admit
        // pause_k; the caller snapshots here and resumes with a new barrier.
        sc.now = now;
        sc.done = done;
        sc.next_seq = next_seq;
        sc.n_stepped = n_stepped;
        sc.n_skipped = n_skipped;
        return false;
      }
    }
    DS_CHECK_MSG(now <= budget,
                 "evaluator failed to converge (cycle or zero rate?)");

    // 1) Admit delayed stages whose submission time has arrived. FIFO
    //    priority is submission order (ties: stage id, the order Spark
    //    enqueues ready stages).
    if (!sc.delayed.empty()) {
      auto keep = sc.delayed.begin();
      for (auto it = sc.delayed.begin(); it != sc.delayed.end(); ++it) {
        const dag::StageId s = *it;
        if (sc.ss[static_cast<std::size_t>(s)].submit_at <= now + 1e-9) {
          admit(s, now);
        } else {
          *keep++ = s;
        }
      }
      sc.delayed.erase(keep, sc.delayed.end());
    }

    // 2) Retire finished stages (cascading readiness and zero-work stages).
    //    The scan walks the running stages in ascending id order — the same
    //    visit order as a sweep over every stage id, without paying for the
    //    waiting/done ones. Cascade admissions insert into the sorted list
    //    mid-pass; an insertion shift can only re-present an already-visited
    //    stage (all checks are idempotent at a fixed `now`) or surface a
    //    higher id later in this pass, exactly as the full sweep would, and
    //    `changed` forces another pass whenever a retirement occurred.
    bool changed = true;
    bool any_retired = false;
    while (changed) {
      changed = false;
      for (std::size_t ri = 0; ri < sc.running_ids.size(); ++ri) {
        const dag::StageId s = sc.running_ids[ri];
        auto& x = sc.ss[static_cast<std::size_t>(s)];
        auto& tl = sc.tl[static_cast<std::size_t>(s)];
        if (x.phase != Phase::kRunning) continue;
        if (x.read_left <= sim::kFluidEps && x.read_done_at < 0) {
          // Bytes are drained, but the largest task's fetch outlasts the
          // mean drain. Fair sharing self-corrects (finished flows donate
          // bandwidth to the straggler), so the observed span inflation is
          // roughly the square root of the max task multiplier.
          const Seconds sub = tl.submitted;
          x.read_done_at = sub + x.straggler_quarter * (now - sub);
        }
        if (x.read_left <= sim::kFluidEps && x.read_done_at >= 0 &&
            now + 1e-9 >= x.read_done_at && tl.read_done < 0) {
          tl.read_done = now;
          // The largest task has only just finished fetching; its compute
          // still lies entirely ahead (slowest-worker term of Eq. 2).
          x.min_finish = now + x.tail;
        }
        if (x.compute_left <= sim::kFluidEps && tl.read_done >= 0 &&
            now + 1e-9 >= x.min_finish && tl.compute_done < 0)
          tl.compute_done = now;
        if (tl.read_done >= 0 && x.compute_left <= sim::kFluidEps &&
            now + 1e-9 >= x.min_finish &&
            x.write_left <= sim::kFluidEps) {
          x.phase = Phase::kDone;
          tl.finish = now;
          ++done;
          changed = true;
          any_retired = true;
          for (dag::StageId c : dag.children(s)) {
            auto& cx = sc.ss[static_cast<std::size_t>(c)];
            DS_CHECK(cx.remaining_parents > 0);
            if (--cx.remaining_parents == 0) mark_ready(c, now);
          }
        }
      }
    }
    if (done == total) break;
    if (any_retired) {
      const auto is_done = [&](dag::StageId s) {
        return sc.ss[static_cast<std::size_t>(s)].phase == Phase::kDone;
      };
      sc.run_order.erase(
          std::remove_if(sc.run_order.begin(), sc.run_order.end(), is_done),
          sc.run_order.end());
      sc.running_ids.erase(
          std::remove_if(sc.running_ids.begin(), sc.running_ids.end(),
                         is_done),
          sc.running_ids.end());
    }

    // 3) Allocate executor slots FIFO by submission order: a task holds its
    //    slot through read, compute and write (as in Spark), so an
    //    earlier-submitted stage's queued tasks gate later stages.
    // 4) ... and accumulate the per-flow-weighted bandwidth shares (f_w_τ(X)
    //    at task granularity) in the same pass: every contribution depends
    //    only on the contributing stage's own just-finalised allocation, and
    //    the sums still accumulate in run_order order.
    //    A wave that grows here changes demand() at the next boundary, so
    //    this boundary's allocation cannot be frozen by step 6.
    double free_execs = cluster_execs_;
    double read_tasks = 0, src_read_tasks = 0, write_tasks = 0;
    int read_stages = 0, src_read_stages = 0;
    bool wave_grew = false;
    for (dag::StageId s : sc.run_order) {
      auto& x = sc.ss[static_cast<std::size_t>(s)];
      x.slots = std::min(x.demand(), free_execs);
      if (x.slots > x.prev_slots) {
        x.prev_slots = x.slots;
        wave_grew = true;
      }
      free_execs -= x.slots;
      // Tasks still fetching vs tasks past their read. Tasks pipeline inside
      // a stage: early finishers compute while stragglers keep reading.
      if (x.reading(now)) {
        x.read_share = std::max(std::min(1.0, x.slots),
                                x.slots * (1.0 - x.read_frac()));
        if (x.read_share > 0) {
          read_tasks += x.read_share;
          ++read_stages;
          if (consts_[static_cast<std::size_t>(s)].is_source) {
            src_read_tasks += x.read_share;
            ++src_read_stages;
          }
        }
      } else {
        x.read_share = 0;
      }
      if (x.compute_left <= sim::kFluidEps && x.read_left <= sim::kFluidEps &&
          x.write_left > sim::kFluidEps)
        write_tasks += std::max(1.0, x.slots);
    }
    // Cross-stage contention: g stages interleaving on the network serve
    // only C / (1 + β·ln g) in aggregate (mirrors the fabric).
    const double net_eff =
        read_stages > 1 ? 1.0 / (1.0 + beta_ * std::log(read_stages)) : 1.0;
    const double src_eff =
        src_read_stages > 1
            ? 1.0 / (1.0 + beta_ * std::log(src_read_stages))
            : 1.0;

    // 5) Advance one slot: read, compute (bounded by data already read and
    //    by T/straggler usable parallelism) and write progress concurrently
    //    across a stage's tasks.
    const double sqrt_net_eff = net_eff < 1.0 ? std::sqrt(net_eff) : 1.0;
    for (dag::StageId s : sc.run_order) {
      auto& x = sc.ss[static_cast<std::size_t>(s)];
      x.compute_prog = 0;
      x.write_prog = 0;
      x.compute_exec_bound = false;
      if (x.slots <= 0) continue;  // fully queued behind earlier stages
      if (x.read_left > sim::kFluidEps && x.read_share > 0) {
        BytesPerSec rate = worker_net_ * net_eff * x.read_share / read_tasks;
        if (consts_[static_cast<std::size_t>(s)].is_source)
          rate = std::min(
              rate, storage_net_ * src_eff * x.read_share / src_read_tasks);
        // Per-task NIC ceiling; co-located tasks of other stages interleave
        // on the same NICs, but only part of a task's fan-in crosses
        // contended ports — apply the penalty at half strength here.
        rate = std::min(rate,
                        x.read_share * profile_.cluster.nic_bw * sqrt_net_eff);
        x.read_left = std::max(0.0, x.read_left - slot_ * rate);
      }
      if (x.compute_left > sim::kFluidEps) {
        const double execs =
            std::min(std::max(0.0, x.slots - x.read_share), x.par_cap);
        // Cannot process bytes that have not arrived yet.
        const Seconds computable =
            x.read_frac() * x.compute_total - (x.compute_total - x.compute_left);
        const Seconds cap = slot_ * execs;
        const Seconds prog = std::min(cap, std::max(0.0, computable));
        x.compute_left -= prog;
        x.compute_prog = prog;
        x.compute_exec_bound = cap <= computable;
      } else if (x.read_left <= sim::kFluidEps && x.write_left > sim::kFluidEps) {
        const double writers = std::max(1.0, x.slots);
        const BytesPerSec rate = std::min(cluster_disk_ * writers / write_tasks,
                                          writers * profile_.cluster.disk_bw);
        x.write_left = std::max(0.0, x.write_left - slot_ * rate);
        x.write_prog = slot_ * rate;
      }
    }
    now += slot_;
    ++n_stepped;
    // 6) Fast-forward: count how many upcoming slots provably need no
    //    boundary processing — no admission, no retirement, no timestamp
    //    stamp, no allocation change, no wave growth — and replay the same
    //    per-slot arithmetic for them in a tight loop. Trajectories are
    //    bit-identical to stepping slot by slot; only the O(n) boundary
    //    bookkeeping is skipped. Two regimes qualify:
    //      * no stage has bytes in flight: every stage's progress is a
    //        constant stored in compute_prog / write_prog;
    //      * exactly one stage is draining bytes and no straggler tail holds
    //        network share elsewhere: that reader owns the whole fabric
    //        (read_tasks == its share, net_eff == 1), so its slot update
    //        depends only on its own state and can be re-applied with the
    //        exact step-3/step-5 expressions, while everyone else is in the
    //        constant regime above.
    if (!fast_forward_ || wave_grew) continue;
    int readers = 0;
    dag::StageId reader = -1;
    bool reader_mode_ok = true;
    for (dag::StageId s : sc.run_order) {
      const auto& x = sc.ss[static_cast<std::size_t>(s)];
      if (x.read_left > sim::kFluidEps) {
        ++readers;
        reader = s;
        if (x.slots <= 0) reader_mode_ok = false;  // starved: frozen anyway
      } else if (x.reading(now)) {
        // A drained stage whose straggler fetch still occupies the network:
        // it shares read_tasks with the reader, so the reader's rate would
        // not be a pure function of its own state.
        reader_mode_ok = false;
      }
    }
    if (readers > 1 || (readers == 1 && !reader_mode_ok)) continue;
    // Extra slots that can pass before `barrier` first satisfies
    // "barrier <= boundary + 1e-9" (the retire/admission trigger form).
    auto slots_before = [&](Seconds barrier) -> long {
      const double gap = (barrier - now - 1e-9) / slot_;
      if (gap <= 0) return 0;
      return std::max<long>(0, static_cast<long>(std::ceil(gap - 1e-6)) - 1);
    };
    long skip = static_cast<long>((budget - now) / slot_) + 1;
    bool can_skip = true;
    for (dag::StageId s : sc.delayed) {
      skip = std::min(
          skip, slots_before(sc.ss[static_cast<std::size_t>(s)].submit_at));
    }
    for (dag::StageId s : sc.run_order) {
      if (s == reader) continue;  // self-checked by the tight loop below
      const auto& x = sc.ss[static_cast<std::size_t>(s)];
      const auto& tl = sc.tl[static_cast<std::size_t>(s)];
      if (x.read_left <= sim::kFluidEps && x.read_done_at < 0) {
        can_skip = false;  // drain timestamp assignment due next boundary
        break;
      }
      if (x.write_left <= sim::kFluidEps &&
          (x.write_prog > 0 || (x.compute_prog > 0 &&
                                x.compute_left <= sim::kFluidEps))) {
        // The stage's last bulk work drained during this very slot: at the
        // next boundary its demand collapses to the done-waiting residual
        // (releasing slots to later stages) and it leaves the writer set
        // (raising everyone else's disk share). Neither is representable as
        // a frozen allocation, so the boundary must be processed.
        can_skip = false;
        break;
      }
      if (tl.read_done < 0 && x.read_done_at >= 0)
        skip = std::min(skip, slots_before(x.read_done_at));
      if (x.compute_left > sim::kFluidEps) {
        if (x.compute_prog <= 0) continue;  // starved: frozen state
        if (!x.compute_exec_bound) {
          can_skip = false;  // data-gated: progress shrinks every slot
          break;
        }
        // Stay strictly inside the constant-demand, constant-rate regime:
        // above the fluid epsilon, above the wave-release threshold, and
        // with enough readable data to keep prog == slot·execs.
        const double t = static_cast<double>(x.num_tasks);
        const double wave =
            x.prev_slots > 0 && t > 0 ? std::min(1.0, x.prev_slots / t) : 1.0;
        double bound = sim::kFluidEps;
        if (wave < 1.0 && x.compute_total > 0) {
          const double frac = 1.0 - x.compute_left / x.compute_total;
          if (frac > wave) {
            can_skip = false;  // releasing slots: demand declines every slot
            break;
          }
          bound = std::max(bound, x.compute_total * (1.0 - wave));
        }
        // Data margin: computable = compute_left + A with constant A <= 0
        // while reads are quiescent.
        const Seconds slack =
            (x.read_frac() - 1.0) * x.compute_total + x.compute_left - bound;
        skip = std::min(skip, std::max<long>(
                                  0, static_cast<long>(std::floor(
                                         slack / x.compute_prog - 1e-6))));
      } else if (x.write_left > sim::kFluidEps) {
        // The compute_done stamp can fall due mid-write (min_finish passes
        // while bytes are still flushing); stop at that boundary too.
        if (tl.compute_done < 0 && tl.read_done >= 0)
          skip = std::min(skip, slots_before(x.min_finish));
        if (x.write_prog <= 0) {
          // Zero write progress is only a frozen state when the stage holds
          // no slots. With slots it means compute drained this very slot and
          // the write phase begins next boundary at a yet-unknown rate.
          if (x.slots > 0) {
            can_skip = false;
            break;
          }
          continue;
        }
        skip = std::min(
            skip,
            std::max<long>(0, static_cast<long>(std::floor(
                                  (x.write_left - sim::kFluidEps) /
                                      x.write_prog -
                                  1e-6))));
      } else if (tl.read_done >= 0) {
        // Bulk work done: the only pending event is the min_finish barrier
        // (0 slots if it is already due at the next boundary).
        skip = std::min(skip, slots_before(x.min_finish));
      }
    }
    if (!can_skip || skip <= 0) continue;
    if (readers == 1) {
      // Lone-reader tight loop: re-apply the exact allocation and progress
      // expressions of steps 3 and 5 for the reader, slot by slot, bailing
      // out the moment its own state would change the next boundary's
      // decisions (bytes drained, or multi-wave slot release beginning).
      // With a single reading stage the fabric terms collapse exactly:
      // read_tasks == read_share (a one-element sum) and net_eff == 1.
      auto& x = sc.ss[static_cast<std::size_t>(reader)];
      const bool src = consts_[static_cast<std::size_t>(reader)].is_source;
      const double t = static_cast<double>(x.num_tasks);
      const double wave =
          x.prev_slots > 0 && t > 0 ? std::min(1.0, x.prev_slots / t) : 1.0;
      const double net_eff1 = 1.0, src_eff1 = 1.0;
      long applied = 0;
      while (applied < skip) {
        if (x.compute_total > 0 && wave < 1.0 &&
            1.0 - x.compute_left / x.compute_total > wave)
          break;  // demand() starts declining: allocation changes
        x.read_share = std::max(std::min(1.0, x.slots),
                                x.slots * (1.0 - x.read_frac()));
        const double read_tasks1 = x.read_share;
        BytesPerSec rate =
            worker_net_ * net_eff1 * x.read_share / read_tasks1;
        if (src)
          rate = std::min(rate,
                          storage_net_ * src_eff1 * x.read_share / read_tasks1);
        rate = std::min(rate, x.read_share * profile_.cluster.nic_bw *
                                  std::sqrt(net_eff1));
        x.read_left = std::max(0.0, x.read_left - slot_ * rate);
        if (x.compute_left > sim::kFluidEps) {
          const double execs =
              std::min(std::max(0.0, x.slots - x.read_share), x.par_cap);
          const Seconds computable = x.read_frac() * x.compute_total -
                                     (x.compute_total - x.compute_left);
          const Seconds prog =
              std::min(slot_ * execs, std::max(0.0, computable));
          x.compute_left -= prog;
        }
        now += slot_;
        ++applied;
        if (x.read_left <= sim::kFluidEps) break;  // drain stamp due next
      }
      skip = applied;
    }
    for (dag::StageId s : sc.run_order) {
      if (s == reader) continue;
      auto& x = sc.ss[static_cast<std::size_t>(s)];
      if (x.compute_prog > 0 && x.compute_left > sim::kFluidEps) {
        for (long j = 0; j < skip; ++j) x.compute_left -= x.compute_prog;
      } else if (x.write_prog > 0 && x.write_left > sim::kFluidEps) {
        for (long j = 0; j < skip; ++j)
          x.write_left = std::max(0.0, x.write_left - x.write_prog);
      }
    }
    if (readers == 0) {
      // Accumulate, don't multiply: keeps `now` on the exact same float
      // trajectory as slot-by-slot stepping.
      for (long j = 0; j < skip; ++j) now += slot_;
    }
    n_skipped += static_cast<std::uint64_t>(skip);
  }

  stepped_.fetch_add(n_stepped, std::memory_order_relaxed);
  skipped_.fetch_add(n_skipped, std::memory_order_relaxed);
  sc.now = now;
  sc.done = done;
  sc.next_seq = next_seq;
  sc.n_stepped = 0;
  sc.n_skipped = 0;
  sc.jct = now;
  sc.parallel_end = 0;
  for (dag::StageId s : k_set_)
    sc.parallel_end = std::max(sc.parallel_end,
                               sc.tl[static_cast<std::size_t>(s)].finish);
  return true;
}

void ScheduleEvaluator::run(const std::vector<Seconds>& delay,
                            EvalScratch::Impl& sc) const {
  init_run(delay, sc);
  const bool finished = march(delay, sc, -1);
  DS_CHECK(finished);
}

void ScheduleEvaluator::scan(const std::vector<Seconds>& delay,
                             dag::StageId k, const std::vector<Seconds>& xs,
                             std::vector<Score>& out, ScoreMemo* memo,
                             ThreadPool* pool) const {
  const auto ki = static_cast<std::size_t>(k);
  DS_CHECK(ki < consts_.size());
  out.assign(xs.size(), Score{});

  // Resolve memo hits and split off candidates the incremental path cannot
  // park on (x ≈ 0 admits the stage inside the readiness cascade, before any
  // pause barrier could fire) — those run as plain full evaluations.
  static thread_local EvalScratch plain;
  static thread_local std::vector<Seconds> key;
  std::vector<std::size_t> pending;
  pending.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    DS_CHECK_MSG(i == 0 || xs[i] > xs[i - 1], "scan candidates not ascending");
    if (memo) {
      key = delay;
      key.resize(std::max(key.size(), ki + 1), 0.0);
      key[ki] = xs[i];
      if (const auto cached = memo->find(key)) {
        out[i] = *cached;
        continue;
      }
    }
    if (xs[i] <= 1e-9) {
      key = delay;
      key.resize(std::max(key.size(), ki + 1), 0.0);
      key[ki] = xs[i];
      out[i] = score(key, plain, memo);
      continue;
    }
    pending.push_back(i);
  }
  if (pending.empty()) return;

  // Shared prefix: one base simulation, paused at each candidate's admission
  // boundary in ascending order. A tighter pause barrier only shortens the
  // fast-forward windows of the prefix, and a fully processed boundary is
  // bit-identical to a skipped one, so every snapshot matches the state a
  // fresh evaluation of that candidate would reach.
  std::vector<Seconds> bd = delay;
  bd.resize(std::max(bd.size(), ki + 1), 0.0);
  bd[ki] = xs[pending.front()];
  EvalScratch base;
  auto& bs = *base.impl_;
  init_run(bd, bs);
  std::vector<EvalScratch::Impl> snaps(pending.size());
  for (std::size_t j = 0; j < pending.size(); ++j) {
    const bool finished = march(bd, bs, k);
    DS_CHECK_MSG(!finished, "scan barrier never reached");
    snaps[j] = bs;
    // The prefix's boundary counters are flushed once below; a continuation
    // accounts only for its own suffix.
    snaps[j].n_stepped = 0;
    snaps[j].n_skipped = 0;
    // The full run for candidate j sums its own delay vector into the
    // convergence budget; only the cap differs, never the trajectory.
    snaps[j].budget = bs.budget - xs[pending.front()] + xs[pending[j]];
    if (j + 1 < pending.size()) {
      auto& px = bs.ss[ki];
      px.submit_at = bs.tl[ki].ready + xs[pending[j + 1]];
    }
  }
  stepped_.fetch_add(bs.n_stepped, std::memory_order_relaxed);
  skipped_.fetch_add(bs.n_skipped, std::memory_order_relaxed);

  auto continue_one = [&](std::size_t j) {
    static thread_local EvalScratch work;
    static thread_local std::vector<Seconds> wkey;
    auto& ws = *work.impl_;
    ws = snaps[j];  // copy-assign: reuses the arena's capacity when warm
    evals_.fetch_add(1, std::memory_order_relaxed);
    const bool finished = march(bd, ws, -1);
    DS_CHECK(finished);
    const Score s{ws.parallel_end, ws.jct};
    out[pending[j]] = s;
    if (memo) {
      wkey = delay;
      wkey.resize(std::max(wkey.size(), ki + 1), 0.0);
      wkey[ki] = xs[pending[j]];
      memo->insert(wkey, s);
    }
  };
  if (pool && pending.size() > 1) {
    pool->parallel_for(pending.size(),
                       [&](std::size_t j) { continue_one(j); });
  } else {
    for (std::size_t j = 0; j < pending.size(); ++j) continue_one(j);
  }
}

Evaluation ScheduleEvaluator::evaluate(const std::vector<Seconds>& delay,
                                       EvalScratch& scratch) const {
  run(delay, *scratch.impl_);
  Evaluation ev;
  ev.stages = scratch.impl_->tl;  // copy: the arena stays warm for reuse
  ev.jct = scratch.impl_->jct;
  ev.parallel_end = scratch.impl_->parallel_end;
  return ev;
}

Evaluation ScheduleEvaluator::evaluate(const std::vector<Seconds>& delay) const {
  static thread_local EvalScratch tls;
  return evaluate(delay, tls);
}

Score ScheduleEvaluator::score(const std::vector<Seconds>& delay,
                               EvalScratch& scratch, ScoreMemo* memo) const {
  if (memo) {
    if (const auto cached = memo->find(delay)) return *cached;
  }
  run(delay, *scratch.impl_);
  const Score s{scratch.impl_->parallel_end, scratch.impl_->jct};
  if (memo) memo->insert(delay, s);
  return s;
}

}  // namespace ds::core
