#include "service/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>

#include "core/evaluator.h"
#include "util/check.h"
#include "util/json.h"

namespace ds {

namespace {

// The scheduler's CommonOptions (threads/seed/obs) govern the whole
// service, including the admission planner inside PlanService.
store::PlanServiceOptions with_common(store::PlanServiceOptions p,
                                      const SchedulerOptions& o) {
  p.calculator.threads = o.threads;
  p.calculator.seed = o.seed;
  p.calculator.obs = o.obs;
  return p;
}

// Nearest-rank percentile of a sorted sample (empty → 0).
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

Status validate(const SchedulerOptions& o) {
  if (o.cluster.num_workers <= 0 || o.cluster.executors_per_worker <= 0)
    return Status::error("cluster needs at least one worker and executor");
  if (!(o.max_share > 0 && o.max_share <= 1.0))
    return Status::error("max_share must be in (0, 1]");
  if (o.min_slots_per_job < 1)
    return Status::error("min_slots_per_job must be >= 1");
  if (o.interference < 0)
    return Status::error("interference must be >= 0");
  if (o.estimate_slot <= 0)
    return Status::error("estimate_slot must be positive");
  for (const obs::SloRule& r : o.slo) {
    if (!(r.quantile > 0 && r.quantile < 1) || !(r.threshold > 0))
      return Status::error("bad SLO rule: " + r.spec);
  }
  if (!(o.slo_accuracy > 0 && o.slo_accuracy < 0.5))
    return Status::error("slo_accuracy must be in (0, 0.5)");
  if (o.telemetry != nullptr) {
    if (o.obs == nullptr)
      return Status::error("telemetry requires an Observability sink");
    if (o.telemetry_period <= 0)
      return Status::error("telemetry_period must be positive");
  }
  if (!(o.task_failure_rate >= 0 && o.task_failure_rate < 1.0))
    return Status::error("task_failure_rate must be in [0, 1)");
  if (o.max_attempts < 1)
    return Status::error("max_attempts must be >= 1");
  if (Status s = core::validate(o.plan.calculator); !s) return s;
  return Status::ok();
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kFinished: return "finished";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

Scheduler::Scheduler(SchedulerOptions options)
    : opt_(std::move(options)),
      cluster_(std::make_unique<sim::Cluster>(sim_, opt_.cluster, opt_.seed,
                                              opt_.obs)),
      ledger_(opt_.cluster.total_executors(),
              [&] {
                BytesPerSec sum = 0;
                for (int w = 0; w < cluster_->num_workers(); ++w)
                  sum += cluster_->nic_bw(cluster_->worker(w));
                return sum;
              }()),
      plans_(with_common(opt_.plan, opt_), opt_.obs),
      m_submitted_(obs::counter(opt_.obs, "sched.submitted")),
      m_admitted_(obs::counter(opt_.obs, "sched.admitted")),
      m_finished_(obs::counter(opt_.obs, "sched.finished")),
      m_failed_(obs::counter(opt_.obs, "sched.failed")),
      m_cache_hits_(obs::counter(opt_.obs, "sched.plan_cache_hits")),
      m_queue_depth_(obs::gauge(opt_.obs, "sched.queue_depth")),
      m_active_jobs_(obs::gauge(opt_.obs, "sched.active_jobs")),
      m_slot_occupancy_(obs::gauge(opt_.obs, "sched.slot_occupancy")),
      m_ledger_slots_busy_(obs::gauge(opt_.obs, "sched.ledger_slots_busy")),
      m_wait_seconds_(obs::histogram(opt_.obs, "sched.wait_seconds")),
      m_jct_seconds_(obs::histogram(opt_.obs, "sched.jct_seconds")),
      m_slowdown_(obs::histogram(opt_.obs, "sched.slowdown")),
      m_plan_wall_(obs::histogram(opt_.obs, "planner.plan_wall_seconds")) {
  if (Status s = validate(opt_); !s) DS_CHECK_MSG(false, s.message());
  mean_worker_bw_ = ledger_.total_bandwidth() / cluster_->num_workers();
  flight_ = obs::flight(opt_.obs);
  slo_ = std::make_unique<obs::SloTracker>(
      obs::SloOptions{opt_.slo, opt_.slo_accuracy}, opt_.obs, flight_);
}

Scheduler::~Scheduler() = default;

service::JobId Scheduler::submit(const dag::JobDag& dag, int priority) {
  return submit_at(sim_.now(), dag, priority);
}

service::JobId Scheduler::submit_at(Seconds arrival, const dag::JobDag& dag,
                                    int priority) {
  auto j = std::make_unique<Job>(Job{JobStatus{}, dag, next_seq_++, 0, {}, {}});
  const service::JobId id = static_cast<service::JobId>(jobs_.size()) + 1;
  j->status.id = id;
  j->status.name = dag.name();
  j->status.priority = priority;
  j->status.arrival = std::max(arrival, sim_.now());

  // Dedicated-cluster baseline (slowdown denominator, SJF key) and the
  // critical-path score, both on the full measured cluster profile.
  core::JobProfile full = core::JobProfile::from_measured(j->dag, *cluster_);
  j->status.dedicated_estimate =
      service::predicted_dedicated_jct(full, opt_.estimate_slot);
  j->critical_path = service::critical_path_time(full);

  jobs_.push_back(std::move(j));
  m_submitted_.inc();
  sim_.schedule_at(job(id).status.arrival, [this, id] { arrive(id); });
  return id;
}

void Scheduler::flight_event(obs::FlightKind kind, service::JobId id,
                             double value, double aux) {
  if (flight_ == nullptr) return;
  obs::FlightRecord r;
  r.t = sim_.now();
  r.kind = kind;
  r.job = id;
  r.priority = job(id).status.priority;
  r.queue_depth = static_cast<double>(queue_.size());
  r.occupancy = ledger_.slot_occupancy();
  r.value = value;
  r.aux = aux;
  flight_->record(r);
}

void Scheduler::arrive(service::JobId id) {
  queue_.push_back(id);
  m_queue_depth_.set(static_cast<double>(queue_.size()));
  flight_event(obs::FlightKind::kSubmit, id,
               job(id).status.dedicated_estimate);
  maybe_start_telemetry();
  try_admit();
}

bool Scheduler::all_terminal() const {
  for (const auto& j : jobs_) {
    if (j->status.state == JobState::kQueued ||
        j->status.state == JobState::kRunning)
      return false;
  }
  return true;
}

void Scheduler::maybe_start_telemetry() {
  if (opt_.telemetry == nullptr || telemetry_running_) return;
  telemetry_running_ = true;
  sim_.schedule_after(opt_.telemetry_period, [this] { telemetry_tick(); });
}

void Scheduler::telemetry_tick() {
  opt_.telemetry->snapshot(*opt_.obs, sim_.now());
  // Keep ticking while any job is live; otherwise stop, so drain()
  // terminates (a later arrival restarts the chain).
  if (all_terminal()) {
    telemetry_running_ = false;
    return;
  }
  sim_.schedule_after(opt_.telemetry_period, [this] { telemetry_tick(); });
}

int Scheduler::effective_priority(const Job& j, Seconds now) const {
  int eff = j.status.priority;
  if (opt_.delay_budget > 0) {
    const Seconds wait = now - j.status.arrival;
    eff -= static_cast<int>(std::floor(wait / opt_.delay_budget));
  }
  return eff;
}

bool Scheduler::urgent(const Job& j, Seconds now) const {
  return opt_.delay_budget > 0 &&
         now - j.status.arrival >= opt_.delay_budget;
}

service::ClusterLedger::Grant Scheduler::size_grant(const Job& j) const {
  int demand = 1;
  for (int s = 0; s < j.dag.num_stages(); ++s)
    demand = std::max(demand, j.dag.stage(s).num_tasks);
  const int total = ledger_.total_slots();
  const int cap = std::max(opt_.min_slots_per_job,
                           static_cast<int>(opt_.max_share * total));
  int slots = std::clamp(demand, opt_.min_slots_per_job, cap);
  slots = std::min(slots, total);  // idle cluster always fits any job

  service::ClusterLedger::Grant g;
  g.slots = slots;
  const int workers = static_cast<int>(std::ceil(
      static_cast<double>(slots) / opt_.cluster.executors_per_worker));
  g.bandwidth = std::min(workers * mean_worker_bw_, ledger_.total_bandwidth());
  return g;
}

void Scheduler::try_admit() {
  const Seconds now = sim_.now();
  bool progress = true;
  while (progress && !queue_.empty()) {
    progress = false;
    // Rank the queue: effective priority class, then the policy score, then
    // arrival order. Sorting ids (stable key set) keeps this deterministic.
    std::vector<service::JobId> order = queue_;
    std::sort(order.begin(), order.end(),
              [&](service::JobId a, service::JobId b) {
                const Job& ja = job(a);
                const Job& jb = job(b);
                const int ea = effective_priority(ja, now);
                const int eb = effective_priority(jb, now);
                if (ea != eb) return ea < eb;
                const double sa =
                    service::policy_score(opt_.policy,
                                          ja.status.dedicated_estimate,
                                          ja.critical_path);
                const double sb =
                    service::policy_score(opt_.policy,
                                          jb.status.dedicated_estimate,
                                          jb.critical_path);
                if (sa != sb) return sa < sb;
                return ja.seq < jb.seq;
              });
    for (service::JobId id : order) {
      const auto grant = size_grant(job(id));
      if (ledger_.fits(grant)) {
        admit(id, grant);
        progress = true;  // capacity changed; re-rank and rescan
        break;
      }
      // Head job does not fit. Backfill past it — unless it has aged a full
      // budget quantum, in which case the cluster drains for it.
      if (urgent(job(id), now)) return;
    }
  }
}

core::JobProfile Scheduler::residual_profile(
    const Job& j, const service::ClusterLedger::Grant& g) const {
  core::JobProfile p = core::JobProfile::from_measured(j.dag, *cluster_);
  const int workers = std::clamp(
      static_cast<int>(std::ceil(static_cast<double>(g.slots) /
                                 opt_.cluster.executors_per_worker)),
      1, cluster_->num_workers());
  p.cluster.num_workers = workers;
  // Occupancy discount: the share of worker bandwidth other jobs have
  // committed is (mostly) unavailable, so the planner's f_w_τ(X) factors
  // operate on the residual link capacity. Floored well above zero — even a
  // saturated ledger leaves some capacity (commitments are admission-time
  // grants, not instantaneous usage).
  const double factor = std::max(
      0.05, 1.0 - opt_.interference * ledger_.bandwidth_occupancy());
  p.cluster.nic_bw *= factor;
  p.cluster.storage_net_bw *= factor;
  return p;
}

void Scheduler::admit(service::JobId id, const service::ClusterLedger::Grant& g) {
  Job& j = job(id);
  const Seconds now = sim_.now();
  const Seconds wait = now - j.status.arrival;

  engine::RunOptions run;
  run.seed = opt_.seed + id;
  run.obs = opt_.obs;
  run.flight_job_id = id;
  run.task_failure_rate = opt_.task_failure_rate;
  run.max_attempts = opt_.max_attempts;
  if (opt_.plan_delays) {
    const core::JobProfile residual = residual_profile(j, g);
    const auto plan_started = std::chrono::steady_clock::now();
    auto planned = plans_.plan(j.dag, residual);
    const double plan_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      plan_started)
            .count();
    m_plan_wall_.observe(plan_wall);
    slo_->observe_plan_latency(j.status.priority, plan_wall);
    j.plan = planned.plan;
    j.status.plan_cache_hit = planned.cache_hit;
    if (planned.cache_hit) m_cache_hits_.inc();
    run.plan.delay = planned.plan->delay;
    // Delay-budget rebalancing: a job that queued long has already been
    // staggered relative to the fleet — shrink its planned delays so it
    // does not pay twice.
    if (opt_.delay_budget > 0 && wait > 0) {
      const double scale = std::max(0.0, 1.0 - wait / opt_.delay_budget);
      for (Seconds& d : run.plan.delay) d *= scale;
    }
    for (Seconds d : run.plan.delay) j.status.planned_delay += d;
  }
  // Priority classes flow into execution: the executor queue serves lower
  // class values first, so an important job's tasks win contended slots.
  run.plan.priority.assign(static_cast<std::size_t>(j.dag.num_stages()),
                           j.status.priority);
  run.on_finished = [this, id](const engine::JobResult& r) {
    on_job_finished(id, r);
  };

  ledger_.commit(id, g);
  queue_.erase(std::find(queue_.begin(), queue_.end(), id));
  j.status.state = JobState::kRunning;
  j.status.admitted = now;
  j.status.wait = wait;
  j.status.grant = g;

  // Audit trail: admit (how long it queued), grant (what it was promised,
  // and the ledger state after committing), plan (the delay budget chosen
  // and whether the plan cache already had it).
  flight_event(obs::FlightKind::kAdmit, id, wait);
  flight_event(obs::FlightKind::kGrant, id, static_cast<double>(g.slots),
               g.bandwidth);
  if (opt_.plan_delays && flight_ != nullptr) {
    obs::FlightRecord r;
    r.t = now;
    r.kind = obs::FlightKind::kPlan;
    r.job = id;
    r.priority = j.status.priority;
    r.queue_depth = static_cast<double>(queue_.size());
    r.occupancy = ledger_.slot_occupancy();
    r.value = j.status.planned_delay;
    r.cache = j.status.plan_cache_hit ? 1 : 0;
    flight_->record(r);
  }
  slo_->observe_queue_wait(j.status.priority, wait);
  slo_->evaluate(now);

  j.run = std::make_unique<engine::JobRun>(*cluster_, j.dag, std::move(run));
  j.run->start();

  m_admitted_.inc();
  m_wait_seconds_.observe(wait);
  m_queue_depth_.set(static_cast<double>(queue_.size()));
  m_active_jobs_.set(static_cast<double>(ledger_.active_jobs()));
  m_slot_occupancy_.set(ledger_.slot_occupancy());
  m_ledger_slots_busy_.set(static_cast<double>(ledger_.committed_slots()));
}

void Scheduler::on_job_finished(service::JobId id,
                                const engine::JobResult& result) {
  Job& j = job(id);
  const Seconds now = sim_.now();
  j.status.state = result.failed ? JobState::kFailed : JobState::kFinished;
  j.status.finish = now;
  j.status.jct = now - j.status.arrival;
  if (j.status.dedicated_estimate > 0)
    j.status.slowdown = j.status.jct / j.status.dedicated_estimate;

  if (j.plan && !result.failed) plans_.observe(j.dag, *j.plan, result);
  const double released_slots = static_cast<double>(j.status.grant.slots);
  ledger_.release(id);

  if (result.failed) {
    m_failed_.inc();
    flight_event(obs::FlightKind::kFail, id, j.status.jct);
  } else {
    m_finished_.inc();
    m_jct_seconds_.observe(j.status.jct);
    m_slowdown_.observe(j.status.slowdown);
    slo_->observe_finish(j.status.priority, j.status.jct, j.status.slowdown);
    flight_event(obs::FlightKind::kFinish, id, j.status.jct,
                 j.status.slowdown);
  }
  flight_event(obs::FlightKind::kRelease, id, released_slots,
               j.status.grant.bandwidth);
  slo_->evaluate(now);
  m_active_jobs_.set(static_cast<double>(ledger_.active_jobs()));
  m_slot_occupancy_.set(ledger_.slot_occupancy());
  m_ledger_slots_busy_.set(static_cast<double>(ledger_.committed_slots()));

  // Freed capacity: run admission immediately, at this completion's time.
  try_admit();
}

void Scheduler::drain() {
  sim_.run();
  for (const auto& j : jobs_)
    DS_CHECK_MSG(j->status.state == JobState::kFinished ||
                     j->status.state == JobState::kFailed,
                 "job " << j->status.id << " (" << j->status.name
                        << ") not terminal after drain");
}

void Scheduler::run_until(Seconds t) { sim_.run_until(t); }

const JobStatus& Scheduler::poll(service::JobId id) const {
  DS_CHECK_MSG(id >= 1 && id <= jobs_.size(), "unknown job id " << id);
  return job(id).status;
}

FleetStats Scheduler::fleet() const {
  FleetStats f;
  f.submitted = jobs_.size();
  std::vector<double> jcts, slowdowns;
  double wait_sum = 0, jct_sum = 0, slow_sum = 0, delay_sum = 0;
  std::size_t admitted = 0, cache_hits = 0;
  for (const auto& jp : jobs_) {
    const JobStatus& s = jp->status;
    switch (s.state) {
      case JobState::kQueued: ++f.queued; break;
      case JobState::kRunning: ++f.running; break;
      case JobState::kFailed: ++f.failed; break;
      case JobState::kFinished: ++f.finished; break;
    }
    if (s.state == JobState::kQueued) continue;
    ++admitted;
    wait_sum += s.wait;
    f.max_wait = std::max(f.max_wait, s.wait);
    delay_sum += s.planned_delay;
    if (s.plan_cache_hit) ++cache_hits;
    if (s.state == JobState::kFinished) {
      f.makespan = std::max(f.makespan, s.finish);
      jct_sum += s.jct;
      slow_sum += s.slowdown;
      jcts.push_back(s.jct);
      slowdowns.push_back(s.slowdown);
    }
  }
  if (admitted > 0) {
    f.mean_wait = wait_sum / static_cast<double>(admitted);
    f.mean_planned_delay = delay_sum / static_cast<double>(admitted);
    f.plan_cache_hit_rate =
        static_cast<double>(cache_hits) / static_cast<double>(admitted);
  }
  if (f.finished > 0) {
    f.mean_jct = jct_sum / static_cast<double>(f.finished);
    f.mean_slowdown = slow_sum / static_cast<double>(f.finished);
    f.p99_jct = percentile(jcts, 0.99);
    f.p99_slowdown = percentile(slowdowns, 0.99);
  }
  f.peak_slot_occupancy =
      static_cast<double>(ledger_.peak_slots()) / ledger_.total_slots();
  return f;
}

void Scheduler::write_stats(std::ostream& os) const {
  const FleetStats f = fleet();
  os << "{\"v\": 1, \"ev\": \"stats\", \"t\": " << json::number(sim_.now(), 12)
     << ", \"submitted\": " << f.submitted << ", \"queued\": " << f.queued
     << ", \"running\": " << f.running << ", \"finished\": " << f.finished
     << ", \"failed\": " << f.failed
     << ", \"queue_depth\": " << queue_.size()
     << ", \"ledger_slots_busy\": " << ledger_.committed_slots()
     << ", \"slot_occupancy\": " << json::number(ledger_.slot_occupancy(), 12)
     << ", \"bandwidth_occupancy\": "
     << json::number(ledger_.bandwidth_occupancy(), 12)
     << ", \"plan_cache_hit_rate\": " << json::number(f.plan_cache_hit_rate, 12)
     << ", \"mean_wait\": " << json::number(f.mean_wait, 12)
     << ", \"mean_jct\": " << json::number(f.mean_jct, 12)
     << ", \"p99_jct\": " << json::number(f.p99_jct, 12)
     << ", \"mean_slowdown\": " << json::number(f.mean_slowdown, 12)
     << ", \"p99_slowdown\": " << json::number(f.p99_slowdown, 12)
     << ", \"slo_violations\": " << slo_->violations() << "}\n";
  if (!slo_->empty()) slo_->write_ndjson(os, sim_.now());
}

}  // namespace ds
