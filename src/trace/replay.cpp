#include "trace/replay.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>

#include "core/evaluator.h"
#include "core/profile.h"
#include "engine/job_run.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ds::trace {

namespace {

core::PathOrder order_for(const std::string& strategy) {
  if (strategy == "random DelayStage") return core::PathOrder::kRandom;
  if (strategy == "ascending DelayStage") return core::PathOrder::kAscending;
  return core::PathOrder::kDescending;
}

bool is_delaystage(const std::string& strategy) {
  return strategy.find("DelayStage") != std::string::npos;
}

struct JobModel {
  Seconds dedicated = 0;   // R_i: completion time on its own sub-cluster
  double exec_demand = 0;  // average executors busy while running dedicated
  double net_demand = 0;   // average bytes/s on the network while running
  double cpu_util = 0;     // exec_demand / sub-cluster executors
  double net_util = 0;
  Seconds planned_delay = 0;  // Σ_k x_k from the planner (0 for stock)
  std::vector<Seconds> delay;  // the planner's X (engine validation reuses it)
  // The evaluator's predicted per-stage timeline under `delay` — what the
  // adaptive pass joins against the engine's measurements to calibrate.
  std::vector<core::StageTimeline> predicted;
  // Correction factors this job planned with (identity unless adaptive).
  core::CalibrationFactors factors;
  // Phase texture for the per-machine view (Fig. 4b): fraction of the run
  // spent fetching over the network, and the typical stage cycle length.
  double read_frac = 0.3;
  Seconds phase_cycle = 60;
};

// The job's own sub-cluster (even partitioning, §5.3) and the reference
// rates that normalize the trace into DAG work volumes on it.
std::pair<sim::ClusterSpec, ReferenceRates> sub_cluster_for(
    const ReplayOptions& opt) {
  sim::ClusterSpec cs = opt.cluster;
  cs.num_workers = std::min(cs.num_workers, opt.machines_per_job);
  ReferenceRates ref;
  ref.nic_bw = 0.5 * (cs.nic_bw_min + cs.nic_bw_max);
  ref.disk_bw = cs.disk_bw;
  ref.num_workers = cs.num_workers;
  ref.executors = static_cast<double>(cs.total_executors());
  ref.tasks_per_node = cs.executors_per_worker;
  return {cs, ref};
}

JobModel model_job(const TraceJob& tj, const ReplayOptions& opt,
                   std::uint64_t seed,
                   const core::CalibrationFactors* factors = nullptr) {
  const auto [cs, ref] = sub_cluster_for(opt);
  const dag::JobDag dag = to_job_dag(tj, ref);
  core::JobProfile profile = core::JobProfile::from(dag, cs);
  // Planner-side model-error injection: the planner believes these scaled
  // figures while the engine executes the unscaled truth. The defaults are
  // exact multiplicative identities, so an unperturbed replay is
  // bit-identical to the pre-adaptive code path.
  profile.cluster.nic_bw *= opt.perturb_network;
  if (profile.cluster.storage_net_bw > 0)
    profile.cluster.storage_net_bw *= opt.perturb_network;
  profile.compute_time_scale /= opt.perturb_compute;
  if (factors != nullptr)
    profile = core::calibrated_profile(profile, *factors);

  // Adapt the slot width to the job's magnitude so every evaluation costs
  // roughly `evaluator_slots` steps regardless of job size.
  Seconds span = 1.0;
  for (const auto& s : tj.stages)
    span += s.read_solo + s.compute_solo + s.write_solo;
  const Seconds slot =
      std::max(1.0, span / static_cast<double>(opt.evaluator_slots));

  std::vector<Seconds> delay;
  if (is_delaystage(opt.strategy)) {
    core::CalculatorOptions copt;
    copt.order = order_for(opt.strategy);
    copt.slot = slot;
    copt.step = slot;
    copt.coarse_candidates = opt.coarse_candidates;
    copt.sweeps = opt.sweeps;
    copt.seed = seed;
    // Parallelism lives at the job fan-out level; each planner runs
    // single-threaded so replay threads compose instead of oversubscribing.
    copt.threads = 1;
    copt.obs = opt.obs;
    delay = core::DelayCalculator(profile, copt).compute().delay;
  }

  const core::ScheduleEvaluator eval(profile, slot);
  core::Evaluation ev = eval.evaluate(delay);
  JobModel m;
  m.dedicated = std::max(ev.jct, slot);
  for (Seconds x : delay) m.planned_delay += x;
  m.delay = std::move(delay);
  m.predicted = std::move(ev.stages);
  if (factors != nullptr) m.factors = *factors;

  const core::PerfModel& pm = eval.model();
  double exec_seconds = 0;
  Bytes read_bytes = 0;
  for (dag::StageId s = 0; s < dag.num_stages(); ++s) {
    exec_seconds += pm.compute_work(s);
    read_bytes += pm.read_work(s);
  }
  m.exec_demand = exec_seconds / m.dedicated;
  m.net_demand = read_bytes / m.dedicated;
  m.cpu_util = std::min(1.0, m.exec_demand / ref.executors);
  m.net_util =
      std::min(1.0, m.net_demand / (ref.num_workers * ref.nic_bw));
  Seconds read_time = 0, all_time = 0;
  for (const auto& s : tj.stages) {
    read_time += s.read_solo;
    all_time += s.read_solo + s.compute_solo + s.write_solo;
  }
  m.read_frac = all_time > 0 ? read_time / all_time : 0.3;
  m.phase_cycle =
      std::max<Seconds>(30.0, m.dedicated /
                                  static_cast<double>(tj.stages.size() + 1));
  return m;
}

}  // namespace

Status validate(const ReplayOptions& options) {
  if (options.machines_per_job < 1)
    return Status::error("ReplayOptions: machines_per_job must be >= 1 "
                         "(every job needs at least one machine)");
  if (options.evaluator_slots < 1)
    return Status::error("ReplayOptions: evaluator_slots must be >= 1");
  if (options.coarse_candidates < 2)
    return Status::error("ReplayOptions: coarse_candidates must be >= 2 "
                         "(need at least the grid ends)");
  if (options.sweeps < 1)
    return Status::error("ReplayOptions: sweeps must be >= 1");
  if (options.engine_shards != 1 && !options.engine_validate &&
      !options.adaptive)
    return Status::error(
        "ReplayOptions: engine_shards is set but engine_validate is off — "
        "no engine runs would use the shards (enable engine_validate, or "
        "leave engine_shards at 1)");
  if (!(options.perturb_network > 0) || !(options.perturb_compute > 0))
    return Status::error("ReplayOptions: perturbation scales must be "
                         "positive (1.0 = accurate profile)");
  return Status::ok();
}

double ReplayResult::mean_jct() const {
  DS_CHECK(!jobs.empty());
  double sum = 0;
  for (const auto& j : jobs) sum += j.jct;
  return sum / static_cast<double>(jobs.size());
}

double ReplayResult::mean_dedicated() const {
  DS_CHECK(!jobs.empty());
  double sum = 0;
  for (const auto& j : jobs) sum += j.dedicated_time;
  return sum / static_cast<double>(jobs.size());
}

double ReplayResult::mean_cpu_util() const { return cluster_cpu.summarize().mean; }
double ReplayResult::mean_net_util() const { return cluster_net.summarize().mean; }

double ReplayResult::mean_job_cpu_util() const {
  double weighted = 0, weight = 0;
  for (const auto& j : jobs) {
    weighted += j.cpu_util * j.dedicated_time;
    weight += j.dedicated_time;
  }
  return weight > 0 ? 100.0 * weighted / weight : 0.0;
}

double ReplayResult::mean_job_net_util() const {
  double weighted = 0, weight = 0;
  for (const auto& j : jobs) {
    weighted += j.net_util * j.dedicated_time;
    weight += j.dedicated_time;
  }
  return weight > 0 ? 100.0 * weighted / weight : 0.0;
}

ReplayResult replay(const std::vector<TraceJob>& jobs,
                    const ReplayOptions& options) {
  DS_CHECK(!jobs.empty());
  {
    const Status st = validate(options);
    DS_CHECK_MSG(st.is_ok(), st.message());
  }

  std::vector<JobModel> models(jobs.size());
  std::vector<Seconds> engine_jcts;
  if (options.adaptive) {
    // 1-adaptive) Closed loop, strictly sequential in arrival order: plan on
    // the workload's calibrated profile, execute through the engine for
    // ground truth, fold the measured phase spans back into the shared
    // calibrator. Sequencing (not the thread count) fixes the observation
    // order, so the result is deterministic for any `threads` setting.
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (jobs[a].submit_time != jobs[b].submit_time)
        return jobs[a].submit_time < jobs[b].submit_time;
      return a < b;
    });
    core::ModelCalibrator calibrator;
    engine_jcts.assign(jobs.size(), 0.0);
    const auto [cs, ref] = sub_cluster_for(options);
    for (std::size_t i : order) {
      const dag::JobDag dag = to_job_dag(jobs[i], ref);
      const std::uint64_t sig = core::workload_signature(dag);
      const core::CalibrationFactors f = calibrator.factors(sig);
      models[i] = model_job(jobs[i], options, options.seed + i, &f);
      sim::Simulator sim;
      sim::Cluster cluster(sim, cs, options.seed + i);
      engine::RunOptions ro;
      ro.seed = options.seed + i;
      ro.plan.delay = models[i].delay;
      engine::JobRun run(cluster, dag, std::move(ro));
      run.start();
      sim.run();
      engine_jcts[i] = run.result().jct;
      calibrator.observe(
          sig, core::observe_timelines(models[i].predicted, run.result()));
    }
  } else {
    // 1) Dedicated-sub-cluster model per job. Jobs are planned independently
    //    (seeded by index, written to per-index slots), so the fan-out across
    //    the pool is bit-identical to the sequential loop for any thread
    //    count.
    ThreadPool pool(options.resolved_threads());
    pool.parallel_for(jobs.size(), [&](std::size_t i) {
      models[i] = model_job(jobs[i], options, options.seed + i);
    });

    // 1b) Engine validation: replay each job's planned schedule through the
    //     real discrete-event engine on its dedicated sub-cluster. Every
    //     index is a self-contained world (own Simulator, Cluster, JobRun)
    //     written to its own slot, so the fan-out across `engine_shards`
    //     workers is bit-identical for any shard count.
    if (options.engine_validate) {
      engine_jcts.assign(jobs.size(), 0.0);
      ThreadPool shards(options.engine_shards);
      shards.parallel_for(jobs.size(), [&](std::size_t i) {
        const auto [cs, ref] = sub_cluster_for(options);
        sim::Simulator sim;
        sim::Cluster cluster(sim, cs, options.seed + i);
        const dag::JobDag dag = to_job_dag(jobs[i], ref);
        engine::RunOptions ro;
        ro.seed = options.seed + i;
        ro.plan.delay = models[i].delay;
        engine::JobRun run(cluster, dag, std::move(ro));
        run.start();
        sim.run();
        engine_jcts[i] = run.result().jct;
      });
    }
  }

  // Whole-cluster capacities for the sharing/utilization accounting.
  const auto& cs = options.cluster;
  const double exec_capacity = static_cast<double>(cs.total_executors());
  const double net_capacity =
      cs.num_workers * 0.5 * (cs.nic_bw_min + cs.nic_bw_max);
  const double cores_per_machine = cs.executors_per_worker;

  // 2) Event timeline. Active jobs all progress at rate 1/D where
  // D = max(1, aggregate demand / capacity): the cluster dilates everyone
  // uniformly only when it is actually saturated.
  struct Arrival {
    Seconds at;
    std::size_t idx;
  };
  std::vector<Arrival> arrivals(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    arrivals[i] = {jobs[i].submit_time, i};
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

  struct Completion {
    Seconds v_target;
    std::size_t idx;
    bool operator>(const Completion& o) const { return v_target > o.v_target; }
  };
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions;

  ReplayResult res;
  res.jobs.resize(jobs.size());
  for (std::size_t i = 0; i < engine_jcts.size(); ++i)
    res.jobs[i].engine_jct = engine_jcts[i];
  std::set<std::size_t> active;
  double sum_exec_demand = 0;
  double sum_net_demand = 0;

  Seconds now = 0;
  Seconds v = 0;  // virtual (dedicated-pace) time
  std::size_t next_arrival = 0;

  auto dilation = [&] {
    return std::max({1.0, sum_exec_demand / exec_capacity,
                     sum_net_demand / net_capacity});
  };

  auto record_sample = [&](Seconds t) {
    const double d = dilation();
    // The demand sums accumulate float residue as jobs come and go.
    const double busy_exec = std::max(0.0, sum_exec_demand) / d;
    const double busy_net = std::max(0.0, sum_net_demand) / d;
    res.cluster_cpu.push(t, 100.0 * busy_exec / exec_capacity);
    res.cluster_net.push(t, 100.0 * busy_net / net_capacity);
    // Representative machine (Fig. 4b): follow one active job. A machine
    // hosting that job's tasks alternates between a fetch phase (network
    // busy, CPU near idle) and a processing phase (CPU near full) — the
    // fully-used-or-idle swing the paper measures on machine m_2077.
    (void)cores_per_machine;
    if (active.empty()) {
      res.machine_cpu.push(t, 0.0);
      res.machine_net.push(t, 0.0);
    } else {
      const JobModel& m = models[*active.begin()];
      const double phase =
          std::fmod(t, m.phase_cycle) / std::max<Seconds>(m.phase_cycle, 1e-9);
      const bool fetching = phase < m.read_frac;
      res.machine_cpu.push(t, fetching ? 4.0 : 95.0);
      res.machine_net.push(t, fetching ? std::min(95.0, 130.0 * m.net_util + 40.0)
                                       : 2.0);
    }
  };

  while (next_arrival < arrivals.size() || !completions.empty()) {
    const double d = dilation();
    Seconds t_completion = -1;
    if (!completions.empty())
      t_completion = now + (completions.top().v_target - v) * d;
    const Seconds t_arrival =
        next_arrival < arrivals.size() ? arrivals[next_arrival].at : -1;

    const bool take_arrival =
        t_arrival >= 0 && (t_completion < 0 || t_arrival <= t_completion);
    const Seconds t_next = take_arrival ? t_arrival : t_completion;
    DS_CHECK_MSG(t_next >= now - 1e-6, "replay time went backwards");

    if (!active.empty()) v += (t_next - now) / d;
    now = std::max(now, t_next);

    if (take_arrival) {
      const std::size_t idx = arrivals[next_arrival++].idx;
      active.insert(idx);
      sum_exec_demand += models[idx].exec_demand;
      sum_net_demand += models[idx].net_demand;
      completions.push({v + models[idx].dedicated, idx});
      res.jobs[idx].submit = now;
    } else {
      const std::size_t idx = completions.top().idx;
      completions.pop();
      active.erase(idx);
      sum_exec_demand -= models[idx].exec_demand;
      sum_net_demand -= models[idx].net_demand;
      auto& jr = res.jobs[idx];
      jr.finish = now;
      jr.jct = now - jobs[idx].submit_time;
      jr.dedicated_time = models[idx].dedicated;
      jr.cpu_util = models[idx].cpu_util;
      jr.net_util = models[idx].net_util;
      jr.planned_delay = models[idx].planned_delay;
      jr.calibration = models[idx].factors;
    }
    record_sample(now);
  }
  return res;
}

}  // namespace ds::trace
