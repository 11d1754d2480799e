// Planner/replay throughput micro-benchmark for the parallel DelayStage
// planner. Times DelayCalculator::compute() on the four §5 workloads at
// 1/4/8 threads, and the trace replay's per-job planning fan-out, then
// writes the numbers to BENCH_planner.json (consumed by
// tools/check_bench.py, which fails on >20% regressions vs the committed
// baseline).
//
// It also reproduces Fig. 15 / §5.4, Alg. 1's runtime overhead: the
// threads=1 `ms_per_plan` rows are the per-workload strategy times (paper:
// 58 / 76 / 107 / 164 ms on an m4.large), and the informational `fig15`
// array times one plan of a trace-shaped job per stage count, 4..186
// (paper: roughly linear, < 0.2 s under 15 stages).
//
//   ./bench_planner_throughput [output.json]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/delay_calculator.h"
#include "core/profile.h"
#include "sim/cluster.h"
#include "trace/replay.h"
#include "trace/synthetic.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct PlanSample {
  std::string workload;
  int threads = 1;
  double ms_per_plan = 0;
  double evals_per_sec = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t memo_hits = 0;
};

struct StageSweepSample {
  int stages = 0;
  double ms_per_plan = 0;
  std::uint64_t evaluations = 0;
};

struct ReplaySample {
  int threads = 1;
  std::size_t jobs = 0;
  double jobs_per_sec = 0;
  double mean_jct = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ds;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_planner.json";
  const int thread_counts[] = {1, 4, 8};

  // --- Planner: DelayCalculator::compute() per workload and thread count.
  const auto suite = workloads::benchmark_suite();
  const sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
  std::vector<PlanSample> plans;
  for (const auto& w : suite) {
    const core::JobProfile profile = core::JobProfile::from(w.dag, spec);
    std::vector<Seconds> reference_delay;
    for (int threads : thread_counts) {
      core::CalculatorOptions copt;
      copt.threads = threads;
      const core::DelayCalculator calc(profile, copt);
      // Warm-up plan (first-touch allocation of the thread-local scratch
      // arenas), then the timed repetitions.
      core::DelaySchedule sched = calc.compute();
      constexpr int kReps = 5;
      const auto t0 = Clock::now();
      for (int r = 0; r < kReps; ++r) sched = calc.compute();
      const double ms = ms_since(t0) / kReps;

      if (reference_delay.empty()) reference_delay = sched.delay;
      DS_CHECK_MSG(sched.delay == reference_delay,
                   "planner result depends on thread count");

      PlanSample s;
      s.workload = w.name;
      s.threads = threads;
      s.ms_per_plan = ms;
      s.evaluations = sched.evaluations;
      s.memo_hits = sched.memo_hits;
      s.evals_per_sec = 1000.0 * static_cast<double>(sched.evaluations) / ms;
      plans.push_back(s);
    }
  }

  // --- Fig. 15: one plan per trace-shaped job of n stages, planned on the
  // replay's 2-machine per-job sub-cluster with its slot rule.
  std::vector<StageSweepSample> fig15;
  for (int n_stages : {4, 8, 15, 30, 60, 100, 150, 186}) {
    trace::SyntheticTraceOptions topt;
    topt.num_jobs = 1;
    topt.min_stages = n_stages;
    topt.max_stages = n_stages;
    topt.chain_fraction = 0.0;
    topt.seed = static_cast<std::uint64_t>(2018 + n_stages);
    const trace::TraceJob job = trace::synthetic_trace(topt).front();

    sim::ClusterSpec sub = sim::ClusterSpec::paper_simulation();
    sub.num_workers = 2;
    trace::ReferenceRates ref;
    ref.nic_bw = 0.5 * (sub.nic_bw_min + sub.nic_bw_max);
    ref.disk_bw = sub.disk_bw;
    ref.num_workers = sub.num_workers;
    ref.executors = static_cast<double>(sub.total_executors());
    const dag::JobDag dag = trace::to_job_dag(job, ref);
    const core::JobProfile profile = core::JobProfile::from(dag, sub);

    Seconds span = 1.0;
    for (const auto& s : job.stages)
      span += s.read_solo + s.compute_solo + s.write_solo;
    core::CalculatorOptions copt;
    copt.slot = std::max(1.0, span / 150.0);
    copt.step = copt.slot;
    copt.coarse_candidates = 12;
    copt.sweeps = 1;
    const core::DelayCalculator calc(profile, copt);
    const auto t0 = Clock::now();
    const core::DelaySchedule sched = calc.compute();
    fig15.push_back({n_stages, ms_since(t0), sched.evaluations});
  }

  // --- Replay: per-job planning fan-out over a synthetic trace slice.
  trace::SyntheticTraceOptions topt;
  topt.num_jobs = 200;
  topt.seed = 2018;
  const auto jobs = trace::synthetic_trace(topt);
  std::vector<ReplaySample> replays;
  double reference_jct = -1;
  for (int threads : thread_counts) {
    trace::ReplayOptions ropt;
    ropt.strategy = "DelayStage";
    ropt.cluster.num_workers = 40;
    ropt.threads = threads;
    ropt.seed = 7;
    const auto t0 = Clock::now();
    const trace::ReplayResult r = trace::replay(jobs, ropt);
    const double ms = ms_since(t0);

    if (reference_jct < 0) reference_jct = r.mean_jct();
    DS_CHECK_MSG(r.mean_jct() == reference_jct,
                 "replay result depends on thread count");

    ReplaySample s;
    s.threads = threads;
    s.jobs = jobs.size();
    s.jobs_per_sec = 1000.0 * static_cast<double>(jobs.size()) / ms;
    s.mean_jct = r.mean_jct();
    replays.push_back(s);
  }

  // --- Human-readable report.
  std::cout << "=== Planner throughput (DelayCalculator::compute) ===\n";
  TablePrinter pt({"workload", "threads", "ms/plan", "evals", "memo hits",
                   "evals/s"});
  pt.set_precision(1);
  for (const auto& s : plans) {
    pt.add_row({s.workload, static_cast<std::int64_t>(s.threads), s.ms_per_plan,
                static_cast<std::int64_t>(s.evaluations),
                static_cast<std::int64_t>(s.memo_hits), s.evals_per_sec});
  }
  pt.print(std::cout);

  std::cout << "\n=== Fig. 15: Alg. 1 time vs #stages (trace-shaped jobs, "
               "1 thread) ===\n";
  TablePrinter ft({"stages", "ms/plan", "evals"});
  ft.set_precision(1);
  for (const auto& s : fig15)
    ft.add_row({static_cast<std::int64_t>(s.stages), s.ms_per_plan,
                static_cast<std::int64_t>(s.evaluations)});
  ft.print(std::cout);

  std::cout << "\n=== Trace replay throughput (" << jobs.size()
            << " jobs, DelayStage planning per job) ===\n";
  TablePrinter rt({"threads", "jobs/s", "speedup vs 1T"});
  rt.set_precision(2);
  for (const auto& s : replays)
    rt.add_row({static_cast<std::int64_t>(s.threads), s.jobs_per_sec,
                s.jobs_per_sec / replays.front().jobs_per_sec});
  rt.print(std::cout);

  // --- Machine-readable report for tools/check_bench.py.
  std::ofstream json(out_path);
  json.precision(6);
  json << "{\n  \"planner\": [\n";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto& s = plans[i];
    json << "    {\"workload\": \"" << s.workload << "\", \"threads\": "
         << s.threads << ", \"ms_per_plan\": " << s.ms_per_plan
         << ", \"evaluations\": " << s.evaluations
         << ", \"memo_hits\": " << s.memo_hits
         << ", \"evals_per_sec\": " << s.evals_per_sec << "}"
         << (i + 1 < plans.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"fig15\": [\n";
  for (std::size_t i = 0; i < fig15.size(); ++i) {
    const auto& s = fig15[i];
    json << "    {\"stages\": " << s.stages
         << ", \"ms_per_plan\": " << s.ms_per_plan
         << ", \"evaluations\": " << s.evaluations << "}"
         << (i + 1 < fig15.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"replay\": [\n";
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const auto& s = replays[i];
    json << "    {\"threads\": " << s.threads << ", \"jobs\": " << s.jobs
         << ", \"jobs_per_sec\": " << s.jobs_per_sec
         << ", \"mean_jct\": " << s.mean_jct << "}"
         << (i + 1 < replays.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
