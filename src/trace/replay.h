// Trace-scale cluster replay (the paper's §5.3 simulation).
//
// The paper states its simplification explicitly: "the resources are evenly
// partitioned among multiple jobs that are concurrently running in the
// cluster". With every resource divided by the number of active jobs J(t),
// a job's internal dynamics are exactly its dedicated-cluster schedule with
// time dilated by J(t) — i.e. the cluster is a processor-sharing server.
// The replay therefore:
//   1. evaluates each job's dedicated-cluster completion time R_i under the
//      chosen strategy (stock/Fuxi: zero delays; DelayStage: Alg. 1), using
//      the same interference-aware evaluator the calculator plans with;
//   2. runs a processor-sharing timeline over the job arrivals, which is
//      O(n log n) because all active jobs progress at the same rate.
// Per-job resource utilizations (work / capacity·R) aggregate into the
// cluster/machine utilization series of Fig. 4 and Table 4.
#pragma once

#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/delay_calculator.h"
#include "metrics/timeseries.h"
#include "sim/cluster.h"
#include "trace/trace.h"
#include "util/status.h"

namespace ds::trace {

// CommonOptions supplies:
//   threads — workers for the per-job planning fan-out (stage 1 of the
//     replay). Each job's model is an independent computation seeded by
//     (seed + index) and written to its own slot, so the result is
//     bit-identical for any thread count. <= 0 = hardware concurrency.
//   seed — base seed; job i plans with seed + i.
//   obs — forwarded into every per-job DelayCalculator.
struct ReplayOptions : CommonOptions {
  // "Fuxi", "DelayStage", "random DelayStage", or "ascending DelayStage".
  std::string strategy = "Fuxi";
  sim::ClusterSpec cluster = sim::ClusterSpec::paper_simulation();
  // Allocation granularity: with resources evenly partitioned among jobs
  // (§5.3), an individual job effectively runs on a sub-cluster of this many
  // machines — which is where its parallel stages contend with one another.
  // The processor-sharing timeline then dilates for cross-job sharing.
  int machines_per_job = 2;
  // Calculator tuning for the DelayStage variants. The slot width adapts to
  // each job's magnitude; these bound the search effort per job.
  int coarse_candidates = 12;
  int sweeps = 1;
  int evaluator_slots = 150;  // target #slots per evaluation
  // Engine validation: additionally run every job's planned schedule through
  // the real discrete-event engine (engine::JobRun) on its dedicated
  // sub-cluster, fanned out across `engine_shards` worker threads (each job
  // is a fully independent simulated world).
  // The engine-measured JCT lands in ReplayJobResult::engine_jct. Results
  // are bit-identical for any shard count, including 1.
  bool engine_validate = false;
  int engine_shards = 1;  // <= 0 = hardware concurrency
  // Adaptive replay: jobs are processed *sequentially in arrival order*;
  // each is planned on its workload's calibrated profile (a shared
  // ModelCalibrator keyed by workload signature), executed through the
  // discrete-event engine for ground truth (engine_jct), and its measured
  // phase spans are folded back into the calibrator — so recurrent jobs
  // plan from observed truth. Deterministic for a fixed seed regardless of
  // the thread count (the adaptive pass never fans out).
  bool adaptive = false;
  // Planner-side model-error injection for the drift ablation: the planner
  // believes network bandwidth is `perturb_network` × and process rates are
  // `perturb_compute` × the truth the engine executes. 1.0 (exact
  // multiplicative identity) = an accurate profile.
  double perturb_network = 1.0;
  double perturb_compute = 1.0;
};

// Validates field combinations (positive machine/slot/candidate counts,
// engine_shards only meaningful under engine_validate or adaptive, sane
// perturbation scales). replay() enforces this (throwing CheckError with
// the same message); CLIs call it up front for a friendly `error: …`.
Status validate(const ReplayOptions& options);

struct ReplayJobResult {
  Seconds submit = 0;
  Seconds finish = 0;
  Seconds jct = 0;            // finish - submit (includes sharing dilation)
  Seconds dedicated_time = 0; // R_i: JCT on a dedicated cluster
  double cpu_util = 0;        // average utilization of the job's share (0..1)
  double net_util = 0;
  // Σ_k x_k the planner injected into this job (0 for stock strategies) —
  // the stagger budget the fleet-level analytics aggregate.
  Seconds planned_delay = 0;
  // Dedicated-sub-cluster JCT measured by the discrete-event engine
  // (ReplayOptions::engine_validate or adaptive; 0 otherwise). Comparing
  // against dedicated_time quantifies the analytic evaluator's model error.
  Seconds engine_jct = 0;
  // Correction factors the planner applied to this job's profile
  // (ReplayOptions::adaptive only; identity otherwise). Watching these
  // converge toward the injected perturbation is the calibration ablation.
  core::CalibrationFactors calibration;
};

struct ReplayResult {
  std::vector<ReplayJobResult> jobs;
  // Cluster-average utilization (percent) sampled at every arrival/finish.
  metrics::TimeSeries cluster_cpu;
  metrics::TimeSeries cluster_net;
  // One representative machine: follows a single active job's utilization
  // (a machine predominantly serves one job's tasks at a time) — Fig. 4(b).
  metrics::TimeSeries machine_cpu;
  metrics::TimeSeries machine_net;

  double mean_jct() const;
  double mean_dedicated() const;  // mean R_i (no cross-job sharing)
  double mean_cpu_util() const;   // percent, cluster-occupancy time average
  double mean_net_util() const;
  // Utilization of the resources actually allocated to jobs (Table 4's
  // "worker running production jobs" view), weighted by job runtime. Unlike
  // the occupancy average, this rises when a strategy packs the same work
  // into a shorter run.
  double mean_job_cpu_util() const;  // percent
  double mean_job_net_util() const;
};

ReplayResult replay(const std::vector<TraceJob>& jobs,
                    const ReplayOptions& options);

}  // namespace ds::trace
