// replay — the trace path: trace::replay over a seeded synthetic trace.
//
// The trace (sized from --seconds) is generated from --seed and replayed one
// job per trace::replay call with strategy DelayStage, engine validation on,
// one engine shard and planner threads 1, so each call's host time is that
// job's latency. Job i keeps the per-job seed a whole-trace replay would
// give it (base + i), and engine JCT does not depend on cross-job sharing,
// so the simulated outputs are those of one whole-trace replay.
//
// Traced, every job is replayed again twice with an obs registry: with
// validation off (core.plan_s: planning plus the processor-sharing timeline)
// and on; the difference is engine.validate_s.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.h"
#include "obs/obs.h"
#include "trace/replay.h"
#include "trace/synthetic.h"

namespace dsbench {
namespace {

// Nominal replayed jobs per host second; sizes the trace from --seconds.
constexpr double kJobsPerSecond = 100;
constexpr std::uint64_t kPlanSeed = 1;  // per-job planner/engine seed base
constexpr int kSetupRepeats = 5;
// Job-size clips. Host cost per job grows with stages × tasks, and unclipped
// the largest tenth of the jobs took 60% of the time, so the metrics
// followed which few big jobs a seed drew (see README.md).
constexpr int kMaxStages = 20;
constexpr int kMaxTasks = 100;
// Tail percentile cap: p99 of per-job host time swung 21-43% between seeds.
constexpr double kTailCap = 95;

ds::trace::ReplayOptions replay_options(std::size_t job, bool validate,
                                        ds::obs::Observability* obs) {
  ds::trace::ReplayOptions opt;
  opt.strategy = "DelayStage";
  opt.engine_validate = validate;
  opt.engine_shards = 1;
  opt.threads = 1;
  opt.seed = kPlanSeed + job;
  opt.obs = obs;
  return opt;
}

}  // namespace

Result run_replay(const Args& args) {
  Result r;
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(kJobsPerSecond * args.seconds)));

  ds::trace::SyntheticTraceOptions topt;
  topt.seed = args.seed;
  topt.num_jobs = n;
  topt.max_stages = kMaxStages;
  // Keep the default trace's arrival density (2000 jobs over 8 days).
  topt.horizon = topt.horizon * static_cast<double>(n) / 2000.0;
  std::vector<ds::trace::TraceJob> trace;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    trace = ds::trace::synthetic_trace(topt);
    for (ds::trace::TraceJob& job : trace)
      for (ds::trace::TraceStage& st : job.stages)
        st.num_tasks = std::min(st.num_tasks, kMaxTasks);
    setup_s.push_back(seconds_since(t0));
  }

  Digest inputs, outputs;
  for (const ds::trace::TraceJob& job : trace) {
    inputs.add(job.submit_time);
    for (const ds::trace::TraceStage& st : job.stages) {
      inputs.add_u64(static_cast<std::uint64_t>(st.num_tasks));
      inputs.add(st.read_solo + st.compute_solo + st.write_solo);
    }
  }
  std::vector<double> job_ms, engine_jct;
  double replay_wall = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<ds::trace::TraceJob> job{trace[i]};
    const Clock::time_point t0 = Clock::now();
    const ds::trace::ReplayResult res =
        ds::trace::replay(job, replay_options(i, true, nullptr));
    const double dt = seconds_since(t0);
    replay_wall += dt;
    job_ms.push_back(1e3 * dt);
    r.attempted += 1;
    const ds::trace::ReplayJobResult& j = res.jobs.at(0);
    if (!(j.engine_jct > 0)) r.failed += 1;
    engine_jct.push_back(j.engine_jct);
    outputs.add(j.engine_jct);
    outputs.add(j.dedicated_time);
    outputs.add(j.planned_delay);
  }

  add_digest_notes(inputs, outputs, std::to_string(n) + " jobs", &r);
  r.notes.push_back(tail_note("job latency", job_ms.size(), kTailCap));
  r.notes.push_back(tail_note("engine JCT", engine_jct.size(), kTailCap));

  if (!args.trace) {
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("jobs_per_s", static_cast<double>(n) / replay_wall, "1/s");
    r.add("op_p50_ms", median(job_ms), "ms");
    r.add("op_tail_ms", percentile(job_ms, tail_percentile(job_ms.size(), kTailCap)), "ms");
    r.add("sim_mean_jct_s", mean(engine_jct), "s");
    r.add("sim_tail_jct_s",
          percentile(engine_jct, tail_percentile(engine_jct.size(), kTailCap)), "s");
    return r;
  }

  // Traced pass: validation off, then on, per job.
  ds::obs::Observability obs;
  double plan_s = 0, on_s = 0;
  const Clock::time_point loop0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<ds::trace::TraceJob> job{trace[i]};
    Clock::time_point t0 = Clock::now();
    ds::trace::replay(job, replay_options(i, false, &obs));
    plan_s += seconds_since(t0);
    t0 = Clock::now();
    const ds::trace::ReplayResult res =
        ds::trace::replay(job, replay_options(i, true, &obs));
    on_s += seconds_since(t0);
    if (res.jobs.at(0).engine_jct != engine_jct[i])
      r.fail("replay: traced job " + std::to_string(i) +
             " did not reproduce the untraced engine JCT");
  }
  const double loop_wall = seconds_since(loop0);
  const ds::obs::MetricsRegistry& m = obs.metrics;
  const auto evaluations =
      static_cast<double>(m.find_counter("planner.evaluations").value());
  const auto memo_hits =
      static_cast<double>(m.find_counter("planner.memo_hits").value());
  const double validate_s = on_s - plan_s;
  if (validate_s < 0) r.fail("replay: validation-on replays ran faster than validation-off ones");

  r.add("trace.synth_s", median(setup_s), "s");
  r.add("core.plan_s", plan_s, "s");
  r.add("engine.validate_s", validate_s, "s");
  r.add("core.evaluations", evaluations / 2, "count");  // both traced calls plan
  r.add("core.memo_hit_rate",
        memo_hits + evaluations > 0 ? memo_hits / (memo_hits + evaluations) : 0,
        "ratio");
  r.add("other_s", loop_wall - plan_s - on_s, "s");
  r.add("obs.traced_wall_s", on_s, "s");
  r.add("obs.trace_overhead_pct", 100.0 * (on_s / replay_wall - 1.0), "%");
  std::ostringstream split;
  split << "traced wall " << on_s << " s: planning " << 100 * plan_s / on_s
        << "%, engine validation " << 100 * validate_s / on_s << "%";
  r.notes.push_back(split.str());
  return r;
}

}  // namespace dsbench
