// fleet — the `sched` path: Poisson job streams through ds::Scheduler.
//
// A run is a fixed number of independent streams (sized from --seconds).
// Each stream submits kJobsPerStream jobs of workloads::benchmark_suite(0.5)
// with Poisson arrivals at kRate on the paper prototype cluster (DelayStage
// planning, FIFO, planner threads 1) and runs them to completion. The
// stream's arrivals and job order come from --seed; the cluster, including
// its seeded NIC draw, is fixed.
//
// Untraced, the benchmark steps the simulator itself instead of calling
// drain() (drain() is exactly that loop) so it can time each simulator
// event: the event is fleet's unit of host work ("op"). Traced, the same
// stream runs again with an obs registry (counters only) and every step is
// classified by the public counter it moved.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "bench.h"
#include "obs/obs.h"
#include "service/arrivals.h"
#include "service/scheduler.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace dsbench {
namespace {

constexpr int kJobsPerStream = 12;
constexpr double kRate = 1.0 / 250;  // jobs per simulated second
constexpr double kScale = 0.5;
// Nominal host seconds per stream; sizes the run from --seconds.
constexpr double kStreamSeconds = 3.3;
constexpr std::uint64_t kClusterSeed = 1;
constexpr int kSetupRepeats = 5;

std::uint64_t stream_seed(std::uint64_t seed, int stream) {
  ds::Rng rng(seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(stream + 1)));
  return rng.next_u64();
}

struct Stream {
  std::vector<ds::workloads::Workload> suite;
  std::unique_ptr<ds::Scheduler> sched;
  std::vector<std::string> job_names;  // input record for the digest
  std::vector<double> arrivals;
};

// Everything before the timed phase: inputs, scheduler, submissions.
Stream build_stream(std::uint64_t seed, int stream, ds::obs::Observability* obs) {
  Stream s;
  s.suite = ds::workloads::benchmark_suite(kScale);
  const std::uint64_t sub = stream_seed(seed, stream);
  s.arrivals = ds::service::poisson_arrivals(kJobsPerStream, kRate, sub);
  ds::Rng rng(sub ^ 0x6a6f62u);
  ds::SchedulerOptions opt;
  opt.seed = kClusterSeed;
  opt.threads = 1;
  opt.obs = obs;
  s.sched = std::make_unique<ds::Scheduler>(opt);
  // Balanced mix: every block of four arrivals is a seeded permutation of
  // the four suite workloads.
  std::vector<std::size_t> order;
  for (int i = 0; i < kJobsPerStream; ++i) {
    if (i % 4 == 0) {
      order = {0, 1, 2, 3};
      for (std::size_t k = 3; k > 0; --k)
        std::swap(order[k], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(k)))]);
    }
    const auto& w = s.suite[order[static_cast<std::size_t>(i % 4)]];
    s.job_names.push_back(w.name);
    s.sched->submit_at(s.arrivals[static_cast<std::size_t>(i)], w.dag);
  }
  return s;
}

struct Outcome {
  double wall = 0;
  std::vector<double> engine_jct;
  std::vector<double> slowdown;
  std::size_t finished = 0;
  std::size_t submitted = 0;
  std::string digest;
};

// Per-job simulated outputs after the stream drained; engine JCT is the
// run's own span (admission to finish), queueing excluded.
void collect(ds::Scheduler& sched, Outcome* out) {
  sched.drain();  // no events left; asserts every job is terminal
  const ds::FleetStats fs = sched.fleet();
  out->finished = fs.finished;
  out->submitted = fs.submitted;
  Digest d;
  for (ds::service::JobId id = 1; id <= fs.submitted; ++id) {
    const ds::JobStatus& st = sched.poll(id);
    d.add_u64(static_cast<std::uint64_t>(st.state));
    d.add(st.admitted);
    d.add(st.finish);
    d.add(st.planned_delay);
    if (st.state == ds::JobState::kFinished) {
      out->engine_jct.push_back(st.finish - st.admitted);
      out->slowdown.push_back(st.slowdown);
    }
  }
  out->digest = d.hex();
}

Outcome run_untraced(Stream& s, LogHistogram* event_s) {
  Outcome out;
  ds::sim::Simulator& sim = s.sched->cluster().sim();
  const Clock::time_point start = Clock::now();
  Clock::time_point prev = start;
  while (sim.step()) {
    const Clock::time_point t = Clock::now();
    event_s->add(std::chrono::duration<double>(t - prev).count());
    prev = t;
  }
  out.wall = seconds_since(start);
  collect(*s.sched, &out);
  return out;
}

// Step classes of the traced run, in the order the classifier tests them.
enum StepClass { kAdmit, kFlowComplete, kFlowStart, kTask, kNumClasses };

// Traced-run totals over all streams. The streams share one obs registry,
// so the registry's counters already sum over them.
struct Layers {
  double steps[kNumClasses] = {};
  double secs[kNumClasses] = {};
  double flow_sum = 0;  // Σ active flows sampled before each step
  double traced_wall = 0;
  std::vector<double> overhead_pct;
  std::vector<double> wait_means, slowdowns;
  double peak_occupancy = 0;
};

Outcome run_traced(Stream& s, ds::obs::Observability& obs, Layers* layers) {
  Outcome out;
  ds::obs::MetricsRegistry& m = obs.metrics;
  const ds::obs::Counter admitted = m.counter("sched.admitted");
  const ds::obs::Counter completed = m.counter("net.flows_completed");
  const ds::obs::Counter started = m.counter("net.flows_started");
  ds::sim::Simulator& sim = s.sched->cluster().sim();
  const ds::sim::NetworkFabric& fabric = s.sched->cluster().fabric();
  const Clock::time_point start = Clock::now();
  for (;;) {
    const std::uint64_t a0 = admitted.value(), c0 = completed.value(),
                        s0 = started.value();
    const double active = static_cast<double>(fabric.active_flows());
    const Clock::time_point t0 = Clock::now();
    if (!sim.step()) break;
    const double dt = seconds_since(t0);
    const StepClass c = admitted.value() != a0    ? kAdmit
                        : completed.value() != c0 ? kFlowComplete
                        : started.value() != s0   ? kFlowStart
                                                  : kTask;
    layers->steps[c] += 1;
    layers->secs[c] += dt;
    layers->flow_sum += active;
  }
  out.wall = seconds_since(start);
  collect(*s.sched, &out);
  layers->traced_wall += out.wall;
  const ds::FleetStats fs = s.sched->fleet();
  layers->wait_means.push_back(fs.mean_wait);
  layers->peak_occupancy = std::max(layers->peak_occupancy, fs.peak_slot_occupancy);
  layers->slowdowns.insert(layers->slowdowns.end(), out.slowdown.begin(), out.slowdown.end());
  return out;
}

void add_layers(const Layers& l, const ds::obs::MetricsRegistry& m, Result* r) {
  auto count = [&m](const char* name) {
    return static_cast<double>(m.find_counter(name).value());
  };
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  double events = 0, step_s = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    events += l.steps[c];
    step_s += l.secs[c];
  }
  const double other = l.traced_wall - step_s;
  if (other < 0) r->fail("fleet: summed step times exceed the traced wall");
  const double evaluations = count("planner.evaluations");
  const double memo_hits = count("planner.memo_hits");
  const double hits = count("plancache.hits");
  const ds::obs::Histogram wait = m.find_histogram("exec.wait_seconds");
  r->add("sim.events", events, "count");
  r->add("sim.step_s", step_s, "s");
  r->add("sim.flow_complete_events", l.steps[kFlowComplete], "count");
  r->add("sim.flow_complete_s", l.secs[kFlowComplete], "s");
  r->add("sim.flow_start_events", l.steps[kFlowStart], "count");
  r->add("sim.flow_start_s", l.secs[kFlowStart], "s");
  r->add("sim.active_flows_mean", frac(l.flow_sum, events), "count");
  r->add("sim.flows_started", count("net.flows_started"), "count");
  r->add("sim.flows_completed", count("net.flows_completed"), "count");
  r->add("sim.exec_grants", count("exec.grants"), "count");
  r->add("sim.exec_wait_mean_s", wait.mean(), "s");
  r->add("service.admit_events", l.steps[kAdmit], "count");
  r->add("service.admit_s", l.secs[kAdmit], "s");
  r->add("service.wait_mean_s", mean(l.wait_means), "s");
  r->add("service.peak_slot_occupancy", l.peak_occupancy, "ratio");
  r->add("service.tail_slowdown",
         percentile(l.slowdowns, tail_percentile(l.slowdowns.size())), "ratio");
  r->add("engine.task_events", l.steps[kTask], "count");
  r->add("engine.task_s", l.secs[kTask], "s");
  r->add("engine.task_aborts", count("engine.task_aborts"), "count");
  r->add("core.evaluations", evaluations, "count");
  r->add("core.memo_hit_rate", frac(memo_hits, memo_hits + evaluations), "ratio");
  r->add("store.cache_hit_rate", frac(hits, hits + count("plancache.misses")), "ratio");
  r->add("store.cold_plans", count("plan_service.cold_plans"), "count");
  r->add("store.invalidations", count("plancache.invalidations"), "count");
  r->add("store.observations", count("profile_store.observations"), "count");
  r->add("other_s", other, "s");
  r->add("obs.traced_wall_s", l.traced_wall, "s");
  r->add("obs.trace_overhead_pct", median(l.overhead_pct), "%");
  std::ostringstream os;
  os << "traced wall " << l.traced_wall << " s: flow completion "
     << 100 * frac(l.secs[kFlowComplete], l.traced_wall) << "%, flow start "
     << 100 * frac(l.secs[kFlowStart], l.traced_wall) << "%, admission "
     << 100 * frac(l.secs[kAdmit], l.traced_wall) << "%, task "
     << 100 * frac(l.secs[kTask], l.traced_wall) << "%, other "
     << 100 * frac(other, l.traced_wall) << "%";
  r->notes.push_back(os.str());
}

}  // namespace

Result run_fleet(const Args& args) {
  Result r;
  const int streams = std::max(1, static_cast<int>(std::lround(args.seconds / kStreamSeconds)));
  std::vector<double> setup_s, engine_jct, slowdown;
  LogHistogram event_s;
  double wall = 0;
  Digest inputs, outputs;
  Layers layers;
  ds::obs::Observability obs;  // traced streams only
  for (int k = 0; k < streams; ++k) {
    // Set-up takes well under a millisecond; repeat it so its median is not
    // one cold-cache sample.
    Stream s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const Clock::time_point t0 = Clock::now();
      s = build_stream(args.seed, k, nullptr);
      setup_s.push_back(seconds_since(t0));
    }
    for (std::size_t i = 0; i < s.job_names.size(); ++i) {
      inputs.add(s.job_names[i]);
      inputs.add(s.arrivals[i]);
    }
    const Outcome out = run_untraced(s, &event_s);
    r.attempted += out.submitted;
    r.failed += out.submitted - out.finished;
    wall += out.wall;
    engine_jct.insert(engine_jct.end(), out.engine_jct.begin(), out.engine_jct.end());
    slowdown.insert(slowdown.end(), out.slowdown.begin(), out.slowdown.end());
    outputs.add(out.digest);

    if (args.trace) {
      Stream traced = build_stream(args.seed, k, &obs);
      const Outcome t = run_traced(traced, obs, &layers);
      layers.overhead_pct.push_back(100.0 * (t.wall / out.wall - 1.0));
      if (t.digest != out.digest)
        r.fail("fleet: traced stream " + std::to_string(k) +
               " did not reproduce the untraced outputs");
    }
  }
  std::ostringstream os;
  os << streams << " streams x " << kJobsPerStream << " jobs, sim mean slowdown "
     << mean(slowdown);
  add_digest_notes(inputs, outputs, os.str(), &r);
  r.notes.push_back(tail_note("event latency", event_s.count()));
  r.notes.push_back(tail_note("engine JCT", engine_jct.size()));

  if (args.trace) {
    add_layers(layers, obs.metrics, &r);
  } else {
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("jobs_per_s", static_cast<double>(r.attempted) / wall, "1/s");
    r.add("op_p50_ms", 1e3 * event_s.percentile(50), "ms");
    r.add("op_tail_ms", 1e3 * event_s.percentile(tail_percentile(event_s.count())), "ms");
    r.add("sim_mean_jct_s", mean(engine_jct), "s");
    r.add("sim_tail_jct_s", percentile(engine_jct, tail_percentile(engine_jct.size())), "s");
  }
  return r;
}

}  // namespace dsbench
