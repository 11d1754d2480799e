// Observability overhead micro-benchmark: the same engine simulation timed
// with obs off (null sink — compiled in but disabled), metrics only (live
// registry handles, tracer disabled), flight (metrics + the always-on
// flight-recorder ring), telemetry (metrics + one registry snapshot per
// workload run, the streaming-sink steady state), and full (metrics + span
// tracing). Every instrumented workload run is paired with an adjacent off
// run of the same workload, and a mode's overhead is the median of its
// per-pair time ratios. Writes BENCH_obs.json for tools/check_bench.py,
// which enforces both an absolute throughput floor on the off mode and
// overhead ceilings (<3%) on the instrumented modes.
//
//   ./bench_obs_overhead [output.json]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/job_run.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "sched/strategy.h"
#include "sim/cluster.h"
#include "util/check.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Mode {
  std::string name;
  double seconds_per_rep = 0;  // Σ over workloads of the fastest run
  double runs_per_sec = 0;
  double overhead_pct = 0;  // median over pairs of (this / paired off) - 1
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ds;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  constexpr std::uint64_t kSeed = 42;
  constexpr int kReps = 7;

  const auto suite = workloads::benchmark_suite();
  const sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();

  // Pre-plan every workload once: the planner's cost is not what this bench
  // measures, and the plan for a given (dag, spec, seed) is deterministic.
  std::vector<engine::SubmissionPlan> plans;
  for (const auto& w : suite) {
    sim::Simulator sim;
    sim::Cluster cluster(sim, spec, kSeed);
    plans.push_back(sched::make_strategy("DelayStage")->plan(w.dag, cluster));
  }

  // One sink per instrumented mode, reused across reps so the steady state
  // (warm rings, resolved cells, interned labels) is what gets timed.
  obs::TracerOptions full_topt;
  full_topt.enabled = true;
  obs::FlightRecorderOptions flight_fopt;
  flight_fopt.enabled = true;
  obs::Observability metrics_only;
  obs::Observability flight_obs(obs::TracerOptions{}, flight_fopt);
  obs::Observability telemetry_obs;
  obs::Observability full(full_topt);
  std::ostringstream telemetry_out;
  obs::TelemetrySink telemetry_sink(telemetry_out);
  std::vector<Mode> modes = {
      {"off"}, {"metrics"}, {"flight"}, {"telemetry"}, {"full"}};
  obs::Observability* sinks[] = {nullptr, &metrics_only, &flight_obs,
                                 &telemetry_obs, &full};
  obs::TelemetrySink* telem[] = {nullptr, nullptr, nullptr, &telemetry_sink,
                                 nullptr};

  // Times one workload under mode m. The simulated JCT must not depend on
  // the mode — observability is passive by contract.
  std::vector<Seconds> reference_jct(suite.size(), -1);
  auto timed_run = [&](std::size_t m, std::size_t i) {
    obs::Observability* obs = sinks[m];
    const auto t0 = Clock::now();
    sim::Simulator sim(obs);
    sim::Cluster cluster(sim, spec, kSeed, obs);
    engine::RunOptions opt;
    opt.plan = plans[i];
    opt.seed = kSeed;
    opt.obs = obs;
    opt.flight_job_id = i + 1;
    engine::JobRun run(cluster, suite[i].dag, opt);
    run.start();
    sim.run();
    if (telem[m] != nullptr) telem[m]->snapshot(*obs, sim.now());
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    DS_CHECK(run.finished() && !run.result().failed);
    if (reference_jct[i] < 0) reference_jct[i] = run.result().jct;
    DS_CHECK_MSG(run.result().jct == reference_jct[i],
                 "simulation result depends on obs mode");
    return s;
  };

  // The pair's order alternates. Adjacent sub-second runs share the host's
  // momentary speed (thermal, co-tenants), so their ratio cancels drift
  // that a ratio of two independent minima keeps (several percent on a
  // shared host).
  std::vector<std::vector<double>> best(
      modes.size(), std::vector<double>(suite.size(), 1e300));
  std::vector<std::vector<double>> ratios(modes.size());
  for (int rep = 0; rep < kReps; ++rep) {
    telemetry_out.str("");  // discard last rep's snapshots, keep buffer warm
    for (std::size_t i = 0; i < suite.size(); ++i) {
      for (std::size_t m = 1; m < modes.size(); ++m) {
        double secs[2];  // [0] the off run, [1] mode m's run
        const std::size_t first = (static_cast<std::size_t>(rep) + i + m) % 2;
        secs[first] = timed_run(first == 0 ? 0 : m, i);
        secs[1 - first] = timed_run(first == 0 ? m : 0, i);
        best[0][i] = std::min(best[0][i], secs[0]);
        best[m][i] = std::min(best[m][i], secs[1]);
        ratios[m].push_back(secs[1] / secs[0]);
      }
    }
  }
  for (std::size_t m = 0; m < modes.size(); ++m) {
    for (double s : best[m]) modes[m].seconds_per_rep += s;
    modes[m].runs_per_sec =
        static_cast<double>(suite.size()) / modes[m].seconds_per_rep;
    if (m == 0) continue;
    const auto mid = ratios[m].begin() +
                     static_cast<std::ptrdiff_t>(ratios[m].size() / 2);
    std::nth_element(ratios[m].begin(), mid, ratios[m].end());
    modes[m].overhead_pct = 100.0 * (*mid - 1.0);
  }

  TablePrinter t({"mode", "ms/suite", "runs/s", "overhead %"});
  t.set_precision(2);
  for (const auto& m : modes)
    t.add_row({m.name, 1000.0 * m.seconds_per_rep, m.runs_per_sec,
               m.overhead_pct});
  t.print(std::cout);
  std::cout << "traced events: " << full.tracer.recorded() << " ("
            << full.tracer.dropped() << " dropped), flight records: "
            << flight_obs.flight.recorded() << " ("
            << flight_obs.flight.dropped() << " dropped), telemetry snapshots: "
            << telemetry_sink.snapshots() << "\n";

  std::ofstream json(out_path);
  json.precision(6);
  json << "{\n  \"obs\": [\n";
  for (std::size_t m = 0; m < modes.size(); ++m) {
    json << "    {\"mode\": \"" << modes[m].name
         << "\", \"seconds_per_rep\": " << modes[m].seconds_per_rep
         << ", \"runs_per_sec\": " << modes[m].runs_per_sec
         << ", \"overhead_pct\": " << modes[m].overhead_pct << "}"
         << (m + 1 < modes.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
