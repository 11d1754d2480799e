// Event-core, fabric and parallel-simulation throughput benchmark.
//
// Four sections, all written to BENCH_sim.json (consumed by
// tools/check_bench.py, which fails on >20% regressions vs the committed
// baseline):
//   * queue  — raw EventQueue churn: self-rescheduling pop+push ticks, and
//     the fabric's cancel+reschedule pattern. Guards the indexed-heap core.
//   * fabric — one max-min water-fill (sim::max_min_allocate) over 100,
//     1000 and 3000 flows on a 63-port fabric (informational, no floor).
//   * engine — independent JobRun worlds fanned out with
//     ThreadPool::parallel_for at shard counts {1, 2, 8}: aggregate
//     simulated events/s and runs/s. The 1-shard row is the single-thread
//     floor check_bench gates on; the multi-shard rows report the parallel
//     speedup (informational — CI containers may have a single core).
//   * replay — trace replay with engine validation: every job's planned
//     schedule re-run through the discrete-event engine, fanned out across
//     shards.
// Determinism is asserted inline: every shard count must produce identical
// results before the numbers are reported.
//
//   ./bench_sim_throughput [output.json]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/job_run.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "trace/replay.h"
#include "trace/synthetic.h"
#include "util/check.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workloads/workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct QueueSample {
  std::string scenario;
  std::uint64_t events = 0;
  double events_per_sec = 0;
};

struct FabricSample {
  std::size_t flows = 0;
  int reps = 0;
  double us_per_alloc = 0;
};

struct EngineSample {
  int shards = 1;
  std::size_t runs = 0;
  std::uint64_t events = 0;
  double runs_per_sec = 0;
  double engine_events_per_sec = 0;
  double speedup = 1.0;
};

struct ReplaySample {
  int shards = 1;
  std::size_t jobs = 0;
  double jobs_per_sec = 0;
};

struct TickState {
  ds::sim::Simulator* sim = nullptr;
  long remaining = 0;
};

void tick(TickState* t) {
  if (t->remaining-- <= 0) return;
  t->sim->schedule_after(1.0, [t] { tick(t); });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ds;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sim.json";
  const int shard_counts[] = {1, 2, 8};

  // --- Queue: self-rescheduling tick chain (pop + push per event).
  std::vector<QueueSample> queue;
  {
    constexpr long kEvents = 2'000'000;
    sim::Simulator sim;
    TickState t{&sim, 1000};
    tick(&t);
    sim.run();  // warm-up
    t.remaining = kEvents;
    tick(&t);
    const auto t0 = Clock::now();
    sim.run();
    const double ms = ms_since(t0);
    queue.push_back({"tick_chain", kEvents, 1000.0 * kEvents / ms});
  }
  // --- Queue: cancel + re-push churn (the fabric's reschedule pattern).
  {
    constexpr long kOps = 2'000'000;
    sim::Simulator sim;
    sim.schedule_after(1e15, [] {});
    sim::EventId id = sim.schedule_after(1.0, [] {});
    for (int i = 0; i < 8; ++i) {  // warm slab + free list
      sim.cancel(id);
      id = sim.schedule_after(1.0, [] {});
    }
    const auto t0 = Clock::now();
    for (long i = 0; i < kOps; ++i) {
      sim.cancel(id);
      id = sim.schedule_after(1.0 + static_cast<double>(i), [] {});
    }
    const double ms = ms_since(t0);
    queue.push_back(
        {"cancel_repush", kOps, 1000.0 * kOps / ms});
  }

  // --- Fabric: one max-min water-fill per call, flows spread over 30
  // senders and 33 receivers.
  std::vector<FabricSample> fabric;
  for (std::size_t flows : {100, 1000, 3000}) {
    std::vector<sim::FlowPorts> fp(flows);
    for (std::size_t f = 0; f < flows; ++f)
      fp[f] = {static_cast<int>(f % 30), 30 + static_cast<int>(f % 33), -1};
    const std::vector<double> caps(63, 40e6);
    const int reps = static_cast<int>(3'000'000 / flows);
    double sink = sim::max_min_allocate(fp, caps).front();  // warm-up
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
      sink += sim::max_min_allocate(fp, caps).front();
    const double ms = ms_since(t0);
    DS_CHECK(sink > 0);
    fabric.push_back({flows, reps, 1000.0 * ms / reps});
  }

  // --- Engine: LDA run ensembles across shard counts.
  const auto dag = workloads::lda();
  const auto spec = sim::ClusterSpec::paper_prototype();
  constexpr std::size_t kRuns = 16;
  auto run_one = [&](std::size_t i) -> std::pair<double, std::size_t> {
    sim::Simulator sim;
    sim::Cluster cluster(sim, spec, 42 + i);
    engine::RunOptions opt;
    opt.seed = 42 + i;
    engine::JobRun run(cluster, dag, std::move(opt));
    run.start();
    sim.run();
    return {run.result().jct, sim.events_processed()};
  };

  std::vector<EngineSample> engine;
  std::vector<double> reference_jcts;
  for (int shards : shard_counts) {
    ThreadPool pool(shards);
    std::vector<std::pair<double, std::size_t>> results(kRuns);
    pool.parallel_for(2, [&](std::size_t i) { results[i] = run_one(i); });
    const auto t0 = Clock::now();
    pool.parallel_for(kRuns, [&](std::size_t i) { results[i] = run_one(i); });
    const double ms = ms_since(t0);

    std::vector<double> jcts;
    std::uint64_t events = 0;
    for (const auto& [jct, ev] : results) {
      jcts.push_back(jct);
      events += ev;
    }
    if (reference_jcts.empty()) reference_jcts = jcts;
    DS_CHECK_MSG(jcts == reference_jcts,
                 "engine ensemble result depends on shard count");

    EngineSample s;
    s.shards = shards;
    s.runs = kRuns;
    s.events = events;
    s.runs_per_sec = 1000.0 * static_cast<double>(kRuns) / ms;
    s.engine_events_per_sec = 1000.0 * static_cast<double>(events) / ms;
    s.speedup = engine.empty()
                    ? 1.0
                    : s.engine_events_per_sec / engine.front().engine_events_per_sec;
    engine.push_back(s);
  }

  // --- Replay with engine validation across shard counts.
  trace::SyntheticTraceOptions topt;
  topt.num_jobs = 60;
  topt.max_stages = 10;
  topt.max_stage_time = 300;
  topt.seed = 2018;
  const auto jobs = trace::synthetic_trace(topt);
  std::vector<ReplaySample> replays;
  std::vector<Seconds> reference_engine_jcts;
  for (int shards : shard_counts) {
    trace::ReplayOptions ropt;
    ropt.strategy = "DelayStage";
    ropt.threads = 1;
    ropt.engine_validate = true;
    ropt.engine_shards = shards;
    ropt.seed = 7;
    const auto t0 = Clock::now();
    const trace::ReplayResult r = trace::replay(jobs, ropt);
    const double ms = ms_since(t0);

    std::vector<Seconds> ejcts;
    for (const auto& j : r.jobs) ejcts.push_back(j.engine_jct);
    if (reference_engine_jcts.empty()) reference_engine_jcts = ejcts;
    DS_CHECK_MSG(ejcts == reference_engine_jcts,
                 "engine-validated replay depends on shard count");

    replays.push_back(
        {shards, jobs.size(), 1000.0 * static_cast<double>(jobs.size()) / ms});
  }

  // --- Human-readable report.
  std::cout << "=== Event queue churn ===\n";
  TablePrinter qt({"scenario", "events", "events/s"});
  qt.set_precision(0);
  for (const auto& s : queue)
    qt.add_row({s.scenario, static_cast<std::int64_t>(s.events),
                s.events_per_sec});
  qt.print(std::cout);

  std::cout << "\n=== Fabric max-min water-fill (63 ports) ===\n";
  TablePrinter ft({"flows", "reps", "us/alloc"});
  ft.set_precision(1);
  for (const auto& s : fabric)
    ft.add_row({static_cast<std::int64_t>(s.flows),
                static_cast<std::int64_t>(s.reps), s.us_per_alloc});
  ft.print(std::cout);

  std::cout << "\n=== Engine ensembles (" << kRuns << " LDA runs) ===\n";
  TablePrinter et({"shards", "runs/s", "events/s", "speedup vs 1"});
  et.set_precision(2);
  for (const auto& s : engine)
    et.add_row({static_cast<std::int64_t>(s.shards), s.runs_per_sec,
                s.engine_events_per_sec, s.speedup});
  et.print(std::cout);

  std::cout << "\n=== Engine-validated replay (" << jobs.size()
            << " jobs) ===\n";
  TablePrinter rt({"shards", "jobs/s"});
  rt.set_precision(2);
  for (const auto& s : replays)
    rt.add_row({static_cast<std::int64_t>(s.shards), s.jobs_per_sec});
  rt.print(std::cout);

  // --- Machine-readable report for tools/check_bench.py.
  std::ofstream json(out_path);
  json.precision(6);
  json << "{\n  \"queue\": [\n";
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const auto& s = queue[i];
    json << "    {\"scenario\": \"" << s.scenario << "\", \"events\": "
         << s.events << ", \"events_per_sec\": " << s.events_per_sec << "}"
         << (i + 1 < queue.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"fabric\": [\n";
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    const auto& s = fabric[i];
    json << "    {\"flows\": " << s.flows << ", \"reps\": " << s.reps
         << ", \"us_per_alloc\": " << s.us_per_alloc << "}"
         << (i + 1 < fabric.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"engine\": [\n";
  for (std::size_t i = 0; i < engine.size(); ++i) {
    const auto& s = engine[i];
    json << "    {\"shards\": " << s.shards << ", \"runs\": " << s.runs
         << ", \"events\": " << s.events
         << ", \"runs_per_sec\": " << s.runs_per_sec
         << ", \"engine_events_per_sec\": " << s.engine_events_per_sec
         << ", \"speedup_vs_1\": " << s.speedup << "}"
         << (i + 1 < engine.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"engine_replay\": [\n";
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const auto& s = replays[i];
    json << "    {\"shards\": " << s.shards << ", \"jobs\": " << s.jobs
         << ", \"jobs_per_sec\": " << s.jobs_per_sec << "}"
         << (i + 1 < replays.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
