// Observability layer: registry correctness under concurrency, histogram vs
// a standalone QuantileSketch, tracer ring-buffer semantics, Chrome-JSON
// export, and — most importantly — the passivity contract: enabling
// observability must not change a simulation result bit.
#include <gtest/gtest.h>

#include <iomanip>
#include <map>
#include <sstream>
#include <vector>

#include "engine/job_run.h"
#include "obs/obs.h"
#include "sched/strategy.h"
#include "sim/cluster.h"
#include "util/thread_pool.h"
#include "workloads/workloads.h"

namespace ds {
namespace {

// --- MetricsRegistry -------------------------------------------------------

TEST(Registry, DisabledHandlesAreInertAndCheap) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  EXPECT_FALSE(c.enabled());
  c.inc();
  g.set(5);
  h.observe(1.0);  // must not crash
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);

  obs::Observability* null_obs = nullptr;
  EXPECT_FALSE(obs::counter(null_obs, "x").enabled());
  EXPECT_EQ(obs::tracer(null_obs), nullptr);
}

TEST(Registry, HandlesAliasTheSameCell) {
  obs::MetricsRegistry reg;
  obs::Counter a = reg.counter("jobs");
  obs::Counter b = reg.counter("jobs");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(reg.counter("jobs").value(), 7u);
  EXPECT_EQ(reg.find_counter("jobs").value(), 7u);
  EXPECT_FALSE(reg.find_counter("absent").enabled());
}

TEST(Registry, ConcurrentUpdatesAreExact) {
  obs::MetricsRegistry reg;
  obs::Counter c = reg.counter("n");
  obs::Gauge g = reg.gauge("g");
  obs::Histogram h = reg.histogram("h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    for (int i = 0; i < kPerThread; ++i) {
      c.inc();
      g.add(1.0);
      h.observe(static_cast<double>(i % 100));
    }
    (void)t;
  });
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // sum of 0..99, kThreads*100 times over
  EXPECT_DOUBLE_EQ(h.sum(), 4950.0 * kThreads * kPerThread / 100.0);
}

TEST(Histogram, QuantilesMatchAStandaloneSketchBitForBit) {
  obs::MetricsRegistry reg;
  obs::Histogram h = reg.histogram("h");
  obs::QuantileSketch sketch;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  // A deterministic skewed sample set spanning several decades.
  for (int i = 0; i < 5000; ++i) {
    const double u = i / 5000.0;
    const double v = 200.0 * u * u * u + 1e-3;
    h.observe(v);
    sketch.observe(v);
  }
  ASSERT_EQ(h.count(), sketch.count());
  for (double q : {0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0})
    EXPECT_EQ(h.quantile(q), sketch.quantile(q)) << "q " << q;
}

TEST(Registry, JsonDumpIsWellFormedAndSorted) {
  obs::MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  reg.gauge("z.level").set(1.5);
  obs::Histogram lat = reg.histogram("lat");
  lat.observe(2.5);
  lat.observe(10.0);
  std::ostringstream os;
  reg.write_json(os);
  const std::string s = os.str();
  EXPECT_LT(s.find("\"a.count\""), s.find("\"b.count\""));  // sorted
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"gauges\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  // The histogram exports a 20-point CDF of sketch quantiles spanning
  // 0..100 %, and no bucket table.
  const auto point = [&](double q) {
    std::ostringstream pt;
    pt << "{\"value\": " << std::setprecision(10) << lat.quantile(q)
       << ", \"cum_percent\": " << 100.0 * q << '}';
    return pt.str();
  };
  EXPECT_NE(s.find("\"cdf\": [" + point(0.0) + ", "), std::string::npos);
  EXPECT_NE(s.find(", " + point(1.0) + "]"), std::string::npos);
  EXPECT_EQ(s.find("\"buckets\""), std::string::npos);
  // Crude but effective structural check: braces/brackets balance.
  int depth = 0;
  for (char ch : s) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Registry, SnapshotCopiesTheLiveState) {
  obs::MetricsRegistry reg;
  reg.counter("jobs").inc(3);
  reg.gauge("depth").set(2.5);
  obs::Histogram h = reg.histogram("lat");
  h.observe(0.5);
  h.observe(4.5);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "jobs");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "depth");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "lat");
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum, 5.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].mean, 2.5);
}

TEST(Registry, PrometheusExpositionIsWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("sched.jobs_submitted").inc(4);
  reg.gauge("sched.queue_depth").set(1);
  reg.histogram("sched.wait").observe(0.5);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string s = os.str();
  // Dots become underscores, counters grow a _total suffix, histograms are
  // summaries: three quantile series plus _sum/_count.
  EXPECT_NE(s.find("# TYPE sched_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(s.find("sched_jobs_submitted_total 4"), std::string::npos);
  EXPECT_NE(s.find("# TYPE sched_queue_depth gauge"), std::string::npos);
  EXPECT_NE(s.find("# TYPE sched_wait summary"), std::string::npos);
  for (const char* q : {"0.5", "0.9", "0.99"}) {
    EXPECT_NE(s.find(std::string("sched_wait{quantile=\"") + q + "\"} 0.5\n"),
              std::string::npos)
        << q;
  }
  EXPECT_EQ(s.find("_bucket"), std::string::npos);
  EXPECT_NE(s.find("sched_wait_sum 0.5"), std::string::npos);
  EXPECT_NE(s.find("sched_wait_count 1"), std::string::npos);
}

TEST(Obs, RefreshDerivedPublishesDropCounters) {
  obs::TracerOptions topt;
  topt.enabled = true;
  topt.ring_capacity = 4;
  obs::FlightRecorderOptions fopt;
  fopt.enabled = true;
  fopt.capacity = 4;
  obs::Observability obs(topt, fopt);
  for (int i = 0; i < 10; ++i) {
    obs.tracer.instant("t", "e", static_cast<double>(i), 0, 0);
    obs::FlightRecord r;
    r.kind = obs::FlightKind::kMark;
    obs.flight.record(r);
  }
  obs.refresh_derived();
  EXPECT_EQ(obs.metrics.counter("tracer.dropped_spans").value(), 6u);
  EXPECT_EQ(obs.metrics.counter("flight.dropped_records").value(), 6u);
  // Idempotent: a second refresh with no new drops adds nothing.
  obs.refresh_derived();
  EXPECT_EQ(obs.metrics.counter("tracer.dropped_spans").value(), 6u);
}

// --- Tracer ----------------------------------------------------------------

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer tr;  // default: disabled
  tr.instant("t", "e", 1.0, 0, 0);
  EXPECT_EQ(tr.recorded(), 0u);
  EXPECT_TRUE(tr.snapshot().empty());
}

TEST(Tracer, RingWrapsKeepingTheNewestEvents) {
  obs::TracerOptions topt;
  topt.enabled = true;
  topt.ring_capacity = 8;
  obs::Tracer tr(topt);
  for (int i = 0; i < 20; ++i)
    tr.instant("t", "e", static_cast<double>(i), 0, 0, "i",
               static_cast<double>(i));
  EXPECT_EQ(tr.recorded(), 8u);
  EXPECT_EQ(tr.dropped(), 12u);
  const auto evs = tr.snapshot();
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_DOUBLE_EQ(evs[i].arg_value, 12.0 + static_cast<double>(i));
  }
}

TEST(Tracer, ChromeJsonGolden) {
  obs::TracerOptions topt;
  topt.enabled = true;
  obs::Tracer tr(topt);
  tr.set_process_name(0, "proc \"zero\"");  // exercises escaping
  tr.set_thread_name(0, 1, "lane");
  tr.complete("cat", "span", 1.5, 0.25, 0, 1, "stage", 3);
  tr.instant("cat", "mark", 2.0, 0, 1);
  tr.counter("cat", "ctr", 2.5, 0, 42.5);
  std::ostringstream os;
  tr.write_chrome_json(os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":[\n"
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
            "\"args\":{\"name\":\"proc \\\"zero\\\"\"}},\n"
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,"
            "\"args\":{\"name\":\"lane\"}},\n"
            "{\"ph\":\"X\",\"name\":\"span\",\"cat\":\"cat\",\"ts\":1500000,"
            "\"dur\":250000,\"pid\":0,\"tid\":1,\"args\":{\"stage\":3}},\n"
            "{\"ph\":\"i\",\"name\":\"mark\",\"cat\":\"cat\",\"ts\":2000000,"
            "\"s\":\"t\",\"pid\":0,\"tid\":1},\n"
            "{\"ph\":\"C\",\"name\":\"ctr\",\"cat\":\"cat\",\"ts\":2500000,"
            "\"pid\":0,\"tid\":0,\"args\":{\"value\":42.5}}\n"
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":0}}\n");
}

TEST(Tracer, InternDeduplicatesAndOutlivesCalls) {
  obs::TracerOptions topt;
  topt.enabled = true;
  obs::Tracer tr(topt);
  const char* a = tr.intern(std::string("stage-") + "7");
  const char* b = tr.intern("stage-7");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "stage-7");
}

// --- Engine integration ----------------------------------------------------

engine::JobResult run_workload(obs::Observability* obs) {
  const dag::JobDag dag = workloads::als();
  sim::Simulator sim(obs);
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 42, obs);
  engine::RunOptions opt;
  opt.plan = sched::make_strategy("DelayStage")->plan(dag, cluster);
  opt.seed = 42;
  opt.obs = obs;
  engine::JobRun run(cluster, dag, opt);
  run.start();
  sim.run();
  EXPECT_TRUE(run.finished());
  return run.result();
}

TEST(ObsEngine, ObservabilityIsPassive) {
  const engine::JobResult off = run_workload(nullptr);
  obs::TracerOptions topt;
  topt.enabled = true;
  obs::Observability full(topt);
  const engine::JobResult on = run_workload(&full);
  // Bit-identical: observability must never influence the simulation.
  ASSERT_EQ(off.stages.size(), on.stages.size());
  EXPECT_EQ(off.jct, on.jct);
  for (std::size_t s = 0; s < off.stages.size(); ++s) {
    EXPECT_EQ(off.stages[s].submitted, on.stages[s].submitted);
    EXPECT_EQ(off.stages[s].last_read_done, on.stages[s].last_read_done);
    EXPECT_EQ(off.stages[s].finish, on.stages[s].finish);
  }
  EXPECT_GT(full.tracer.recorded(), 0u);
  EXPECT_GT(full.metrics.counter("engine.tasks_finished").value(), 0u);
  EXPECT_EQ(full.metrics.counter("engine.tasks_finished").value(),
            full.metrics.counter("engine.tasks_launched").value());
}

TEST(ObsEngine, TaskSpansDoNotOverlapWithinASlotLane) {
  obs::TracerOptions topt;
  topt.enabled = true;
  topt.ring_capacity = std::size_t{1} << 18;  // keep everything
  obs::Observability full(topt);
  run_workload(&full);
  EXPECT_EQ(full.tracer.dropped(), 0u);
  // Group the task phase spans by (worker pid, slot lane): phases on one
  // executor slot must tile without overlap — that is what makes the trace a
  // faithful per-slot occupancy timeline (Fig. 12/13).
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<obs::TraceEvent>>
      lanes;
  for (const auto& ev : full.tracer.snapshot()) {
    if (ev.phase == 'X' && ev.pid >= obs::kNodePidBase &&
        ev.pid < obs::kPlannerPid)
      lanes[{ev.pid, ev.tid}].push_back(ev);
  }
  ASSERT_FALSE(lanes.empty());
  for (const auto& [key, evs] : lanes) {
    for (std::size_t i = 1; i < evs.size(); ++i) {
      EXPECT_GE(evs[i].ts_us, evs[i - 1].ts_us + evs[i - 1].dur_us - 1e-3)
          << "overlap on worker pid " << key.first << " lane " << key.second;
    }
  }
}

TEST(ObsPlanner, SearchCountersMatchTheSchedule) {
  obs::Observability obs;
  const dag::JobDag dag = workloads::cosine_similarity();
  const core::JobProfile profile =
      core::JobProfile::from(dag, sim::ClusterSpec::paper_prototype());
  core::CalculatorOptions copt;
  copt.obs = &obs;
  const core::DelaySchedule sched = core::DelayCalculator(profile, copt).compute();
  EXPECT_EQ(obs.metrics.counter("planner.evaluations").value(),
            sched.evaluations);
  EXPECT_EQ(obs.metrics.counter("planner.memo_hits").value(), sched.memo_hits);
  EXPECT_EQ(obs.metrics.counter("planner.runs").value(), 1u);
}

}  // namespace
}  // namespace ds
