// Cross-module property sweeps: the planner's analytical model and the
// task-granular engine must stay mutually consistent on arbitrary volumetric
// jobs — the whole method rests on the model ranking schedules the way the
// engine realises them (Appendix A.2).
#include <gtest/gtest.h>

#include "core/delay_calculator.h"
#include "core/evaluator.h"
#include "core/profile.h"
#include "engine/job_run.h"
#include "sim/cluster.h"
#include "util/rng.h"

namespace ds {
namespace {

// Random layered volumetric DAG (prototype-cluster scale).
dag::JobDag random_job(std::uint64_t seed) {
  Rng rng(seed);
  dag::JobDag j("rand" + std::to_string(seed));
  const int layers = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<std::vector<dag::StageId>> ids(static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    const int width = static_cast<int>(rng.uniform_int(1, 3));
    for (int w = 0; w < width; ++w) {
      dag::Stage s;
      s.name = std::string("s").append(std::to_string(l)).append("_").append(
          std::to_string(w));
      s.num_tasks = static_cast<int>(rng.uniform_int(8, 40));
      s.input_bytes = rng.uniform(1.0, 8.0) * 1e9;
      s.process_rate = rng.uniform(1.5, 4.0) * 1e6;
      s.output_bytes = rng.uniform(0.2, 3.0) * 1e9;
      s.task_skew = rng.uniform(0.0, 0.25);
      ids[static_cast<std::size_t>(l)].push_back(j.add_stage(s));
    }
    if (l > 0) {
      for (dag::StageId c : ids[static_cast<std::size_t>(l)]) {
        const auto& prev = ids[static_cast<std::size_t>(l - 1)];
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(prev.size()) - 1));
        j.add_edge(prev[pick], c);
      }
    }
  }
  return j;
}

double engine_jct(const dag::JobDag& dag, const std::vector<Seconds>& delay,
                  std::uint64_t seed) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::paper_prototype(), seed);
  engine::RunOptions opt;
  opt.plan.delay = delay;
  opt.seed = seed;
  engine::JobRun run(cluster, dag, opt);
  run.start();
  sim.run();
  return run.result().jct;
}

class ModelEngineConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelEngineConsistency, StockPredictionWithinTolerance) {
  const dag::JobDag j = random_job(GetParam());
  const auto spec = sim::ClusterSpec::paper_prototype();
  const core::JobProfile p = core::JobProfile::from(j, spec);
  const double model = core::ScheduleEvaluator(p).evaluate({}).jct;
  const double engine = engine_jct(j, {}, 42);
  // Uncalibrated random jobs: the model must stay in the right ballpark
  // (the calibrated workloads are held to ~10%, see bench_model_accuracy).
  EXPECT_GT(engine, 0);
  EXPECT_LT(std::abs(model - engine) / engine, 0.45)
      << "model " << model << " engine " << engine;
}

TEST_P(ModelEngineConsistency, ChosenDelaysDoNotBackfireOnTheEngine) {
  const dag::JobDag j = random_job(GetParam());
  const auto spec = sim::ClusterSpec::paper_prototype();
  const core::JobProfile p = core::JobProfile::from(j, spec);
  const core::DelaySchedule sched = core::DelayCalculator(p).compute();
  const double stock = engine_jct(j, {}, 42);
  const double delayed = engine_jct(j, sched.delay, 42);
  // The planner may not always win on an uncalibrated job, but it must
  // never meaningfully hurt.
  EXPECT_LT(delayed, stock * 1.10)
      << "stock " << stock << " delayed " << delayed;
}

INSTANTIATE_TEST_SUITE_P(RandomJobs, ModelEngineConsistency,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108, 109, 110));

TEST(FabricStress, ManyRandomFlowsConserveBytesAndTerminate) {
  Rng rng(99);
  sim::Simulator sim;
  std::vector<BytesPerSec> nic(20);
  for (auto& b : nic) b = rng.uniform(10e6, 60e6);
  sim::NetworkFabric net(sim, std::move(nic), 1e9, /*group_penalty=*/0.8);
  double total = 0;
  int completions = 0;
  constexpr int kFlows = 400;
  for (int i = 0; i < kFlows; ++i) {
    const auto src = static_cast<sim::NodeId>(rng.uniform_int(0, 19));
    const auto dst = static_cast<sim::NodeId>(rng.uniform_int(0, 19));
    const double bytes = rng.uniform(1e5, 5e8);
    total += bytes;
    const Seconds at = rng.uniform(0.0, 30.0);
    sim.schedule_at(at, [&, src, dst, bytes, i] {
      net.start_flow({src, dst, bytes, i % 7, [&] { ++completions; }});
    });
  }
  sim.run();
  net.sync();
  EXPECT_EQ(completions, kFlows);
  EXPECT_NEAR(net.total_delivered(), total, total * 1e-6);
  EXPECT_EQ(net.active_flows(), 0u);
}

}  // namespace
}  // namespace ds
