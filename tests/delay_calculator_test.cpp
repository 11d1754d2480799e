#include <gtest/gtest.h>

#include <set>

#include "core/delay_calculator.h"
#include "core/stage_delayer.h"
#include "sim/cluster.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"
#include "workloads/workloads.h"

namespace ds::core {
namespace {

using namespace ds;  // literals

// Random layered volumetric DAG for property sweeps.
dag::JobDag random_job(std::uint64_t seed) {
  Rng rng(seed);
  dag::JobDag j("rand" + std::to_string(seed));
  const int layers = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<std::vector<dag::StageId>> layer_ids(static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    const int width = static_cast<int>(rng.uniform_int(1, 3));
    for (int w = 0; w < width; ++w) {
      dag::Stage s;
      s.name = "s";
      s.num_tasks = static_cast<int>(rng.uniform_int(8, 40));
      s.input_bytes = rng.uniform(0.5, 6.0) * 1e9;
      s.process_rate = rng.uniform(1.0, 4.0) * 1e6;
      s.output_bytes = rng.uniform(0.1, 2.0) * 1e9;
      s.task_skew = rng.uniform(0.0, 0.3);
      layer_ids[static_cast<std::size_t>(l)].push_back(j.add_stage(s));
    }
    if (l > 0) {
      for (dag::StageId c : layer_ids[static_cast<std::size_t>(l)]) {
        // Each stage gets at least one parent from the previous layer.
        const auto& prev = layer_ids[static_cast<std::size_t>(l - 1)];
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(prev.size()) - 1));
        j.add_edge(prev[pick], c);
        if (rng.chance(0.4) && prev.size() > 1)
          j.add_edge(prev[(pick + 1) % prev.size()], c);
      }
    }
  }
  return j;
}

class CalculatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalculatorProperty, ConstraintsAndImprovementHold) {
  const dag::JobDag j = random_job(GetParam());
  const auto spec = sim::ClusterSpec::paper_prototype();
  const JobProfile p = JobProfile::from(j, spec);
  const DelayCalculator calc(p);
  const DelaySchedule sched = calc.compute();

  // Constraint (5): x_k >= 0; sequential stages never delayed.
  ASSERT_EQ(sched.delay.size(), static_cast<std::size_t>(j.num_stages()));
  const auto k_set = j.parallel_stage_set();
  const std::set<dag::StageId> k(k_set.begin(), k_set.end());
  for (dag::StageId s = 0; s < j.num_stages(); ++s) {
    EXPECT_GE(sched.delay[static_cast<std::size_t>(s)], 0.0);
    if (!k.contains(s)) {
      EXPECT_DOUBLE_EQ(sched.delay[static_cast<std::size_t>(s)], 0.0);
    }
  }

  // Greedy never worsens the model makespan relative to stock.
  const ScheduleEvaluator ev(p);
  const Evaluation stock = ev.evaluate({});
  EXPECT_LE(sched.predicted_makespan, stock.parallel_end + 1e-6);

  // Delays bounded by the initial makespan (u_k = T_max, line 10).
  for (Seconds d : sched.delay) EXPECT_LE(d, stock.parallel_end + 1e-6);

  // Dependency constraints (6)-(7) hold by construction: delays are relative
  // to readiness; verify via the evaluator's timelines.
  const Evaluation e = ev.evaluate(sched.delay);
  for (dag::StageId s = 0; s < j.num_stages(); ++s) {
    for (dag::StageId par : j.parents(s)) {
      EXPECT_GE(e.stages[static_cast<std::size_t>(s)].submitted,
                e.stages[static_cast<std::size_t>(par)].finish - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, CalculatorProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(DelayCalculator, ImprovesEveryBenchmarkWorkloadInModel) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  for (const auto& wl : workloads::benchmark_suite()) {
    const JobProfile p = JobProfile::from(wl.dag, spec);
    const DelaySchedule sched = DelayCalculator(p).compute();
    const Evaluation stock = ScheduleEvaluator(p).evaluate({});
    EXPECT_LT(sched.predicted_makespan, stock.parallel_end) << wl.name;
    EXPECT_LT(sched.predicted_jct, stock.jct) << wl.name;
    // At least one stage actually delayed.
    bool any = false;
    for (Seconds d : sched.delay) any |= d > 0;
    EXPECT_TRUE(any) << wl.name;
  }
}

TEST(DelayCalculator, ChainJobNeedsNoDelays) {
  dag::JobDag j("chain");
  for (int i = 0; i < 3; ++i) {
    dag::Stage s;
    s.name = "c";
    s.num_tasks = 10;
    s.input_bytes = 1_GB;
    s.process_rate = 2_MBps;
    s.output_bytes = 500_MB;
    j.add_stage(s);
  }
  j.add_edge(0, 1);
  j.add_edge(1, 2);
  const JobProfile p = JobProfile::from(j, sim::ClusterSpec::paper_prototype());
  const DelaySchedule sched = DelayCalculator(p).compute();
  for (Seconds d : sched.delay) EXPECT_DOUBLE_EQ(d, 0.0);
  EXPECT_TRUE(sched.paths.empty());
}

TEST(DelayCalculator, AllPathOrdersProduceValidSchedules) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  const dag::JobDag j = workloads::triangle_count();
  const JobProfile p = JobProfile::from(j, spec);
  const Evaluation stock = ScheduleEvaluator(p).evaluate({});
  for (PathOrder order : {PathOrder::kDescending, PathOrder::kRandom,
                          PathOrder::kAscending}) {
    CalculatorOptions opt;
    opt.order = order;
    const DelaySchedule sched = DelayCalculator(p, opt).compute();
    EXPECT_LE(sched.predicted_makespan, stock.parallel_end + 1e-6)
        << to_string(order);
  }
}

TEST(DelayCalculator, ExhaustiveScanAtLeastAsGoodAsItsOwnBaseline) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  const dag::JobDag j = workloads::lda();
  const JobProfile p = JobProfile::from(j, spec);
  CalculatorOptions opt;
  opt.coarse_to_fine = false;
  opt.step = 10.0;  // keep the exhaustive scan affordable
  const DelaySchedule sched = DelayCalculator(p, opt).compute();
  const Evaluation stock = ScheduleEvaluator(p).evaluate({});
  EXPECT_LE(sched.predicted_makespan, stock.parallel_end + 1e-6);
}

TEST(StageDelayer, PropertiesRoundTrip) {
  DelaySchedule s;
  s.delay = {0.0, 110.5, 0.0, 42.0};
  const StageDelayer delayer(s);
  const std::string text = delayer.to_properties();
  EXPECT_NE(text.find("spark.delaystage.stage.1=110.5"), std::string::npos);
  const DelaySchedule back = StageDelayer::from_properties(text);
  ASSERT_EQ(back.delay.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(back.delay[i], s.delay[i]);
}

TEST(StageDelayer, FromPropertiesIgnoresCommentsAndForeignKeys) {
  const std::string text =
      "# DelayStage schedule\n"
      "spark.executor.memory=2g\n"
      "spark.delaystage.stage.2=17\n"
      "\n";
  const DelaySchedule s = StageDelayer::from_properties(text);
  ASSERT_EQ(s.delay.size(), 3u);
  EXPECT_DOUBLE_EQ(s.delay[2], 17.0);
  EXPECT_DOUBLE_EQ(s.delay[0], 0.0);
}

TEST(StageDelayer, RejectsMalformedProperties) {
  EXPECT_THROW(StageDelayer::from_properties("spark.delaystage.stage.x=3\n"),
               CheckError);
  EXPECT_THROW(StageDelayer::from_properties("spark.delaystage.stage.1=abc\n"),
               CheckError);
  EXPECT_THROW(StageDelayer::from_properties("spark.delaystage.stage.1=-5\n"),
               CheckError);
}

TEST(StageDelayer, PlanCarriesDelays) {
  DelaySchedule s;
  s.delay = {5.0, 0.0};
  const engine::SubmissionPlan plan = StageDelayer(s).plan();
  EXPECT_DOUBLE_EQ(plan.delay_for(0), 5.0);
  EXPECT_DOUBLE_EQ(plan.delay_for(1), 0.0);
  EXPECT_DOUBLE_EQ(plan.delay_for(7), 0.0);  // out of range -> 0
  EXPECT_FALSE(plan.pipelined_shuffle);
}

}  // namespace
}  // namespace ds::core
