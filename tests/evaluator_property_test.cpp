// Property suites for the planner's model: slot-width robustness, delay
// monotonicity, straggler monotonicity, and calculator option behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "core/delay_calculator.h"
#include "core/evaluator.h"
#include "core/profile.h"
#include "sim/cluster.h"
#include "util/units.h"
#include "workloads/workloads.h"

namespace ds::core {
namespace {

using namespace ds;  // literals

class SlotWidth : public ::testing::TestWithParam<double> {};

TEST_P(SlotWidth, EvaluationIsStableAcrossSlotWidths) {
  const auto dag = workloads::cosine_similarity();
  const JobProfile p = JobProfile::from(dag, sim::ClusterSpec::paper_prototype());
  const double base = ScheduleEvaluator(p, 1.0).evaluate({}).jct;
  const double other = ScheduleEvaluator(p, GetParam()).evaluate({}).jct;
  // Coarser slots quantise transitions but must not change the physics.
  EXPECT_NEAR(other, base, base * 0.08 + 3 * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Widths, SlotWidth, ::testing::Values(0.5, 2.0, 5.0));

TEST(EvaluatorProperty, DelayingAChainStageShiftsTheJct) {
  // A pure chain has no interleaving opportunity: delaying any stage moves
  // the JCT by exactly the delay (slot-quantised).
  dag::JobDag j("chain");
  for (int i = 0; i < 3; ++i) {
    dag::Stage s;
    s.name = "c";
    s.num_tasks = 10;
    s.input_bytes = 1_GB;
    s.process_rate = 2_MBps;
    s.output_bytes = 200_MB;
    j.add_stage(s);
  }
  j.add_edge(0, 1);
  j.add_edge(1, 2);
  const JobProfile p = JobProfile::from(j, sim::ClusterSpec::paper_prototype());
  const ScheduleEvaluator ev(p);
  const double base = ev.evaluate({}).jct;
  for (double d : {10.0, 50.0, 200.0}) {
    EXPECT_NEAR(ev.evaluate({0, d, 0}).jct, base + d, 2.0) << "delay " << d;
  }
}

TEST(EvaluatorProperty, MoreSkewNeverShortensAStage) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  double last = 0;
  for (double skew : {0.0, 0.1, 0.3, 0.5}) {
    dag::JobDag j("skew");
    dag::Stage s;
    s.name = "s";
    s.num_tasks = 40;
    s.input_bytes = 8_GB;
    s.process_rate = 3_MBps;
    s.output_bytes = 1_GB;
    s.task_skew = skew;
    j.add_stage(s);
    const JobProfile p = JobProfile::from(j, spec);
    const double jct = ScheduleEvaluator(p).evaluate({}).jct;
    EXPECT_GE(jct, last - 1e-9) << "skew " << skew;
    last = jct;
  }
}

TEST(EvaluatorProperty, ClusterSizeScalesSensibly) {
  // Strict monotonicity does not hold (slot queueing can stagger stages
  // into serendipitously better schedules), but an undersized cluster must
  // be clearly slower, and growth must never cost more than a few percent.
  const auto dag = workloads::lda();
  std::vector<double> jct;
  for (int workers : {5, 10, 20, 30, 60}) {
    sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
    spec.num_workers = workers;
    spec.congestion_penalty = 0.0;
    const JobProfile p = JobProfile::from(dag, spec);
    jct.push_back(ScheduleEvaluator(p).evaluate({}).jct);
  }
  EXPECT_GT(jct.front(), 1.3 * jct.back());  // 5 workers ≫ 60 workers
  for (std::size_t i = 1; i < jct.size(); ++i)
    EXPECT_LE(jct[i], jct[i - 1] * 1.10) << "step " << i;
}

TEST(EvaluatorProperty, CongestionPenaltyOnlyHurts) {
  const auto dag = workloads::triangle_count();
  double last = 0;
  for (double beta : {0.0, 0.5, 1.2, 2.0}) {
    sim::ClusterSpec spec = sim::ClusterSpec::paper_prototype();
    spec.congestion_penalty = beta;
    const JobProfile p = JobProfile::from(dag, spec);
    const double jct = ScheduleEvaluator(p).evaluate({}).jct;
    EXPECT_GE(jct, last - 1e-9) << "beta " << beta;
    last = jct;
  }
}

TEST(CalculatorOptions, MoreSweepsNeverWorsenTheModelScore) {
  const auto dag = workloads::cosine_similarity();
  const JobProfile p = JobProfile::from(dag, sim::ClusterSpec::paper_prototype());
  CalculatorOptions one;
  one.sweeps = 1;
  CalculatorOptions three;
  three.sweeps = 3;
  const Seconds m1 = DelayCalculator(p, one).compute().predicted_makespan;
  const Seconds m3 = DelayCalculator(p, three).compute().predicted_makespan;
  EXPECT_LE(m3, m1 + 1e-6);
}

TEST(CalculatorOptions, RandomOrderIsSeedDeterministic) {
  const auto dag = workloads::triangle_count();
  const JobProfile p = JobProfile::from(dag, sim::ClusterSpec::paper_prototype());
  CalculatorOptions a;
  a.order = PathOrder::kRandom;
  a.seed = 5;
  CalculatorOptions b = a;
  const auto da = DelayCalculator(p, a).compute().delay;
  const auto db = DelayCalculator(p, b).compute().delay;
  EXPECT_EQ(da, db);
}

TEST(CalculatorOptions, CoarseStepBoundsCandidateGrid) {
  const auto dag = workloads::lda();
  const JobProfile p = JobProfile::from(dag, sim::ClusterSpec::paper_prototype());
  CalculatorOptions coarse;
  coarse.step = 20.0;
  const auto sched = DelayCalculator(p, coarse).compute();
  // The refine grid runs at `step`, so every delay is a multiple of it
  // (up to float noise).
  for (Seconds d : sched.delay) {
    const double rem = std::fmod(d, 20.0);
    EXPECT_TRUE(rem < 1e-6 || rem > 20.0 - 1e-6) << d;
  }
}

TEST(PathsApi, PathTimeAndMaxPathsInterface) {
  const auto dag = workloads::triangle_count();
  const auto one = dag::execution_paths(dag, 1);
  // Even with the enumeration capped to a single path, coverage is restored
  // by the fallback: every parallel stage appears somewhere.
  std::set<dag::StageId> covered;
  for (const auto& p : one)
    for (dag::StageId s : p.stages) covered.insert(s);
  for (dag::StageId s : dag.parallel_stage_set()) EXPECT_TRUE(covered.contains(s));
}

}  // namespace
}  // namespace ds::core
