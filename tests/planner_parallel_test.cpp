// Determinism and equivalence suite for the parallel planner: thread-count
// invariance of the calculator and the trace replay, scratch-arena reuse,
// fast-forward bit-exactness, memoized duplicate elimination, and the
// incremental scan against per-candidate scoring.
#include <gtest/gtest.h>

#include <vector>

#include "core/delay_calculator.h"
#include "core/evaluator.h"
#include "core/profile.h"
#include "sim/cluster.h"
#include "trace/replay.h"
#include "trace/synthetic.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads/workloads.h"

namespace ds::core {
namespace {

using namespace ds;  // literals

void expect_same_evaluation(const Evaluation& a, const Evaluation& b) {
  // Bit-exact, not approximate: the paths under test promise the identical
  // arithmetic, so every double must match exactly.
  EXPECT_EQ(a.jct, b.jct);
  EXPECT_EQ(a.parallel_end, b.parallel_end);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].ready, b.stages[s].ready) << "stage " << s;
    EXPECT_EQ(a.stages[s].submitted, b.stages[s].submitted) << "stage " << s;
    EXPECT_EQ(a.stages[s].read_done, b.stages[s].read_done) << "stage " << s;
    EXPECT_EQ(a.stages[s].compute_done, b.stages[s].compute_done)
        << "stage " << s;
    EXPECT_EQ(a.stages[s].finish, b.stages[s].finish) << "stage " << s;
  }
}

// A few delay vectors with different shapes per workload: no delays, a
// uniform stagger, and an alternating one.
std::vector<std::vector<Seconds>> probe_delays(std::size_t n) {
  std::vector<std::vector<Seconds>> out;
  out.emplace_back(n, 0.0);
  out.emplace_back(n, 25.0);
  std::vector<Seconds> alt(n, 0.0);
  for (std::size_t i = 1; i < n; i += 2)
    alt[i] = 10.0 * static_cast<double>(i);
  out.push_back(std::move(alt));
  return out;
}

// TriangleCount on an 18-worker, β = 0.2 cluster: with stage 1 delayed by
// 132.40625 s, stage 2's wave grows mid-run (6 -> 23.28 slots) at a
// boundary the fast-forward would otherwise freeze. scan() pauses at that
// boundary while score() can skip it, and concurrent restarts share one
// memo filled by both, so any disagreement there makes multi-threaded
// compute() depend on which restart scores a vector first.
struct WaveGrowthProfile {
  dag::JobDag dag = workloads::benchmark_suite(0.497)[3].dag;
  JobProfile profile;
  WaveGrowthProfile() {
    auto spec = sim::ClusterSpec::paper_prototype();
    spec.num_workers = 18;
    spec.congestion_penalty = 0.2;
    profile = JobProfile::from(dag, spec);
  }
  // `profile` points at `dag`: a copy would point at the original.
  WaveGrowthProfile(const WaveGrowthProfile&) = delete;
  WaveGrowthProfile& operator=(const WaveGrowthProfile&) = delete;
};

TEST(PlannerParallel, ComputeIsBitIdenticalAcrossThreadCounts) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  for (const auto& w : workloads::benchmark_suite()) {
    const JobProfile profile = JobProfile::from(w.dag, spec);
    CalculatorOptions one;
    one.threads = 1;
    const DelaySchedule a = DelayCalculator(profile, one).compute();
    for (int threads : {4, 8}) {
      CalculatorOptions many = one;
      many.threads = threads;
      const DelaySchedule b = DelayCalculator(profile, many).compute();
      EXPECT_EQ(a.delay, b.delay) << w.name << " @" << threads;
      EXPECT_EQ(a.predicted_makespan, b.predicted_makespan) << w.name;
      EXPECT_EQ(a.predicted_jct, b.predicted_jct) << w.name;
    }
  }
  // Concurrent restarts race to fill one memo; repeat so an answer that
  // depends on which restart lands first has many chances to show.
  const WaveGrowthProfile wg;
  ASSERT_EQ(wg.dag.name(), "TriangleCount");
  CalculatorOptions one;
  one.threads = 1;
  const DelaySchedule a = DelayCalculator(wg.profile, one).compute();
  for (int threads : {2, 4}) {
    for (int rep = 0; rep < 20; ++rep) {
      CalculatorOptions many = one;
      many.threads = threads;
      const DelaySchedule b = DelayCalculator(wg.profile, many).compute();
      EXPECT_EQ(a.delay, b.delay) << "@" << threads << " rep " << rep;
      EXPECT_EQ(a.predicted_makespan, b.predicted_makespan) << "@" << threads;
      EXPECT_EQ(a.predicted_jct, b.predicted_jct) << "@" << threads;
    }
  }
}

TEST(PlannerParallel, ReplayIsBitIdenticalAcrossThreadCounts) {
  trace::SyntheticTraceOptions topt;
  topt.num_jobs = 40;
  topt.seed = 11;
  const auto jobs = trace::synthetic_trace(topt);
  trace::ReplayOptions ropt;
  ropt.strategy = "DelayStage";
  ropt.cluster.num_workers = 40;
  ropt.seed = 3;
  ropt.threads = 1;
  const trace::ReplayResult a = trace::replay(jobs, ropt);
  ropt.threads = 8;
  const trace::ReplayResult b = trace::replay(jobs, ropt);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish) << "job " << i;
    EXPECT_EQ(a.jobs[i].jct, b.jobs[i].jct) << "job " << i;
    EXPECT_EQ(a.jobs[i].dedicated_time, b.jobs[i].dedicated_time)
        << "job " << i;
  }
}

TEST(PlannerParallel, ReusedScratchMatchesFreshArena) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  for (const auto& w : workloads::benchmark_suite()) {
    const JobProfile profile = JobProfile::from(w.dag, spec);
    const ScheduleEvaluator eval(profile);
    EvalScratch warm;  // reused across every evaluation below
    for (const auto& delay :
         probe_delays(static_cast<std::size_t>(w.dag.num_stages()))) {
      const Evaluation reused = eval.evaluate(delay, warm);
      EvalScratch fresh;
      const Evaluation cold = eval.evaluate(delay, fresh);
      expect_same_evaluation(reused, cold);
    }
  }
}

TEST(PlannerParallel, FastForwardMatchesNaiveMarch) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  for (const auto& w : workloads::benchmark_suite()) {
    const JobProfile profile = JobProfile::from(w.dag, spec);
    ScheduleEvaluator fast(profile);
    ScheduleEvaluator naive(profile);
    naive.set_fast_forward(false);
    for (const auto& delay :
         probe_delays(static_cast<std::size_t>(w.dag.num_stages()))) {
      expect_same_evaluation(fast.evaluate(delay), naive.evaluate(delay));
    }
    // The fast path must actually have skipped work to count as exercised.
    EXPECT_GT(fast.slots_skipped(), 0u) << w.name;
    EXPECT_EQ(naive.slots_skipped(), 0u) << w.name;
  }
  // Seeded random-delay differential over scales, cluster sizes and
  // congestion: delays land stages mid-run of others, which is where wave
  // growth and slot release interact with the frozen-allocation regime.
  Rng rng(20190805);
  for (double scale : {0.497, 1.0}) {
    const auto suite = workloads::benchmark_suite(scale);
    for (int workers : {10, 18, 30}) {
      for (double beta : {0.0, 0.2}) {
        sim::ClusterSpec cs = spec;
        cs.num_workers = workers;
        cs.congestion_penalty = beta;
        for (const auto& w : suite) {
          const JobProfile profile = JobProfile::from(w.dag, cs);
          ScheduleEvaluator fast(profile);
          ScheduleEvaluator naive(profile);
          naive.set_fast_forward(false);
          const auto n = static_cast<std::size_t>(w.dag.num_stages());
          for (int rep = 0; rep < 20; ++rep) {
            std::vector<Seconds> delay(n, 0.0);
            for (auto& d : delay)
              if (rng.chance(0.5)) d = rng.uniform(0.0, 200.0);
            SCOPED_TRACE(::testing::Message()
                         << w.name << " scale " << scale << " workers "
                         << workers << " beta " << beta << " rep " << rep);
            expect_same_evaluation(fast.evaluate(delay), naive.evaluate(delay));
          }
        }
      }
    }
  }
}

TEST(PlannerParallel, MemoEliminatesDuplicateEvaluationsUnchangedResult) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  for (const auto& w : workloads::benchmark_suite()) {
    const JobProfile profile = JobProfile::from(w.dag, spec);
    CalculatorOptions plain;
    plain.memoize = false;
    const DelaySchedule a = DelayCalculator(profile, plain).compute();
    CalculatorOptions memo = plain;
    memo.memoize = true;
    const DelaySchedule b = DelayCalculator(profile, memo).compute();
    // Identical plan, strictly less simulation: Alg. 1 re-baselines at x = 0
    // and re-visits coarse grid points, and the memo answers those hits.
    EXPECT_EQ(a.delay, b.delay) << w.name;
    EXPECT_EQ(a.predicted_makespan, b.predicted_makespan) << w.name;
    EXPECT_EQ(a.predicted_jct, b.predicted_jct) << w.name;
    EXPECT_GT(b.memo_hits, 0u) << w.name;
    EXPECT_LT(b.evaluations, a.evaluations) << w.name;
    EXPECT_EQ(a.memo_hits, 0u) << w.name;
  }
}

TEST(PlannerParallel, ScanMatchesPerCandidateScore) {
  const auto spec = sim::ClusterSpec::paper_prototype();
  ThreadPool pool(4);
  for (const auto& w : workloads::benchmark_suite()) {
    const JobProfile profile = JobProfile::from(w.dag, spec);
    const ScheduleEvaluator eval(profile);
    const auto n = static_cast<std::size_t>(w.dag.num_stages());
    // Candidate grid including x = 0 (the bypass path) and large offsets.
    const std::vector<Seconds> xs = {0.0, 3.0, 17.0, 60.0, 155.0, 400.0};
    for (dag::StageId k = 0; k < w.dag.num_stages(); ++k) {
      for (bool pooled : {false, true}) {
        std::vector<Seconds> delay(n, 0.0);
        delay[static_cast<std::size_t>(2 * k) % n] = 12.0;  // vary the base
        std::vector<Score> scanned;
        eval.scan(delay, k, xs, scanned, nullptr, pooled ? &pool : nullptr);
        ASSERT_EQ(scanned.size(), xs.size());
        EvalScratch scratch;
        for (std::size_t i = 0; i < xs.size(); ++i) {
          delay[static_cast<std::size_t>(k)] = xs[i];
          const Score direct = eval.score(delay, scratch);
          EXPECT_EQ(scanned[i].makespan, direct.makespan)
              << w.name << " stage " << k << " x=" << xs[i];
          EXPECT_EQ(scanned[i].jct, direct.jct)
              << w.name << " stage " << k << " x=" << xs[i];
        }
      }
    }
  }
  // The wave-growth profile: scan() pauses at every candidate's admission,
  // so it processes boundaries that score() would fast-forward over.
  const WaveGrowthProfile wg;
  const ScheduleEvaluator eval(wg.profile);
  std::vector<Seconds> xs;
  for (int i = 1; i <= 32; ++i) xs.push_back(6.96875 * i);
  const dag::StageId k = 1;
  for (bool pooled : {false, true}) {
    std::vector<Seconds> delay(
        static_cast<std::size_t>(wg.dag.num_stages()), 0.0);
    std::vector<Score> scanned;
    eval.scan(delay, k, xs, scanned, nullptr, pooled ? &pool : nullptr);
    ASSERT_EQ(scanned.size(), xs.size());
    EvalScratch scratch;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      delay[static_cast<std::size_t>(k)] = xs[i];
      const Score direct = eval.score(delay, scratch);
      EXPECT_EQ(scanned[i].makespan, direct.makespan) << "x=" << xs[i];
      EXPECT_EQ(scanned[i].jct, direct.jct) << "x=" << xs[i];
    }
  }
}

}  // namespace
}  // namespace ds::core
