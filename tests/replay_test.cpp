#include <gtest/gtest.h>

#include "trace/replay.h"
#include "trace/synthetic.h"

namespace ds::trace {
namespace {

TraceJob simple_job(Seconds submit, Seconds compute = 100) {
  TraceJob j;
  j.name = std::string("j").append(std::to_string(static_cast<int>(submit)));
  j.submit_time = submit;
  TraceStage a;
  a.name = "M1";
  a.num_tasks = 50;
  a.read_solo = 20;
  a.compute_solo = compute;
  a.write_solo = 5;
  TraceStage b = a;
  b.name = "R2_1";
  b.parents = {0};
  j.stages = {a, b};
  return j;
}

TEST(Replay, LoneJobRunsAtDedicatedSpeed) {
  ReplayOptions opt;
  opt.seed = 1;
  const ReplayResult r = replay({simple_job(0)}, opt);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_NEAR(r.jobs[0].jct, r.jobs[0].dedicated_time, 1e-6);
  EXPECT_GT(r.jobs[0].dedicated_time, 200.0);  // two stages of ~125 s
}

// A cluster small enough that two concurrent jobs saturate it.
ReplayOptions tiny_cluster() {
  ReplayOptions opt;
  opt.cluster.num_workers = 2;
  opt.cluster.executors_per_worker = 2;
  opt.machines_per_job = 2;
  return opt;
}

TEST(Replay, OverlappingJobsDilateEachOtherWhenSaturated) {
  const auto jobs = std::vector<TraceJob>{simple_job(0), simple_job(0)};
  ReplayOptions opt = tiny_cluster();
  opt.seed = 1;
  const ReplayResult r = replay(jobs, opt);
  // Two identical jobs saturating the cluster: both dilate noticeably and
  // never beat their dedicated times.
  for (const auto& j : r.jobs) {
    EXPECT_GE(j.jct, j.dedicated_time - 1e-6);
    EXPECT_GT(j.jct, 1.2 * j.dedicated_time);
    EXPECT_LE(j.jct, 2.0 * j.dedicated_time + 1e-3);
  }
}

TEST(Replay, UnderloadedClusterDoesNotDilate) {
  // The default 4000-machine cluster barely notices two small jobs.
  const auto jobs = std::vector<TraceJob>{simple_job(0), simple_job(0)};
  ReplayOptions opt;
  opt.seed = 1;
  const ReplayResult r = replay(jobs, opt);
  for (const auto& j : r.jobs) EXPECT_NEAR(j.jct, j.dedicated_time, 1e-3);
}

TEST(Replay, DisjointJobsDoNotInterfere) {
  const auto jobs = std::vector<TraceJob>{simple_job(0), simple_job(5000)};
  ReplayOptions opt;
  opt.seed = 1;
  const ReplayResult r = replay(jobs, opt);
  for (const auto& j : r.jobs) EXPECT_NEAR(j.jct, j.dedicated_time, 1e-6);
}

TEST(Replay, PartialOverlapDilatesOnlyTheSharedWindow) {
  // Job B arrives partway through job A's run on a saturated cluster.
  const auto jobs = std::vector<TraceJob>{simple_job(0), simple_job(125)};
  ReplayOptions opt = tiny_cluster();
  opt.seed = 1;
  const ReplayResult r = replay(jobs, opt);
  const double rd = r.jobs[0].dedicated_time;
  ASSERT_GT(rd, 125.0);
  // A runs solo for 125 s, then shares: somewhere between no dilation and
  // full 2× dilation of the remainder.
  EXPECT_GT(r.jobs[0].jct, rd);
  EXPECT_LE(r.jobs[0].jct, 125.0 + 2.0 * (rd - 125.0) + 1.0);
}

TEST(Replay, UtilizationSeriesBounded) {
  SyntheticTraceOptions sopt;
  sopt.num_jobs = 80;
  sopt.horizon = 24 * 3600;
  sopt.seed = 11;
  const auto jobs = synthetic_trace(sopt);
  ReplayOptions opt;
  opt.seed = 2;
  const ReplayResult r = replay(jobs, opt);
  for (const auto& ts : {&r.cluster_cpu, &r.cluster_net, &r.machine_cpu,
                         &r.machine_net}) {
    ASSERT_FALSE(ts->empty());
    EXPECT_GE(ts->summarize().min, 0.0);
    EXPECT_LE(ts->summarize().max, 100.0 + 1e-9);
  }
  for (const auto& j : r.jobs) {
    EXPECT_GT(j.jct, 0);
    EXPECT_GE(j.jct, j.dedicated_time - 1e-6);  // sharing never speeds up
  }
}

TEST(Replay, DelayStageReducesMeanJctVsFuxi) {
  SyntheticTraceOptions sopt;
  sopt.num_jobs = 60;
  sopt.horizon = 12 * 3600;
  sopt.seed = 21;
  const auto jobs = synthetic_trace(sopt);

  ReplayOptions fuxi;
  fuxi.strategy = "Fuxi";
  fuxi.seed = 3;
  ReplayOptions ds;
  ds.strategy = "DelayStage";
  ds.seed = 3;
  const double jct_fuxi = replay(jobs, fuxi).mean_jct();
  const double jct_ds = replay(jobs, ds).mean_jct();
  EXPECT_LT(jct_ds, jct_fuxi);
}

TEST(Replay, DelayStageRaisesUtilization) {
  SyntheticTraceOptions sopt;
  sopt.num_jobs = 60;
  sopt.horizon = 12 * 3600;
  sopt.seed = 23;
  const auto jobs = synthetic_trace(sopt);
  ReplayOptions fuxi;
  fuxi.seed = 3;
  ReplayOptions ds;
  ds.strategy = "DelayStage";
  ds.seed = 3;
  const ReplayResult rf = replay(jobs, fuxi);
  const ReplayResult rd = replay(jobs, ds);
  EXPECT_GT(rd.mean_cpu_util(), rf.mean_cpu_util() * 0.95);
}

TEST(Replay, AllVariantsComplete) {
  SyntheticTraceOptions sopt;
  sopt.num_jobs = 30;
  sopt.seed = 31;
  const auto jobs = synthetic_trace(sopt);
  for (const char* strat : {"Fuxi", "DelayStage", "random DelayStage",
                            "ascending DelayStage"}) {
    ReplayOptions opt;
    opt.strategy = strat;
    opt.seed = 4;
    const ReplayResult r = replay(jobs, opt);
    EXPECT_EQ(r.jobs.size(), jobs.size()) << strat;
    EXPECT_GT(r.mean_jct(), 0) << strat;
  }
}

}  // namespace
}  // namespace ds::trace
