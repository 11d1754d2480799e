#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/perf_model.h"
#include "core/profile.h"
#include "dag/paths.h"
#include "service/policy.h"
#include "util/units.h"
#include "workloads/workloads.h"

namespace ds::dag {
namespace {

using namespace ds;  // literals

Stage mk(const std::string& name) {
  Stage s;
  s.name = name;
  s.num_tasks = 2;
  s.input_bytes = 100_MB;
  s.process_rate = 10_MBps;
  s.output_bytes = 50_MB;
  return s;
}

// Paper Fig. 7: stages 1..5 (ids 0..4). K = {1,2,3,4}; paths P1={1,3},
// P2={2,3}, P3={4}; stage 5 is sequential.
JobDag fig7() {
  JobDag j("fig7");
  for (int i = 1; i <= 5; ++i)
    j.add_stage(mk(std::string("s").append(std::to_string(i))));
  j.add_edge(0, 2);  // 1 -> 3
  j.add_edge(1, 2);  // 2 -> 3
  j.add_edge(2, 4);  // 3 -> 5
  j.add_edge(3, 4);  // 4 -> 5
  return j;
}

std::set<std::vector<StageId>> as_set(const std::vector<ExecutionPath>& ps) {
  std::set<std::vector<StageId>> out;
  for (const auto& p : ps) out.insert(p.stages);
  return out;
}

TEST(Paths, Fig7Decomposition) {
  const JobDag j = fig7();
  const auto paths = execution_paths(j);
  EXPECT_EQ(as_set(paths),
            (std::set<std::vector<StageId>>{{0, 2}, {1, 2}, {3}}));
}

TEST(Paths, PathTimeSumsStageDurations) {
  const JobDag j = fig7();
  // Fig. 7 durations: t1=20, t2=10, t3=30, t4=20 (t5 sequential).
  const std::vector<double> t{20, 10, 30, 20, 10};
  const auto paths = execution_paths(j);
  std::vector<Seconds> times;
  for (const auto& p : paths)
    times.push_back(path_time(p, [&](StageId s) { return t[static_cast<std::size_t>(s)]; }));
  std::sort(times.begin(), times.end());
  EXPECT_EQ(times, (std::vector<Seconds>{20, 40, 50}));
}

TEST(Paths, LongestPathTakesTheHeaviestChain) {
  // Diamond 0 -> {1, 2} -> 3 plus an isolated stage 4.
  JobDag j("diamond");
  for (int i = 0; i < 5; ++i) j.add_stage(mk("d"));
  j.add_edge(0, 1);
  j.add_edge(0, 2);
  j.add_edge(1, 3);
  j.add_edge(2, 3);
  const std::vector<Seconds> t{10, 30, 20, 5, 40};
  const auto masked = [&](std::set<StageId> k) {
    return longest_path(j, [&](StageId s) {
      return k.contains(s) ? t[static_cast<std::size_t>(s)] : 0.0;
    });
  };
  EXPECT_EQ(masked({0, 1, 2, 3, 4}), 45.0);  // 0 -> 1 -> 3 beats stage 4
  EXPECT_EQ(masked({1, 2}), 30.0);           // the heavier branch alone
  EXPECT_EQ(masked({2, 4}), 40.0);           // the isolated stage alone
  EXPECT_EQ(longest_path(JobDag("empty"), [](StageId) { return 1.0; }), 0.0);
}

// The solo-weighted bound is the scheduler's HardFirst key. Its values for
// the benchmark suite on both cluster specs are pinned bit for bit.
TEST(Paths, LongestPathMatchesThePinnedHardFirstKeys) {
  const std::vector<double> prototype{
      0x1.bb41a14eac252p+8, 0x1.2dc09e7205763p+7, 0x1.aad743dc20eedp+8,
      0x1.66f4fa4dfdb78p+8};
  const std::vector<double> three_node{
      0x1.9a99d99a63e1ap+10, 0x1.444c4baa3f0dep+9, 0x1.ab253fd70f7afp+10,
      0x1.251e530b71736p+10};
  const auto suite = workloads::benchmark_suite();
  ASSERT_EQ(suite.size(), prototype.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (const auto& [spec, want] :
         {std::pair{sim::ClusterSpec::paper_prototype(), prototype[i]},
          std::pair{sim::ClusterSpec::three_node(), three_node[i]}}) {
      const auto profile = core::JobProfile::from(suite[i].dag, spec);
      const core::PerfModel model(profile);
      EXPECT_EQ(longest_path(suite[i].dag,
                             [&](StageId s) { return model.solo_time(s); }),
                want)
          << suite[i].name;
      EXPECT_EQ(service::critical_path_time(profile), want) << suite[i].name;
    }
  }
}

TEST(Paths, ChainJobHasNoPaths) {
  JobDag j("chain");
  for (int i = 0; i < 3; ++i) j.add_stage(mk("c"));
  j.add_edge(0, 1);
  j.add_edge(1, 2);
  EXPECT_TRUE(execution_paths(j).empty());
}

TEST(Paths, IndependentStagesBecomeSingletons) {
  JobDag j("fan");
  for (int i = 0; i < 4; ++i) j.add_stage(mk("f"));
  const auto paths = execution_paths(j);
  EXPECT_EQ(as_set(paths),
            (std::set<std::vector<StageId>>{{0}, {1}, {2}, {3}}));
}

TEST(Paths, EveryParallelStageIsCovered) {
  // Layered diamond mesh: dense enough that truncation kicks in with a tiny
  // max_paths, exercising the cover fallback.
  JobDag j("mesh");
  constexpr int kLayers = 6, kWidth = 4;
  for (int l = 0; l < kLayers; ++l)
    for (int w = 0; w < kWidth; ++w) j.add_stage(mk("m"));
  auto id = [&](int l, int w) { return l * kWidth + w; };
  for (int l = 0; l + 1 < kLayers; ++l)
    for (int w = 0; w < kWidth; ++w)
      for (int w2 = 0; w2 < kWidth; ++w2) j.add_edge(id(l, w), id(l + 1, w2));
  const auto k = j.parallel_stage_set();
  for (std::size_t cap : {std::size_t{2}, std::size_t{8}, std::size_t{512}}) {
    const auto paths = execution_paths(j, cap);
    std::set<StageId> covered;
    for (const auto& p : paths)
      for (StageId s : p.stages) covered.insert(s);
    for (StageId s : k)
      EXPECT_TRUE(covered.contains(s)) << "cap=" << cap << " stage " << s;
  }
}

TEST(Paths, PathsFollowDependencyOrder) {
  const JobDag j = fig7();
  for (const auto& p : execution_paths(j)) {
    for (std::size_t i = 0; i + 1 < p.stages.size(); ++i)
      EXPECT_TRUE(j.is_ancestor(p.stages[i], p.stages[i + 1]));
  }
}

TEST(Paths, MaximalChainsOnly) {
  // a -> b -> c all in K (plus an isolated d to make them parallel).
  JobDag j("maximal");
  for (int i = 0; i < 4; ++i) j.add_stage(mk("s"));
  j.add_edge(0, 1);
  j.add_edge(1, 2);
  const auto paths = execution_paths(j);
  // Expect exactly {0,1,2} and {3} — no sub-chains like {1,2}.
  EXPECT_EQ(as_set(paths), (std::set<std::vector<StageId>>{{0, 1, 2}, {3}}));
}

}  // namespace
}  // namespace ds::dag
