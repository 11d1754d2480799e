#include <gtest/gtest.h>

#include <algorithm>

#include "dag/job.h"
#include "util/check.h"
#include "util/units.h"

namespace ds::dag {
namespace {

using namespace ds;  // literals

Stage mk(const std::string& name) {
  Stage s;
  s.name = name;
  s.num_tasks = 4;
  s.input_bytes = 1_GB;
  s.process_rate = 50_MBps;
  s.output_bytes = 500_MB;
  return s;
}

// The ALS job of paper Fig. 1: six stages; 1 || 2; 3 || {1, 2, 4}.
JobDag als_shape() {
  JobDag j("als");
  for (int i = 1; i <= 6; ++i)
    j.add_stage(mk(std::string("s").append(std::to_string(i))));
  j.add_edge(0, 3);  // 1 -> 4
  j.add_edge(1, 3);  // 2 -> 4
  j.add_edge(2, 4);  // 3 -> 5
  j.add_edge(3, 4);  // 4 -> 5
  j.add_edge(4, 5);  // 5 -> 6
  return j;
}

TEST(JobDag, TopoOrderRespectsEdges) {
  const JobDag j = als_shape();
  const auto topo = j.topo_order();
  ASSERT_EQ(topo.size(), 6u);
  auto pos = [&](StageId s) {
    return std::find(topo.begin(), topo.end(), s) - topo.begin();
  };
  EXPECT_LT(pos(0), pos(3));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(3), pos(4));
  EXPECT_LT(pos(2), pos(4));
  EXPECT_LT(pos(4), pos(5));
}

TEST(JobDag, DetectsCycle) {
  JobDag j("cyclic");
  j.add_stage(mk("a"));
  j.add_stage(mk("b"));
  j.add_edge(0, 1);
  j.add_edge(1, 0);
  EXPECT_THROW(j.topo_order(), CheckError);
}

TEST(JobDag, AncestorRelationIsTransitive) {
  const JobDag j = als_shape();
  EXPECT_TRUE(j.is_ancestor(0, 3));
  EXPECT_TRUE(j.is_ancestor(0, 4));
  EXPECT_TRUE(j.is_ancestor(0, 5));
  EXPECT_TRUE(j.is_ancestor(2, 5));
  EXPECT_FALSE(j.is_ancestor(3, 0));
  EXPECT_FALSE(j.is_ancestor(0, 1));
  EXPECT_FALSE(j.is_ancestor(0, 2));
}

TEST(JobDag, ParallelRelationMatchesFig1) {
  const JobDag j = als_shape();
  // "Stage 1 runs in parallel with Stage 2, and Stage 3 is executed in
  // parallel with Stage 1, Stage 2, and Stage 4."
  EXPECT_TRUE(j.can_run_in_parallel(0, 1));
  EXPECT_TRUE(j.can_run_in_parallel(2, 0));
  EXPECT_TRUE(j.can_run_in_parallel(2, 1));
  EXPECT_TRUE(j.can_run_in_parallel(2, 3));
  EXPECT_FALSE(j.can_run_in_parallel(0, 3));
  EXPECT_FALSE(j.can_run_in_parallel(4, 2));
  EXPECT_FALSE(j.can_run_in_parallel(3, 3));
}

TEST(JobDag, ParallelStageSetAndSequentialComplement) {
  const JobDag j = als_shape();
  EXPECT_EQ(j.parallel_stage_set(), (std::vector<StageId>{0, 1, 2, 3}));
  EXPECT_EQ(j.sequential_stages(), (std::vector<StageId>{4, 5}));
}

TEST(JobDag, PureChainHasNoParallelStages) {
  JobDag j("chain");
  for (int i = 0; i < 4; ++i)
    j.add_stage(mk(std::string("c").append(std::to_string(i))));
  for (int i = 0; i < 3; ++i) j.add_edge(i, i + 1);
  EXPECT_TRUE(j.parallel_stage_set().empty());
  EXPECT_EQ(j.sequential_stages().size(), 4u);
}

TEST(JobDag, SourcesAndSinks) {
  const JobDag j = als_shape();
  EXPECT_EQ(j.sources(), (std::vector<StageId>{0, 1, 2}));
  EXPECT_EQ(j.sinks(), (std::vector<StageId>{5}));
}

TEST(JobDag, DuplicateEdgesIgnored) {
  JobDag j("dup");
  j.add_stage(mk("a"));
  j.add_stage(mk("b"));
  j.add_edge(0, 1);
  j.add_edge(0, 1);
  EXPECT_EQ(j.children(0).size(), 1u);
  EXPECT_EQ(j.parents(1).size(), 1u);
}

TEST(JobDag, RejectsInvalidConstruction) {
  JobDag j("bad");
  j.add_stage(mk("a"));
  EXPECT_THROW(j.add_edge(0, 0), CheckError);
  EXPECT_THROW(j.add_edge(0, 7), CheckError);
  Stage s = mk("zero-tasks");
  s.num_tasks = 0;
  EXPECT_THROW(j.add_stage(s), CheckError);
}

TEST(Stage, DerivedPerTaskQuantities) {
  Stage s = mk("x");
  s.num_tasks = 8;
  s.input_bytes = 4_GB;
  s.output_bytes = 2_GB;
  s.process_rate = 100_MBps;
  EXPECT_DOUBLE_EQ(s.input_per_task(), 500e6);
  EXPECT_DOUBLE_EQ(s.output_per_task(), 250e6);
  EXPECT_DOUBLE_EQ(s.compute_per_task(), 5.0);
}

TEST(JobDag, GrowingDagInvalidatesAnalysis) {
  JobDag j("grow");
  j.add_stage(mk("a"));
  j.add_stage(mk("b"));
  EXPECT_EQ(j.parallel_stage_set().size(), 2u);  // two isolated stages
  j.add_edge(0, 1);                              // now a chain
  EXPECT_TRUE(j.parallel_stage_set().empty());
}

}  // namespace
}  // namespace ds::dag
