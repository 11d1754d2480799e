// Drift-closed-loop adaptive planning: mid-job replanning under crashes,
// the ReplanPolicy thrash guards, the calibration feedback loop, and the
// bit-identity contract when adaptation never fires (ctest label: faults).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "core/calibration.h"
#include "core/delay_calculator.h"
#include "engine/job_run.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "util/check.h"
#include "util/units.h"

namespace ds::core {
namespace {

using namespace ds;  // literals

dag::Stage mk(const std::string& name, int tasks, Bytes in, BytesPerSec rate,
              Bytes out) {
  dag::Stage s;
  s.name = name;
  s.num_tasks = tasks;
  s.input_bytes = in;
  s.process_rate = rate;
  s.output_bytes = out;
  s.task_skew = 0.2;
  return s;
}

// Two parallel branches joining — parallel stages, so DelayStage actually
// plans nonzero delays and a replan has something to move.
dag::JobDag diamond() {
  dag::JobDag j("diamond");
  j.add_stage(mk("src", 6, 900_MB, 30_MBps, 900_MB));
  j.add_stage(mk("left", 6, 900_MB, 6_MBps, 300_MB));
  j.add_stage(mk("right", 6, 900_MB, 60_MBps, 300_MB));
  j.add_stage(mk("join", 6, 600_MB, 30_MBps, 0));
  j.add_edge(0, 1);
  j.add_edge(0, 2);
  j.add_edge(1, 3);
  j.add_edge(2, 3);
  return j;
}

// Three parallel branches with mixed resource profiles: the planner delays
// the cpu-heavy branch to interleave with the net-heavy fetch, and that
// stagger is sharply sensitive to the worker count — losing a node makes
// the original delays stale enough for a replan to win.
dag::JobDag fan() {
  dag::JobDag j("fan");
  j.add_stage(mk("src", 6, 600_MB, 60_MBps, 1.2_GB));
  j.add_stage(mk("net-heavy", 6, 1.2_GB, 60_MBps, 100_MB));
  j.add_stage(mk("cpu-heavy", 6, 300_MB, 3_MBps, 100_MB));
  j.add_stage(mk("mid", 6, 600_MB, 12_MBps, 100_MB));
  j.add_stage(mk("join", 6, 300_MB, 30_MBps, 0));
  j.add_edge(0, 1);
  j.add_edge(0, 2);
  j.add_edge(0, 3);
  j.add_edge(1, 4);
  j.add_edge(2, 4);
  j.add_edge(3, 4);
  return j;
}

dag::JobDag chain(int stages) {
  dag::JobDag j("chain");
  for (int i = 0; i < stages; ++i)
    j.add_stage(mk(std::string("s").append(std::to_string(i)), 4, 300_MB,
                   30_MBps, 300_MB));
  for (int i = 0; i + 1 < stages; ++i) j.add_edge(i, i + 1);
  return j;
}

engine::JobResult run_to_completion(sim::Cluster& cluster,
                                    const dag::JobDag& dag,
                                    engine::RunOptions opt) {
  engine::JobRun run(cluster, dag, std::move(opt));
  run.start();
  cluster.sim().run();
  EXPECT_TRUE(run.finished());
  return run.result();
}

// ---------- crash-triggered replanning ----------

TEST(AdaptiveReplan, CrashTriggersReplanAndJobCompletes) {
  const dag::JobDag dag = fan();
  const auto spec = sim::ClusterSpec::three_node();

  sim::Simulator sim;
  sim::Cluster cluster(sim, spec, 7);
  const JobProfile profile = JobProfile::from(dag, spec);

  AdaptiveOptions aopt;
  aopt.replan.enabled = true;
  aopt.replan.cooldown = 0.0;
  aopt.replan.min_expected_gain = 0.0;
  aopt.replan.trigger_rel_error = 1e9;  // isolate the crash trigger
  AdaptivePlanner planner(profile, aopt);
  planner.plan();

  engine::RunOptions opt;
  opt.seed = 3;
  planner.arm(opt);

  // Kill a worker permanently, early — while downstream stages are still
  // pending, so the crash trigger finds delays it is allowed to rewrite.
  sim::FaultPlan fp;
  fp.crashes.push_back({cluster.worker(1), 5.0, -1});
  sim::FaultInjector inj(cluster, fp, opt.seed);
  opt.faults = &inj;
  inj.start();

  engine::JobRun run(cluster, dag, std::move(opt));
  run.start();
  sim.run();
  ASSERT_TRUE(run.finished());
  const engine::JobResult& r = run.result();
  EXPECT_TRUE(r.complete()) << r.failure_reason;
  EXPECT_GE(r.node_crashes, 1);
  // The crash snapshot reached the planner and the frozen-prefix replan was
  // adopted (the shrunk cluster makes the original delays stale).
  EXPECT_GE(r.replans, 1);
  EXPECT_LE(r.replans, aopt.replan.max_replans);
}

TEST(AdaptiveReplan, EngineRejectsArmedPolicyWithoutReplanner) {
  const dag::JobDag dag = chain(2);
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  engine::RunOptions opt;
  opt.replan.enabled = true;  // no replanner installed
  EXPECT_THROW(engine::JobRun(cluster, dag, std::move(opt)), CheckError);
}

// ---------- thrash guards ----------

TEST(AdaptiveReplan, MaxReplansCapsApplications) {
  // Every stage finish triggers drift (tiny predictions), and the replanner
  // always offers an "infinitely better" plan — applications must still stop
  // at max_replans.
  const dag::JobDag dag = chain(6);
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  engine::RunOptions opt;
  opt.seed = 3;
  opt.replan.enabled = true;
  opt.replan.max_replans = 2;
  opt.replan.cooldown = 0.0;
  opt.replan.min_expected_gain = 0.0;
  opt.replan.trigger_rel_error = 0.0;
  opt.predicted_durations.assign(6, 1e-6);  // everything "drifts"
  int calls = 0;
  opt.replanner = [&](const engine::ReplanRequest& req) {
    ++calls;
    engine::ReplanDecision d;
    d.apply = true;
    d.delay = req.plan->delay;
    d.delay.resize(6, 0.0);
    d.expected_gain = 1e9;
    return d;
  };
  const engine::JobResult r = run_to_completion(cluster, dag, std::move(opt));
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.replans, 2);
  // The cap gates *invocations* too: once spent, the planner is never
  // consulted again even though later stages keep drifting.
  EXPECT_EQ(calls, 2);
}

TEST(AdaptiveReplan, CooldownCapsAttemptRate) {
  // Same drifting chain, but one replan attempt per (huge) cooldown window:
  // the planner is invoked exactly once, even though it declined to apply.
  const dag::JobDag dag = chain(6);
  sim::Simulator sim;
  sim::Cluster cluster(sim, sim::ClusterSpec::three_node(), 7);
  engine::RunOptions opt;
  opt.seed = 3;
  opt.replan.enabled = true;
  opt.replan.max_replans = 100;
  opt.replan.cooldown = 1e9;
  opt.replan.trigger_rel_error = 0.0;
  opt.predicted_durations.assign(6, 1e-6);
  int calls = 0;
  opt.replanner = [&](const engine::ReplanRequest&) {
    ++calls;
    return engine::ReplanDecision{};  // decline — still an attempt
  };
  const engine::JobResult r = run_to_completion(cluster, dag, std::move(opt));
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.replans, 0);  // declined decisions apply nothing
}

// ---------- the calibration loop ----------

TEST(AdaptiveLoop, RecurrencesLearnThePerturbation) {
  // The planner's profile believes the network is 3× faster than the cluster
  // it runs on; recurrent observed runs must push the network factor up.
  const dag::JobDag dag = diamond();
  const auto spec = sim::ClusterSpec::three_node();
  JobProfile lying = JobProfile::from(dag, spec);
  lying.cluster.nic_bw *= 3.0;
  lying.cluster.storage_net_bw = 0;  // keep the lie on one term

  AdaptivePlanner planner(lying);
  for (int rec = 0; rec < 3; ++rec) {
    planner.plan();
    sim::Simulator sim;
    sim::Cluster cluster(sim, spec, 7);
    engine::RunOptions opt;
    opt.seed = 11;
    planner.arm(opt);
    const engine::JobResult r =
        run_to_completion(cluster, dag, std::move(opt));
    ASSERT_TRUE(r.complete());
    planner.observe(r);
  }
  const CalibrationFactors f = planner.factors();
  EXPECT_GT(f.observations, 0);
  EXPECT_GT(f.network, 1.2)
      << "observed fetches run ~3× the prediction; the factor must rise";
  // A later plan on the corrected profile predicts a slower (more truthful)
  // job than the lying profile did.
  const Seconds lied = DelayCalculator(lying).compute().predicted_makespan;
  const Seconds corrected = planner.plan().predicted_makespan;
  EXPECT_GT(corrected, lied);
}

// ---------- bit-identity when adaptation never fires ----------

TEST(AdaptiveLoop, DisabledAdaptationIsBitIdenticalToPlainPlanning) {
  const dag::JobDag dag = diamond();
  const auto spec = sim::ClusterSpec::three_node();
  const JobProfile profile = JobProfile::from(dag, spec);

  // Plain pre-adaptive pipeline.
  const DelaySchedule plain = DelayCalculator(profile).compute();
  sim::Simulator sim_a;
  sim::Cluster cluster_a(sim_a, spec, 7);
  engine::RunOptions oa;
  oa.seed = 11;
  oa.plan.delay = plain.delay;
  const engine::JobResult ra =
      run_to_completion(cluster_a, dag, std::move(oa));

  // Adaptive stack, identity calibration, replanning off.
  AdaptivePlanner planner(profile);
  const DelaySchedule& adaptive = planner.plan();
  ASSERT_EQ(adaptive.delay.size(), plain.delay.size());
  for (std::size_t i = 0; i < plain.delay.size(); ++i)
    EXPECT_EQ(adaptive.delay[i], plain.delay[i]);
  sim::Simulator sim_b;
  sim::Cluster cluster_b(sim_b, spec, 7);
  engine::RunOptions ob;
  ob.seed = 11;
  planner.arm(ob);
  const engine::JobResult rb =
      run_to_completion(cluster_b, dag, std::move(ob));

  EXPECT_EQ(ra.jct, rb.jct);  // bit-identical, not approximately equal
  EXPECT_EQ(rb.replans, 0);
  ASSERT_EQ(ra.stages.size(), rb.stages.size());
  for (std::size_t i = 0; i < ra.stages.size(); ++i) {
    EXPECT_EQ(ra.stages[i].submitted, rb.stages[i].submitted);
    EXPECT_EQ(ra.stages[i].finish, rb.stages[i].finish);
  }
}

TEST(AdaptiveLoop, ArmedButUntriggeredReplanningIsBitIdenticalToo) {
  // Replanning enabled with an untriggerable threshold: the run must be
  // bit-identical to one with the feature absent (zero replans when the
  // profile is accurate enough to stay under the drift bar).
  const dag::JobDag dag = diamond();
  const auto spec = sim::ClusterSpec::three_node();
  const JobProfile profile = JobProfile::from(dag, spec);

  const DelaySchedule plain = DelayCalculator(profile).compute();
  sim::Simulator sim_a;
  sim::Cluster cluster_a(sim_a, spec, 7);
  engine::RunOptions oa;
  oa.seed = 11;
  oa.plan.delay = plain.delay;
  const engine::JobResult ra =
      run_to_completion(cluster_a, dag, std::move(oa));

  AdaptiveOptions aopt;
  aopt.replan.enabled = true;
  aopt.replan.trigger_rel_error = 1e9;  // drift can never fire; no crashes
  AdaptivePlanner planner(profile, aopt);
  planner.plan();
  sim::Simulator sim_b;
  sim::Cluster cluster_b(sim_b, spec, 7);
  engine::RunOptions ob;
  ob.seed = 11;
  planner.arm(ob);
  const engine::JobResult rb =
      run_to_completion(cluster_b, dag, std::move(ob));

  EXPECT_EQ(ra.jct, rb.jct);
  EXPECT_EQ(rb.replans, 0);
}

}  // namespace
}  // namespace ds::core
