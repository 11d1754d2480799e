#include "trace/stats.h"

#include <algorithm>

#include "dag/paths.h"

namespace ds::trace {

namespace {

Seconds stage_solo(const TraceStage& s) {
  return s.read_solo + s.compute_solo + s.write_solo;
}

// Parallel-stage membership flags (the K set) of a trace job's DAG.
std::vector<bool> parallel_flags(const dag::JobDag& dag) {
  std::vector<bool> flags(static_cast<std::size_t>(dag.num_stages()), false);
  for (dag::StageId s : dag.parallel_stage_set())
    flags[static_cast<std::size_t>(s)] = true;
  return flags;
}

// Longest solo-time chain of `job` over its DAG; with `in_k`, stages outside
// K weigh 0.
Seconds solo_chain(const TraceJob& job, const dag::JobDag& dag,
                   const std::vector<bool>* in_k) {
  return dag::longest_path(dag, [&](dag::StageId s) {
    const auto i = static_cast<std::size_t>(s);
    return in_k == nullptr || (*in_k)[i] ? stage_solo(job.stages[i]) : 0.0;
  });
}

}  // namespace

Seconds critical_path_time(const TraceJob& job) {
  return solo_chain(job, to_job_dag(job), nullptr);
}

Seconds parallel_region_time(const TraceJob& job) {
  const dag::JobDag dag = to_job_dag(job);
  const std::vector<bool> flags = parallel_flags(dag);
  return solo_chain(job, dag, &flags);
}

TraceStats analyze(const std::vector<TraceJob>& jobs) {
  TraceStats st;
  for (const TraceJob& job : jobs) {
    ++st.total_jobs;
    const dag::JobDag dag = to_job_dag(job);
    const std::vector<bool> flags = parallel_flags(dag);
    const auto parallel =
        static_cast<std::size_t>(std::count(flags.begin(), flags.end(), true));
    st.total_stages += job.stages.size();
    st.total_parallel_stages += parallel;
    if (parallel > 0) ++st.jobs_with_parallel_stages;
    st.stages_per_job.add(static_cast<double>(job.stages.size()));
    st.parallel_stages_per_job.add(static_cast<double>(parallel));
    const Seconds jct = solo_chain(job, dag, nullptr);
    if (jct > 0 && parallel > 0) {
      st.parallel_makespan_share.add(100.0 * solo_chain(job, dag, &flags) /
                                     jct);
    }
  }
  return st;
}

}  // namespace ds::trace
