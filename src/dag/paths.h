// Execution-path decomposition (paper §3.1, Fig. 7).
//
// The parallel-stage set K is organised into execution paths: maximal chains
// of dependent stages within the subgraph induced by K. A stage may appear
// in several paths (Fig. 7's Stage 3 lies in both P1 and P2); Algorithm 1
// handles the overlap by skipping stages already scheduled by an earlier
// path. Stages of K that are isolated in the subgraph form singleton paths
// (Fig. 7's Stage 4 / P3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "dag/job.h"

namespace ds::dag {

struct ExecutionPath {
  std::vector<StageId> stages;  // in dependency order
};

// Enumerate maximal chains within K. Full enumeration can be exponential on
// dense DAGs, so once `max_paths` is reached the enumerator switches to a
// cover: one longest-chain path through every not-yet-covered stage. The
// result always covers every stage of K at least once.
std::vector<ExecutionPath> execution_paths(const JobDag& dag,
                                           std::size_t max_paths = 512);

// Sum of per-stage durations along a path, given any per-stage duration
// lookup (used with ^t_k from the performance model for the initial path
// ordering of Alg. 1 line 3).
template <typename DurationFn>
Seconds path_time(const ExecutionPath& p, DurationFn&& dur) {
  Seconds t = 0;
  for (StageId s : p.stages) t += dur(s);
  return t;
}

// Heaviest dependency chain: the largest sum of weight(s) along any path of
// the DAG, 0 for an empty one. With ^t_k weights this is the solo-time
// critical-path bound; a weight of 0 outside a stage subset measures the
// chain restricted to that subset. Cycles die in topo_order()'s check.
template <typename WeightFn>
Seconds longest_path(const JobDag& dag, WeightFn&& weight) {
  std::vector<Seconds> longest(static_cast<std::size_t>(dag.num_stages()), 0);
  Seconds best = 0;
  for (StageId s : dag.topo_order()) {
    Seconds from_parents = 0;
    for (StageId p : dag.parents(s))
      from_parents =
          std::max(from_parents, longest[static_cast<std::size_t>(p)]);
    longest[static_cast<std::size_t>(s)] = from_parents + weight(s);
    best = std::max(best, longest[static_cast<std::size_t>(s)]);
  }
  return best;
}

}  // namespace ds::dag
