// Common trace job representation shared by the Alibaba batch_task parser
// and the synthetic generator.
//
// Trace stages are described by their *solo phase times* (what the stage
// would take on a dedicated cluster), because that is what a trace records
// (start/end timestamps) and what the stage-granular replay consumes. The
// conversion to the volumetric JobDag the core library uses is mechanical:
// pick reference rates and turn seconds back into bytes.
#pragma once

#include <string>
#include <vector>

#include "dag/job.h"
#include "util/units.h"

namespace ds::trace {

struct TraceStage {
  std::string name;
  int num_tasks = 1;
  Seconds read_solo = 0;     // network phase on a dedicated cluster
  Seconds compute_solo = 0;  // CPU phase
  Seconds write_solo = 0;    // disk phase
  double task_skew = 0;
  std::vector<int> parents;  // indices into TraceJob::stages
};

struct TraceJob {
  std::string name;
  Seconds submit_time = 0;
  std::vector<TraceStage> stages;
};

// Reference cluster used to convert solo phase times into the volumetric
// stages the core library plans with. A stage of T tasks can use at most
// min(T, num_workers) NICs/disks and min(T, executors) executors, so the
// conversion is per-stage capacity-aware; the absolute rates cancel out in
// planning (only ratios matter), so any consistent choice works.
struct ReferenceRates {
  BytesPerSec nic_bw = 100e6;   // per-node network bandwidth
  BytesPerSec disk_bw = 80e6;   // per-node disk bandwidth
  int num_workers = 100;
  double executors = 1000;
  // Tasks co-located per machine (executors per worker): a T-task stage
  // reaches ~T/tasks_per_node NICs/disks, not T of them.
  double tasks_per_node = 1;
};

// Build the volumetric JobDag for a trace job.
dag::JobDag to_job_dag(const TraceJob& job, const ReferenceRates& ref = {});

}  // namespace ds::trace
