#include "service/policy.h"

#include "core/evaluator.h"
#include "core/perf_model.h"
#include "dag/paths.h"

namespace ds::service {

Status parse_order_policy(const std::string& name, OrderPolicy* out) {
  if (name == "fifo") {
    *out = OrderPolicy::kFifo;
  } else if (name == "sjf") {
    *out = OrderPolicy::kSjf;
  } else if (name == "hard-first") {
    *out = OrderPolicy::kHardFirst;
  } else {
    return Status::error("unknown ordering policy '" + name +
                         "' (expected fifo, sjf or hard-first)");
  }
  return Status::ok();
}

const char* to_string(OrderPolicy policy) {
  switch (policy) {
    case OrderPolicy::kFifo: return "fifo";
    case OrderPolicy::kSjf: return "sjf";
    case OrderPolicy::kHardFirst: return "hard-first";
  }
  return "?";
}

Seconds predicted_dedicated_jct(const core::JobProfile& profile,
                                Seconds slot) {
  core::ScheduleEvaluator eval(profile, slot);
  return eval.evaluate({}).jct;
}

Seconds critical_path_time(const core::JobProfile& profile) {
  const core::PerfModel model(profile);
  return dag::longest_path(*profile.dag,
                           [&](dag::StageId s) { return model.solo_time(s); });
}

double policy_score(OrderPolicy policy, Seconds predicted_jct,
                    Seconds critical_path) {
  switch (policy) {
    case OrderPolicy::kFifo: return 0;  // arrival sequence decides
    case OrderPolicy::kSjf: return predicted_jct;
    // Longest critical path first — negate so smaller still means earlier.
    case OrderPolicy::kHardFirst: return -critical_path;
  }
  return 0;
}

}  // namespace ds::service
