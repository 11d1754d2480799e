// serve — the plan-service path: a closed loop of one client calling
// store::PlanDaemon::handle_line with v1 NDJSON plan requests.
//
// Requests (count sized from --seconds) are drawn from a seeded recurring
// pool: with probability kNewKeyRate a request is a first sighting (a new
// suite job at a seeded scale, with seeded `workers` and `congestion`
// overrides), otherwise it repeats a uniformly chosen earlier request. The
// cache is sized so nothing is evicted, so first sightings are exactly the
// misses. The daemon plans with 1 planner thread: at 2 or more the planner
// is not bit-deterministic (see README.md, "Known defect"), and every check
// below compares plans.
//
// Checks: every response parses, echoes its id, carries the expected
// hit/miss verdict, and every hit's plan matches the cold plan first
// returned for its key (by a 64-bit digest of the plan text and its
// length). Traced, a fresh daemon serves the same requests while the
// benchmark re-parses each spec (dag.parse_s) and re-plans each miss with
// DelayCalculator (core.compute_s), which must match the daemon's plan.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "core/plan_serialize.h"
#include "dag/serialize.h"
#include "obs/obs.h"
#include "store/daemon.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace dsbench {
namespace {

// Nominal requests per host second; sizes the run from --seconds.
constexpr double kRequestsPerSecond = 1500;
constexpr double kNewKeyRate = 0.10;
constexpr int kPlannerThreads = 1;
constexpr int kSetupRepeats = 5;

struct Key {
  std::string spec;
  int workers = 0;
  double congestion = 0;
  // The request's fields after "id"; the client prepends the id when it
  // sends, so only one copy per key is held (the peak RSS is the daemon's).
  std::string request_tail;
};

struct Workload {
  std::vector<Key> keys;
  std::vector<std::size_t> requests;  // key index of each request, in order
};

std::string request_line(const Workload& w, std::size_t i) {
  return "{\"v\": 1, \"id\": " + std::to_string(i + 1) + w.keys[w.requests[i]].request_tail;
}

Workload make_requests(std::uint64_t seed, std::size_t n) {
  Workload w;
  const auto suite_size =
      static_cast<std::int64_t>(ds::workloads::benchmark_suite().size());
  std::unordered_map<std::string, std::size_t> key_index;
  ds::Rng rng(seed ^ 0x73657276u);
  for (std::size_t i = 0; i < n; ++i) {
    if (w.keys.empty() || rng.chance(kNewKeyRate)) {
      const auto job = static_cast<std::size_t>(rng.uniform_int(0, suite_size - 1));
      const double scale = 0.4 + 0.001 * static_cast<double>(rng.uniform_int(0, 200));
      Key k;
      k.spec = ds::dag::save_job_spec_text(ds::workloads::benchmark_suite(scale)[job].dag);
      k.workers = static_cast<int>(rng.uniform_int(10, 30));
      k.congestion = 0.1 * static_cast<double>(rng.uniform_int(0, 3));
      std::ostringstream os;
      os << ", \"spec\": ";
      ds::json::write_string(os, k.spec);
      os << ", \"workers\": " << k.workers << ", \"congestion\": " << k.congestion << "}";
      // Identical draws describe the same key; keep one entry per key so a
      // repeat is always expected to hit.
      k.request_tail = os.str();
      const auto [it, fresh] = key_index.try_emplace(k.request_tail, w.keys.size());
      if (fresh) w.keys.push_back(std::move(k));
      w.requests.push_back(it->second);
    } else {
      w.requests.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(w.keys.size()) - 1)));
    }
  }
  return w;
}

ds::store::DaemonOptions daemon_options() {
  ds::store::DaemonOptions opt;
  opt.threads = kPlannerThreads;
  opt.service.calculator.threads = kPlannerThreads;
  opt.service.cache.capacity_per_shard = 1u << 14;  // never evict
  return opt;
}

struct Verdict {
  bool ok = false;
  bool hit = false;
  std::string plan;  // full plan JSON text
  double predicted_jct = 0;
  std::string why;
};

Verdict check_response(const std::string& response, std::size_t id) {
  Verdict v;
  ds::json::Value doc;
  if (const ds::Status st = ds::json::parse(response, &doc); !st.is_ok()) {
    v.why = "unparsable response: " + st.message();
    return v;
  }
  const ds::json::Value* rid = doc.find("id");
  if (rid == nullptr || rid->int_or(-1) != static_cast<std::int64_t>(id)) {
    v.why = "response does not echo id " + std::to_string(id);
    return v;
  }
  if (const ds::json::Value* err = doc.find("error"); err != nullptr) {
    v.why = "error response: " + err->str_or("");
    return v;
  }
  const ds::json::Value* cache = doc.find("cache");
  const ds::json::Value* plan = doc.find("plan");
  const ds::json::Value* jct = plan != nullptr ? plan->find("predicted_jct_s") : nullptr;
  const std::size_t at = response.find("\"plan\": ");
  if (cache == nullptr || jct == nullptr || at == std::string::npos) {
    v.why = "response lacks cache/plan fields";
    return v;
  }
  v.hit = cache->str_or("") == "hit";
  v.plan = response.substr(at + 8, response.size() - at - 9);  // drop the outer '}'
  v.predicted_jct = jct->num_or(0);
  v.ok = true;
  return v;
}

// Plays `w` through `daemon`, checking every response. `per_request`
// receives (index, host seconds in handle_line, verdict). A key's cold plan
// is remembered by its 64-bit digest plus length, which keeps the client's
// memory out of the daemon's peak RSS.
template <typename Fn>
void serve_all(ds::store::PlanDaemon& daemon, const Workload& w, Result* r, Fn per_request) {
  std::vector<std::string> cold(w.keys.size());
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const std::size_t key = w.requests[i];
    const std::string line = request_line(w, i);
    bool is_error = false;
    const Clock::time_point t0 = Clock::now();
    const std::string response = daemon.handle_line(line, &is_error);
    const double dt = seconds_since(t0);
    Verdict v = check_response(response, i + 1);
    Digest plan;
    plan.add(v.plan);
    const std::string fingerprint = plan.hex();
    const bool first = cold[key].empty();
    if (v.ok && v.hit == first)
      v = {false, v.hit, {}, 0,
           std::string("expected a ") + (first ? "miss" : "hit") + " for key " +
               std::to_string(key)};
    if (v.ok && !first && fingerprint != cold[key])
      v = {false, v.hit, {}, 0, "hit plan differs from the cold plan of its key"};
    if (v.ok && first) cold[key] = fingerprint;
    if (!v.ok || is_error) {
      r->failed += 1;
      if (r->errors.size() < 5) r->fail("serve request " + std::to_string(i + 1) + ": " + v.why);
    }
    per_request(i, dt, v);
  }
}

}  // namespace

Result run_serve(const Args& args) {
  Result r;
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(kRequestsPerSecond * args.seconds)));

  Workload w;
  std::vector<double> setup_s;
  std::unique_ptr<ds::store::PlanDaemon> daemon;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    w = make_requests(args.seed, n);
    daemon = std::make_unique<ds::store::PlanDaemon>(daemon_options());
    setup_s.push_back(seconds_since(t0));
  }

  Digest inputs, digest;
  for (std::size_t i = 0; i < w.requests.size(); ++i) inputs.add(request_line(w, i));
  std::vector<double> latency_ms, predicted_jct;
  double busy_s = 0;
  std::size_t misses = 0;
  serve_all(*daemon, w, &r, [&](std::size_t, double dt, const Verdict& v) {
    busy_s += dt;
    latency_ms.push_back(1e3 * dt);
    predicted_jct.push_back(v.predicted_jct);
    misses += v.hit ? 0 : 1;
    digest.add(v.plan);
  });
  r.attempted = n;
  const std::string timed_digest = digest.hex();

  std::ostringstream os;
  os << n << " requests, " << w.keys.size() << " keys, " << misses << " misses";
  add_digest_notes(inputs, digest, os.str(), &r);
  r.notes.push_back(tail_note("request latency", latency_ms.size()));
  r.notes.push_back(tail_note("predicted JCT", predicted_jct.size()));

  if (!args.trace) {
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("jobs_per_s", static_cast<double>(n) / busy_s, "1/s");
    r.add("op_p50_ms", median(latency_ms), "ms");
    r.add("op_tail_ms", percentile(latency_ms, tail_percentile(latency_ms.size())), "ms");
    r.add("sim_mean_jct_s", mean(predicted_jct), "s");
    r.add("sim_tail_jct_s",
          percentile(predicted_jct, tail_percentile(predicted_jct.size())), "s");
    return r;
  }

  // Traced pass on a fresh daemon with an obs registry (counters only).
  ds::obs::Observability obs;
  ds::store::DaemonOptions traced_options = daemon_options();
  traced_options.service.calculator.obs = &obs;  // planner search counters
  ds::store::PlanDaemon traced(traced_options, &obs);
  const ds::sim::ClusterSpec base = daemon_options().cluster;
  ds::core::CalculatorOptions copt = traced.service().options().calculator;
  copt.obs = nullptr;
  Digest traced_digest;
  double hit_s = 0, miss_s = 0, parse_s = 0, compute_s = 0, attribution_s = 0;
  std::size_t hits = 0, replan_mismatch = 0;
  Result traced_checks;
  const Clock::time_point loop0 = Clock::now();
  serve_all(traced, w, &traced_checks, [&](std::size_t i, double dt, const Verdict& v) {
    const Clock::time_point a0 = Clock::now();
    (v.hit ? hit_s : miss_s) += dt;
    hits += v.hit ? 1 : 0;
    traced_digest.add(v.plan);
    const Key& key = w.keys[w.requests[i]];
    Clock::time_point t0 = Clock::now();
    const ds::dag::JobDag dag = ds::dag::load_job_spec_text(key.spec);
    parse_s += seconds_since(t0);
    if (!v.hit) {
      ds::sim::ClusterSpec spec = base;
      spec.num_workers = key.workers;
      spec.congestion_penalty = key.congestion;
      const ds::core::JobProfile profile = ds::core::JobProfile::from(dag, spec);
      t0 = Clock::now();
      const ds::core::DelaySchedule plan = ds::core::DelayCalculator(profile, copt).compute();
      compute_s += seconds_since(t0);
      std::ostringstream json;
      ds::core::plan_to_json(plan, json);
      if (json.str() != v.plan) replan_mismatch += 1;
    }
    attribution_s += seconds_since(a0);
  });
  const double traced_wall = seconds_since(loop0) - attribution_s;
  for (const std::string& e : traced_checks.errors) r.fail("serve traced pass: " + e);
  if (traced_digest.hex() != timed_digest)
    r.fail("serve: traced pass did not reproduce the timed responses");
  if (replan_mismatch > 0)
    r.fail("serve: " + std::to_string(replan_mismatch) +
           " re-plan(s) differ from the daemon's plan");
  const double handled = hit_s + miss_s;
  const double self_s = handled - parse_s - compute_s;
  // Re-timed parse and compute runs can read a little slower than inside
  // the daemon; a clearly negative remainder means the split is wrong.
  if (self_s < -0.02 * handled)
    r.fail("serve: parse + compute exceed the daemon's own time");
  const ds::obs::MetricsRegistry& m = obs.metrics;
  const auto evaluations = static_cast<double>(m.find_counter("planner.evaluations").value());
  const auto memo_hits = static_cast<double>(m.find_counter("planner.memo_hits").value());

  r.add("store.requests", static_cast<double>(n), "count");
  r.add("store.hits", static_cast<double>(hits), "count");
  r.add("store.misses", static_cast<double>(n - hits), "count");
  r.add("store.errors", static_cast<double>(traced_checks.failed), "count");
  r.add("store.hit_s", hit_s, "s");
  r.add("store.miss_s", miss_s, "s");
  r.add("store.self_s", self_s, "s");
  r.add("dag.parse_s", parse_s, "s");
  r.add("core.compute_s", compute_s, "s");
  r.add("core.evaluations", evaluations, "count");
  r.add("core.memo_hit_rate",
        memo_hits + evaluations > 0 ? memo_hits / (memo_hits + evaluations) : 0, "ratio");
  r.add("store.cache_hit_rate", static_cast<double>(hits) / static_cast<double>(n), "ratio");
  r.add("store.cold_plans",
        static_cast<double>(m.find_counter("plan_service.cold_plans").value()), "count");
  r.add("other_s", traced_wall - handled, "s");
  r.add("obs.traced_wall_s", traced_wall, "s");
  r.add("obs.trace_overhead_pct", 100.0 * (handled / busy_s - 1.0), "%");
  std::ostringstream split;
  split << "traced wall " << traced_wall << " s: compute " << 100 * compute_s / traced_wall
        << "%, parse " << 100 * parse_s / traced_wall << "%, store self "
        << 100 * self_s / traced_wall << "%, client " << 100 * (traced_wall - handled) / traced_wall
        << "%";
  r.notes.push_back(split.str());
  return r;
}

}  // namespace dsbench
