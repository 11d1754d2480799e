#include "obs/analytics/report.h"

#include <fstream>
#include <iostream>

#include "util/json.h"

namespace ds::obs::analytics {

namespace {

using json::number;

void term_json(std::ostream& os, const char* key, const TermDrift& t) {
  os << '"' << key << "\": {\"predicted_s\": " << number(t.predicted)
     << ", \"actual_s\": " << number(t.actual)
     << ", \"residual_s\": " << number(t.residual())
     << ", \"rel_error\": " << number(t.rel_error) << '}';
}

void summary_json(std::ostream& os, const char* key, const DriftSummary& s) {
  os << '"' << key << "\": {\"count\": " << s.count
     << ", \"mean\": " << number(s.mean) << ", \"p50\": " << number(s.p50)
     << ", \"p90\": " << number(s.p90) << ", \"max\": " << number(s.max) << '}';
}

void timeline_json(std::ostream& os, const char* key,
                   const ResourceTimeline& t) {
  os << '"' << key << "\": {\"busy_s\": " << number(t.busy_seconds)
     << ", \"idle_s\": " << number(t.idle_seconds)
     << ", \"busy_fraction\": " << number(t.busy_fraction)
     << ", \"idle_fraction\": " << number(t.idle_fraction) << '}';
}

void worker_json(std::ostream& os, const WorkerInterleaving& w,
                 const char* indent) {
  os << "{\n" << indent << "  \"pid\": " << w.pid << ",\n" << indent << "  ";
  timeline_json(os, "network", w.network);
  os << ",\n" << indent << "  ";
  timeline_json(os, "cpu", w.cpu);
  os << ",\n" << indent << "  ";
  timeline_json(os, "disk", w.disk);
  os << ",\n"
     << indent << "  \"overlap_s\": " << number(w.net_cpu_overlap) << ",\n"
     << indent << "  \"overlap_fraction\": " << number(w.overlap_fraction)
     << ",\n"
     << indent << "  \"interleaving_score\": " << number(w.interleaving_score)
     << "\n" << indent << '}';
}

void drift_json(std::ostream& os, const DriftReport& d) {
  os << "{\n    \"stages\": [";
  for (std::size_t i = 0; i < d.stages.size(); ++i) {
    const StageDrift& s = d.stages[i];
    os << (i == 0 ? "" : ",") << "\n      {\"stage\": " << s.stage
       << ", \"name\": ";
    json::write_string(os, s.name);
    os << ", \"delay_s\": " << number(s.delay) << ",\n       ";
    term_json(os, "network", s.network);
    os << ",\n       ";
    term_json(os, "compute", s.compute);
    os << ",\n       ";
    term_json(os, "write", s.write);
    os << ",\n       ";
    term_json(os, "duration", s.duration);
    os << '}';
  }
  os << (d.stages.empty() ? "" : "\n    ") << "],\n    ";
  summary_json(os, "network", d.network);
  os << ",\n    ";
  summary_json(os, "compute", d.compute);
  os << ",\n    ";
  summary_json(os, "write", d.write);
  os << ",\n    ";
  summary_json(os, "duration", d.duration);
  os << ",\n    \"warnings\": [";
  for (std::size_t i = 0; i < d.warnings.size(); ++i) {
    os << (i == 0 ? "" : ", ");
    json::write_string(os, d.warnings[i]);
  }
  os << "]\n  }";
}

void interleaving_json(std::ostream& os, const InterleavingReport& r) {
  os << "{\n    \"horizon_s\": " << number(r.horizon)
     << ",\n    \"workers\": [";
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\n      ";
    worker_json(os, r.workers[i], "      ");
  }
  os << (r.workers.empty() ? "" : "\n    ") << "],\n    \"cluster\": ";
  worker_json(os, r.cluster, "    ");
  os << "\n  }";
}

void fleet_util_json(std::ostream& os, const FleetUtilization& f) {
  os << "\"jobs\": " << f.jobs << ",\n      \"mean_jct_s\": "
     << number(f.mean_jct_s)
     << ",\n      \"mean_dedicated_s\": " << number(f.mean_dedicated_s)
     << ",\n      \"cluster_cpu_pct\": " << number(f.cluster_cpu_pct)
     << ",\n      \"cluster_net_pct\": " << number(f.cluster_net_pct)
     << ",\n      \"job_cpu_pct\": " << number(f.job_cpu_pct)
     << ",\n      \"job_net_pct\": " << number(f.job_net_pct)
     << ",\n      \"job_cpu_idle_pct\": " << number(f.job_cpu_idle_pct)
     << ",\n      \"job_net_idle_pct\": " << number(f.job_net_idle_pct)
     << ",\n      \"job_cpu_p50\": " << number(f.job_cpu_p50)
     << ",\n      \"job_cpu_p90\": " << number(f.job_cpu_p90)
     << ",\n      \"job_net_p50\": " << number(f.job_net_p50)
     << ",\n      \"job_net_p90\": " << number(f.job_net_p90)
     << ",\n      \"mean_planned_delay_s\": " << number(f.mean_planned_delay_s);
}

// CSV field orders are part of the pinned schema — keep in sync with the
// header comments below and the golden test.
void worker_csv_row(std::ostream& os, const WorkerInterleaving& w) {
  os << w.pid << ',' << number(w.network.busy_seconds) << ','
     << number(w.network.idle_fraction) << ','
     << number(w.cpu.busy_seconds) << ',' << number(w.cpu.idle_fraction)
     << ',' << number(w.disk.busy_seconds) << ','
     << number(w.disk.idle_fraction) << ',' << number(w.net_cpu_overlap)
     << ',' << number(w.overlap_fraction) << ','
     << number(w.interleaving_score) << '\n';
}

}  // namespace

FleetJobRow to_row(const trace::ReplayJobResult& j) {
  FleetJobRow r;
  r.submit = j.submit;
  r.jct = j.jct;
  r.dedicated = j.dedicated_time;
  r.cpu_util_pct = 100.0 * j.cpu_util;
  r.net_util_pct = 100.0 * j.net_util;
  r.planned_delay = j.planned_delay;
  return r;
}

FleetStrategyReport fleet_strategy_report(const std::string& strategy,
                                          const trace::ReplayResult& result,
                                          bool keep_jobs) {
  FleetStrategyReport rep;
  rep.strategy = strategy;
  rep.util = fleet_utilization(result);
  if (keep_jobs) {
    rep.jobs.reserve(result.jobs.size());
    for (const auto& j : result.jobs) rep.jobs.push_back(to_row(j));
  }
  return rep;
}

void write_json(std::ostream& os, const JobReport& report) {
  os << "{\n  \"job\": ";
  json::write_string(os, report.job);
  os << ",\n  \"strategy\": ";
  json::write_string(os, report.strategy);
  os << ",\n  \"jct_s\": " << number(report.jct_s)
     << ",\n  \"predicted_makespan_s\": " << number(report.predicted_makespan_s)
     << ",\n  \"drift\": ";
  drift_json(os, report.drift);
  os << ",\n  \"interleaving\": ";
  interleaving_json(os, report.interleaving);
  os << "\n}\n";
}

void write_json(std::ostream& os, const FleetReport& report) {
  os << "{\n  \"trace\": ";
  json::write_string(os, report.trace);
  os << ",\n  \"strategies\": [";
  for (std::size_t i = 0; i < report.strategies.size(); ++i) {
    const FleetStrategyReport& s = report.strategies[i];
    os << (i == 0 ? "" : ",") << "\n    {\n      \"strategy\": ";
    json::write_string(os, s.strategy);
    os << ",\n      ";
    fleet_util_json(os, s.util);
    os << ",\n      \"jobs_detail\": [";
    for (std::size_t j = 0; j < s.jobs.size(); ++j) {
      const FleetJobRow& r = s.jobs[j];
      os << (j == 0 ? "" : ",") << "\n        {\"submit_s\": "
         << number(r.submit)
         << ", \"jct_s\": " << number(r.jct)
         << ", \"dedicated_s\": " << number(r.dedicated)
         << ", \"cpu_util_pct\": " << number(r.cpu_util_pct)
         << ", \"net_util_pct\": " << number(r.net_util_pct)
         << ", \"planned_delay_s\": " << number(r.planned_delay) << '}';
    }
    os << (s.jobs.empty() ? "" : "\n      ") << "]\n    }";
  }
  os << (report.strategies.empty() ? "" : "\n  ") << "]\n}\n";
}

void write_csv(std::ostream& os, const JobReport& report) {
  os << "# drift\n"
     << "job,strategy,stage,name,delay_s,term,predicted_s,actual_s,"
        "residual_s,rel_error\n";
  for (const StageDrift& s : report.drift.stages) {
    const struct {
      const char* name;
      const TermDrift* t;
    } terms[] = {{"network", &s.network},
                 {"compute", &s.compute},
                 {"write", &s.write},
                 {"duration", &s.duration}};
    for (const auto& [tname, t] : terms) {
      os << report.job << ',' << report.strategy << ',' << s.stage << ','
         << s.name << ',' << number(s.delay) << ',' << tname << ','
         << number(t->predicted) << ',' << number(t->actual) << ','
         << number(t->residual()) << ',' << number(t->rel_error) << '\n';
    }
  }
  os << "\n# interleaving\n"
     << "pid,net_busy_s,net_idle_fraction,cpu_busy_s,cpu_idle_fraction,"
        "disk_busy_s,disk_idle_fraction,overlap_s,overlap_fraction,"
        "interleaving_score\n";
  for (const WorkerInterleaving& w : report.interleaving.workers)
    worker_csv_row(os, w);
  worker_csv_row(os, report.interleaving.cluster);
}

void write_csv(std::ostream& os, const FleetReport& report) {
  os << "# fleet\n"
     << "strategy,jobs,mean_jct_s,mean_dedicated_s,cluster_cpu_pct,"
        "cluster_net_pct,job_cpu_pct,job_net_pct,job_cpu_idle_pct,"
        "job_net_idle_pct,job_cpu_p50,job_cpu_p90,job_net_p50,job_net_p90,"
        "mean_planned_delay_s\n";
  for (const FleetStrategyReport& s : report.strategies) {
    const FleetUtilization& f = s.util;
    os << s.strategy << ',' << f.jobs << ',' << number(f.mean_jct_s) << ','
       << number(f.mean_dedicated_s) << ',' << number(f.cluster_cpu_pct) << ','
       << number(f.cluster_net_pct) << ',' << number(f.job_cpu_pct) << ','
       << number(f.job_net_pct) << ',' << number(f.job_cpu_idle_pct) << ','
       << number(f.job_net_idle_pct) << ',' << number(f.job_cpu_p50) << ','
       << number(f.job_cpu_p90) << ',' << number(f.job_net_p50) << ','
       << number(f.job_net_p90) << ',' << number(f.mean_planned_delay_s)
       << '\n';
  }
  bool any_jobs = false;
  for (const FleetStrategyReport& s : report.strategies)
    any_jobs = any_jobs || !s.jobs.empty();
  if (!any_jobs) return;
  os << "\n# jobs\n"
     << "strategy,submit_s,jct_s,dedicated_s,cpu_util_pct,net_util_pct,"
        "planned_delay_s\n";
  for (const FleetStrategyReport& s : report.strategies) {
    for (const FleetJobRow& r : s.jobs) {
      os << s.strategy << ',' << number(r.submit) << ',' << number(r.jct) << ','
         << number(r.dedicated) << ',' << number(r.cpu_util_pct) << ','
         << number(r.net_util_pct) << ',' << number(r.planned_delay) << '\n';
    }
  }
}

namespace {

bool is_csv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

template <typename Report>
bool write_file(const std::string& path, const Report& report) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: could not open report file " << path << "\n";
    return false;
  }
  if (is_csv(path)) {
    write_csv(out, report);
  } else {
    write_json(out, report);
  }
  return true;
}

}  // namespace

bool write_report_file(const std::string& path, const JobReport& report) {
  return write_file(path, report);
}

bool write_report_file(const std::string& path, const FleetReport& report) {
  return write_file(path, report);
}

}  // namespace ds::obs::analytics
