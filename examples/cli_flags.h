// Command-line plumbing for delaystage_cli: every subcommand spells and
// validates --threads/--seed/--quantile/--trace-out/--metrics-out/
// --report-out (plus the live-observability flags --flight-out/--prom-out/
// --telemetry-out/--telemetry-period/--slo) identically, and dispatch()
// routes argv[1] through one Subcommand table.
//
// ObsSink owns the per-invocation obs::Observability: construct it from the
// parsed flags, hand sink.get() to CommonOptions::obs, and call flush() once
// the run finishes to write the Chrome trace (load via chrome://tracing or
// https://ui.perfetto.dev) and the metrics JSON dump.
#pragma once

#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/options.h"
#include "obs/obs.h"
#include "obs/telemetry.h"

namespace ds::cli {

inline bool has_flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i)
    if (name == argv[i]) return true;
  return false;
}

inline std::string flag(int argc, char** argv, const std::string& name,
                        const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (name == argv[i]) return argv[i + 1];
  if (has_flag(argc, argv, name))
    throw std::runtime_error(name + " needs a value");
  return fallback;
}

// Every occurrence of a repeatable flag, in order.
inline std::vector<std::string> flags(int argc, char** argv,
                                      const std::string& name) {
  std::vector<std::string> out;
  for (int i = 1; i + 1 < argc; ++i)
    if (name == argv[i]) out.push_back(argv[i + 1]);
  return out;
}

inline long long int_flag(int argc, char** argv, const std::string& name,
                          long long fallback) {
  const std::string s = flag(argc, argv, name, "");
  if (s.empty()) return fallback;
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != s.size())
    throw std::runtime_error(name + " wants an integer, got '" + s + "'");
  return v;
}

inline double num_flag(int argc, char** argv, const std::string& name,
                       double fallback) {
  const std::string s = flag(argc, argv, name, "");
  if (s.empty()) return fallback;
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != s.size())
    throw std::runtime_error(name + " wants a number, got '" + s + "'");
  return v;
}

// The flags every CLI shares. threads/seed feed ds::CommonOptions, quantile
// the planner model; the output paths decide whether an Observability sink
// is created at all.
struct CommonFlags {
  int threads = 1;
  std::uint64_t seed = 42;
  double quantile = 0;      // 0 = legacy mean model; (0,1) = straggler target
  std::string trace_out;    // Chrome trace_event JSON; empty = no tracing
  std::string metrics_out;  // metrics registry JSON; empty = no dump
  std::string report_out;   // analytics report (.csv → CSV, else JSON)
  std::string flight_out;   // flight-recorder NDJSON; empty = recorder off
  std::string prom_out;     // Prometheus text exposition; empty = no dump
  std::string telemetry_out;       // streaming telemetry NDJSON; empty = off
  double telemetry_period = 10.0;  // cadence (sim s for sched, wall s for serve)
  std::vector<std::string> slo;    // raw rule specs ("p99_slowdown<=2.5")

  bool want_obs() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !flight_out.empty() || !prom_out.empty() || !telemetry_out.empty();
  }

  void apply(CommonOptions& opt) const {
    opt.threads = threads;
    opt.seed = seed;
  }
};

inline CommonFlags parse_common_flags(int argc, char** argv,
                                      std::uint64_t default_seed = 42) {
  CommonFlags f;
  f.threads = static_cast<int>(int_flag(argc, argv, "--threads", 1));
  const long long seed = int_flag(
      argc, argv, "--seed", static_cast<long long>(default_seed));
  if (seed < 0) throw std::runtime_error("--seed must be >= 0");
  f.seed = static_cast<std::uint64_t>(seed);
  f.quantile = num_flag(argc, argv, "--quantile", 0);
  if (f.quantile < 0 || f.quantile >= 1)
    throw std::runtime_error("--quantile wants a value in [0, 1)");
  f.trace_out = flag(argc, argv, "--trace-out", "");
  f.metrics_out = flag(argc, argv, "--metrics-out", "");
  f.report_out = flag(argc, argv, "--report-out", "");
  f.flight_out = flag(argc, argv, "--flight-out", "");
  f.prom_out = flag(argc, argv, "--prom-out", "");
  f.telemetry_out = flag(argc, argv, "--telemetry-out", "");
  f.telemetry_period =
      num_flag(argc, argv, "--telemetry-period", f.telemetry_period);
  if (f.telemetry_period <= 0)
    throw std::runtime_error("--telemetry-period must be > 0");
  f.slo = flags(argc, argv, "--slo");
  return f;
}

// One dispatchable subcommand. `run` receives the binary's full argc/argv
// (the subcommand name sits at argv[1]).
struct Subcommand {
  std::string name;
  std::string operands;  // synopsis after the name, e.g. "<job.spec> [flags]"
  std::string summary;   // one help line
  int (*run)(int argc, char** argv) = nullptr;
};

inline void print_usage(std::ostream& os, const std::string& prog,
                        const std::vector<Subcommand>& cmds) {
  os << "usage: " << prog << " <command> [args]\n\ncommands:\n";
  for (const Subcommand& c : cmds) {
    os << "  " << c.name;
    if (!c.operands.empty()) os << ' ' << c.operands;
    os << "\n      " << c.summary << '\n';
  }
  os << "\nshared flags: --threads N (0 = hw concurrency), --seed N,\n"
        "  --quantile Q (0 < Q < 1: straggler-quantile planning),\n"
        "  --trace-out FILE, --metrics-out FILE, --report-out FILE,\n"
        "  --flight-out FILE (scheduler audit trail, NDJSON; auto-dumped on\n"
        "    job failure or invariant violation), --prom-out FILE\n"
        "    (Prometheus text exposition of the metrics registry),\n"
        "  --telemetry-out FILE --telemetry-period S (streaming metric\n"
        "    snapshots, one NDJSON line per tick),\n"
        "  --slo p<Q>_<jct|slowdown|queue_wait|plan_latency><=X (repeatable;\n"
        "    sched only — live SLO tracking with violation events)\n";
}

// Routes argv[1] to its subcommand. `help`/`--help`/`-h`, and `--help`/`-h`
// anywhere after a command, print usage and exit 0 without running it; an
// unknown (or missing) command prints usage to stderr and exits 2.
inline int dispatch(int argc, char** argv,
                    const std::vector<Subcommand>& cmds) {
  const std::string prog = argc > 0 ? argv[0] : "cli";
  const std::string cmd = argc > 1 ? argv[1] : "";
  const bool help = cmd == "help" || has_flag(argc, argv, "--help") ||
                    has_flag(argc, argv, "-h");
  if (help) {
    print_usage(std::cout, prog, cmds);
    return 0;
  }
  for (const Subcommand& c : cmds)
    if (c.name == cmd) return c.run(argc, argv);
  print_usage(std::cerr, prog, cmds);
  return 2;
}

// Owns the Observability for one CLI invocation. The tracer is enabled only
// when a trace file was requested (or the command needs spans itself, e.g.
// for an analytics report — pass force_trace); metrics handles are live
// whenever the sink exists (a registry dump costs nothing until exported).
class ObsSink {
 public:
  // `telemetry_options` filters what the streaming sink serializes (the
  // sched CLI excludes the wall-clock metric prefixes so its stream stays
  // byte-reproducible across --threads).
  explicit ObsSink(const CommonFlags& f, bool force_trace = false,
                   obs::TelemetryOptions telemetry_options = {})
      : trace_out_(f.trace_out),
        metrics_out_(f.metrics_out),
        flight_out_(f.flight_out),
        prom_out_(f.prom_out) {
    if (f.want_obs() || force_trace) {
      obs::TracerOptions topt;
      topt.enabled = !f.trace_out.empty() || force_trace;
      obs::FlightRecorderOptions fopt;
      fopt.enabled = !f.flight_out.empty();
      fopt.dump_path = f.flight_out;  // anomaly dumps land where --flight-out
      obs_ = std::make_unique<obs::Observability>(topt, fopt);
      // Any DS_CHECK violation from here on dumps the audit trail first.
      if (fopt.enabled) obs::install_crash_dump(&obs_->flight);
      if (!f.telemetry_out.empty()) {
        telemetry_stream_ = std::make_unique<std::ofstream>(f.telemetry_out);
        if (!*telemetry_stream_)
          throw std::runtime_error("cannot write " + f.telemetry_out);
        telemetry_ = std::make_unique<obs::TelemetrySink>(
            *telemetry_stream_, std::move(telemetry_options));
      }
    }
  }

  // nullptr when no observability was requested — zero overhead downstream.
  obs::Observability* get() { return obs_.get(); }

  // nullptr unless --telemetry-out was given.
  obs::TelemetrySink* telemetry() { return telemetry_.get(); }

  // Write whichever outputs were requested; throws on IO failure. Warns once
  // on stderr when the span ring overflowed, so a truncated trace (or an
  // analytics report computed from one) is never silent.
  void flush() {
    if (obs_ == nullptr) return;
    obs_->refresh_derived();  // tracer.dropped_spans / flight.dropped_records
    if (const std::uint64_t lost = obs_->tracer.dropped(); lost > 0) {
      std::cerr << "warning: trace ring overflowed, " << lost
                << " span(s) dropped — raise TracerOptions::ring_capacity "
                   "for a complete timeline\n";
    }
    const auto write_file = [](const std::string& path, auto&& emit) {
      if (path.empty()) return;
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write " + path);
      emit(out);
      if (!out) throw std::runtime_error("failed writing " + path);
    };
    write_file(trace_out_,
               [&](std::ostream& os) { obs_->tracer.write_chrome_json(os); });
    write_file(metrics_out_,
               [&](std::ostream& os) { obs_->metrics.write_json(os); });
    write_file(prom_out_,
               [&](std::ostream& os) { obs_->metrics.write_prometheus(os); });
    // Final trail overwrite: --flight-out always ends up holding the most
    // recent records (a mid-run anomaly dump is superseded by this fuller
    // one — the anomaly's records are still in the trail unless the ring
    // wrapped past them).
    if (!flight_out_.empty() && !obs_->flight.dump_now("exit"))
      throw std::runtime_error("cannot write " + flight_out_);
  }

 private:
  std::string trace_out_;
  std::string metrics_out_;
  std::string flight_out_;
  std::string prom_out_;
  std::unique_ptr<obs::Observability> obs_;
  std::unique_ptr<std::ofstream> telemetry_stream_;
  std::unique_ptr<obs::TelemetrySink> telemetry_;
};

}  // namespace ds::cli
