// dsbench — the repo benchmark program.
//
//   dsbench --workload fleet|replay|serve --seed N --seconds S --trace 0|1
//
// Runs one workload on inputs generated from --seed, checks its outputs,
// prints context lines starting with '#', and ends with one JSON line:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
// Exit status: 0 when every check passed, 1 when a check failed or the run
// threw, 2 on bad arguments. See README.md for the metric definitions.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace dsbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double tail_percentile(std::size_t n, double cap) {
  static const double kLadder[] = {99, 95, 90, 80};
  for (const double p : kLadder) {
    if (p > cap) continue;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return p;
  }
  return 50;
}

void LogHistogram::add(double seconds) {
  std::size_t b = 0;
  if (seconds > kMin)
    b = std::min(kBuckets, static_cast<std::size_t>(
                               std::log(seconds / kMin) / std::log(kRatio)) + 1);
  ++counts_[b];
  ++total_;
}

double LogHistogram::percentile(double p) const {
  if (total_ == 0) return 0;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(total_))),
      1, total_);
  std::size_t seen = 0;
  for (std::size_t b = 0; b <= kBuckets; ++b) {
    if (seen + counts_[b] < rank) {
      seen += counts_[b];
      continue;
    }
    if (b == 0) return kMin;
    // Bucket b holds (kMin·kRatio^(b-1), kMin·kRatio^b].
    const double lo = kMin * std::pow(kRatio, static_cast<double>(b - 1));
    const double frac = static_cast<double>(rank - seen) / static_cast<double>(counts_[b]);
    return lo + frac * (lo * kRatio - lo);
  }
  return kMin * std::pow(kRatio, static_cast<double>(kBuckets));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries the high-water mark
  // of the process image this one was exec'd from (the python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::string tail_note(const std::string& label, std::size_t n, double cap) {
  std::ostringstream os;
  os << label << " tail = p" << tail_percentile(n, cap) << " over " << n
     << " samples";
  return os.str();
}

void add_digest_notes(const Digest& inputs, const Digest& outputs,
                      const std::string& detail, Result* r) {
  std::ostringstream os;
  os << "failed_frac "
     << static_cast<double>(r->failed) / static_cast<double>(std::max<std::size_t>(r->attempted, 1));
  r->notes.push_back("inputs " + inputs.hex());
  r->notes.push_back("digest " + outputs.hex() + ", " + detail + ", " + os.str());
}

}  // namespace dsbench

namespace {

int usage(const char* why) {
  std::cerr << "dsbench: " << why << "\n"
            << "usage: dsbench --workload fleet|replay|serve --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

bool parse_uint(const std::string& s, unsigned long long max,
                unsigned long long* out) {
  if (s.empty() || s.size() > 20 ||
      s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno != 0 || v > max) return false;
  *out = v;
  return true;
}

void print_number(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_uint(value, ~0ull, &n)) return usage("bad --seed");
      args.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 3600, &n) || n == 0)
        return usage("--seconds wants 1..3600");
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace wants 0 or 1");
      args.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  Result result;
  try {
    if (args.workload == "fleet") {
      result = run_fleet(args);
    } else if (args.workload == "replay") {
      result = run_replay(args);
    } else if (args.workload == "serve") {
      result = run_serve(args);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "dsbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  for (const Metric& m : result.metrics)
    if (!std::isfinite(m.value))
      result.fail("metric " + m.name + " is not finite");
  for (const std::string& e : result.errors)
    std::cerr << "dsbench: check failed: " << e << "\n";
  const bool correct =
      result.errors.empty() && result.failed == 0 && result.attempted > 0;

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    line << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
    print_number(line, m.value);
    line << ", \"unit\": \"" << m.unit << "\"}";
  }
  line << "}}";

  std::cout << "# " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n";
  for (const std::string& note : result.notes) std::cout << "# " << note << "\n";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
