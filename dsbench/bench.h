// Shared plumbing of the dsbench binary: run arguments, the result record
// every workload fills in, host timers, order statistics and the output
// digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace dsbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  // Nominal run length; each workload sizes its (deterministic) amount of
  // work from it, so sim outputs depend only on (seed, seconds).
  int seconds = 20;
  bool trace = false;
};

// One named metric with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Output checks that do not map to a single operation (traced-run
  // consistency, digest agreement); any entry makes the run incorrect.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  // Human-readable context printed above the result line (input and output
  // digests, tail percentile and sample counts, failed fraction).
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) { errors.push_back(why); }
};

Result run_fleet(const Args& args);
Result run_replay(const Args& args);
Result run_serve(const Args& args);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
// Nearest-rank percentile p in (0, 100].
double percentile(std::vector<double> v, double p);

// The "tail" of n samples: the highest percentile on the ladder
// {99, 95, 90, 80}, at most `cap`, that leaves at least ten samples beyond it
// (50 when n is too small for any). The value is a pure function of n, and
// every workload sizes n from --seconds, so the percentile is fixed for a
// given run length. replay caps it at 95 (see README.md).
double tail_percentile(std::size_t n, double cap = 99);

// Fixed-memory latency histogram for per-event timings (millions of samples
// would otherwise grow the peak RSS the benchmark reports): log-spaced
// buckets 1% wide from 10 ns to 100 s, linear interpolation inside a bucket.
class LogHistogram {
 public:
  void add(double seconds);
  std::size_t count() const { return total_; }
  // Nearest-rank percentile p in (0, 100], in seconds.
  double percentile(double p) const;

 private:
  static constexpr double kMin = 1e-8;
  static constexpr double kRatio = 1.01;
  static constexpr std::size_t kBuckets = 2316;  // kMin * kRatio^kBuckets ≈ 100 s
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets + 1, 0);
  std::size_t total_ = 0;
};

// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// FNV-1a over the exact bits of the simulated outputs: equal digests mean
// bit-identical outputs.
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add(const std::string& s) {
    for (const unsigned char c : s) mix(c);
    add_u64(s.size());
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(v >> (8 * i)));
  }
  std::string hex() const;

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

// "<label> tail = p<pct> over <n> samples" for the notes.
std::string tail_note(const std::string& label, std::size_t n, double cap = 99);
// "inputs <hex>" and "digest <hex>, <detail>" for the notes.
void add_digest_notes(const Digest& inputs, const Digest& outputs,
                      const std::string& detail, Result* r);

}  // namespace dsbench
