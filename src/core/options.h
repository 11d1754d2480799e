// ds::CommonOptions — the shared facade every options struct embeds.
//
// RunOptions, CalculatorOptions, ReplayOptions and SyntheticTraceOptions had
// drifted into duplicated, inconsistently defaulted knobs (threads in two of
// four, seed in three, 0-means-auto normalized in the CLIs only). They now
// all *inherit* CommonOptions, which:
//   * holds the shared fields once (`opt.threads`, `opt.seed`, `opt.obs`), so
//     shared helpers take any derived struct as a `CommonOptions&`;
//   * normalizes 0/negative-means-hardware-concurrency in exactly one place
//     (resolved_threads());
//   * carries the observability sink (obs) that sim/, engine/, core/ and
//     trace/ publish metrics and trace spans into.
//
// Header-only on purpose: every layer includes it without taking a link
// dependency on ds_core.
#pragma once

#include <cstdint>
#include <thread>

namespace ds {

namespace obs {
struct Observability;
}

struct CommonOptions {
  // Worker threads for whatever fan-out the consumer runs (planner candidate
  // grids, replay per-job planning). <= 0 = hardware concurrency. The
  // single-threaded engine ignores it.
  int threads = 1;
  // Deterministic seed: per-task skew and fault injection (engine),
  // PathOrder::kRandom (calculator), per-job planning (replay), trace
  // generation (synthetic).
  std::uint64_t seed = 1;
  // Observability sink (metrics + tracing); nullptr = disabled, zero
  // overhead. The sink must outlive the consumer. Purely passive: enabling
  // it never changes a simulation result bit.
  obs::Observability* obs = nullptr;

  // The one place 0-means-auto is resolved (mirrors ThreadPool's contract).
  int resolved_threads() const {
    if (threads > 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }
};

}  // namespace ds
