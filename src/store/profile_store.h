// Persistent, concurrent per-workload profile store — the memory a
// plan-as-a-service deployment accumulates across processes.
//
// Recurrent jobs hash to a stable core::workload_signature; the store keeps,
// per signature, the ModelCalibrator's EWMA correction factors (the PR 7
// drift loop), decaying-window and lifetime phase-span statistics, and a
// *calibration epoch* that advances whenever the factors move beyond a
// configurable threshold since plans were last anchored. The epoch is the
// drift signal the PlanCache invalidates on: a cached plan carries the epoch
// it was computed under, and a signature whose model has drifted makes every
// older plan stale.
//
// Persistence is an append-only versioned binary format: a magic+version
// header followed by length-prefixed, CRC-32-checked records (last record
// for a signature wins, so an interrupted append leaves a loadable valid
// prefix). save() writes the whole snapshot to `<path>.tmp` and atomically
// renames it over `path`; load() tolerates a truncated or corrupted tail by
// keeping the valid prefix, and treats a missing file as a cold start. A
// cold start carries identity factors, so planning through an empty store is
// bit-identical to planning with no store at all.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/calibration.h"
#include "obs/obs.h"
#include "util/status.h"

namespace ds::store {

struct ProfileStoreOptions {
  core::CalibrationOptions calibration;
  // Relative movement of any calibration factor (vs the factors current when
  // the signature's epoch was last anchored) that advances the epoch and
  // invalidates cached plans. 0.1 = a 10% model shift re-plans.
  double drift_threshold = 0.10;
  // Decay of the per-signature statistics window: the newest run's spans
  // enter with this weight (EWMA over runs, like the calibrator's alpha).
  double window_decay = 0.25;
};

// Accumulated statistics for one workload signature.
struct WorkloadStats {
  core::CalibrationFactors factors;   // current correction factors
  std::uint64_t epoch = 0;            // bumps on drift beyond the threshold
  std::uint64_t runs = 0;             // observations folded in
  core::PhaseObservation window;      // EWMA-decayed phase spans
  core::PhaseObservation totals;      // lifetime sums
};

class ProfileStore {
 public:
  struct LoadInfo {
    bool missing = false;       // no file — cold start
    bool truncated = false;     // corrupt/short tail dropped
    std::size_t records = 0;    // records recovered
    std::size_t discarded = 0;  // records dropped (bad CRC / short read)
  };

  explicit ProfileStore(ProfileStoreOptions options = {},
                        obs::Observability* obs = nullptr);

  // Fold one run's evidence into the signature's factors and statistics.
  // Returns true when the factors moved beyond drift_threshold relative to
  // the epoch anchor — the caller should invalidate that signature's cached
  // plans (PlanService does).
  bool observe(std::uint64_t signature, const core::PhaseObservation& obs);

  // Identity for never-observed signatures (bit-exact cold-start contract).
  core::CalibrationFactors factors(std::uint64_t signature) const;
  // 0 for never-observed signatures.
  std::uint64_t epoch(std::uint64_t signature) const;
  WorkloadStats stats(std::uint64_t signature) const;
  std::size_t workloads() const;

  // Atomic snapshot: write to `path + ".tmp"`, fsync-free rename over
  // `path`. Records are sorted by signature, so identical state produces an
  // identical file.
  Status save(const std::string& path) const;
  // Replace this store's contents with the file's records (last record per
  // signature wins). Missing file → empty store, ok. Bad header → error, the
  // store is left empty. Corrupt tail → valid prefix kept, ok with
  // info->truncated set.
  Status load(const std::string& path, LoadInfo* info = nullptr);

  const ProfileStoreOptions& options() const { return opt_; }

 private:
  // Bookkeeping beyond the calibrator's factors; `anchor` is the factor
  // vector the current epoch was opened with (drift is measured against it).
  struct Record {
    std::uint64_t epoch = 0;
    std::uint64_t runs = 0;
    core::PhaseObservation window;
    core::PhaseObservation totals;
    core::CalibrationFactors anchor;
  };

  ProfileStoreOptions opt_;
  mutable std::mutex mu_;
  // Factor EWMA math lives in core; held by pointer because the calibrator
  // owns a mutex (not movable) and load() swaps in a fresh instance.
  std::unique_ptr<core::ModelCalibrator> calibrator_;
  std::unordered_map<std::uint64_t, Record> records_;
  obs::Counter observations_;
  obs::Counter drifts_;
  obs::Gauge workloads_gauge_;
};

}  // namespace ds::store
