#include "store/profile_store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/check.h"
#include "util/crc32.h"

namespace ds::store {

namespace {

// File layout: kMagic, u32 version, then records of
//   u32 payload_len | u32 crc32(payload) | payload
// Payload v1 is 22 host-endian 8-byte words (see encode_record). The store
// file is a node-local artifact (like the bench JSONs), not a wire format,
// so host endianness is fine.
constexpr char kMagic[4] = {'D', 'S', 'P', 'S'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kPayloadWords = 22;
constexpr std::size_t kPayloadBytes = kPayloadWords * 8;

inline std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

inline double double_of(std::uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

struct Writer {
  unsigned char buf[kPayloadBytes];
  std::size_t at = 0;
  void u64(std::uint64_t v) {
    DS_CHECK(at + 8 <= kPayloadBytes);
    std::memcpy(buf + at, &v, 8);
    at += 8;
  }
  void f64(double v) { u64(bits_of(v)); }
};

struct Reader {
  const unsigned char* buf;
  std::size_t size;
  std::size_t at = 0;
  std::uint64_t u64() {
    DS_CHECK(at + 8 <= size);
    std::uint64_t v;
    std::memcpy(&v, buf + at, 8);
    at += 8;
    return v;
  }
  double f64() { return double_of(u64()); }
};

struct FileRecord {
  std::uint64_t signature = 0;
  core::CalibrationFactors factors;
  std::uint64_t epoch = 0;
  std::uint64_t runs = 0;
  core::PhaseObservation window;
  core::PhaseObservation totals;
  core::CalibrationFactors anchor;
};

void encode_record(const FileRecord& r, Writer& w) {
  w.u64(r.signature);
  w.u64(r.epoch);
  w.u64(r.runs);
  w.f64(r.factors.network);
  w.f64(r.factors.compute);
  w.f64(r.factors.write);
  w.u64(static_cast<std::uint64_t>(r.factors.observations));
  w.f64(r.anchor.network);
  w.f64(r.anchor.compute);
  w.f64(r.anchor.write);
  w.f64(r.window.predicted_network);
  w.f64(r.window.predicted_compute);
  w.f64(r.window.predicted_write);
  w.f64(r.window.actual_network);
  w.f64(r.window.actual_compute);
  w.f64(r.window.actual_write);
  w.f64(r.totals.predicted_network);
  w.f64(r.totals.predicted_compute);
  w.f64(r.totals.predicted_write);
  w.f64(r.totals.actual_network);
  w.f64(r.totals.actual_compute);
  w.f64(r.totals.actual_write);
  DS_CHECK(w.at == kPayloadBytes);
}

FileRecord decode_record(Reader& r) {
  FileRecord out;
  out.signature = r.u64();
  out.epoch = r.u64();
  out.runs = r.u64();
  out.factors.network = r.f64();
  out.factors.compute = r.f64();
  out.factors.write = r.f64();
  out.factors.observations = static_cast<int>(r.u64());
  out.anchor.network = r.f64();
  out.anchor.compute = r.f64();
  out.anchor.write = r.f64();
  out.window.predicted_network = r.f64();
  out.window.predicted_compute = r.f64();
  out.window.predicted_write = r.f64();
  out.window.actual_network = r.f64();
  out.window.actual_compute = r.f64();
  out.window.actual_write = r.f64();
  out.totals.predicted_network = r.f64();
  out.totals.predicted_compute = r.f64();
  out.totals.predicted_write = r.f64();
  out.totals.actual_network = r.f64();
  out.totals.actual_compute = r.f64();
  out.totals.actual_write = r.f64();
  return out;
}

void decay_into(core::PhaseObservation& window,
                const core::PhaseObservation& obs, double decay,
                std::uint64_t prior_runs) {
  // First observation seeds the window; later ones blend in with weight
  // `decay` so the window tracks the recent regime without forgetting it
  // all on one noisy run.
  const double a = prior_runs == 0 ? 1.0 : decay;
  auto mix = [a](Seconds& w, Seconds v) { w = (1.0 - a) * w + a * v; };
  mix(window.predicted_network, obs.predicted_network);
  mix(window.predicted_compute, obs.predicted_compute);
  mix(window.predicted_write, obs.predicted_write);
  mix(window.actual_network, obs.actual_network);
  mix(window.actual_compute, obs.actual_compute);
  mix(window.actual_write, obs.actual_write);
}

void sum_into(core::PhaseObservation& totals,
              const core::PhaseObservation& obs) {
  totals.predicted_network += obs.predicted_network;
  totals.predicted_compute += obs.predicted_compute;
  totals.predicted_write += obs.predicted_write;
  totals.actual_network += obs.actual_network;
  totals.actual_compute += obs.actual_compute;
  totals.actual_write += obs.actual_write;
}

double max_relative_shift(const core::CalibrationFactors& a,
                          const core::CalibrationFactors& b) {
  auto shift = [](double from, double to) {
    return from > 0 ? std::abs(to - from) / from : 0.0;
  };
  return std::max({shift(a.network, b.network), shift(a.compute, b.compute),
                   shift(a.write, b.write)});
}

}  // namespace

ProfileStore::ProfileStore(ProfileStoreOptions options, obs::Observability* obs)
    : opt_(options),
      calibrator_(std::make_unique<core::ModelCalibrator>(
          options.calibration)),
      observations_(obs::counter(obs, "profile_store.observations")),
      drifts_(obs::counter(obs, "profile_store.drifts")),
      workloads_gauge_(obs::gauge(obs, "profile_store.workloads")) {
  DS_CHECK_MSG(opt_.drift_threshold > 0,
               "profile store drift_threshold must be positive");
  DS_CHECK_MSG(opt_.window_decay > 0 && opt_.window_decay <= 1.0,
               "profile store window_decay must be in (0, 1]");
}

bool ProfileStore::observe(std::uint64_t signature,
                           const core::PhaseObservation& obs) {
  if (!obs.usable()) return false;
  observations_.inc();
  calibrator_->observe(signature, obs);
  const core::CalibrationFactors now = calibrator_->factors(signature);
  std::lock_guard<std::mutex> lock(mu_);
  Record& rec = records_[signature];
  decay_into(rec.window, obs, opt_.window_decay, rec.runs);
  sum_into(rec.totals, obs);
  ++rec.runs;
  workloads_gauge_.set(static_cast<double>(records_.size()));
  if (max_relative_shift(rec.anchor, now) > opt_.drift_threshold) {
    ++rec.epoch;
    rec.anchor = now;
    drifts_.inc();
    return true;
  }
  return false;
}

core::CalibrationFactors ProfileStore::factors(std::uint64_t signature) const {
  return calibrator_->factors(signature);
}

std::uint64_t ProfileStore::epoch(std::uint64_t signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(signature);
  return it != records_.end() ? it->second.epoch : 0;
}

WorkloadStats ProfileStore::stats(std::uint64_t signature) const {
  WorkloadStats out;
  out.factors = calibrator_->factors(signature);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(signature);
  if (it != records_.end()) {
    out.epoch = it->second.epoch;
    out.runs = it->second.runs;
    out.window = it->second.window;
    out.totals = it->second.totals;
  }
  return out;
}

std::size_t ProfileStore::workloads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

Status ProfileStore::save(const std::string& path) const {
  std::vector<FileRecord> recs;
  {
    const auto factors = calibrator_->snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    recs.reserve(factors.size());
    for (const auto& [sig, f] : factors) {
      FileRecord r;
      r.signature = sig;
      r.factors = f;
      if (const auto it = records_.find(sig); it != records_.end()) {
        r.epoch = it->second.epoch;
        r.runs = it->second.runs;
        r.window = it->second.window;
        r.totals = it->second.totals;
        r.anchor = it->second.anchor;
      }
      recs.push_back(r);
    }
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::error("profile store: cannot write " + tmp);
    out.write(kMagic, sizeof(kMagic));
    const std::uint32_t version = kFormatVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    for (const FileRecord& r : recs) {
      Writer w;
      encode_record(r, w);
      const auto len = static_cast<std::uint32_t>(w.at);
      const std::uint32_t crc = crc32(w.buf, w.at);
      out.write(reinterpret_cast<const char*>(&len), sizeof(len));
      out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
      out.write(reinterpret_cast<const char*>(w.buf),
                static_cast<std::streamsize>(w.at));
    }
    if (!out) return Status::error("profile store: failed writing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Status::error("profile store: cannot rename " + tmp + " over " +
                         path);
  return Status::ok();
}

Status ProfileStore::load(const std::string& path, LoadInfo* info) {
  LoadInfo local;
  LoadInfo& li = info != nullptr ? *info : local;
  li = LoadInfo{};

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Cold start: an absent store is the normal first-boot state.
    li.missing = true;
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
    calibrator_ = std::make_unique<core::ModelCalibrator>(opt_.calibration);
    return Status::ok();
  }

  char magic[4] = {};
  std::uint32_t version = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return Status::error("profile store: " + path +
                         " is not a profile store file (bad magic)");
  if (version != kFormatVersion)
    return Status::error("profile store: " + path + " is format version " +
                         std::to_string(version) + " but this build reads " +
                         std::to_string(kFormatVersion));

  std::vector<FileRecord> recs;
  std::vector<unsigned char> payload;
  while (true) {
    std::uint32_t len = 0, crc = 0;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (in.gcount() == 0) break;  // clean EOF between records
    in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
    if (!in || len != kPayloadBytes) {
      // A short/garbled length prefix: an interrupted append. Keep the
      // prefix read so far.
      li.truncated = true;
      ++li.discarded;
      break;
    }
    payload.resize(len);
    in.read(reinterpret_cast<char*>(payload.data()), len);
    if (in.gcount() != static_cast<std::streamsize>(len) ||
        crc32(payload.data(), payload.size()) != crc) {
      li.truncated = true;
      ++li.discarded;
      break;
    }
    Reader r{payload.data(), payload.size()};
    FileRecord rec = decode_record(r);
    // Reject records a corrupted-but-crc-colliding file could smuggle in:
    // factors must be usable by calibrated_profile().
    if (!(rec.factors.network > 0) || !(rec.factors.compute > 0) ||
        !(rec.factors.write > 0)) {
      li.truncated = true;
      ++li.discarded;
      break;
    }
    recs.push_back(rec);
    ++li.records;
  }

  auto fresh = std::make_unique<core::ModelCalibrator>(opt_.calibration);
  std::unordered_map<std::uint64_t, Record> loaded;
  for (const FileRecord& r : recs) {  // append-only: last record wins
    fresh->restore(r.signature, r.factors);
    Record& rec = loaded[r.signature];
    rec.epoch = r.epoch;
    rec.runs = r.runs;
    rec.window = r.window;
    rec.totals = r.totals;
    rec.anchor = r.anchor;
  }
  std::lock_guard<std::mutex> lock(mu_);
  calibrator_ = std::move(fresh);
  records_ = std::move(loaded);
  workloads_gauge_.set(static_cast<double>(records_.size()));
  return Status::ok();
}

}  // namespace ds::store
