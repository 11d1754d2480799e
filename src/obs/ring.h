// The two storage pieces the tracer and the flight recorder share.
//
// Ring<T> is a bounded, overwrite-oldest record buffer: `head` counts every
// push, the last `capacity` pushes are kept, and the rest are counted as
// dropped. It takes no lock — each owner already serialises access (the
// tracer by giving every thread its own ring, the flight recorder with its
// mutex). T must carry a `std::uint64_t seq` field; push() stamps it with
// the record's push index, the stable tiebreak both exporters sort or print
// by.
//
// InternTable turns dynamic strings into `const char*` that stay valid for
// the table's lifetime, so fixed-size records can name them. It is
// node-based (element addresses survive rehash), deduplicating (a bounded
// vocabulary allocates nothing once warm) and locked on its own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace ds::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : slots_(capacity) {}

  // Overwrite the oldest slot with `v` and return its seq. Needs a
  // capacity above 0.
  std::uint64_t push(const T& v) {
    T& slot = slots_[static_cast<std::size_t>(head_ % slots_.size())];
    slot = v;
    slot.seq = head_;
    return head_++;
  }

  std::uint64_t pushed() const { return head_; }  // total pushes ever
  std::uint64_t kept() const {
    return std::min<std::uint64_t>(head_, slots_.size());
  }
  std::uint64_t dropped() const { return head_ - kept(); }

  // Append the kept records to `out`, oldest first (= seq order).
  void append_to(std::vector<T>& out) const {
    for (std::uint64_t i = head_ - kept(); i < head_; ++i)
      out.push_back(slots_[static_cast<std::size_t>(i % slots_.size())]);
  }

 private:
  std::vector<T> slots_;
  std::uint64_t head_ = 0;
};

class InternTable {
 public:
  const char* intern(const std::string& s) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = strings_.find(s);
    return (it != strings_.end() ? it : strings_.insert(s).first)->c_str();
  }

 private:
  std::mutex mu_;
  std::unordered_set<std::string> strings_;
};

}  // namespace ds::obs
