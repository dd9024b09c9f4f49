// Measurement logic of the HybriDS benchmark that the self-test checks
// (bench.cpp --selftest): percentile selection with sample counts, the
// stall classifier behind nmp.stall_share, per-type op dispatch accounting,
// and the output oracle that decides whether an op failed.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "hybrids/types.hpp"
#include "hybrids/workload/workload.hpp"

namespace perfbench {

using hybrids::Key;
using hybrids::ScanEntry;
using hybrids::Value;
using hybrids::workload::Op;
using hybrids::workload::OpType;

// ---------------------------------------------------------------------------
// Percentiles

/// One percentile of a sample set, with the evidence behind it: `n` samples
/// in all and `beyond` of them strictly above the selected rank. A tail
/// percentile is only trustworthy when at least ten samples lie beyond it.
struct Percentile {
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  bool supported() const { return n > 0 && beyond >= 10; }
};

/// Nearest-rank percentile (rank = ceil(q * n), 1-based) of `sorted`, which
/// must be in ascending order. q in (0, 1]. Empty input gives value 0, n 0.
template <typename T>
Percentile percentile(const std::vector<T>& sorted, double q) {
  Percentile p;
  p.n = sorted.size();
  if (p.n == 0) return p;
  const double exact = q * static_cast<double>(p.n);
  std::size_t rank = static_cast<std::size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  rank = std::clamp<std::size_t>(rank, 1, p.n);
  p.value = static_cast<double>(sorted[rank - 1]);
  p.beyond = p.n - rank;
  return p;
}

// ---------------------------------------------------------------------------
// Stall classification

/// The runtime's bounded-wait window (kWaitWindow in nmp/nmp_core.cpp). A
/// host whose reply wakeup is lost parks in FUTEX_WAIT until the window
/// expires, so a round trip or op that lasted at least this long is
/// counted as a stall.
inline constexpr std::uint64_t kStallNs = 2'000'000;

inline bool is_stall(std::uint64_t latency_ns) { return latency_ns >= kStallNs; }

/// Share of `latencies_ns` that are stalls; 0 for an empty set.
template <typename T>
double stall_share(const std::vector<T>& latencies_ns) {
  if (latencies_ns.empty()) return 0;
  std::size_t stalls = 0;
  for (const T ns : latencies_ns) stalls += is_stall(static_cast<std::uint64_t>(ns));
  return static_cast<double>(stalls) / static_cast<double>(latencies_ns.size());
}

// ---------------------------------------------------------------------------
// Dispatch accounting

inline constexpr std::size_t kOpTypes = 5;

inline std::size_t type_index(OpType t) { return static_cast<std::size_t>(t); }

inline const char* type_name(std::size_t i) {
  static constexpr const char* kNames[kOpTypes] = {"read", "update", "insert",
                                                   "remove", "scan"};
  return i < kOpTypes ? kNames[i] : "?";
}

/// Ops taken from the generated stream, per type, against ops that entered
/// the matching entry point. A dispatcher that routes one type to another
/// type's call (a `default:` branch swallowing kUpdate, say) shows up as a
/// mismatch, and the run fails.
struct TypeCounts {
  std::array<std::uint64_t, kOpTypes> generated{};
  std::array<std::uint64_t, kOpTypes> dispatched{};

  void add(const TypeCounts& o) {
    for (std::size_t i = 0; i < kOpTypes; ++i) {
      generated[i] += o.generated[i];
      dispatched[i] += o.dispatched[i];
    }
  }
  bool match() const { return generated == dispatched; }
};

/// What one op returned, in a shape every op type fits.
struct OpResult {
  bool ok = false;
  Value value = 0;     // reads
  std::size_t n = 0;   // scans: entries written
};

/// Blocking dispatch of one op onto `ds`'s public entry points. Every op
/// type has its own case; anything else throws instead of silently running
/// as some other op.
template <typename DS>
OpResult dispatch(DS& ds, const Op& op, ScanEntry* buf, std::uint32_t tid,
                  TypeCounts& counts) {
  OpResult r;
  switch (op.type) {
    case OpType::kRead:
      ++counts.dispatched[type_index(OpType::kRead)];
      r.ok = ds.read(op.key, r.value, tid);
      return r;
    case OpType::kUpdate:
      ++counts.dispatched[type_index(OpType::kUpdate)];
      r.ok = ds.update(op.key, op.value, tid);
      return r;
    case OpType::kInsert:
      ++counts.dispatched[type_index(OpType::kInsert)];
      r.ok = ds.insert(op.key, op.value, tid);
      return r;
    case OpType::kRemove:
      ++counts.dispatched[type_index(OpType::kRemove)];
      r.ok = ds.remove(op.key, tid);
      return r;
    case OpType::kScan:
      ++counts.dispatched[type_index(OpType::kScan)];
      r.n = ds.scan(op.key, op.scan_len, buf, tid);
      r.ok = true;
      return r;
  }
  throw std::logic_error("op type with no dispatch case");
}

// ---------------------------------------------------------------------------
// Output oracle

/// Deterministic preload value of `key`; the value tier and the structures
/// must hand back exactly this until the op streams write something else.
inline Value initial_value(Key key) {
  std::uint64_t x = key + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return static_cast<Value>(x ^ (x >> 31));
}

/// Knows, from the preload and the generated op streams alone, which values
/// each key may legitimately hold and which keys can never be absent.
class Oracle {
 public:
  /// `key_space` bounds every key; `loaded` are the preloaded keys;
  /// `streams` are every host thread's generated ops (the whole of them, as
  /// the run may replay a stream from the start).
  Oracle(Key key_space, const std::vector<Key>& loaded,
         const std::vector<const std::vector<Op>*>& streams)
      : flags_(key_space, 0) {
    for (const Key k : loaded) flags_.at(k) |= kLoaded;
    for (const std::vector<Op>* s : streams) {
      for (const Op& op : *s) {
        if (op.type == OpType::kUpdate || op.type == OpType::kInsert) {
          flags_.at(op.key) |= kWritten;
          written_.push_back(pair(op.key, op.value));
        } else if (op.type == OpType::kRemove) {
          flags_.at(op.key) |= kRemovable;
        }
      }
    }
    std::sort(written_.begin(), written_.end());
    written_.erase(std::unique(written_.begin(), written_.end()),
                   written_.end());
  }

  /// True when `v` was the preload value of `k` or some op wrote it to `k`.
  bool valid_value(Key k, Value v) const {
    if (k >= flags_.size()) return false;
    if ((flags_[k] & kLoaded) && v == initial_value(k)) return true;
    if (!(flags_[k] & kWritten)) return false;
    return std::binary_search(written_.begin(), written_.end(), pair(k, v));
  }

  /// A preloaded key that no op ever removes: reads must find it.
  bool must_exist(Key k) const {
    return k < flags_.size() && (flags_[k] & kLoaded) && !(flags_[k] & kRemovable);
  }

  /// The output check of one op; false means the op failed.
  bool check(const Op& op, const OpResult& r, const ScanEntry* buf) const {
    switch (op.type) {
      case OpType::kRead:
        return r.ok ? valid_value(op.key, r.value) : !must_exist(op.key);
      case OpType::kUpdate:
        return r.ok || !must_exist(op.key);
      case OpType::kInsert:
      case OpType::kRemove:
        return true;  // either outcome is legal under concurrent writers
      case OpType::kScan: {
        if (r.n > op.scan_len) return false;
        for (std::size_t i = 0; i < r.n; ++i) {
          if (buf[i].key < op.key) return false;
          if (i > 0 && buf[i].key <= buf[i - 1].key) return false;
          if (!valid_value(buf[i].key, buf[i].value)) return false;
        }
        return true;
      }
    }
    return false;
  }

 private:
  static constexpr std::uint8_t kLoaded = 1;
  static constexpr std::uint8_t kWritten = 2;
  static constexpr std::uint8_t kRemovable = 4;

  static std::uint64_t pair(Key k, Value v) {
    return (static_cast<std::uint64_t>(k) << 32) | v;
  }

  std::vector<std::uint8_t> flags_;
  std::vector<std::uint64_t> written_;  // sorted (key << 32 | value)
};

}  // namespace perfbench
