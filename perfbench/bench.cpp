// HybriDS benchmark program. perfbench/run.py builds and drives it; run it
// directly as
//
//   hybrids_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans FILE] [--commit ID]
//   hybrids_bench --selftest
//
// and it prints one JSON document as its last stdout line: provenance, the
// output checks, and every metric with its unit and sample count.
//
// Where an operation's time goes is the paper's whole argument (§3,
// Table 2): a host descent through the LLC-sized top levels against an
// offload round trip to an NMP partition. The three runtime workloads each
// put a different layer on the critical path, and every run also replays
// the simulator's Fig. 5 headline cell:
//
//   skiplist_ycsbc  HybridSkipList, 2^17 keys (preloaded through insert_co
//                   with a full frame per host thread, see
//                   preload_skiplist), 8 partitions (the paper's 8
//                   NMP cores), blocking API, 2 host threads, cache off,
//                   YCSB-C (100% scrambled-zipfian reads, theta 0.99). Every
//                   op is one host descent plus, for all but the few tall
//                   keys, exactly one offload round trip, so the nmp
//                   publish -> pickup -> apply -> reply -> wake handoff
//                   carries most of the time; cache and interleave do
//                   nothing. Fig. 5's workload on the real runtime.
//   skiplist_ycsbe  (Runnable, not in BENCHMARK.json: at the parent commit
//                   the stall makes even its op_p50_us and setup_s swing
//                   run to run, IQR/median 0.45 and medians 0.6-2.3 s
//                   between two sets of ten runs, beyond any bound the gate
//                   allows. Add it back once the stall is fixed.)
//                   Same build, YCSB-E (95% scans with a zipfian start and a
//                   zipfian length up to 100, 5% uniform inserts). Scans
//                   stitch fat-node runs on the host with 16-entry partition
//                   chunks and partition hops, so ds scan stitching and
//                   offloads per op dominate; the inserts add fat-node
//                   splits and mem allocation beside them. A point-read
//                   change moves this workload only through its per-round-
//                   trip saving.
//   btree_mixed_d8  HybridBTree, 2^17 keys bulk-loaded, 2 partitions (2 host
//                   + 2 combiner threads fill a 4-vCPU host, so combiners
//                   need not share a core), hot-key cache at 1/16 of the key
//                   footprint, _co entry points at frame depth 8 on each of 2
//                   host threads. 50% zipfian reads, 20% zipfian updates, 15%
//                   uniform inserts, 15% removes that take back the same
//                   thread's earlier inserts. Combiners find many pending
//                   slots per pass (batch apply runs), hot reads hit the
//                   value tier while updates invalidate it, and inserts and
//                   removes drive B+ splits, LOCK_PATH escalation and arena
//                   churn. Removes take back inserts instead of drawing
//                   zipfian preloaded keys because a zipfian remove deletes
//                   the hot set for good within milliseconds (inserts only
//                   add fresh odd keys), which would leave the cache nothing
//                   to serve; this way the tree keeps its size and every
//                   preloaded key must stay readable.
//   (every run)     The simulator's hybrid-nonblocking4 skiplist cell of
//                   Fig. 5: YCSB-C, 2^20 keys, 8 simulated host threads.
//                   It guards the reproduction's headline number (11.142
//                   Mops, 13.83 DRAM reads/op at the parent commit); no
//                   runtime change may move sim_mops or
//                   sim_dram_reads_per_op; simulator speed shows in the
//                   per-layer sim.ops_per_wall_s (single-threaded wall time
//                   on a shared host spreads too much to gate). It runs on
//                   every workload because the benchmark reports one metric
//                   set for all of them.
//
// Load model: closed loop. Each host thread is a caller that waits for its
// reply (depth 8 on btree_mixed_d8: up to 8 ops in flight per thread).
//
// The lost-wakeup stall. NmpCore::complete wakes the host with
// std::atomic::notify_all, which in libstdc++ 12 skips FUTEX_WAKE unless a
// std::atomic::wait waiter shares the slot's waiter-pool bucket, while hosts
// park with a raw FUTEX_WAIT (util::timed_wait). A reply can then sit until
// the runtime's 2 ms wait window expires. Whether a combiner parked in
// std::atomic::wait shares the slots' bucket depends on where the build's
// NmpCore objects land in the heap, so the stall rate is a property of the
// build and of the process, not of the seed. Nothing here configures around
// it: thread and partition counts come from the paper and the host, seeds
// come from the command line, and the address layout is left alone.
//
// What it does to the parent's numbers, measured on a 4-vCPU host:
//   skiplist_ycsbe  every build stalls on 2-9% of scans (15-25% in bad
//                   builds): op_p99_us sits at the 2 ms window (2.1 ms, or
//                   4.2 ms when scans stall twice), and ops_per_s runs from
//                   7k to 26k per run where the handoff alone would allow
//                   several times more.
//   skiplist_ycsbc  most builds stall on ~0.1% of reads (p99 ~20 us,
//                   230-320k ops/s); some processes land builds that stall
//                   on 1-3%, where p99 is 2.1 ms and ops_per_s 30-60k, and
//                   op_p50_us rises from ~5.5 us toward 10 us. While the
//                   host was busy with other work, three runs in a row
//                   stalled on 1-28% of reads in most builds (down to 3k
//                   ops/s per segment, op_p50_us 7-11 us, setup_s 1-3 s).
//   btree_mixed_d8  the frames hide most waits (stall share ~0.01%), but
//                   in about two runs of five p99 jumps from ~52 us to
//                   ~1.1 ms and ops_per_s halves.
//   setup_s         a preload of 2^17 blocking inserts stalls the same way
//                   (0.4-20 s per build), so the skiplist preload keeps 16
//                   inserts in flight per thread instead, which rarely
//                   drains into a wait: 0.3-0.5 s per build. setup_s is
//                   therefore no witness of the stall; a fix may still
//                   lower it a little.
// So ops_per_s and the p99s are bimodal from run to run and the gate
// (BENCHMARK.json) cannot hold them to a bound yet; they are printed on
// every run, pooled and per segment, beside nmp.stall_share and
// nmp.wait_timeouts_per_offload, which count the stalls directly. A fix
// shows as those two falling to ~0, the pooled and per-segment numbers
// converging, and op_p50_us falling.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hybrids/cache/hot_cache.hpp"
#include "hybrids/ds/fat_skiplist.hpp"
#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/lockfree_skiplist.hpp"
#include "hybrids/ds/seq_skiplist.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/nmp/partition_set.hpp"
#include "hybrids/sim/exp/experiment.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/util/rng.hpp"
#include "hybrids/workload/workload.hpp"
#include "hybrids/workload/ycsb.hpp"
#include "stats.hpp"

#if defined(HYBRIDS_NO_INTERLEAVE)
#error "the benchmark drives the _co entry points; build without HYBRIDS_NO_INTERLEAVE"
#endif

#ifndef HYBRIDS_BENCH_BUILD_TYPE
#define HYBRIDS_BENCH_BUILD_TYPE "unknown"
#endif

namespace hd = hybrids::ds;
namespace hh = hybrids::host;
namespace hn = hybrids::nmp;
namespace hs = hybrids::sim;
namespace ht = hybrids::telemetry;
namespace hw = hybrids::workload;

namespace perfbench {
namespace {

constexpr std::size_t kLlcBytes = 1 << 20;       // §3.3 / §3.4 sizing target
constexpr std::size_t kStreamOps = 1 << 20;      // generated ops per thread
constexpr std::size_t kSamplesPerSecond = 1 << 19;  // per thread: above the
                                                     // fastest workload's rate
constexpr std::size_t kMaxSpans = 1 << 17;       // spans per thread (traced)
constexpr double kHangGraceS = 30;               // an op past this never completes
constexpr double kSegmentBudgetS = 60;           // no new segment after this
constexpr std::uint32_t kMaxScanLen = 100;       // YCSB-E maxscanlength

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double rss_mb_now() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Metrics and spans

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t n = 0;  // samples or ops behind the value
};

/// Everything a run prints: metrics by name, and output checks by name
/// (each check a JSON value, or a string that is quoted on output).
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> checks;

  void put(const std::string& name, double v, const char* unit, std::uint64_t n) {
    metrics[name] = Metric{v, unit, n};
  }
};

/// One recorded interval: a benchmark phase, a layer probe, or one op call.
/// Spans of one op share `op_id`; `parent` is the enclosing span (0: root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op_id = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint16_t name = 0;
  std::uint16_t thread = 0;
};

/// Span names, indexed by Span::name.
const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names = {
      "run",        "setup",          "warmup",          "measure.untraced",
      "measure.traced", "op.read",    "op.update",       "op.insert",
      "op.remove",  "op.scan",        "probe.nmp.pingpong", "probe.ds.host_find",
      "probe.ds.partition_apply",     "probe.cache.lookup", "probe.host.co_read",
      "sim.cell",   "nmp.call",       "fat.find",        "partition.read",
      "cache.lookup_value", "ds.read", "ds.read_co"};
  return names;
}

std::uint16_t span_name(const std::string& s) {
  const auto& names = span_names();
  const auto it = std::find(names.begin(), names.end(), s);
  if (it == names.end()) throw std::logic_error("unknown span name " + s);
  return static_cast<std::uint16_t>(it - names.begin());
}

/// Span name of an op of type `t` ("op.read" ... "op.scan", in OpType order).
std::uint16_t op_span_name(OpType t) {
  static const std::uint16_t first = span_name("op.read");
  return static_cast<std::uint16_t>(first + type_index(t));
}

/// Per-thread span buffer. Spans stay in memory and are written at exit.
class SpanLog {
 public:
  SpanLog(std::uint16_t thread, bool on) : thread_(thread), on_(on) {
    if (on_) spans_.reserve(1024);
  }
  bool on() const { return on_; }
  std::uint16_t thread() const { return thread_; }
  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(thread_) + 1) << 40 | ++seq_;
  }
  /// Records [start, end] under `parent`; returns the span's id (0 when
  /// tracing is off or the buffer is full).
  std::uint64_t add(std::uint16_t name, std::uint64_t parent,
                    std::uint64_t start, std::uint64_t end,
                    std::uint64_t op_id = 0) {
    if (!on_) return 0;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return 0;
    }
    Span s;
    s.id = next_id();
    s.parent = parent;
    s.op_id = op_id != 0 ? op_id : s.id;
    s.start = start;
    s.end = end;
    s.name = name;
    s.thread = thread_;
    spans_.push_back(s);
    return s.id;
  }
  std::vector<Span>& spans() { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint16_t thread_;
  bool on_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII span around a block on the main thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent)
      : log_(log), name_(span_name(name)), parent_(parent),
        id_(log.on() ? log.next_id() : 0), start_(now_ns()) {}
  ~ScopedSpan() {
    if (!log_.on()) return;
    Span s;
    s.id = id_;
    s.parent = parent_;
    s.op_id = id_;
    s.start = start_;
    s.end = now_ns();
    s.name = name_;
    s.thread = log_.thread();
    log_.spans().push_back(s);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint16_t name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  std::uint64_t start_;
};

// ---------------------------------------------------------------------------
// Workload definitions

enum class Structure { kSkipList, kBTree };

struct WorkloadDef {
  std::string name;
  Structure structure;
  std::uint32_t host_threads;
  std::uint32_t partitions;
  std::uint32_t depth;  // 1: blocking API; >1: _co entry points on a Frame
  bool cache;           // hot-key cache at 1/16 of the key footprint
  bool removes_take_back_inserts;
  hw::WorkloadSpec spec;
};

WorkloadDef make_workload(const std::string& name, std::uint64_t keys,
                          std::uint64_t seed) {
  WorkloadDef w;
  w.name = name;
  if (name == "skiplist_ycsbc") {
    w.structure = Structure::kSkipList;
    w.host_threads = 2;
    w.partitions = 8;
    w.depth = 1;
    w.cache = false;
    w.removes_take_back_inserts = false;
    w.spec = hw::ycsb_c(keys, w.partitions, seed);
  } else if (name == "skiplist_ycsbe") {
    w.structure = Structure::kSkipList;
    w.host_threads = 2;
    w.partitions = 8;
    w.depth = 1;
    w.cache = false;
    w.removes_take_back_inserts = false;
    w.spec = hw::ycsb_e(keys, w.partitions, seed, kMaxScanLen);
  } else if (name == "btree_mixed_d8") {
    w.structure = Structure::kBTree;
    w.host_threads = 2;
    w.partitions = 2;
    w.depth = 8;
    w.cache = true;
    w.removes_take_back_inserts = true;
    w.spec.initial_keys = keys;
    w.spec.partitions = w.partitions;
    w.spec.mix = hw::OpMix{0.50, 0.20, 0.15, 0.15, 0.0};
    w.spec.dist = hw::KeyDist::kScrambledZipfian;
    w.spec.insert_pattern = hw::InsertPattern::kUniform;
    w.spec.seed = seed;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t cache_budget(const WorkloadDef& w) {
  return w.cache ? w.spec.initial_keys *
                       (sizeof(hybrids::Key) + sizeof(hybrids::Value)) / 16
                 : 0;
}

/// Thread `t`'s op stream, generated before anything is timed.
std::vector<Op> make_stream(const WorkloadDef& w, std::uint32_t t,
                            std::size_t count) {
  hw::OpStream stream(w.spec, t);
  std::vector<Op> ops(count);
  for (Op& op : ops) op = stream.next();
  if (w.removes_take_back_inserts) {
    // Remove number r takes back this thread's insert number r; a remove
    // with no earlier insert to take back targets a fresh odd key, which
    // is absent unless another thread inserted it.
    std::deque<Key> inserted;
    hybrids::util::Xoshiro256 rng(w.spec.seed * 0x9E3779B97F4A7C15ull + 77 + t);
    for (Op& op : ops) {
      if (op.type == OpType::kInsert) {
        inserted.push_back(op.key);
      } else if (op.type == OpType::kRemove) {
        if (!inserted.empty()) {
          op.key = inserted.front();
          inserted.pop_front();
        } else {
          op.key = stream.layout().key_at(
                       rng.next_below(stream.layout().initial_keys())) + 1;
        }
      }
    }
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Structures

/// Skiplist tower heights for `keys` keys: the total is log2 of the initial
/// item count (the paper's choice), the NMP share comes from the LLC budget.
struct SkipHeights {
  int total;
  int nmp;
};

SkipHeights skiplist_heights(std::uint64_t keys) {
  int total = 1;
  while ((1ull << total) < keys) ++total;
  const int nmp = hd::HybridSkipList::nmp_height_for_cache(keys, kLlcBytes);
  return {std::max(total, nmp + 1), nmp};
}

/// `seed` draws the tower heights.
std::unique_ptr<hd::HybridSkipList> make_skiplist(const WorkloadDef& w,
                                                  std::size_t cache_bytes,
                                                  std::uint64_t seed) {
  const std::uint64_t keys = w.spec.initial_keys;
  const hw::KeyLayout layout(keys, w.partitions);
  hd::HybridSkipList::Config cfg;
  const SkipHeights h = skiplist_heights(keys);
  cfg.nmp_height = h.nmp;
  cfg.total_height = h.total;
  cfg.partitions = w.partitions;
  cfg.partition_width = layout.partition_width();
  cfg.max_threads = w.host_threads;
  cfg.slots_per_thread = std::max<std::uint32_t>(4, w.depth);
  cfg.cache_budget_bytes = cache_bytes;
  cfg.seed = seed;
  return std::make_unique<hd::HybridSkipList>(cfg);
}

std::unique_ptr<hd::HybridBTree> make_btree(const WorkloadDef& w,
                                            const std::vector<Key>& keys,
                                            std::size_t cache_bytes) {
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = hd::HybridBTree::nmp_levels_for_cache(keys.size(), kLlcBytes);
  cfg.partitions = w.partitions;
  cfg.max_threads = w.host_threads;
  cfg.slots_per_thread = std::max<std::uint32_t>(4, w.depth);
  cfg.cache_budget_bytes = cache_bytes;
  std::vector<Value> values(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) values[i] = initial_value(keys[i]);
  return std::make_unique<hd::HybridBTree>(cfg, keys, values);
}

/// Preloads `keys` in an order shuffled by `seed`, through insert_co on
/// each of `w.host_threads` threads, each keeping a full Frame
/// (Frame::kMaxSlots) of inserts in flight. Each thread's keys cycle
/// through the partitions, so its in-flight inserts spread about two per
/// partition and stay within the thread's async slots there; a rejected
/// async post would fall back to a blocking call. Returns the number of
/// inserts that did not return true.
///
/// Why not blocking inserts: a blocking preload waits out every lost
/// wakeup (see the top of this file), and its build times ran from 0.4 to
/// 20 s on a 4-vCPU host, so no bound could hold setup_s. With a full frame the
/// thread rarely drains into a wait, and builds take 0.3-0.5 s.
std::uint64_t preload_skiplist(hd::HybridSkipList& list, const WorkloadDef& w,
                               std::vector<Key> keys, std::uint64_t seed) {
  hybrids::util::Xoshiro256 rng(seed ^ 0x5E7A9ull);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.next_below(i)]);
  }
  const std::uint32_t threads = w.host_threads;
  const hw::KeyLayout layout(w.spec.initial_keys, w.partitions);
  std::vector<std::vector<Key>> order(threads);
  {
    std::vector<std::vector<std::vector<Key>>> by_part(
        threads, std::vector<std::vector<Key>>(w.partitions));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      by_part[i % threads][layout.partition_of(keys[i])].push_back(keys[i]);
    }
    for (std::uint32_t t = 0; t < threads; ++t) {
      std::size_t total = 0;
      for (const std::vector<Key>& part : by_part[t]) total += part.size();
      for (std::size_t j = 0; order[t].size() < total; ++j) {
        for (const std::vector<Key>& part : by_part[t]) {
          if (j < part.size()) order[t].push_back(part[j]);
        }
      }
    }
  }
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<Key>& mine = order[t];
      hh::Frame frame(hh::Frame::kMaxSlots);
      std::vector<std::optional<hh::CoTask<bool>>> slots(hh::Frame::kMaxSlots);
      std::size_t next = 0, inflight = 0;
      std::uint64_t my_bad = 0;
      while (next < mine.size() || inflight > 0) {
        for (std::optional<hh::CoTask<bool>>& s : slots) {
          if (s && s->done()) {
            bool ok = false;
            try {
              ok = s->result();
            } catch (const std::exception&) {
            }
            my_bad += !ok;
            s.reset();
            --inflight;
          }
          if (!s && next < mine.size()) {
            const Key k = mine[next++];
            s.emplace(list.insert_co(k, initial_value(k), t));
            frame.submit(s->handle());
            ++inflight;
          }
        }
        frame.step();
      }
      bad.fetch_add(my_bad);
    });
  }
  for (std::thread& th : workers) th.join();
  return bad.load();
}

// ---------------------------------------------------------------------------
// Measured phases

/// Latency sample: op class in the top two bits, nanoseconds below (clamped).
constexpr std::uint32_t kClassShift = 30;
constexpr std::uint32_t kNsMask = (1u << kClassShift) - 1;
enum OpClass : std::uint32_t { kReadClass = 0, kWriteClass = 1, kScanClass = 2 };

OpClass op_class(OpType t) {
  switch (t) {
    case OpType::kRead: return kReadClass;
    case OpType::kScan: return kScanClass;
    default: return kWriteClass;
  }
}

struct ThreadRec {
  std::vector<std::uint32_t> samples;  // preallocated, touched before timing
  std::size_t used = 0;
  std::uint64_t dropped_samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed_timed = 0;  // ops counted toward ops_per_s
  TypeCounts counts;
  std::array<std::uint64_t, kOpTypes> timed_by_type{};
  std::uint64_t first_failure_type = kOpTypes;
  std::size_t cursor = 0;  // position in the thread's stream, kept across phases

  void record(OpType t, std::uint64_t ns) {
    ++completed_timed;
    ++timed_by_type[type_index(t)];
    if (used == samples.size()) {
      ++dropped_samples;
      return;
    }
    const std::uint64_t clamped = std::min<std::uint64_t>(ns, kNsMask);
    samples[used++] = (static_cast<std::uint32_t>(op_class(t)) << kClassShift) |
                      static_cast<std::uint32_t>(clamped);
  }
  void note(const Op& op, bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failure_type == kOpTypes) first_failure_type = type_index(op.type);
    }
  }
};

enum class PhaseKind { kWarmup, kMeasure };

struct PhaseCtx {
  const WorkloadDef* w = nullptr;
  const Oracle* oracle = nullptr;
  std::vector<std::vector<Op>>* streams = nullptr;
  std::vector<ThreadRec>* recs = nullptr;
  std::vector<SpanLog>* logs = nullptr;  // per thread; spans only if on()
  std::uint64_t phase_span = 0;
};

template <typename DS>
void blocking_loop(DS& ds, PhaseCtx& c, std::uint32_t t, PhaseKind kind,
                   std::uint64_t deadline) {
  ThreadRec& rec = (*c.recs)[t];
  SpanLog& log = (*c.logs)[t];
  const std::vector<Op>& stream = (*c.streams)[t];
  std::vector<ScanEntry> buf(kMaxScanLen);
  while (true) {
    const Op& op = stream[rec.cursor];
    rec.cursor = (rec.cursor + 1) % stream.size();
    ++rec.counts.generated[type_index(op.type)];
    bool ok = false;
    const std::uint64_t t0 = now_ns();
    std::uint64_t t1 = 0;
    try {
      const OpResult r = dispatch(ds, op, buf.data(), t, rec.counts);
      t1 = now_ns();
      ok = c.oracle->check(op, r, buf.data());
    } catch (const std::exception&) {
      t1 = now_ns();
    }
    rec.note(op, ok);
    if (kind == PhaseKind::kMeasure) {
      rec.record(op.type, t1 - t0);
      log.add(op_span_name(op.type), c.phase_span, t0, t1);
    }
    if (t1 >= deadline) break;
  }
}

/// One in-flight op of the depth-k pump.
struct CoSlot {
  std::optional<hh::CoTask<void>> task;
  const Op* op = nullptr;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  OpResult res;
  std::vector<ScanEntry> buf = std::vector<ScanEntry>(kMaxScanLen);
};

/// Coroutine twin of dispatch(): one case per op type through the _co entry
/// points; stamps the completion time before the coroutine finishes.
template <typename DS>
hh::CoTask<void> dispatch_co(DS& ds, CoSlot* s, std::uint32_t tid,
                             TypeCounts* counts) {
  const Op& op = *s->op;
  bool dispatched = false;
  switch (op.type) {
    case OpType::kRead:
      ++counts->dispatched[type_index(OpType::kRead)];
      dispatched = true;
      s->res.ok = co_await ds.read_co(op.key, &s->res.value, tid);
      break;
    case OpType::kUpdate:
      ++counts->dispatched[type_index(OpType::kUpdate)];
      dispatched = true;
      s->res.ok = co_await ds.update_co(op.key, op.value, tid);
      break;
    case OpType::kInsert:
      ++counts->dispatched[type_index(OpType::kInsert)];
      dispatched = true;
      s->res.ok = co_await ds.insert_co(op.key, op.value, tid);
      break;
    case OpType::kRemove:
      ++counts->dispatched[type_index(OpType::kRemove)];
      dispatched = true;
      s->res.ok = co_await ds.remove_co(op.key, tid);
      break;
    case OpType::kScan:
      ++counts->dispatched[type_index(OpType::kScan)];
      dispatched = true;
      s->res.n = co_await ds.scan_co(op.key, op.scan_len, s->buf.data(), tid);
      s->res.ok = true;
      break;
  }
  s->end = now_ns();
  if (!dispatched) throw std::logic_error("op type with no dispatch case");
}

template <typename DS>
void co_loop(DS& ds, PhaseCtx& c, std::uint32_t t, PhaseKind kind,
             std::uint64_t deadline) {
  ThreadRec& rec = (*c.recs)[t];
  SpanLog& log = (*c.logs)[t];
  const std::vector<Op>& stream = (*c.streams)[t];
  const std::uint32_t depth = c.w->depth;
  hh::Frame frame(depth);
  std::vector<CoSlot> slots(depth);
  std::uint32_t inflight = 0;
  bool open = true;
  while (open || inflight > 0) {
    if (open && now_ns() >= deadline) open = false;
    for (std::uint32_t i = 0; open && i < depth; ++i) {
      CoSlot& s = slots[i];
      if (s.task) continue;
      s.op = &stream[rec.cursor];
      rec.cursor = (rec.cursor + 1) % stream.size();
      ++rec.counts.generated[type_index(s.op->type)];
      s.res = OpResult{};
      s.start = now_ns();
      s.end = 0;
      s.task.emplace(dispatch_co(ds, &s, t, &rec.counts));
      if (!frame.submit(s.task->handle())) {
        throw std::logic_error("frame refused an op below its depth");
      }
      ++inflight;
    }
    frame.step();
    for (CoSlot& s : slots) {
      if (!s.task || !s.task->done()) continue;
      bool ok = false;
      try {
        s.task->result();
        ok = c.oracle->check(*s.op, s.res, s.buf.data());
      } catch (const std::exception&) {
        if (s.end == 0) s.end = now_ns();
      }
      rec.note(*s.op, ok);
      if (kind == PhaseKind::kMeasure) {
        rec.record(s.op->type, s.end - s.start);
        log.add(op_span_name(s.op->type), c.phase_span, s.start, s.end);
      }
      s.task.reset();
      --inflight;
    }
  }
}

/// Runs one phase on `w.host_threads` threads for `seconds`. Returns the
/// wall seconds from the common start to the last thread's finish. An op
/// that has not completed kHangGraceS after the deadline never completes:
/// the run is reported failed and the process ends.
template <typename DS>
double run_phase(DS& ds, PhaseCtx& c, PhaseKind kind, double seconds,
                 const std::function<void(const std::string&)>& fail_hang) {
  const std::uint32_t threads = c.w->host_threads;
  std::atomic<bool> go{false};
  std::atomic<std::uint32_t> finished{0};
  std::uint64_t start = 0;
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::uint64_t deadline =
          start + static_cast<std::uint64_t>(seconds * 1e9);
      if (c.w->depth > 1) {
        co_loop(ds, c, t, kind, deadline);
      } else {
        blocking_loop(ds, c, t, kind, deadline);
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  start = now_ns();
  go.store(true, std::memory_order_release);
  const std::uint64_t limit =
      start + static_cast<std::uint64_t>((seconds + kHangGraceS) * 1e9);
  while (finished.load(std::memory_order_acquire) < threads) {
    if (now_ns() > limit) fail_hang("an op never completed");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t end = now_ns();
  for (std::thread& th : workers) th.join();
  return static_cast<double>(end - start) * 1e-9;
}

// ---------------------------------------------------------------------------
// Telemetry deltas

struct Snap {
  ht::Snapshot s;
  std::uint64_t counter(const char* name) const { return s.counter_total(name); }
  hybrids::util::Histogram hist(const char* name) const {
    return s.histogram_total(name);
  }
};

Snap snap() { return Snap{ht::snapshot()}; }

std::uint64_t delta(const Snap& a, const Snap& b, const char* name) {
  return b.counter(name) - a.counter(name);
}

hybrids::util::Histogram hist_delta(const Snap& a, const Snap& b,
                                    const char* name) {
  return b.hist(name).delta_since(a.hist(name));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Layer probes (traced runs only). Each one calls a layer's public API from
// outside, with no other work running, and records one span per call.

struct Timed {
  std::vector<std::uint64_t> ns;
  Percentile p50() {
    std::sort(ns.begin(), ns.end());
    return percentile(ns, 0.50);
  }
};

/// nmp: bare PartitionSet::call round trips with an empty handler, one host
/// thread and one partition.
Timed probe_pingpong(SpanLog& log, std::uint64_t parent, double budget_s) {
  hn::PartitionConfig pc;
  pc.partitions = 1;
  pc.max_threads = 1;
  pc.partition_width = ~Key{0};
  hn::PartitionSet set(pc);
  set.set_handler(0, [](const hn::Request&, hn::Response& resp) { resp.ok = true; });
  set.start();
  Timed t;
  const std::uint16_t name = span_name("nmp.call");
  const std::uint64_t stop = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  hn::Request req;
  req.op = hn::OpCode::kRead;
  for (int i = 0; i < 20000; ++i) {
    req.key = static_cast<Key>(i);
    const std::uint64_t a = now_ns();
    const hn::Response r = set.call(0, 0, req);
    const std::uint64_t b = now_ns();
    if (!r.ok) throw std::runtime_error("ping-pong handler reply lost");
    t.ns.push_back(b - a);
    log.add(name, parent, a, b);
    if (b >= stop) break;
  }
  set.stop();
  return t;
}

/// Probe keys: the first `count` op keys of thread 0's stream.
std::vector<Key> probe_keys(const std::vector<Op>& stream, std::size_t count) {
  std::vector<Key> keys;
  for (std::size_t i = 0; i < stream.size() && keys.size() < count; ++i) {
    keys.push_back(stream[i].key);
  }
  return keys;
}

/// ds: FatSkipList::find on a prebuilt host-level index holding the keys
/// whose towers would reach the host portion, with the workload's keys.
Timed probe_host_find(const WorkloadDef& w, const std::vector<Key>& loaded,
                      const std::vector<Key>& keys, SpanLog& log,
                      std::uint64_t parent) {
  const SkipHeights h = skiplist_heights(loaded.size());
  hd::FatSkipList host(h.total - h.nmp);
  hybrids::util::Xoshiro256 rng(w.spec.seed + 11);
  for (const Key k : loaded) {
    if (hd::random_height(rng, h.total) > h.nmp) (void)host.insert(k, initial_value(k));
  }
  Timed t;
  const std::uint16_t name = span_name("fat.find");
  hd::FatSkipList::View v;
  for (const Key k : keys) {
    const std::uint64_t a = now_ns();
    (void)host.find(k, v);
    const std::uint64_t b = now_ns();
    t.ns.push_back(b - a);
    log.add(name, parent, a, b);
  }
  return t;
}

/// Probe keys folded into partition 0's key range.
std::vector<Key> partition0_keys(const hw::KeyLayout& layout,
                                 const std::vector<Key>& keys) {
  std::vector<Key> out;
  for (const Key k : keys) out.push_back(static_cast<Key>(k % layout.partition_width()));
  return out;
}

/// ds: partition-local reads called directly on partition 0's structure,
/// no threads, each begun where the host portion would begin it. Skiplist
/// workloads probe SeqSkipList from the NMP node of the nearest tall
/// predecessor; the btree workload probes NmpBTree from the pushed-down
/// subtree root that covers the key.
Timed probe_partition_apply(const WorkloadDef& w, const std::vector<Key>& loaded,
                            const std::vector<Key>& keys, SpanLog& log,
                            std::uint64_t parent) {
  const hw::KeyLayout layout(w.spec.initial_keys, w.partitions);
  std::vector<Key> part0;
  for (const Key k : loaded) {
    if (layout.partition_of(k) == 0) part0.push_back(k);
  }
  const std::vector<Key> probes = partition0_keys(layout, keys);
  const std::uint16_t name = span_name("partition.read");
  Timed t;
  auto timed_read = [&](auto&& read, Key k) {
    const std::uint64_t a = now_ns();
    const std::optional<Value> v = read();
    const std::uint64_t b = now_ns();
    if (v && *v != initial_value(k)) {
      throw std::runtime_error("partition probe read a wrong value");
    }
    t.ns.push_back(b - a);
    log.add(name, parent, a, b);
  };
  if (w.structure == Structure::kSkipList) {
    const SkipHeights h = skiplist_heights(loaded.size());
    hd::SeqSkipList list(h.nmp);
    hybrids::util::Xoshiro256 rng(w.spec.seed + 13);
    std::vector<Key> tall;  // keys whose towers reach the host portion
    for (const Key k : part0) {
      const int height = hd::random_height(rng, h.total);
      (void)list.insert(k, initial_value(k), std::min(height, h.nmp), nullptr, list.head());
      if (height > h.nmp) tall.push_back(k);
    }
    for (const Key k : probes) {
      const auto it = std::lower_bound(tall.begin(), tall.end(), k);
      hd::SeqSkipList::Node* begin =
          it == tall.begin() ? list.head() : list.read(*(it - 1), list.head());
      timed_read([&]() -> std::optional<Value> {
        const hd::SeqSkipList::Node* n = list.read(k, begin);
        return n ? std::optional<Value>(n->value) : std::nullopt;
      }, k);
    }
    return t;
  }
  // B+ tree: pushed-down subtrees of height nmp_levels at the default fill.
  // This mirrors HybridBTree::build_nmp_subtree and the fill arithmetic of
  // its bulk-load constructor (hybrid_btree.hpp); a change to that layout
  // must be made here too.
  const double fill = hd::HybridBTree::Config{}.fill;
  const int top = hd::HybridBTree::nmp_levels_for_cache(loaded.size(), kLlcBytes) - 1;
  const int leaf_fill = std::max(1, static_cast<int>(hd::kBTreeLeafSlots * fill));
  const int inner_fill = std::max(2, static_cast<int>((hd::kBTreeInnerSlots + 1) * fill));
  hd::NmpBTree bt(top);
  std::function<hd::NmpBNode*(int, std::size_t, std::size_t)> build =
      [&](int level, std::size_t off, std::size_t count) {
        hd::NmpBNode* node = bt.make_node(level);
        if (level == 0) {
          const int take = static_cast<int>(std::min<std::size_t>(count, leaf_fill));
          for (int i = 0; i < take; ++i) {
            node->keys[i] = part0[off + i];
            node->values[i] = initial_value(part0[off + i]);
          }
          node->slotuse = static_cast<std::uint16_t>(take);
          return node;
        }
        std::size_t cap = leaf_fill;
        for (int l = 1; l < level; ++l) cap *= inner_fill;
        int c = 0;
        for (std::size_t used = 0; (used < count || c == 0) && c <= hd::kBTreeInnerSlots; ++c) {
          const std::size_t take = std::min(count - used, cap);
          node->children[c] = build(level - 1, off + used, take);
          if (c > 0) node->keys[c - 1] = part0[off + used - 1];
          used += take;
        }
        node->slotuse = static_cast<std::uint16_t>(c - 1);
        return node;
      };
  std::size_t cap = leaf_fill;
  for (int l = 0; l < top; ++l) cap *= inner_fill;
  std::vector<std::pair<Key, hd::NmpBNode*>> roots;  // (max key, subtree root)
  for (std::size_t off = 0; off < part0.size(); off += cap) {
    const std::size_t take = std::min(cap, part0.size() - off);
    roots.emplace_back(part0[off + take - 1], build(top, off, take));
  }
  for (const Key k : probes) {
    auto it = std::lower_bound(roots.begin(), roots.end(), k,
                               [](const auto& r, Key key) { return r.first < key; });
    if (it == roots.end()) --it;
    hd::NmpBNode* begin = it->second;
    timed_read([&]() -> std::optional<Value> {
      const hd::NmpBTree::OpResult r = bt.read(begin, 0, k);
      return r.ok ? std::optional<Value>(r.value) : std::nullopt;
    }, k);
  }
  return t;
}

/// cache: a standalone HotCache at the workload's budget (the btree budget
/// when the workload runs cache-off), lookups that hit and that miss.
std::pair<Timed, Timed> probe_cache(const WorkloadDef& w,
                                    const std::vector<Key>& loaded,
                                    SpanLog& log, std::uint64_t parent) {
  hybrids::cache::HotCache::Config cc;
  cc.budget_bytes = w.spec.initial_keys * 8 / 16;
  cc.partitions = w.partitions;
  hybrids::cache::HotCache cache(cc);
  const hw::KeyLayout layout(w.spec.initial_keys, w.partitions);
  const std::size_t hot = std::min<std::size_t>(loaded.size() / 64, 1024);
  for (std::size_t i = 0; i < hot; ++i) {
    const Key k = loaded[i * 61 % loaded.size()];
    const std::uint32_t p = layout.partition_of(k);
    cache.fill_value(k, p, initial_value(k), 1, cache.generation(p));
  }
  Timed hit, miss;
  const std::uint16_t name = span_name("cache.lookup_value");
  for (int rep = 0; rep < 8; ++rep) {
    for (std::size_t i = 0; i < hot; ++i) {
      const Key k = loaded[i * 61 % loaded.size()];
      Value v = 0;
      std::uint64_t a = now_ns();
      const bool h = cache.lookup_value(k, v);
      std::uint64_t b = now_ns();
      if (h) hit.ns.push_back(b - a);
      log.add(name, parent, a, b);
      const Key absent = k + 1;  // odd: never filled
      a = now_ns();
      if (cache.lookup_value(absent, v)) throw std::runtime_error("cache hit on an unfilled key");
      b = now_ns();
      miss.ns.push_back(b - a);
      log.add(name, parent, a, b);
    }
  }
  return {hit, miss};
}

/// host: read_co on a depth-1 Frame against blocking read, both on keys
/// served host-side with no offload, on a small copy of the workload's
/// structure with the cache on.
template <typename DS>
std::pair<Timed, Timed> probe_co_read(DS& ds, const std::vector<Key>& keys,
                                      SpanLog& log, std::uint64_t parent) {
  for (const Key k : keys) {
    Value v = 0;
    if (!ds.read(k, v, 0)) throw std::runtime_error("co-read probe key absent");
  }
  Timed blocking, co;
  const std::uint16_t nb = span_name("ds.read"), nc = span_name("ds.read_co");
  hh::Frame frame(1);
  for (int rep = 0; rep < 16; ++rep) {
    for (const Key k : keys) {
      Value v = 0;
      std::uint64_t a = now_ns();
      (void)ds.read(k, v, 0);
      std::uint64_t b = now_ns();
      blocking.ns.push_back(b - a);
      log.add(nb, parent, a, b);
      a = now_ns();
      {
        hh::CoTask<bool> task = ds.read_co(k, &v, 0);
        frame.submit(task.handle());
        frame.drain();
        (void)task.result();
      }
      b = now_ns();
      co.ns.push_back(b - a);
      log.add(nc, parent, a, b);
    }
  }
  return {blocking, co};
}

// ---------------------------------------------------------------------------
// Simulator cell

struct SimCell {
  hs::ExperimentResult r;
  double wall_s = 0;
};

SimCell run_sim_cell(std::uint64_t keys) {
  hs::ExperimentConfig cfg;
  cfg.workload = hw::ycsb_c(keys);
  cfg.threads = 8;
  SimCell c;
  const std::uint64_t a = now_ns();
  c.r = hs::run_skiplist_experiment(hs::SkiplistKind::kHybridNonBlocking, cfg);
  c.wall_s = static_cast<double>(now_ns() - a) * 1e-9;
  return c;
}

// ---------------------------------------------------------------------------
// Output

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      o += ' ';
      continue;
    }
    o += ch;
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string spans;
  std::string commit = "unknown";
  std::uint64_t keys = 1 << 17;       // runtime workloads
  std::uint64_t sim_keys = 1 << 20;   // simulator cell
};

std::vector<std::pair<std::string, std::string>> provenance(
    const Args& a, const WorkloadDef& w) {
  std::vector<std::pair<std::string, std::string>> p;
  auto s = [](const std::string& v) {
    std::string q(1, '"');
    q += json_escape(v);
    q += '"';
    return q;
  };
  p.emplace_back("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  p.emplace_back("workload", s(w.name));
  p.emplace_back("host_threads", std::to_string(w.host_threads));
  p.emplace_back("partitions", std::to_string(w.partitions));
  p.emplace_back("combiner_threads", std::to_string(w.partitions));
  p.emplace_back("frame_depth", std::to_string(w.depth));
  p.emplace_back("cache_budget_bytes", std::to_string(cache_budget(w)));
  p.emplace_back("keys", std::to_string(w.spec.initial_keys));
  p.emplace_back("sim_keys", std::to_string(a.sim_keys));
  p.emplace_back("seed", std::to_string(a.seed));
  p.emplace_back("seconds", num(a.seconds));
  p.emplace_back("trace", a.trace ? "true" : "false");
#if defined(__clang__)
  p.emplace_back("compiler", s(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  p.emplace_back("compiler", s(std::string("gcc ") + __VERSION__));
#else
  p.emplace_back("compiler", s("unknown"));
#endif
#if defined(_GLIBCXX_RELEASE)
  p.emplace_back("libstdcxx_release", std::to_string(_GLIBCXX_RELEASE));
#endif
  p.emplace_back("build_type", s(HYBRIDS_BENCH_BUILD_TYPE));
  std::vector<std::string> on;
  auto flag = [&on](const char* f) { on.emplace_back(f); };
#if defined(HYBRIDS_NO_TELEMETRY)
  flag("HYBRIDS_NO_TELEMETRY");
#endif
#if defined(HYBRIDS_NO_ARENA)
  flag("HYBRIDS_NO_ARENA");
#endif
#if defined(HYBRIDS_NO_PREFETCH)
  flag("HYBRIDS_NO_PREFETCH");
#endif
#if defined(HYBRIDS_NO_TRACE)
  flag("HYBRIDS_NO_TRACE");
#endif
#if defined(HYBRIDS_NO_CACHE)
  flag("HYBRIDS_NO_CACHE");
#endif
#if defined(HYBRIDS_NO_FATNODE)
  flag("HYBRIDS_NO_FATNODE");
#endif
#if defined(HYBRIDS_FAULTS)
  flag("HYBRIDS_FAULTS");
#endif
  (void)flag;
  std::string flags = "[";
  for (std::size_t i = 0; i < on.size(); ++i) flags += (i ? ",\"" : "\"") + on[i] + "\"";
  p.emplace_back("compiled_flags", flags + "]");
  p.emplace_back("git_commit", s(a.commit));
  return p;
}

std::string provenance_json(const std::vector<std::pair<std::string, std::string>>& p) {
  std::string o = "{";
  for (std::size_t i = 0; i < p.size(); ++i) {
    o += (i ? ",\"" : "\"") + p[i].first + "\":" + p[i].second;
  }
  return o + "}";
}

void write_spans(const std::string& path, const std::string& prov,
                 std::vector<SpanLog>& logs) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  f << "# " << prov << "\n";
  f << "id,parent,op_id,name,thread,start_ns,end_ns\n";
  const auto& names = span_names();
  for (SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      f << s.id << ',' << s.parent << ',' << s.op_id << ',' << names[s.name]
        << ',' << s.thread << ',' << s.start << ',' << s.end << '\n';
    }
  }
}

/// The program's one-line JSON result: provenance, output checks, and every
/// metric with its unit and sample count.
std::string result_json(const std::string& prov, bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Report& rep) {
  std::ostringstream o;
  o << "{\"provenance\":" << prov << ",\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"checks\":{";
  bool first = true;
  for (const auto& [k, v] : rep.checks) {
    o << (first ? "" : ",") << "\"" << k << "\":";
    if (v == "true" || v == "false" || v.front() == '{' || v.front() == '[' ||
        v.find_first_not_of("0123456789") == std::string::npos) {
      o << v;
    } else {
      o << "\"" << json_escape(v) << "\"";
    }
    first = false;
  }
  o << "},\"metrics\":{";
  first = true;
  for (const auto& [k, v] : rep.metrics) {
    o << (first ? "" : ",") << "\"" << k << "\":{\"value\":" << num(v.value)
      << ",\"unit\":\"" << v.unit << "\",\"n\":" << v.n << "}";
    first = false;
  }
  return o.str() + "}}";
}

[[noreturn]] void fail_now(const std::string& prov, const std::string& why,
                           std::uint64_t attempted, std::uint64_t failed) {
  std::cout << "{\"provenance\":" << prov << ",\"correct\":false,\"attempted\":"
            << std::max<std::uint64_t>(attempted, 1) << ",\"failed\":"
            << std::max<std::uint64_t>(failed, 1) << ",\"checks\":{\"error\":\""
            << json_escape(why) << "\"},\"metrics\":{}}" << std::endl;
  std::_Exit(3);
}

// ---------------------------------------------------------------------------
// One run
//
// A run is kSegments segments. Each builds the structure afresh (that build
// is a setup_s sample), warms it up and measures seconds / kSegments of
// closed-loop load. Whether a build stalls often is drawn anew with each
// build (see the top of this file), so op_p50_us is the median over the
// segments of each segment's p50: the median build's latency, which a
// minority of builds in a bad stall regime does not move. Throughput and
// the other percentiles pool every measured op of the run, and each
// segment's own p50, p99, throughput and stall share are printed beside
// them, so the bad builds show.

constexpr int kSegments = 12;

struct Pooled {
  std::uint64_t stalls = 0;
  Percentile op_p50, op_p99;
  std::array<Percentile, 3> cls_p50, cls_p99;
};

/// Latency percentiles over thread t's samples [from[t], to[t]).
Pooled pool(const std::vector<ThreadRec>& recs, const std::vector<std::size_t>& from,
            const std::vector<std::size_t>& to) {
  Pooled r;
  std::vector<std::uint32_t> all, cls[3];
  for (std::size_t t = 0; t < recs.size(); ++t) {
    for (std::size_t i = from[t]; i < to[t]; ++i) {
      const std::uint32_t ns = recs[t].samples[i] & kNsMask;
      all.push_back(ns);
      cls[recs[t].samples[i] >> kClassShift].push_back(ns);
      r.stalls += is_stall(ns);
    }
  }
  std::sort(all.begin(), all.end());
  r.op_p50 = percentile(all, 0.50);
  r.op_p99 = percentile(all, 0.99);
  for (int c = 0; c < 3; ++c) {
    std::sort(cls[c].begin(), cls[c].end());
    r.cls_p50[c] = percentile(cls[c], 0.50);
    r.cls_p99[c] = percentile(cls[c], 0.99);
  }
  return r;
}

struct SegmentResult {
  double secs = 0;
  std::uint64_t ops = 0;
  std::array<std::uint64_t, kOpTypes> by_type{};
  std::vector<std::size_t> from, to;  // each thread's samples of the segment
  Pooled lat;                         // pooled after the builds are gone
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Counter deltas summed and histogram deltas merged over measured windows.
class Deltas {
 public:
  void add(const Snap& a, const Snap& b) {
    namespace tn = ht::names;
    for (const char* n : {tn::kCallBlocking, tn::kCallAsync, tn::kParkTotal,
                          tn::kWakeTotal, tn::kWaitTimeoutTotal,
                          tn::kScanPartitionHops, tn::kHostRetryTotal,
                          tn::kLockPathTotal, tn::kMemFatnodeSplits,
                          tn::kInterleaveFallbackWaits, tn::kMemPoolShardMisses}) {
      counters_[n] += delta(a, b, n);
    }
    for (const char* n : {tn::kQueueWaitNs, tn::kServiceNs, tn::kCombinerBatch,
                          tn::kInterleaveDepth}) {
      hists_[n].merge(hist_delta(a, b, n));
    }
  }
  double counter(const char* n) const {
    const auto it = counters_.find(n);
    return it == counters_.end() ? 0 : static_cast<double>(it->second);
  }
  hybrids::util::Histogram hist(const char* n) const {
    const auto it = hists_.find(n);
    return it == hists_.end() ? hybrids::util::Histogram{} : it->second;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, hybrids::util::Histogram> hists_;
};

/// The traced run's layer probes, in the order their spans appear.
template <typename DS>
void run_probes(const Args& a, const WorkloadDef& w, const std::vector<Key>& loaded,
                const std::vector<Op>& stream0, Report& rep, SpanLog& main_log,
                std::uint64_t run_span) {
  const std::vector<Key> keys = probe_keys(stream0, 20000);
  {
    ScopedSpan sp(main_log, "probe.nmp.pingpong", run_span);
    Timed t = probe_pingpong(main_log, sp.id(), 1.0);
    std::sort(t.ns.begin(), t.ns.end());
    const Percentile p50 = percentile(t.ns, 0.5), p99 = percentile(t.ns, 0.99);
    rep.put("nmp.pingpong_p50_ns", p50.value, "ns", p50.n);
    rep.put("nmp.pingpong_p99_ns", p99.value, "ns", p99.n);
    rep.checks["pingpong_stalls"] =
        std::to_string(std::count_if(t.ns.begin(), t.ns.end(), [](std::uint64_t ns) {
          return is_stall(ns);
        })) + "/" + std::to_string(t.ns.size());
  }
  {
    ScopedSpan sp(main_log, "probe.ds.host_find", run_span);
    Timed t = probe_host_find(w, loaded, keys, main_log, sp.id());
    const Percentile p = t.p50();
    rep.put("ds.host_find_p50_ns", p.value, "ns", p.n);
  }
  {
    ScopedSpan sp(main_log, "probe.ds.partition_apply", run_span);
    Timed t = probe_partition_apply(w, loaded, keys, main_log, sp.id());
    const Percentile p = t.p50();
    rep.put("ds.partition_apply_p50_ns", p.value, "ns", p.n);
  }
  {
    ScopedSpan sp(main_log, "probe.cache.lookup", run_span);
    auto [hit, miss] = probe_cache(w, loaded, main_log, sp.id());
    const Percentile ph = hit.p50(), pm = miss.p50();
    rep.put("cache.lookup_hit_ns", ph.value, "ns", ph.n);
    rep.put("cache.lookup_miss_ns", pm.value, "ns", pm.n);
  }
  {
    ScopedSpan sp(main_log, "probe.host.co_read", run_span);
    // A small copy of the workload's structure, cache on and big enough
    // to hold every probe key, so each timed read is served host-side
    // with no offload: a value-tier hit, or on the skiplist a host-portion
    // hit for a tall key (checks.co_read_probe_value_hits counts the
    // former).
    WorkloadDef small = w;
    small.spec.initial_keys = 512;
    small.partitions = 1;
    small.host_threads = 1;
    small.depth = 1;
    const std::vector<Key> sk = hw::KeyLayout(512, 1).initial_key_set();
    const std::vector<Key> probe(sk.begin(), sk.begin() + 128);
    std::pair<Timed, Timed> r;
    std::uint64_t hits = 0;
    if constexpr (std::is_same_v<DS, hd::HybridSkipList>) {
      auto s = make_skiplist(small, 1 << 16, a.seed);
      if (preload_skiplist(*s, small, sk, a.seed) != 0) {
        throw std::runtime_error("co-read probe preload failed");
      }
      r = probe_co_read(*s, probe, main_log, sp.id());
      hits = s->hot_cache() ? s->hot_cache()->stats().value_hits : 0;
    } else {
      auto s = make_btree(small, sk, 1 << 16);
      r = probe_co_read(*s, probe, main_log, sp.id());
      hits = s->hot_cache() ? s->hot_cache()->stats().value_hits : 0;
    }
    const Percentile pb = r.first.p50(), pc = r.second.p50();
    rep.put("host.co_read_overhead_ns", pc.value - pb.value, "ns", pc.n);
    rep.checks["co_read_probe_value_hits"] =
        std::to_string(hits) + "/" + std::to_string(r.first.ns.size() + r.second.ns.size());
  }
}

/// Builds the workload's structure and preloads it, adding preload ops that
/// failed to `failures`.
template <typename DS>
using Builder = std::function<std::unique_ptr<DS>(std::uint64_t& failures)>;

template <typename DS>
int run_workload(const Args& a, const WorkloadDef& w, const std::string& prov,
                 const std::vector<Key>& loaded, std::vector<std::vector<Op>>& streams,
                 const Oracle& oracle, const Builder<DS>& build,
                 std::vector<SpanLog>& logs) {
  Report rep;
  std::map<std::string, std::string>& checks = rep.checks;
  SpanLog& main_log = logs.back();
  const std::uint64_t run_start = now_ns();
  const std::uint64_t run_span = main_log.on() ? main_log.next_id() : 0;
  auto fail_hang = [&](const std::string& why) { fail_now(prov, why, 1, 1); };

  std::vector<ThreadRec> recs(w.host_threads);
  const auto max_samples = static_cast<std::size_t>(
      std::max(1.0, std::ceil(a.seconds)) * static_cast<double>(kSamplesPerSecond));
  for (ThreadRec& r : recs) r.samples.assign(max_samples, 0);  // touch now
  PhaseCtx c;
  c.w = &w;
  c.oracle = &oracle;
  c.streams = &streams;
  c.recs = &recs;
  c.logs = &logs;
  std::vector<SpanLog> silent;  // the untraced halves of traced segments
  for (std::uint32_t t = 0; t <= w.host_threads; ++t) silent.emplace_back(t, false);

  std::vector<double> setup_times;
  double bytes_per_key = 0;
  // peak_rss_mb is the peak over the first build's life (construction,
  // warmup, measurement) above the RSS just before it, which holds the
  // harness's own memory (latency buffers, op streams, the oracle). Later
  // builds reuse freed memory unevenly across malloc's per-thread arenas,
  // and a peak over all builds varied by 15% run to run on one binary.
  double rss_base_mb = 0, peak_before_builds_mb = 0, peak_mb = 0;
  std::uint64_t setup_failures = 0;
  std::vector<SegmentResult> segs;
  std::uint64_t untraced_ops = 0;  // the untraced halves of traced segments
  double untraced_s = 0;
  Deltas d;
  hybrids::cache::HotCache::Stats cache_d;
  bool valid = false;
  std::uint64_t backlog = 0;  // skiplist host towers awaiting EBR reclamation
  const double seg_s = a.seconds / kSegments;
  const double warm_s = 0.1;
  // Traced segments measure their first half untraced and their second half
  // traced, on the same build, for trace.overhead_share.
  const double measure_s = a.trace ? seg_s / 2 : seg_s;

  // Past kSegmentBudgetS no new segment starts, so a run whose ops or
  // builds stall badly still ends within its time limit, with fewer but
  // complete segments.
  std::unique_ptr<DS> ds;
  int segments = kSegments;
  for (int seg = 0; seg < segments; ++seg) {
    if (seg > 0 && static_cast<double>(now_ns() - run_start) * 1e-9 > kSegmentBudgetS) {
      segments = seg;
      break;
    }
    ds.reset();
    if (seg == 0) {
      rss_base_mb = rss_mb_now();
      peak_before_builds_mb = peak_rss_mb();
    }
    {
      ScopedSpan sp(main_log, "setup", run_span);
      const double rss0 = rss_mb_now();
      const std::uint64_t t0 = now_ns();
      ds = build(setup_failures);
      setup_times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      if (seg == 0) {
        bytes_per_key = (rss_mb_now() - rss0) * 1024.0 * 1024.0 /
                        static_cast<double>(loaded.size());
      }
    }
    {
      ScopedSpan sp(main_log, "warmup", run_span);
      c.phase_span = sp.id();
      (void)run_phase(*ds, c, PhaseKind::kWarmup, warm_s, fail_hang);
    }
    if (a.trace) {
      PhaseCtx cu = c;
      cu.logs = &silent;
      std::uint64_t before = 0;
      std::vector<std::size_t> kept;
      for (const ThreadRec& r : recs) {
        before += r.completed_timed;
        kept.push_back(r.used);
      }
      const double secs = run_phase(*ds, cu, PhaseKind::kMeasure, measure_s, fail_hang);
      std::uint64_t after = 0;
      for (std::size_t t = 0; t < recs.size(); ++t) {
        after += recs[t].completed_timed;
        recs[t].used = kept[t];  // only the traced half's samples count
      }
      untraced_ops += after - before;
      untraced_s += secs;
    }
    hybrids::cache::HotCache::Stats cs0, cs1;
    if (ds->hot_cache() != nullptr) cs0 = ds->hot_cache()->stats();
    std::uint64_t before = 0;
    std::array<std::uint64_t, kOpTypes> types0{};
    std::vector<std::size_t> from;
    for (const ThreadRec& r : recs) {
      before += r.completed_timed;
      for (std::size_t i = 0; i < kOpTypes; ++i) types0[i] += r.timed_by_type[i];
      from.push_back(r.used);
    }
    const Snap s0 = snap();
    double secs = 0;
    {
      ScopedSpan sp(main_log, a.trace ? "measure.traced" : "measure.untraced", run_span);
      c.phase_span = sp.id();
      secs = run_phase(*ds, c, PhaseKind::kMeasure, measure_s, fail_hang);
    }
    d.add(s0, snap());
    if (ds->hot_cache() != nullptr) {
      cs1 = ds->hot_cache()->stats();
      cache_d.value_hits += cs1.value_hits - cs0.value_hits;
      cache_d.shortcut_hits += cs1.shortcut_hits - cs0.shortcut_hits;
      cache_d.misses += cs1.misses - cs0.misses;
      cache_d.invalidations += cs1.invalidations - cs0.invalidations;
    }
    std::uint64_t after = 0;
    std::array<std::uint64_t, kOpTypes> types1{};
    for (const ThreadRec& r : recs) {
      after += r.completed_timed;
      for (std::size_t i = 0; i < kOpTypes; ++i) types1[i] += r.timed_by_type[i];
    }
    SegmentResult sr;
    sr.secs = secs;
    sr.ops = after - before;
    for (std::size_t i = 0; i < kOpTypes; ++i) sr.by_type[i] = types1[i] - types0[i];
    sr.from = std::move(from);
    for (const ThreadRec& r : recs) sr.to.push_back(r.used);
    segs.push_back(sr);
    if (seg == 0) peak_mb = peak_rss_mb() - rss_base_mb;
  }

  // Only the last build is validated: SeqSkipList::validate checks the
  // subset property by rescanning the level below for every node, which
  // takes seconds at this size.
  valid = ds->validate();
  if constexpr (std::is_same_v<DS, hd::HybridSkipList>) {
    backlog = ds->host_retired_count();
  }
  ds.reset();

  // The simulator's Fig. 5 headline cell runs alone, after the structure
  // and its combiner threads are gone, so sim.ops_per_wall_s times only it.
  const std::uint64_t sim_start = now_ns();
  const SimCell sim = run_sim_cell(a.sim_keys);
  main_log.add(span_name("sim.cell"), run_span, sim_start, now_ns());

  // Output checks.
  std::uint64_t attempted = 0, failed = setup_failures, timed = 0;
  TypeCounts counts;
  std::uint64_t dropped_samples = 0;
  for (const ThreadRec& r : recs) {
    attempted += r.attempted;
    failed += r.failed;
    counts.add(r.counts);
    dropped_samples += r.dropped_samples;
  }
  double measured_s = 0;
  std::array<std::uint64_t, kOpTypes> by_type{};  // ops in measured windows
  for (const SegmentResult& s : segs) {
    timed += s.ops;
    measured_s += s.secs;
    for (std::size_t i = 0; i < kOpTypes; ++i) by_type[i] += s.by_type[i];
  }
  for (SegmentResult& s : segs) s.lat = pool(recs, s.from, s.to);
  std::vector<std::size_t> used;
  for (const ThreadRec& r : recs) used.push_back(r.used);
  const Pooled lat = pool(recs, std::vector<std::size_t>(recs.size(), 0), used);
  bool correct = failed == 0 && counts.match() && valid;
  checks["ops_failed"] = std::to_string(failed);
  checks["setup_insert_failures"] = std::to_string(setup_failures);
  checks["dispatch_counts_match"] = counts.match() ? "true" : "false";
  std::string per_type = "{";
  for (std::size_t i = 0; i < kOpTypes; ++i) {
    per_type += std::string(i ? "," : "") + "\"" + type_name(i) + "\":[" +
                std::to_string(counts.generated[i]) + "," +
                std::to_string(counts.dispatched[i]) + "]";
  }
  checks["generated_vs_dispatched"] = per_type + "}";
  checks["validate"] = valid ? "true" : "false";
  checks["latency_samples_dropped"] = std::to_string(dropped_samples);
  std::string per_seg = "[";
  for (std::size_t i = 0; i < segs.size(); ++i) {
    per_seg += std::string(i ? "," : "") + "{\"ops_per_s\":" +
               num(static_cast<double>(segs[i].ops) / segs[i].secs) +
               ",\"op_p50_us\":" + num(segs[i].lat.op_p50.value / 1000) +
               ",\"op_p99_us\":" + num(segs[i].lat.op_p99.value / 1000) +
               ",\"stall_share\":" +
               num(ratio(static_cast<double>(segs[i].lat.stalls),
                         static_cast<double>(segs[i].ops))) +
               ",\"setup_s\":" + num(setup_times[i]) + "}";
  }
  checks["segments"] = per_seg + "]";
  checks["segments_run"] = std::to_string(segments);

  auto put = [&rep](const std::string& name, double v, const char* unit, std::uint64_t n) {
    rep.put(name, v, unit, n);
  };
  auto put_pct = [&](const std::string& name, const Percentile& p) {
    put(name, p.value / 1000.0, "us", p.n);
    if (p.n > 0 && !p.supported()) {
      checks[name + "_tail_samples"] = "fewer than 10 beyond";
    }
  };

  // End-to-end metrics (untraced runs are the only source of these).
  put("ops_per_s", static_cast<double>(timed) / measured_s, "1/s", timed);
  std::vector<double> seg_p50;
  for (const SegmentResult& s : segs) seg_p50.push_back(s.lat.op_p50.value);
  put("op_p50_us", median_of(seg_p50) / 1000.0, "us", lat.op_p50.n);
  put_pct("op_p99_us", lat.op_p99);
  const char* cls_names[3] = {"read", "write", "scan"};
  for (int k = 0; k < 3; ++k) {
    put_pct(std::string(cls_names[k]) + "_p50_us", lat.cls_p50[k]);
    put_pct(std::string(cls_names[k]) + "_p99_us", lat.cls_p99[k]);
  }
  put("error_share", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      "share", attempted);
  put("setup_s", median_of(setup_times), "s", setup_times.size());
  put("peak_rss_mb", peak_mb, "MB", 1);
  checks["rss_base_mb"] = num(rss_base_mb);
  checks["rss_peak_before_builds_mb"] = num(peak_before_builds_mb);

  // Per-layer metrics from counter deltas over the measured windows.
  namespace tn = ht::names;
  const std::uint64_t inserts = by_type[type_index(OpType::kInsert)];
  const std::uint64_t scans = by_type[type_index(OpType::kScan)];
  const std::uint64_t writes = by_type[type_index(OpType::kUpdate)] + inserts +
                               by_type[type_index(OpType::kRemove)];
  const double ops_d = static_cast<double>(timed);
  const double offloads = d.counter(tn::kCallBlocking) + d.counter(tn::kCallAsync);
  const auto off_n = static_cast<std::uint64_t>(offloads);
  put("nmp.offloads_per_op", ratio(offloads, ops_d), "1/op", timed);
  const auto qw = d.hist(tn::kQueueWaitNs);
  const auto sv = d.hist(tn::kServiceNs);
  const auto cb = d.hist(tn::kCombinerBatch);
  const auto dep = d.hist(tn::kInterleaveDepth);
  put("nmp.queue_wait_p50_ns", qw.quantile(0.5), "ns", qw.count());
  put("nmp.service_p50_ns", sv.quantile(0.5), "ns", sv.count());
  put("nmp.batch_mean", cb.mean(), "ops", cb.count());
  put("nmp.parks_per_offload", ratio(d.counter(tn::kParkTotal), offloads),
      "1/offload", off_n);
  put("nmp.wakes_per_offload", ratio(d.counter(tn::kWakeTotal), offloads),
      "1/offload", off_n);
  put("nmp.wait_timeouts_per_offload", ratio(d.counter(tn::kWaitTimeoutTotal), offloads),
      "1/offload", off_n);
  put("ds.scan_hops_per_scan",
      ratio(d.counter(tn::kScanPartitionHops), static_cast<double>(scans)), "1/scan", scans);
  put("ds.retries_per_op", ratio(d.counter(tn::kHostRetryTotal), ops_d), "1/op", timed);
  put("ds.lock_path_per_insert",
      ratio(d.counter(tn::kLockPathTotal), static_cast<double>(inserts)), "1/insert", inserts);
  put("ds.fatnode_splits_per_insert",
      ratio(d.counter(tn::kMemFatnodeSplits), static_cast<double>(inserts)), "1/insert",
      inserts);
  const double vh = static_cast<double>(cache_d.value_hits);
  const double sh = static_cast<double>(cache_d.shortcut_hits);
  const double ms = static_cast<double>(cache_d.misses);
  put("cache.value_hit_ratio", ratio(vh, vh + ms), "share",
      cache_d.value_hits + cache_d.misses);
  put("cache.shortcut_hit_ratio", ratio(sh, ms), "share", cache_d.misses);
  put("cache.invalidations_per_write",
      ratio(static_cast<double>(cache_d.invalidations), static_cast<double>(writes)),
      "1/write", writes);
  put("host.inflight_mean", dep.mean(), "ops", dep.count());
  put("host.fallback_waits_per_op", ratio(d.counter(tn::kInterleaveFallbackWaits), ops_d),
      "1/op", timed);
  put("mem.bytes_per_key", bytes_per_key, "B/key", loaded.size());
  put("mem.pool_shard_misses_per_op", ratio(d.counter(tn::kMemPoolShardMisses), ops_d),
      "1/op", timed);
  put("mem.ebr_retired_backlog", static_cast<double>(backlog), "count", 1);


  if (a.trace) {
    const double untraced = static_cast<double>(untraced_ops) / untraced_s;
    put("trace.overhead_share",
        untraced > 0 ? 1.0 - static_cast<double>(timed) / measured_s / untraced : 0,
        "share", timed);
    run_probes<DS>(a, w, loaded, streams[0], rep, main_log, run_span);
  }
  // Stalls among the benchmark's own timed ops; the ping-pong probe's are
  // counted apart (checks.pingpong_stalls) so its many short round trips do
  // not dilute the workload's share.
  put("nmp.stall_share",
      ratio(static_cast<double>(lat.stalls), static_cast<double>(lat.op_p50.n)), "share",
      lat.op_p50.n);

  const bool sim_ok = sim.r.ops == 8ull * 4000 && sim.r.mops > 0 &&
                      sim.r.dram_reads_per_op > 0;
  checks["sim_cell_ok"] = sim_ok ? "true" : "false";
  correct = correct && sim_ok;
  put("sim_mops", sim.r.mops, "Mops", sim.r.ops);
  put("sim_dram_reads_per_op", sim.r.dram_reads_per_op, "reads/op", sim.r.ops);
  put("sim.ops_per_wall_s", static_cast<double>(sim.r.ops) / sim.wall_s, "1/s", sim.r.ops);
  put("sim.host_dram_reads_per_op", sim.r.host_dram_reads_per_op, "reads/op", sim.r.ops);
  put("sim.nmp_dram_reads_per_op", sim.r.nmp_dram_reads_per_op, "reads/op", sim.r.ops);

  std::uint64_t span_drops = 0;
  for (const SpanLog& l : logs) span_drops += l.dropped();
  checks["spans_dropped"] = std::to_string(span_drops);

  if (main_log.on()) {
    Span root;
    root.id = root.op_id = run_span;
    root.start = run_start;
    root.end = now_ns();
    root.name = span_name("run");
    root.thread = main_log.thread();
    main_log.spans().push_back(root);
  }
  if (a.trace && !a.spans.empty()) write_spans(a.spans, prov, logs);
  std::cout << result_json(prov, correct, attempted, failed, rep) << std::endl;
  return correct ? 0 : 1;
}

int run(const Args& a) {
  const WorkloadDef w = make_workload(a.workload, a.keys, a.seed);
  const std::string prov = provenance_json(provenance(a, w));
  const hw::KeyLayout layout(w.spec.initial_keys, w.partitions);
  const std::vector<Key> loaded = layout.initial_key_set();

  // Inputs: every thread's op stream, generated from --seed before any
  // timing, and the oracle derived from them.
  std::vector<std::vector<Op>> streams;
  for (std::uint32_t t = 0; t < w.host_threads; ++t) {
    streams.push_back(make_stream(w, t, kStreamOps));
  }
  std::vector<const std::vector<Op>*> views;
  for (const auto& s : streams) views.push_back(&s);
  const Oracle oracle(layout.key_space(), loaded, views);

  std::vector<SpanLog> logs;
  for (std::uint32_t t = 0; t < w.host_threads; ++t) {
    logs.emplace_back(static_cast<std::uint16_t>(t), a.trace);
  }
  logs.emplace_back(static_cast<std::uint16_t>(w.host_threads), a.trace);  // main

  if (w.structure == Structure::kSkipList) {
    // Each build draws its own tower heights and preload order from the
    // run's seed and its index, so which hot keys are tall enough to be
    // served without an offload varies over the builds of a run instead of
    // being fixed for the whole run by the seed.
    std::uint64_t builds = 0;
    const Builder<hd::HybridSkipList> build = [&](std::uint64_t& failures) {
      const std::uint64_t seed = a.seed * 1000003 + builds++;
      auto s = make_skiplist(w, cache_budget(w), seed);
      failures += preload_skiplist(*s, w, loaded, seed);
      return s;
    };
    return run_workload(a, w, prov, loaded, streams, oracle, build, logs);
  }
  const Builder<hd::HybridBTree> build = [&](std::uint64_t&) {
    return make_btree(w, loaded, cache_budget(w));
  };
  return run_workload(a, w, prov, loaded, streams, oracle, build, logs);
}

// ---------------------------------------------------------------------------
// Self-test of the benchmark's own logic, at a tiny size.

struct FakeDS {
  std::array<int, kOpTypes> calls{};
  bool read(Key, Value& v, std::uint32_t) { ++calls[0]; v = 7; return true; }
  bool update(Key, Value, std::uint32_t) { ++calls[1]; return true; }
  bool insert(Key, Value, std::uint32_t) { ++calls[2]; return true; }
  bool remove(Key, std::uint32_t) { ++calls[3]; return true; }
  std::size_t scan(Key s, std::size_t n, ScanEntry* out, std::uint32_t) {
    ++calls[4];
    for (std::size_t i = 0; i < n; ++i) out[i] = {static_cast<Key>(s + i), 0};
    return n;
  }
  hh::CoTask<bool> read_co(Key k, Value* v, std::uint32_t t) { co_return read(k, *v, t); }
  hh::CoTask<bool> update_co(Key k, Value v, std::uint32_t t) { co_return update(k, v, t); }
  hh::CoTask<bool> insert_co(Key k, Value v, std::uint32_t t) { co_return insert(k, v, t); }
  hh::CoTask<bool> remove_co(Key k, std::uint32_t t) { co_return remove(k, t); }
  hh::CoTask<std::size_t> scan_co(Key s, std::size_t n, ScanEntry* o, std::uint32_t t) {
    co_return scan(s, n, o, t);
  }
};

/// The shape of a dispatcher whose `default:` branch runs every unlisted
/// type as a read; the dispatch counts must catch it.
template <typename DS>
OpResult swallowing_dispatch(DS& ds, const Op& op, ScanEntry* buf,
                             std::uint32_t tid, TypeCounts& counts) {
  OpResult r;
  switch (op.type) {
    case OpType::kScan:
      ++counts.dispatched[type_index(OpType::kScan)];
      r.n = ds.scan(op.key, op.scan_len, buf, tid);
      return r;
    case OpType::kInsert:
      ++counts.dispatched[type_index(OpType::kInsert)];
      r.ok = ds.insert(op.key, op.value, tid);
      return r;
    case OpType::kRemove:
      ++counts.dispatched[type_index(OpType::kRemove)];
      r.ok = ds.remove(op.key, tid);
      return r;
    default:
      ++counts.dispatched[type_index(OpType::kRead)];
      r.ok = ds.read(op.key, r.value, tid);
      return r;
  }
}

int selftest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::cerr << "selftest FAILED: " << what << "\n";
    }
  };

  // Percentile selection with sample counts.
  {
    std::vector<std::uint32_t> v(1000);
    for (std::uint32_t i = 0; i < 1000; ++i) v[i] = i + 1;  // 1..1000
    const Percentile p50 = percentile(v, 0.50), p99 = percentile(v, 0.99);
    expect(p50.value == 500 && p50.n == 1000 && p50.beyond == 500, "p50 of 1..1000");
    expect(p99.value == 990 && p99.beyond == 10 && p99.supported(), "p99 of 1..1000");
    std::vector<std::uint32_t> small(50);
    for (std::uint32_t i = 0; i < 50; ++i) small[i] = i + 1;
    const Percentile s99 = percentile(small, 0.99);
    expect(s99.value == 50 && s99.beyond == 0 && !s99.supported(),
           "p99 of 50 samples is unsupported");
    expect(percentile(std::vector<std::uint32_t>{}, 0.5).n == 0, "empty percentile");
    expect(percentile(std::vector<std::uint32_t>{42}, 0.99).value == 42, "single sample");
  }

  // Stall classifier.
  {
    expect(!is_stall(kStallNs - 1) && is_stall(kStallNs) && is_stall(kStallNs * 3),
           "stall boundary at the 2 ms wait window");
    const std::vector<std::uint64_t> lat = {1000, 20000, 2'000'000, 2'100'000, 500};
    expect(stall_share(lat) == 2.0 / 5.0, "stall share of a mixed set");
    expect(stall_share(std::vector<std::uint64_t>{}) == 0, "stall share of nothing");
  }

  // Per-type dispatch counts, blocking and coroutine, all five types.
  {
    std::vector<Op> ops;
    const OpType types[] = {OpType::kRead, OpType::kUpdate, OpType::kInsert,
                            OpType::kRemove, OpType::kScan};
    for (int i = 0; i < 50; ++i) {
      Op op{types[i % 5], static_cast<Key>(10 + i), 3, 0};
      if (op.type == OpType::kScan) op.scan_len = 4;
      ops.push_back(op);
    }
    std::vector<ScanEntry> buf(kMaxScanLen);
    FakeDS ds;
    TypeCounts good;
    for (const Op& op : ops) {
      ++good.generated[type_index(op.type)];
      (void)dispatch(ds, op, buf.data(), 0, good);
    }
    expect(good.match(), "dispatch counts match");
    expect(good.dispatched[type_index(OpType::kUpdate)] == 10 && ds.calls[1] == 10,
           "updates reach update()");
    FakeDS ds2;
    TypeCounts bad;
    for (const Op& op : ops) {
      ++bad.generated[type_index(op.type)];
      (void)swallowing_dispatch(ds2, op, buf.data(), 0, bad);
    }
    expect(!bad.match(), "a dispatcher that runs updates as reads is caught");

    FakeDS ds3;
    TypeCounts co;
    hh::Frame frame(4);
    for (const Op& op : ops) {
      ++co.generated[type_index(op.type)];
      CoSlot s;
      s.op = &op;
      hh::CoTask<void> task = dispatch_co(ds3, &s, 0, &co);
      frame.submit(task.handle());
      frame.drain();
      task.result();
      expect(s.end != 0, "co dispatch stamps completion");
    }
    expect(co.match() && ds3.calls == ds.calls, "co dispatch counts match");
  }

  // Oracle: values, must-exist keys and scan shape.
  {
    const std::vector<Key> loaded = {2, 4, 6, 8};
    std::vector<Op> s = {{OpType::kUpdate, 4, 99, 0}, {OpType::kRemove, 6, 0, 0},
                         {OpType::kInsert, 5, 55, 0}};
    const Oracle o(16, loaded, {&s});
    expect(o.valid_value(2, initial_value(2)) && o.valid_value(4, 99) &&
               o.valid_value(5, 55) && !o.valid_value(4, 98),
           "oracle values");
    expect(o.must_exist(2) && !o.must_exist(6) && !o.must_exist(5), "oracle must_exist");
    const Op read2{OpType::kRead, 2, 0, 0};
    expect(!o.check(read2, OpResult{false, 0, 0}, nullptr), "absent must-exist read fails");
    expect(o.check({OpType::kRead, 6, 0, 0}, OpResult{false, 0, 0}, nullptr),
           "absent removable read passes");
    const ScanEntry good[] = {{2, initial_value(2)}, {4, 99}, {5, 55}};
    const ScanEntry unordered[] = {{4, 99}, {2, initial_value(2)}};
    const Op scan{OpType::kScan, 2, 0, 3};
    expect(o.check(scan, OpResult{true, 0, 3}, good), "good scan passes");
    expect(!o.check(scan, OpResult{true, 0, 2}, unordered), "unordered scan fails");
    expect(!o.check({OpType::kScan, 2, 0, 2}, OpResult{true, 0, 3}, good),
           "over-long scan fails");
    expect(!o.check({OpType::kScan, 3, 0, 3}, OpResult{true, 0, 3}, good),
           "scan below its start fails");
  }

  std::cout << "{\"selftest\":" << (failures == 0 ? "true" : "false")
            << ",\"failures\":" << failures << "}" << std::endl;
  return failures == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--spans") a.spans = v;
      else if (k == "--commit") a.commit = v;
      else if (k == "--keys") a.keys = std::stoull(v);
      else if (k == "--sim-keys") a.sim_keys = std::stoull(v);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return a.selftest || (!a.workload.empty() && a.seconds > 0 && a.keys >= 1024);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::cerr << "usage: hybrids_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE] | --selftest\n";
    return 2;
  }
  try {
    return a.selftest ? perfbench::selftest() : perfbench::run(a);
  } catch (const std::exception& e) {
    std::cerr << "hybrids_bench: " << e.what() << "\n";
    return 2;
  }
}
