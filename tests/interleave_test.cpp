// Coroutine-interleaved non-blocking operations (host/interleave.hpp +
// docs/INTERLEAVING.md): resume-exactly-once across publication-slot parks,
// frame drain on exception and on NMP-requested retries, suspension across a
// publication wait with a stalled combiner, oracle-exact interleaved runs at
// depth 8 (the configuration the TSan CI job hammers), _co ops across a
// partition failover and on a fenced lane, and the inline runs behind the
// blocking entry points: no suspension into an enclosing frame, no async
// publication slots.
#include <gtest/gtest.h>

#include "hybrids/host/interleave.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/nmp_skiplist.hpp"
#include "hybrids/nmp/partition_set.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/util/rng.hpp"

namespace hh = hybrids::host;
namespace hn = hybrids::nmp;
namespace hd = hybrids::ds;
namespace tel = hybrids::telemetry;
using hybrids::Key;
using hybrids::ScanEntry;
using hybrids::Value;

namespace {

hn::PartitionSet make_set(std::uint32_t partitions, std::uint32_t threads,
                          std::uint32_t inflight) {
  hn::PartitionConfig cfg;
  cfg.partitions = partitions;
  cfg.max_threads = threads;
  cfg.slots_per_thread = inflight;
  cfg.partition_width = 1000;
  cfg.watchdog_interval_ms = 0;  // stalls here are deliberate, don't fence
  return hn::PartitionSet(cfg);
}

// A one-partition set whose combiner echoes each request's key once `gate`
// is open: the generic suspension point of these tests. host::offload parks
// an op on it exactly as on a data-structure round trip, and a closed gate
// keeps every posted op parked until the test opens it.
class EchoSet {
 public:
  explicit EchoSet(bool open = true) : set_(make_set(1, 1, 4)), gate_(open) {
    set_.set_handler(0, [this](const hn::Request& rq, hn::Response& rs) {
      while (!gate_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      rs.ok = true;
      rs.value = static_cast<Value>(rq.key);
    });
    set_.start();
  }
  ~EchoSet() {
    open();
    set_.stop();
  }

  void open() { gate_.store(true, std::memory_order_release); }
  hn::PartitionSet& set() { return set_; }

 private:
  hn::PartitionSet set_;
  std::atomic<bool> gate_;
};

// One publication round trip through host::offload; returns the echoed key.
hh::CoTask<Value> echo(hn::PartitionSet* set, Key key) {
  hn::Request r;
  r.op = hn::OpCode::kUpdate;
  r.key = key;
  const hn::Response resp = co_await hh::offload(*set, 0, 0, r);
  co_return resp.value;
}

// A coroutine that makes `parks` round trips and counts its execution
// segments: exactly-once resume semantics mean segments == parks + 1 however
// often the frame actually parks it (a round trip that completes before its
// poll, or an op left alone in its frame, runs straight through).
hh::CoTask<int> parking_op(hn::PartitionSet* set, int parks, int* segments) {
  ++*segments;
  for (int i = 0; i < parks; ++i) {
    (void)co_await echo(set, static_cast<Key>(i));
    ++*segments;
  }
  co_return *segments;
}

hh::CoTask<int> doubling_child(int v) { co_return v * 2; }

hh::CoTask<int> awaits_child(hn::PartitionSet* set, int v) {
  // Nested awaits run inline via symmetric transfer; a park inside a nested
  // round trip suspends the whole chain and resumes it exactly where it
  // left off.
  int doubled = co_await doubling_child(v);
  const Value echoed = co_await echo(set, static_cast<Key>(v));
  co_return echoed == static_cast<Value>(v) ? doubled + 1 : -1;
}

hh::CoTask<int> throwing_op(hn::PartitionSet* set, int parks) {
  for (int i = 0; i < parks; ++i) {
    (void)co_await echo(set, static_cast<Key>(i));
  }
  throw std::runtime_error("traversal failed");
}

}  // namespace

TEST(InterleaveKnob, DepthRoundTripAndClamp) {
  hh::Frame tiny(0);  // 0 would mean "no slots": clamps to 1
  EXPECT_EQ(tiny.capacity(), 1u);
  hh::Frame huge(1000);
  EXPECT_EQ(huge.capacity(), hh::Frame::kMaxSlots);
  hh::Frame eight(8);
  EXPECT_EQ(eight.capacity(), 8u);
}

TEST(InterleaveFrame, ResumesEachParkExactlyOnce) {
  EchoSet echo_set(/*open=*/false);
  const std::uint64_t parks_before =
      tel::counter(tel::names::kInterleaveYields).value();
  hh::Frame frame(2);
  int seg_a = 0, seg_b = 0;
  hh::CoTask<int> a = parking_op(&echo_set.set(), 3, &seg_a);
  hh::CoTask<int> b = parking_op(&echo_set.set(), 5, &seg_b);
  ASSERT_TRUE(frame.submit(a.handle()));
  ASSERT_TRUE(frame.submit(b.handle()));
  // Behind the closed gate each op's first round trip cannot complete, so
  // one step per op posts it and parks it on its slot.
  frame.step();
  frame.step();
  EXPECT_FALSE(a.done());
  EXPECT_FALSE(b.done());
  EXPECT_EQ(frame.inflight(), 2u);
  if (tel::kEnabled) {
    EXPECT_EQ(tel::counter(tel::names::kInterleaveYields).value(),
              parks_before + 2);
  }
  echo_set.open();
  frame.drain();
  ASSERT_TRUE(a.done());
  ASSERT_TRUE(b.done());
  // Each coroutine ran every segment exactly once: parks+1 segments, no
  // double-resume, no lost wakeup.
  EXPECT_EQ(a.result(), 4);
  EXPECT_EQ(b.result(), 6);
  EXPECT_EQ(seg_a, 4);
  EXPECT_EQ(seg_b, 6);
  EXPECT_TRUE(frame.empty());
}

TEST(InterleaveFrame, NestedTaskPropagatesThroughParks) {
  EchoSet echo_set(/*open=*/false);
  hh::Frame frame(2);
  hh::CoTask<int> x = awaits_child(&echo_set.set(), 10);
  hh::CoTask<int> y = awaits_child(&echo_set.set(), 20);
  ASSERT_TRUE(frame.submit(x.handle()));
  ASSERT_TRUE(frame.submit(y.handle()));
  frame.step();
  frame.step();
  EXPECT_FALSE(x.done());  // parked inside the nested round trip
  EXPECT_FALSE(y.done());
  echo_set.open();
  frame.drain();
  EXPECT_EQ(x.result(), 21);
  EXPECT_EQ(y.result(), 41);
}

TEST(InterleaveFrame, DrainsOnExceptionAndSiblingSurvives) {
  EchoSet echo_set;
  hh::Frame frame(2);
  int segments = 0;
  hh::CoTask<int> ok = parking_op(&echo_set.set(), 4, &segments);
  hh::CoTask<int> bad = throwing_op(&echo_set.set(), 2);
  ASSERT_TRUE(frame.submit(ok.handle()));
  ASSERT_TRUE(frame.submit(bad.handle()));
  frame.drain();  // must terminate: the exception empties bad's slot
  EXPECT_TRUE(frame.empty());
  ASSERT_TRUE(ok.done());
  ASSERT_TRUE(bad.done());
  EXPECT_EQ(ok.result(), 5);
  EXPECT_THROW(bad.result(), std::runtime_error);
}

TEST(InterleaveFrame, SubmitRejectsWhenFull) {
  EchoSet echo_set;
  hh::Frame frame(1);
  int seg = 0;
  hh::CoTask<int> a = parking_op(&echo_set.set(), 0, &seg);
  hh::CoTask<int> b = parking_op(&echo_set.set(), 0, &seg);
  ASSERT_TRUE(frame.submit(a.handle()));
  EXPECT_FALSE(frame.has_capacity());
  EXPECT_FALSE(frame.submit(b.handle()));
  frame.drain();
  EXPECT_TRUE(frame.submit(b.handle()));
  frame.drain();
  EXPECT_EQ(seg, 2);
}

namespace {

// Post to `set`, park on the slot, retry while the combiner answers retry —
// the shape of every data-structure _co retry loop, reduced to the
// transport so the test controls the combiner's answers exactly.
hh::CoTask<int> retrying_op(hn::PartitionSet* set, std::uint32_t p, Key key,
                            int* attempts) {
  hn::Request r;
  r.op = hn::OpCode::kRead;
  r.key = key;
  while (true) {
    ++*attempts;
    hn::OpHandle h = set->call_async(p, /*thread_id=*/0, r);
    hn::Response resp;
    if (!h.valid) {
      resp = set->call(p, 0, r);
    } else {
      co_await hh::suspend_until_done(*set, h);
      resp = set->retrieve(h);
    }
    if (!resp.retry) co_return static_cast<int>(resp.value);
  }
}

}  // namespace

TEST(InterleavePublication, RetryLoopDrainsInsideFrame) {
  hn::PartitionSet set = make_set(1, 1, 4);
  std::atomic<int> denials{2};
  set.set_handler(0, [&](const hn::Request& rq, hn::Response& rs) {
    if (rq.op == hn::OpCode::kRead && denials.fetch_sub(1) > 0) {
      rs.retry = true;
      return;
    }
    rs.ok = true;
    rs.value = rq.key + 1;
  });
  set.start();
  {
    hh::Frame frame(2);
    int attempts = 0, segments = 0;
    hh::CoTask<int> op = retrying_op(&set, 0, 41, &attempts);
    // The sibling's round trips are updates, which the handler never denies.
    hh::CoTask<int> sibling = parking_op(&set, 2, &segments);
    ASSERT_TRUE(frame.submit(op.handle()));
    ASSERT_TRUE(frame.submit(sibling.handle()));
    frame.drain();
    EXPECT_EQ(op.result(), 42);
    EXPECT_EQ(attempts, 3);  // two retries + success, all inside one slot
    EXPECT_EQ(sibling.result(), 3);
    EXPECT_TRUE(frame.empty());
  }
  set.stop();
}

TEST(InterleavePublication, SuspendsAcrossStalledCombinerAndRunsSibling) {
  // Partition 0's combiner blocks in its handler until released — a
  // deterministic stand-in for the fault injector's combiner stall — while
  // partition 1 answers immediately. With both ops in one frame, the op
  // parked on the stalled partition must not hold the thread hostage: the
  // sibling completes first, then the release lets the parked op finish.
  hn::PartitionSet set = make_set(2, 1, 4);
  std::atomic<bool> gate{false};
  set.set_handler(0, [&](const hn::Request& rq, hn::Response& rs) {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    rs.ok = true;
    rs.value = rq.key;
  });
  set.set_handler(1, [](const hn::Request& rq, hn::Response& rs) {
    rs.ok = true;
    rs.value = rq.key;
  });
  set.start();
  {
    hh::Frame frame(2);
    std::vector<int> completion_order;
    int attempts0 = 0, attempts1 = 0;
    hh::CoTask<int> stalled = retrying_op(&set, 0, 100, &attempts0);
    hh::CoTask<int> quick = retrying_op(&set, 1, 2200, &attempts1);
    ASSERT_TRUE(frame.submit(stalled.handle()));
    ASSERT_TRUE(frame.submit(quick.handle()));
    // Step until the quick op completes; the stalled one must still be in
    // flight (parked on its publication slot), proving the park actually
    // released the thread.
    while (!quick.done()) {
      frame.step();
    }
    EXPECT_FALSE(stalled.done());
    EXPECT_EQ(quick.result(), 2200);
    // Release the combiner; the frame is now down to parked-only ops, so
    // drain() exercises the bounded-futex fallback path.
    gate.store(true, std::memory_order_release);
    frame.drain();
    EXPECT_EQ(stalled.result(), 100);
  }
  set.stop();
}

// ---------- data-structure _co ops vs oracle ----------

namespace {

// Submit up to `frame.capacity()` coroutine ops and drain. Within one round
// all keys are distinct, so the interleaved ops commute and the oracle
// stays exact however the frame schedules them.
template <typename Task>
void drain_round(hh::Frame& frame, std::vector<Task>& tasks) {
  for (auto& t : tasks) {
    ASSERT_TRUE(frame.submit(t.handle()));
  }
  frame.drain();
  for (auto& t : tasks) {
    ASSERT_TRUE(t.done());
  }
}

}  // namespace

TEST(InterleaveHybridSkipList, CoOpsMatchOracleAtDepth4) {
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 8;
  cfg.nmp_height = 4;
  cfg.partitions = 4;
  cfg.partition_width = 64;
  cfg.max_threads = 1;
  cfg.slots_per_thread = 4;
  hd::HybridSkipList list(cfg);
  std::map<Key, Value> oracle;
  hybrids::util::Xoshiro256 rng(7);

  hh::Frame frame(4);
  for (int round = 0; round < 200; ++round) {
    // Four distinct keys per round.
    Key keys[4];
    for (int i = 0; i < 4; ++i) {
      keys[i] = static_cast<Key>((rng.next() % 64) * 4 + i);
    }
    const std::uint64_t choice = rng.next();
    std::vector<hh::CoTask<bool>> tasks;
    std::vector<int> kinds;
    std::vector<Value> reads(4, 0);
    for (int i = 0; i < 4; ++i) {
      const int kind = static_cast<int>((choice >> (i * 2)) & 3);
      kinds.push_back(kind);
      switch (kind) {
        case 0:
          tasks.push_back(list.read_co(keys[i], &reads[i], 0));
          break;
        case 1:
          tasks.push_back(list.insert_co(keys[i], keys[i] * 3 + 1, 0));
          break;
        case 2:
          tasks.push_back(list.remove_co(keys[i], 0));
          break;
        default:
          tasks.push_back(list.update_co(keys[i], keys[i] * 5 + 2, 0));
          break;
      }
    }
    drain_round(frame, tasks);
    for (int i = 0; i < 4; ++i) {
      const bool ok = tasks[i].result();
      const auto it = oracle.find(keys[i]);
      switch (kinds[i]) {
        case 0:
          EXPECT_EQ(ok, it != oracle.end()) << "read key " << keys[i];
          if (it != oracle.end()) { EXPECT_EQ(reads[i], it->second); }
          break;
        case 1:
          EXPECT_EQ(ok, it == oracle.end()) << "insert key " << keys[i];
          if (ok) oracle[keys[i]] = keys[i] * 3 + 1;
          break;
        case 2:
          EXPECT_EQ(ok, it != oracle.end()) << "remove key " << keys[i];
          if (ok) oracle.erase(keys[i]);
          break;
        default:
          EXPECT_EQ(ok, it != oracle.end()) << "update key " << keys[i];
          if (ok) oracle[keys[i]] = keys[i] * 5 + 2;
          break;
      }
    }
  }

  // scan_co against the final oracle (reads only — exact).
  std::vector<ScanEntry> buf(64);
  Value probe_out = 0;
  hh::CoTask<std::size_t> scan = list.scan_co(0, buf.size(), buf.data(), 0);
  hh::CoTask<bool> probe = list.read_co(1, &probe_out, 0);
  // A scan interleaved with a read: both are read-only, so both are exact.
  hh::Frame f2(2);
  ASSERT_TRUE(f2.submit(scan.handle()));
  ASSERT_TRUE(f2.submit(probe.handle()));
  f2.drain();
  const std::size_t n = scan.result();
  std::size_t expect_n = 0;
  for (const auto& [k, v] : oracle) {
    if (expect_n == buf.size()) break;
    ASSERT_LT(expect_n, n) << "scan_co returned too few entries";
    EXPECT_EQ(buf[expect_n].key, k);
    EXPECT_EQ(buf[expect_n].value, v);
    ++expect_n;
  }
  EXPECT_EQ(n, expect_n);
}

TEST(InterleaveHybridBTree, CoOpsMatchOracleAtDepth4) {
  std::vector<Key> keys;
  std::vector<Value> vals;
  std::map<Key, Value> oracle;
  for (Key k = 0; k < 1024; k += 2) {
    keys.push_back(k);
    vals.push_back(k * 7);
    oracle[k] = k * 7;
  }
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = 2;
  cfg.partitions = 4;
  cfg.max_threads = 1;
  cfg.slots_per_thread = 4;
  hd::HybridBTree tree(cfg, keys, vals);
  hybrids::util::Xoshiro256 rng(11);

  hh::Frame frame(4);
  for (int round = 0; round < 150; ++round) {
    Key rk[4];
    for (int i = 0; i < 4; ++i) {
      rk[i] = static_cast<Key>((rng.next() % 300) * 4 + i);
    }
    const std::uint64_t choice = rng.next();
    std::vector<hh::CoTask<bool>> tasks;
    std::vector<int> kinds;
    std::vector<Value> reads(4, 0);
    for (int i = 0; i < 4; ++i) {
      const int kind = static_cast<int>((choice >> (i * 2)) & 3);
      kinds.push_back(kind);
      switch (kind) {
        case 0:
          tasks.push_back(tree.read_co(rk[i], &reads[i], 0));
          break;
        case 1:
          tasks.push_back(tree.insert_co(rk[i], rk[i] + 9, 0));
          break;
        case 2:
          tasks.push_back(tree.remove_co(rk[i], 0));
          break;
        default:
          tasks.push_back(tree.update_co(rk[i], rk[i] + 13, 0));
          break;
      }
    }
    drain_round(frame, tasks);
    for (int i = 0; i < 4; ++i) {
      const bool ok = tasks[i].result();
      const auto it = oracle.find(rk[i]);
      switch (kinds[i]) {
        case 0:
          EXPECT_EQ(ok, it != oracle.end()) << "read key " << rk[i];
          if (it != oracle.end()) { EXPECT_EQ(reads[i], it->second); }
          break;
        case 1:
          EXPECT_EQ(ok, it == oracle.end()) << "insert key " << rk[i];
          if (ok) oracle[rk[i]] = rk[i] + 9;
          break;
        case 2:
          EXPECT_EQ(ok, it != oracle.end()) << "remove key " << rk[i];
          if (ok) oracle.erase(rk[i]);
          break;
        default:
          EXPECT_EQ(ok, it != oracle.end()) << "update key " << rk[i];
          if (ok) oracle[rk[i]] = rk[i] + 13;
          break;
      }
    }
  }

  std::vector<ScanEntry> buf(48);
  hh::CoTask<std::size_t> scan = tree.scan_co(100, buf.size(), buf.data(), 0);
  Value dummy = 0;
  hh::CoTask<bool> probe = tree.read_co(2, &dummy, 0);
  hh::Frame f2(2);
  ASSERT_TRUE(f2.submit(scan.handle()));
  ASSERT_TRUE(f2.submit(probe.handle()));
  f2.drain();
  const std::size_t n = scan.result();
  auto it = oracle.lower_bound(100);
  for (std::size_t i = 0; i < n; ++i, ++it) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(buf[i].key, it->first);
    EXPECT_EQ(buf[i].value, it->second);
  }
  EXPECT_TRUE(n == buf.size() || it == oracle.end());
}

TEST(InterleaveNmpSkipList, CoOpsRoundTrip) {
  hd::NmpSkipList::Config cfg;
  cfg.total_height = 8;
  cfg.partitions = 2;
  cfg.partition_width = 128;
  cfg.max_threads = 1;
  cfg.slots_per_thread = 4;
  hd::NmpSkipList list(cfg);
  hh::Frame frame(4);
  {
    std::vector<hh::CoTask<bool>> ins;
    for (Key k : {Key{1}, Key{70}, Key{130}, Key{200}}) {
      ins.push_back(list.insert_co(k, k + 1, 0));
    }
    drain_round(frame, ins);
    for (auto& t : ins) EXPECT_TRUE(t.result());
  }
  {
    Value v1 = 0, v2 = 0;
    std::vector<ScanEntry> buf(8);
    std::vector<hh::CoTask<bool>> reads;
    reads.push_back(list.read_co(70, &v1, 0));
    reads.push_back(list.read_co(130, &v2, 0));
    drain_round(frame, reads);
    EXPECT_TRUE(reads[0].result());
    EXPECT_TRUE(reads[1].result());
    EXPECT_EQ(v1, 71u);
    EXPECT_EQ(v2, 131u);
    hh::CoTask<std::size_t> scan = list.scan_co(0, buf.size(), buf.data(), 0);
    hh::CoTask<bool> rm = list.remove_co(1, 0);
    // Distinct key ranges: the scan starts at 0 but the remove of key 1 may
    // land before or after the scan's first chunk; both results are legal,
    // so only check the scan's ordering invariants here.
    hh::Frame f2(2);
    ASSERT_TRUE(f2.submit(scan.handle()));
    ASSERT_TRUE(f2.submit(rm.handle()));
    f2.drain();
    EXPECT_TRUE(rm.result());
    const std::size_t n = scan.result();
    for (std::size_t i = 1; i < n; ++i) {
      EXPECT_LT(buf[i - 1].key, buf[i].key);
    }
  }
}

// The TSan CI target: four threads, disjoint key ranges, depth-8 frames.
// Distinct keys within each round keep every thread's std::map oracle exact
// while the frame interleaves ops across their publication waits; cross-thread
// races (combiner slots, EBR epochs, node pool shards) are TSan's job.
TEST(InterleaveChaos, OracleExactAtDepth8FourThreads) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kDepth = 8;
  constexpr Key kRange = 96;  // keys per thread
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 10;
  cfg.nmp_height = 5;
  cfg.partitions = 4;
  cfg.partition_width = 96;
  cfg.max_threads = kThreads;
  cfg.slots_per_thread = kDepth;
  hd::HybridSkipList list(cfg);

  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&list, t] {
      const Key base = static_cast<Key>(t) * kRange;
      std::map<Key, Value> oracle;
      hybrids::util::Xoshiro256 rng(1000 + t);
      hh::Frame frame(kDepth);
      for (int round = 0; round < 120; ++round) {
        Key keys[kDepth];
        for (std::uint32_t i = 0; i < kDepth; ++i) {
          // kDepth distinct keys inside this thread's range.
          keys[i] = base + static_cast<Key>((rng.next() % (kRange / kDepth)) *
                                                kDepth +
                                            i);
        }
        const std::uint64_t choice = rng.next();
        std::vector<hh::CoTask<bool>> tasks;
        std::vector<int> kinds;
        std::vector<Value> reads(kDepth, 0);
        for (std::uint32_t i = 0; i < kDepth; ++i) {
          const int kind = static_cast<int>((choice >> (i * 2)) & 3);
          kinds.push_back(kind);
          switch (kind) {
            case 0:
              tasks.push_back(list.read_co(keys[i], &reads[i], t));
              break;
            case 1:
              tasks.push_back(list.insert_co(keys[i], keys[i] + 7, t));
              break;
            case 2:
              tasks.push_back(list.remove_co(keys[i], t));
              break;
            default:
              tasks.push_back(list.update_co(keys[i], keys[i] + 3, t));
              break;
          }
        }
        for (auto& task : tasks) {
          ASSERT_TRUE(frame.submit(task.handle()));
        }
        frame.drain();
        for (std::uint32_t i = 0; i < kDepth; ++i) {
          ASSERT_TRUE(tasks[i].done());
          const bool ok = tasks[i].result();
          const auto it = oracle.find(keys[i]);
          switch (kinds[i]) {
            case 0:
              ASSERT_EQ(ok, it != oracle.end());
              if (it != oracle.end()) { ASSERT_EQ(reads[i], it->second); }
              break;
            case 1:
              ASSERT_EQ(ok, it == oracle.end());
              if (ok) oracle[keys[i]] = keys[i] + 7;
              break;
            case 2:
              ASSERT_EQ(ok, it != oracle.end());
              if (ok) oracle.erase(keys[i]);
              break;
            default:
              ASSERT_EQ(ok, it != oracle.end());
              if (ok) oracle[keys[i]] = keys[i] + 3;
              break;
          }
        }
      }
      // Final sweep: every oracle key readable with the exact value.
      for (const auto& [k, v] : oracle) {
        Value out = 0;
        ASSERT_TRUE(list.read(k, out, t));
        ASSERT_EQ(out, v);
      }
    });
  }
  for (auto& w : workers) w.join();
}

// ---------- _co ops across a partition failover ----------

namespace {

// One op of a mixed round: `kind` 0..3 = read/insert/remove/update.
template <typename DS>
hh::CoTask<bool> mixed_op(DS& ds, int kind, Key k, Value* read_out) {
  switch (kind) {
    case 0:
      return ds.read_co(k, read_out, 0);
    case 1:
      return ds.insert_co(k, k + 5, 0);
    case 2:
      return ds.remove_co(k, 0);
    default:
      return ds.update_co(k, k + 11, 0);
  }
}

void apply_to_oracle(std::map<Key, Value>& oracle, int kind, Key k, bool ok,
                     Value read) {
  const auto it = oracle.find(k);
  switch (kind) {
    case 0:
      EXPECT_EQ(ok, it != oracle.end()) << "read key " << k;
      if (it != oracle.end()) { EXPECT_EQ(read, it->second) << "key " << k; }
      break;
    case 1:
      EXPECT_EQ(ok, it == oracle.end()) << "insert key " << k;
      if (ok) oracle[k] = k + 5;
      break;
    case 2:
      EXPECT_EQ(ok, it != oracle.end()) << "remove key " << k;
      if (ok) oracle.erase(k);
      break;
    default:
      EXPECT_EQ(ok, it != oracle.end()) << "update key " << k;
      if (ok) oracle[k] = k + 11;
      break;
  }
}

std::uint64_t total_failovers(hn::PartitionSet& set) {
  std::uint64_t n = 0;
  for (std::uint32_t p = 0; p < set.partitions(); ++p) n += set.failovers(p);
  return n;
}

}  // namespace

// A fenced lane rejects call_async, so host::offload falls back to the
// blocking call inside a frame while its siblings stay parked; a bounce
// mid-flight comes back failed_over and the op's retry loop re-posts. Each round runs two
// HybridSkipList and two HybridBTree _co ops (distinct keys) in one
// Frame(4) while trigger_failover fences partitions of both structures; the
// std::map oracles stay exact and every frame drains.
TEST(InterleaveFailover, CoOpsStayExactAcrossFailover) {
  hd::HybridSkipList::Config lcfg;
  lcfg.total_height = 8;
  lcfg.nmp_height = 4;
  lcfg.partitions = 4;
  lcfg.partition_width = 64;
  lcfg.max_threads = 1;
  lcfg.slots_per_thread = 4;
  lcfg.watchdog_interval_ms = 2;
  lcfg.watchdog_misses_to_degrade = 2;
  lcfg.watchdog_misses_to_recover = 2;
  hd::HybridSkipList list(lcfg);

  std::vector<Key> keys;
  std::vector<Value> vals;
  std::map<Key, Value> tree_oracle;
  for (Key k = 0; k < 1024; k += 2) {
    keys.push_back(k);
    vals.push_back(k * 7);
    tree_oracle[k] = k * 7;
  }
  hd::HybridBTree::Config tcfg;
  tcfg.nmp_levels = 2;
  tcfg.partitions = 4;
  tcfg.max_threads = 1;
  tcfg.slots_per_thread = 4;
  tcfg.watchdog_interval_ms = 2;
  tcfg.watchdog_misses_to_degrade = 2;
  tcfg.watchdog_misses_to_recover = 2;
  hd::HybridBTree tree(tcfg, keys, vals);
  std::map<Key, Value> list_oracle;

  hybrids::util::Xoshiro256 rng(23);
  hh::Frame frame(4);
  constexpr int kKills = 6;
  for (int kill = 0; kill < kKills; ++kill) {
    hn::PartitionSet& target =
        kill % 2 == 0 ? list.partition_set() : tree.partition_set();
    const std::uint64_t failovers0 = total_failovers(target);
    target.trigger_failover(static_cast<std::uint32_t>(kill) % 4);
    // Keep the frame busy until the watchdog has fenced the lane, then for
    // a few more rounds while it recovers.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    int rounds_after = 0;
    while (rounds_after < 20 && std::chrono::steady_clock::now() < deadline) {
      if (total_failovers(target) > failovers0) ++rounds_after;
      const std::uint64_t choice = rng.next();
      // Two distinct skiplist keys and two distinct tree keys per round.
      const Key lbase = static_cast<Key>(rng.next() % 128) * 2;
      const Key tbase = static_cast<Key>(rng.next() % 600) * 2;
      const Key ks[4] = {lbase, lbase + 1, tbase, tbase + 1};
      int kinds[4];
      Value reads[4] = {};
      std::vector<hh::CoTask<bool>> tasks;
      for (int i = 0; i < 4; ++i) {
        kinds[i] = static_cast<int>((choice >> (i * 2)) & 3);
        tasks.push_back(i < 2 ? mixed_op(list, kinds[i], ks[i], &reads[i])
                              : mixed_op(tree, kinds[i], ks[i], &reads[i]));
      }
      drain_round(frame, tasks);
      ASSERT_TRUE(frame.empty());
      for (int i = 0; i < 4; ++i) {
        apply_to_oracle(i < 2 ? list_oracle : tree_oracle, kinds[i], ks[i],
                        tasks[i].result(), reads[i]);
      }
    }
    EXPECT_GT(total_failovers(target), failovers0)
        << "kill " << kill << " never fenced its partition";
  }

  for (const auto& [k, v] : list_oracle) {
    Value out = 0;
    ASSERT_TRUE(list.read(k, out, 0)) << "skiplist key " << k;
    EXPECT_EQ(out, v);
  }
  for (const auto& [k, v] : tree_oracle) {
    Value out = 0;
    ASSERT_TRUE(tree.read(k, out, 0)) << "tree key " << k;
    EXPECT_EQ(out, v);
  }
  EXPECT_EQ(list.size(), list_oracle.size());
  EXPECT_EQ(tree.size(), tree_oracle.size());
  EXPECT_TRUE(list.validate());
  EXPECT_TRUE(tree.validate());
}

namespace {

// One round trip of `key` to partition 0 through host::offload.
hh::CoTask<hn::Response> offload_key(hn::PartitionSet* set, Key key) {
  hn::Request r;
  r.op = hn::OpCode::kUpdate;
  r.key = key;
  co_return co_await hh::offload(*set, 0, 0, r);
}

template <typename Pred>
bool wait_until(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

}  // namespace

// An offload inside a frame that meets a fenced lane: call_async rejects,
// and the blocking fallback bounces at once instead of waiting on the
// wedged combiner, so the op is done after one step, failed_over. Its
// sibling, parked on the same lane since before the fence, gets its real
// reply once the handler returns: the fenced pass already ran it.
TEST(InterleaveFailover, OffloadOnFencedLaneBouncesWithoutBlocking) {
  hn::PartitionConfig cfg;
  cfg.partitions = 1;
  cfg.max_threads = 1;
  cfg.slots_per_thread = 2;
  cfg.partition_width = 1000;
  cfg.watchdog_interval_ms = 2;
  cfg.watchdog_misses_to_degrade = 2;
  cfg.watchdog_misses_to_recover = 2;
  hn::PartitionSet set(cfg);
  std::atomic<bool> wedge{true};
  std::atomic<bool> in_handler{false};
  set.set_handler(0, [&](const hn::Request& rq, hn::Response& rs) {
    in_handler.store(true, std::memory_order_release);
    while (wedge.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    rs.ok = true;
    rs.value = static_cast<Value>(rq.key);
  });
  set.start();
  // Safety valve: if the fallback ever blocked on the wedged lane, release
  // the handler after a while so the test fails instead of hanging.
  std::jthread valve([&](std::stop_token stop) {
    (void)wait_until([&] { return stop.stop_requested(); });
    wedge.store(false, std::memory_order_release);
  });
  tel::Counter& rejected = tel::counter(tel::names::kAsyncRejected);
  EchoSet echo_set;
  {
    // An op alone in its frame does not park, so the sibling parks beside a
    // round trip on an open EchoSet, which then finishes.
    hh::Frame frame(2);
    hh::CoTask<hn::Response> sibling = offload_key(&set, 5);
    hh::CoTask<Value> filler = echo(&echo_set.set(), 1);
    ASSERT_TRUE(frame.submit(sibling.handle()));
    ASSERT_TRUE(frame.submit(filler.handle()));
    while (!filler.done()) frame.step();
    EXPECT_EQ(filler.result(), 1u);
    ASSERT_FALSE(sibling.done());
    ASSERT_TRUE(wait_until([&] { return in_handler.load(); }));
    // The wedged pass holds the pass token, so the supervisor cannot reap
    // it: the lane stays fenced until the handler is released.
    set.trigger_failover(0);
    ASSERT_TRUE(wait_until([&] { return set.failovers(0) >= 1; }));

    const std::uint64_t rejected0 = rejected.value();
    hh::CoTask<hn::Response> fenced = offload_key(&set, 7);
    ASSERT_TRUE(frame.submit(fenced.handle()));
    frame.step();  // the sibling is still parked: this runs `fenced`
    ASSERT_TRUE(fenced.done());
    EXPECT_TRUE(wedge.load()) << "the fallback waited for the handler";
    EXPECT_TRUE(fenced.result().failed_over);
    EXPECT_FALSE(sibling.done());
    if (tel::kEnabled) {
      EXPECT_GT(rejected.value(), rejected0);
    }

    wedge.store(false, std::memory_order_release);
    frame.drain();
    const hn::Response reply = sibling.result();
    EXPECT_TRUE(reply.ok);
    EXPECT_FALSE(reply.failed_over);
    EXPECT_EQ(reply.value, 5u);
  }
  valve.request_stop();
  valve.join();
  set.stop();
}

// ---------- blocking entry points: the _co bodies run inline ----------

namespace {

// What a blocking call made from inside a frame-driven coroutine must leave
// exactly as it found it: the thread's active frame/slot, the frame's
// in-flight count, and — since note_wait is the only writer of a suspended
// slot's state and counts every park — the park counter.
struct FrameView {
  hh::Frame* frame;
  std::uint32_t slot;
  std::uint32_t inflight;
  std::uint64_t parks;
};

FrameView view_active_frame() {
  const hh::detail::ActiveFrame& a = hh::detail::active_frame();
  return {a.frame, a.slot, a.frame != nullptr ? a.frame->inflight() : 0u,
          tel::counter(tel::names::kInterleaveYields).value()};
}

void expect_same_frame(const FrameView& before, const FrameView& after) {
  EXPECT_NE(before.frame, nullptr);
  EXPECT_EQ(after.frame, before.frame);
  EXPECT_EQ(after.slot, before.slot);
  EXPECT_EQ(after.inflight, before.inflight);
  if (tel::kEnabled) {
    EXPECT_EQ(after.parks, before.parks);
  }
}

struct BlockingResult {
  bool inserted = false;
  bool found = false;
  Value value = 0;
};

// Blocking insert + read of `key` from inside a Frame slot, once before this
// op's own round trip on `park` (siblings queued) and once after it
// (siblings parked on publication slots or done).
template <typename DS>
hh::CoTask<void> blocking_inside_frame(DS* ds, hn::PartitionSet* park, Key k1,
                                       Key k2, Value v, BlockingResult* r1,
                                       BlockingResult* r2) {
  FrameView before = view_active_frame();
  EXPECT_GT(before.inflight, 1u) << "no sibling in flight";
  r1->inserted = ds->insert(k1, v, 0);
  r1->found = ds->read(k1, r1->value, 0);
  expect_same_frame(before, view_active_frame());

  (void)co_await echo(park, k1);

  before = view_active_frame();
  r2->inserted = ds->insert(k2, v, 0);
  r2->found = ds->read(k2, r2->value, 0);
  expect_same_frame(before, view_active_frame());
}

void check_blocking(std::map<Key, Value>& oracle, Key key, Value v,
                    const BlockingResult& r) {
  EXPECT_EQ(r.inserted, oracle.count(key) == 0) << "insert key " << key;
  if (r.inserted) oracle[key] = v;
  EXPECT_TRUE(r.found) << "read key " << key;
  EXPECT_EQ(r.value, oracle[key]) << "read key " << key;
}

// One slot runs blocking_inside_frame while the other seven run _co ops of
// random kinds; all nine keys of a round are distinct, so the std::map
// oracle stays exact whatever order the frame completes them in. Each round
// gets a fresh frame: blocking_inside_frame takes its first slot and, with
// the round-robin cursor at that slot, runs first, while all seven
// siblings are still queued.
template <typename DS>
void blocking_ops_inside_depth8_frame(DS& ds, std::map<Key, Value>& oracle,
                                      Key key_space, std::uint64_t seed) {
  constexpr std::uint32_t kDepth = 8;
  constexpr Key kStride = kDepth + 1;  // two blocking keys + seven siblings
  hybrids::util::Xoshiro256 rng(seed);
  EchoSet echo_set;
  for (int round = 0; round < 60; ++round) {
    hh::Frame frame(kDepth);
    Key keys[kStride];
    const Key base = static_cast<Key>(rng.next() % (key_space / kStride)) *
                     kStride;
    for (Key i = 0; i < kStride; ++i) keys[i] = base + i;
    const Value v = static_cast<Value>(round) * 1000 + 1;

    BlockingResult r1, r2;
    hh::CoTask<void> inside =
        blocking_inside_frame(&ds, &echo_set.set(), keys[0], keys[1], v, &r1,
                              &r2);
    ASSERT_TRUE(frame.submit(inside.handle()));
    const std::uint64_t choice = rng.next();
    std::vector<hh::CoTask<bool>> siblings;
    std::vector<int> kinds;
    std::vector<Value> reads(kDepth - 1, 0);
    for (std::uint32_t i = 0; i + 1 < kDepth; ++i) {
      kinds.push_back(static_cast<int>((choice >> (i * 2)) & 3));
      siblings.push_back(mixed_op(ds, kinds[i], keys[i + 2], &reads[i]));
    }
    drain_round(frame, siblings);
    ASSERT_TRUE(inside.done());
    inside.result();
    EXPECT_TRUE(frame.empty());

    check_blocking(oracle, keys[0], v, r1);
    check_blocking(oracle, keys[1], v, r2);
    for (std::uint32_t i = 0; i + 1 < kDepth; ++i) {
      apply_to_oracle(oracle, kinds[i], keys[i + 2], siblings[i].result(),
                      reads[i]);
    }
  }
}

}  // namespace

TEST(InterleaveInline, BlockingOpsInsideFrameSkipList) {
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 8;
  cfg.nmp_height = 4;
  cfg.partitions = 4;
  cfg.partition_width = 64;
  cfg.max_threads = 1;
  cfg.slots_per_thread = 8;
  hd::HybridSkipList list(cfg);
  std::map<Key, Value> oracle;
  blocking_ops_inside_depth8_frame(list, oracle, 4 * 64, 17);
  EXPECT_EQ(list.size(), oracle.size());
}

TEST(InterleaveInline, BlockingOpsInsideFrameBTree) {
  std::vector<Key> keys;
  std::vector<Value> vals;
  std::map<Key, Value> oracle;
  for (Key k = 0; k < 1024; k += 2) {
    keys.push_back(k);
    vals.push_back(k * 7);
    oracle[k] = k * 7;
  }
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = 2;
  cfg.partitions = 4;
  cfg.max_threads = 1;
  cfg.slots_per_thread = 8;
  hd::HybridBTree tree(cfg, keys, vals);
  blocking_ops_inside_depth8_frame(tree, oracle, 1024, 19);
  EXPECT_EQ(tree.size(), oracle.size());
}

namespace {

// Requests the partitions' combiners have served; final once the partition
// set is stopped (stop() joins them).
std::uint64_t served(hn::PartitionSet& set) {
  std::uint64_t n = 0;
  for (std::uint32_t p = 0; p < set.partitions(); ++p) {
    n += set.core(p).served();
  }
  return n;
}

struct CallCounts {
  std::uint64_t blocking;
  std::uint64_t async;
};

CallCounts call_counts() {
  return {tel::counter(tel::names::kCallBlocking).value(),
          tel::counter(tel::names::kCallAsync).value()};
}

// Stops `set` and checks that every offload since (`before`, `served0`) took
// the blocking publication path: host::offload with no active frame.
void expect_all_blocking(hn::PartitionSet& set, const CallCounts& before,
                         std::uint64_t served0) {
  set.stop();
  const CallCounts after = call_counts();
  const std::uint64_t offloads = served(set) - served0;
  EXPECT_GT(offloads, 0u);
  EXPECT_EQ(after.async - before.async, 0u);
  EXPECT_EQ(after.blocking - before.blocking, offloads);
}

}  // namespace

TEST(InterleaveInline, BlockingOnlyTrafficNeverUsesAsyncSlots) {
  if (!tel::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  std::vector<ScanEntry> buf(40);
  {
    hd::HybridSkipList::Config cfg;
    cfg.total_height = 8;
    cfg.nmp_height = 4;
    cfg.partitions = 4;
    cfg.partition_width = 64;
    cfg.max_threads = 1;
    cfg.watchdog_interval_ms = 0;
    hd::HybridSkipList list(cfg);
    const CallCounts before = call_counts();
    const std::uint64_t served0 = served(list.partition_set());
    for (Key k = 0; k < 256; k += 3) ASSERT_TRUE(list.insert(k, k + 1, 0));
    Value v = 0;
    for (Key k = 0; k < 256; k += 6) {
      ASSERT_TRUE(list.read(k, v, 0));
      ASSERT_EQ(v, k + 1);
      ASSERT_TRUE(list.update(k, k + 2, 0));
    }
    for (Key k = 3; k < 256; k += 6) ASSERT_TRUE(list.remove(k, 0));
    EXPECT_EQ(list.scan(0, buf.size(), buf.data(), 0), buf.size());
    expect_all_blocking(list.partition_set(), before, served0);
  }
  {
    std::vector<Key> keys;
    std::vector<Value> vals;
    for (Key k = 0; k < 2000; k += 2) {
      keys.push_back(k);
      vals.push_back(k);
    }
    hd::HybridBTree::Config cfg;
    cfg.nmp_levels = 2;
    cfg.partitions = 4;
    cfg.max_threads = 1;
    cfg.watchdog_interval_ms = 0;
    hd::HybridBTree tree(cfg, keys, vals);
    const CallCounts before = call_counts();
    const std::uint64_t served0 = served(tree.partition_set());
    const std::uint64_t lock_path0 =
        tel::counter(tel::names::kLockPathTotal).value();
    // Ascending tail inserts split the partitions' top-level nodes, so some
    // escalate through LOCK_PATH (and its RESUME/UNLOCK legs).
    for (Key k = 2000; k < 4000; ++k) ASSERT_TRUE(tree.insert(k, k, 0));
    EXPECT_GT(tel::counter(tel::names::kLockPathTotal).value(), lock_path0);
    Value v = 0;
    for (Key k = 0; k < 4000; k += 98) {
      ASSERT_TRUE(tree.read(k, v, 0));
      ASSERT_TRUE(tree.update(k, k + 1, 0));
    }
    for (Key k = 1; k < 2000; k += 50) ASSERT_FALSE(tree.remove(k, 0));
    for (Key k = 2; k < 2000; k += 50) ASSERT_TRUE(tree.remove(k, 0));
    EXPECT_EQ(tree.scan(100, buf.size(), buf.data(), 0), buf.size());
    expect_all_blocking(tree.partition_set(), before, served0);
  }
  {
    hd::NmpSkipList::Config cfg;
    cfg.total_height = 8;
    cfg.partitions = 2;
    cfg.partition_width = 128;
    cfg.max_threads = 1;
    cfg.watchdog_interval_ms = 0;
    hd::NmpSkipList list(cfg);
    const CallCounts before = call_counts();
    const std::uint64_t served0 = served(list.partition_set());
    for (Key k = 0; k < 256; k += 2) ASSERT_TRUE(list.insert(k, k, 0));
    Value v = 0;
    ASSERT_TRUE(list.read(130, v, 0));
    ASSERT_TRUE(list.update(130, 1, 0));
    ASSERT_TRUE(list.remove(4, 0));
    EXPECT_EQ(list.scan(0, buf.size(), buf.data(), 0), buf.size());
    expect_all_blocking(list.partition_set(), before, served0);
  }
}
