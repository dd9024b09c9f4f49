// Tests for the kScan publication protocol and the stitched range scans:
// opcode/table coverage, the partition-local continuation protocol
// (SeqSkipList::scan and HybridSkipList::apply driven directly, without the
// runtime), chunk boundaries landing exactly on partition edges, scans that
// begin at a logically-deleted node, length edge cases (0 / 1 / kScanChunk /
// kScanChunk + 1), and batched scans interleaved with point ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/nmp_skiplist.hpp"
#include "hybrids/ds/seq_skiplist.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/nmp/publication.hpp"
#include "hybrids/telemetry/counters.hpp"
#include "hybrids/telemetry/registry.hpp"

namespace hd = hybrids::ds;
namespace hh = hybrids::host;
namespace nmp = hybrids::nmp;
namespace tel = hybrids::telemetry;
using hybrids::Key;
using hybrids::ScanEntry;
using hybrids::Value;

namespace {

/// The oracle slice: up to `count` (key, value) pairs with key >= start,
/// ascending — what every scan implementation must return exactly.
std::vector<ScanEntry> oracle_slice(const std::map<Key, Value>& m, Key start,
                                    std::size_t count) {
  std::vector<ScanEntry> out;
  for (auto it = m.lower_bound(start); it != m.end() && out.size() < count;
       ++it) {
    out.push_back(ScanEntry{it->first, it->second});
  }
  return out;
}

/// Runs ds.scan(start, count) and compares the filled prefix to the oracle.
template <typename DS>
void expect_scan_matches(DS& ds, const std::map<Key, Value>& oracle, Key start,
                         std::size_t count, std::uint32_t tid = 0) {
  std::vector<ScanEntry> buf(count > 0 ? count : 1);
  const std::size_t n = ds.scan(start, count, buf.data(), tid);
  const std::vector<ScanEntry> want = oracle_slice(oracle, start, count);
  ASSERT_EQ(n, want.size()) << "start=" << start << " count=" << count;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(buf[i].key, want[i].key) << "start=" << start << " i=" << i;
    EXPECT_EQ(buf[i].value, want[i].value) << "start=" << start << " i=" << i;
  }
}

const std::size_t kLenEdges[] = {0, 1, 2, nmp::kScanChunk - 1, nmp::kScanChunk,
                                 nmp::kScanChunk + 1, 3 * nmp::kScanChunk + 5,
                                 1000};

}  // namespace

// ---------- opcode table coverage ----------

// Every opcode must have a printable name: op_code_name is the suffix of the
// per-op served_<op> telemetry counters, so an "unknown" here would silently
// fold a new opcode's counts into a junk metric name.
TEST(ScanProtocol, EveryOpCodeHasAName) {
  for (std::size_t i = 0; i < nmp::kOpCodeCount; ++i) {
    const char* name = nmp::op_code_name(static_cast<nmp::OpCode>(i));
    EXPECT_STRNE(name, "unknown") << "opcode " << i;
    EXPECT_GT(std::strlen(name), 0u) << "opcode " << i;
  }
  // kScan specifically is in the table (and inside kOpCodeCount, so the
  // kOpCodeCount-sized per-op arrays pick it up).
  EXPECT_STREQ(nmp::op_code_name(nmp::OpCode::kScan), "scan");
  EXPECT_LT(static_cast<std::size_t>(nmp::OpCode::kScan), nmp::kOpCodeCount);
}

// ---------- partition-local continuation protocol (no runtime) ----------

TEST(ScanProtocol, SeqSkipListChunkAndContinuation) {
  hd::SeqSkipList list(4);
  for (Key k = 0; k < 64; k += 2) {
    (void)list.insert(k, k + 1, 2, nullptr, list.head());
  }
  std::vector<ScanEntry> buf(64);
  Key next = 0;
  bool more = false;
  // Exactly kScanChunk entries available from 0: 0,2,...,30.
  std::uint32_t n = list.scan(0, nmp::kScanChunk, list.head(), buf.data(),
                              &next, &more);
  ASSERT_EQ(n, nmp::kScanChunk);
  EXPECT_EQ(buf[0].key, 0u);
  EXPECT_EQ(buf[n - 1].key, 30u);
  EXPECT_TRUE(more);
  EXPECT_EQ(next, 32u);  // first key NOT returned
  // Continue from the continuation key: the rest, then exhaustion.
  n = list.scan(next, nmp::kScanChunk, list.head(), buf.data(), &next, &more);
  ASSERT_EQ(n, nmp::kScanChunk);
  EXPECT_EQ(buf[0].key, 32u);
  EXPECT_EQ(buf[n - 1].key, 62u);
  EXPECT_FALSE(more);
  // Start past every key: empty, no continuation.
  n = list.scan(100, 8, list.head(), buf.data(), &next, &more);
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(more);
  // Zero-length request: writes nothing but still reports the continuation.
  n = list.scan(10, 0, list.head(), buf.data(), &next, &more);
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(more);
  EXPECT_EQ(next, 10u);
}

// A kScan whose begin-NMP-traversal node was logically deleted must come
// back as a retry (Listing 2 lines 7-10 applied to scans), not as a scan
// from freed/unlinked state.
TEST(ScanProtocol, ScanFromStaleBeginNodeRetries) {
  hd::SeqSkipList list(4);
  (void)list.insert(10, 100, 4, nullptr, list.head());
  (void)list.insert(20, 200, 4, nullptr, list.head());
  (void)list.insert(30, 300, 4, nullptr, list.head());
  hd::SeqSkipList::Node* begin = list.read(10, list.head());
  ASSERT_NE(begin, nullptr);
  ASSERT_TRUE(list.remove(10, list.head()));
  ASSERT_TRUE(hd::SeqSkipList::is_stale(begin));

  tel::Counter stale;
  tel::Counter from_head;
  ScanEntry buf[8] = {};
  nmp::Request req;
  req.op = nmp::OpCode::kScan;
  req.key = 12;
  req.value = 8;
  req.node = begin;  // stale shortcut from the host's (outdated) view
  req.host_node = buf;
  nmp::Response resp;
  hd::HybridSkipList::apply(list, 4, 0, stale, from_head, req, resp);
  EXPECT_TRUE(resp.retry);
  if constexpr (tel::kEnabled) {
    EXPECT_EQ(stale.value(), 1u);
    EXPECT_EQ(from_head.value(), 0u);
  }

  // The host's retry drops the shortcut: same request from the partition
  // head succeeds and returns the surviving keys.
  req.node = nullptr;
  resp = nmp::Response{};
  hd::HybridSkipList::apply(list, 4, 0, stale, from_head, req, resp);
  EXPECT_FALSE(resp.retry);
  EXPECT_TRUE(resp.ok);
  if constexpr (tel::kEnabled) {
    EXPECT_EQ(from_head.value(), 1u);
  }
  ASSERT_EQ(resp.value, 2u);
  EXPECT_EQ(buf[0].key, 20u);
  EXPECT_EQ(buf[1].key, 30u);
  EXPECT_FALSE(resp.has_more);
}

// The combiner clamps oversized chunk requests to kScanChunk instead of
// overrunning the host's buffer.
TEST(ScanProtocol, CombinerClampsChunkToScanChunk) {
  hd::SeqSkipList list(4);
  for (Key k = 0; k < 2 * nmp::kScanChunk; ++k) {
    (void)list.insert(k, k, 2, nullptr, list.head());
  }
  tel::Counter stale;
  tel::Counter from_head;
  ScanEntry buf[nmp::kScanChunk + 1] = {};
  buf[nmp::kScanChunk].key = ~Key{0};  // canary past the legal chunk
  nmp::Request req;
  req.op = nmp::OpCode::kScan;
  req.key = 0;
  req.value = 10 * nmp::kScanChunk;  // way beyond the per-chunk cap
  req.host_node = buf;
  nmp::Response resp;
  hd::HybridSkipList::apply(list, 4, 0, stale, from_head, req, resp);
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.value, nmp::kScanChunk);
  EXPECT_TRUE(resp.has_more);
  EXPECT_EQ(resp.aux, static_cast<std::uint64_t>(nmp::kScanChunk));
  EXPECT_EQ(buf[nmp::kScanChunk].key, ~Key{0});  // canary intact
}

// ---------- NMP skiplist: stitched scans over the real runtime ----------

TEST(NmpSkipListScan, LengthEdgesMatchOracle) {
  hd::NmpSkipList::Config cfg;
  cfg.total_height = 8;
  cfg.partitions = 4;
  cfg.partition_width = 64;
  cfg.max_threads = 2;
  hd::NmpSkipList list(cfg);
  std::map<Key, Value> oracle;
  for (Key k = 0; k < 256; k += 2) {
    ASSERT_TRUE(list.insert(k, k * 3, 0));
    oracle[k] = k * 3;
  }
  for (Key start : {Key{0}, Key{1}, Key{5}, Key{62}, Key{63}, Key{64},
                    Key{127}, Key{128}, Key{200}, Key{254}, Key{255}}) {
    for (std::size_t count : kLenEdges) {
      expect_scan_matches(list, oracle, start, count);
    }
  }
}

// A chunk that fills exactly at the last key of a partition must hand off
// cleanly: no duplicated edge key, no skipped first key of the next
// partition, and has_more must not claim a continuation in the drained
// partition.
TEST(NmpSkipListScan, ChunkBoundaryExactlyAtPartitionEdge) {
  hd::NmpSkipList::Config cfg;
  cfg.total_height = 8;
  cfg.partitions = 4;
  cfg.partition_width = 64;
  cfg.max_threads = 1;
  hd::NmpSkipList list(cfg);
  std::map<Key, Value> oracle;
  // Dense keys straddling the p0/p1 edge at 64: 48..63 is exactly one
  // kScanChunk-sized chunk ending on the partition's last key.
  for (Key k = 48; k < 80; ++k) {
    ASSERT_TRUE(list.insert(k, k, 0));
    oracle[k] = k;
  }
  static_assert(nmp::kScanChunk == 16, "edge geometry assumes 16-entry chunks");
  expect_scan_matches(list, oracle, 48, 16);  // stops exactly on key 63
  expect_scan_matches(list, oracle, 48, 17);  // one entry into p1
  expect_scan_matches(list, oracle, 48, 32);  // spans the edge entirely
  expect_scan_matches(list, oracle, 60, 8);   // crosses the edge mid-chunk
  expect_scan_matches(list, oracle, 63, 2);   // begins on the edge key
  expect_scan_matches(list, oracle, 64, 4);   // begins on p1's first key
}

// Batched combiner passes (key-sorted apply with a traversal finger) must
// leave each slot's completion intact: point ops in flight beside a scan on
// one frame all return their own results, and the scan sees a consistent
// ascending slice.
TEST(NmpSkipListScan, BatchedScansInterleavedWithPointOps) {
  hd::NmpSkipList::Config cfg;
  cfg.total_height = 8;
  cfg.partitions = 2;
  cfg.partition_width = 128;
  cfg.max_threads = 2;
  cfg.batching = true;
  hd::NmpSkipList list(cfg);
  std::map<Key, Value> oracle;
  for (Key k = 0; k < 256; k += 2) {
    ASSERT_TRUE(list.insert(k, k, 0));
    oracle[k] = k;
  }
  // Rounds of: a fresh odd-key insert, a read and a scan in flight together
  // on one frame. The point ops and the scan's chunks share a combiner pass
  // whenever the timing lines up, so repeated rounds exercise the batched
  // path; correctness must not depend on whether a given round batched.
  for (Key round = 0; round < 16; ++round) {
    const Key fresh = 2 * round + 1;  // odd: not yet present
    Value read = 0;
    std::vector<ScanEntry> buf(40);
    hh::Frame frame(3);
    hh::CoTask<bool> ins = list.insert_co(fresh, fresh * 7, 0);
    hh::CoTask<bool> rd = list.read_co(2 * round, &read, 0);
    hh::CoTask<std::size_t> sc =
        list.scan_co(round * 8, buf.size(), buf.data(), 0);
    ASSERT_TRUE(frame.submit(ins.handle()));
    ASSERT_TRUE(frame.submit(rd.handle()));
    ASSERT_TRUE(frame.submit(sc.handle()));
    frame.drain();
    const std::size_t n = sc.result();
    EXPECT_TRUE(ins.result()) << "fresh insert of " << fresh;
    EXPECT_TRUE(rd.result());
    EXPECT_EQ(read, 2 * round);
    oracle[fresh] = fresh * 7;
    // The scan ran concurrently with the two point ops, so its result is
    // some consistent slice: strictly ascending, in-range, and every entry
    // matches a value the key held at some point (all values here are
    // written once, so any returned pair must match the oracle exactly).
    ASSERT_LE(n, buf.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) { EXPECT_LT(buf[i - 1].key, buf[i].key); }
      EXPECT_GE(buf[i].key, round * 8);
      auto it = oracle.find(buf[i].key);
      ASSERT_NE(it, oracle.end()) << "scan returned unknown key " << buf[i].key;
      EXPECT_EQ(buf[i].value, it->second);
    }
  }
  // Quiescent: the stitched scan must now reproduce the oracle exactly.
  for (std::size_t count : kLenEdges) {
    expect_scan_matches(list, oracle, 0, count);
  }
}

// ---------- hybrid structures: oracle slices + telemetry ----------

TEST(HybridSkipListScan, OracleSlicesAndPartitionHops) {
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 8;
  cfg.nmp_height = 4;
  cfg.partitions = 4;
  cfg.partition_width = 64;
  cfg.max_threads = 2;
  hd::HybridSkipList list(cfg);
  std::map<Key, Value> oracle;
  for (Key k = 0; k < 256; k += 2) {
    ASSERT_TRUE(list.insert(k, k + 1, 0));
    oracle[k] = k + 1;
  }
  // Mutate so scans run against post-churn structure: drop a band spanning
  // the p1/p2 edge, add odd keys around it.
  for (Key k = 120; k < 140; k += 2) {
    ASSERT_TRUE(list.remove(k, 0));
    oracle.erase(k);
  }
  for (Key k = 121; k < 139; k += 4) {
    ASSERT_TRUE(list.insert(k, k, 0));
    oracle[k] = k;
  }
  const std::uint64_t hops_before =
      tel::counter(tel::names::kScanPartitionHops).value();
  for (Key start : {Key{0}, Key{63}, Key{64}, Key{119}, Key{128}, Key{139},
                    Key{250}, Key{255}}) {
    for (std::size_t count : kLenEdges) {
      expect_scan_matches(list, oracle, start, count);
    }
  }
  // The full-range scans above crossed all 4 partitions repeatedly.
  if constexpr (tel::kEnabled) {
    EXPECT_GT(tel::counter(tel::names::kScanPartitionHops).value(),
              hops_before);
  }
}

TEST(HybridBTreeScan, OracleSlicesAfterChurn) {
  std::vector<Key> keys;
  std::vector<Value> vals;
  std::map<Key, Value> oracle;
  for (Key k = 0; k < 2048; k += 2) {
    keys.push_back(k);
    vals.push_back(k * 5);
    oracle[k] = k * 5;
  }
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = 2;
  cfg.partitions = 4;
  cfg.max_threads = 2;
  hd::HybridBTree tree(cfg, keys, vals);
  for (Key start : {Key{0}, Key{1}, Key{500}, Key{1023}, Key{1024}, Key{2046},
                    Key{2047}, Key{4000}}) {
    for (std::size_t count : kLenEdges) {
      expect_scan_matches(tree, oracle, start, count);
    }
  }
  // Churn: inserts force leaf splits (and possibly seqnum retries for later
  // scans), removes punch holes scans must skip.
  for (Key k = 1; k < 400; k += 2) {
    ASSERT_TRUE(tree.insert(k, k, 0));
    oracle[k] = k;
  }
  for (Key k = 600; k < 700; k += 2) {
    ASSERT_TRUE(tree.remove(k, 0));
    oracle.erase(k);
  }
  for (Key start : {Key{0}, Key{399}, Key{599}, Key{601}, Key{699}, Key{700}}) {
    for (std::size_t count : kLenEdges) {
      expect_scan_matches(tree, oracle, start, count);
    }
  }
}

// Concurrent writers churn the key space while scanners stitch ranges; every
// scan must return a strictly ascending in-range slice whose (key, value)
// pairs were legal at some point, and must terminate (the retry budget bounds
// stale-begin loops).
TEST(HybridSkipListScan, ScansUnderConcurrentChurn) {
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 8;
  cfg.nmp_height = 4;
  cfg.partitions = 4;
  cfg.partition_width = 64;
  cfg.max_threads = 3;
  hd::HybridSkipList list(cfg);
  for (Key k = 0; k < 256; k += 2) {
    ASSERT_TRUE(list.insert(k, k, 0));
  }
  std::thread writer([&list] {
    // Odd keys flap in and out; even keys (value == key) stay put.
    for (int round = 0; round < 40; ++round) {
      for (Key k = 1; k < 256; k += 8) {
        (void)list.insert(k, k, 1);
      }
      for (Key k = 1; k < 256; k += 8) {
        (void)list.remove(k, 1);
      }
    }
  });
  std::vector<ScanEntry> buf(64);
  for (int round = 0; round < 60; ++round) {
    const Key start = static_cast<Key>((round * 37) % 256);
    const std::size_t n = list.scan(start, buf.size(), buf.data(), 2);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) { EXPECT_LT(buf[i - 1].key, buf[i].key); }
      EXPECT_GE(buf[i].key, start);
      EXPECT_EQ(buf[i].value, buf[i].key);  // every live key's value
    }
  }
  writer.join();
}
