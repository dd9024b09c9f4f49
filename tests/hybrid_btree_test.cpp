// Tests for the hybrid B+ tree (§3.4): construction/push-down, boundary
// synchronization, LOCK_PATH escalation, concurrent workloads, non-blocking
// calls, and the NMP-side partition structure in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/nmp_btree.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/util/rng.hpp"

namespace hd = hybrids::ds;
namespace hh = hybrids::host;
namespace hu = hybrids::util;
using hybrids::Key;
using hybrids::Value;

namespace {

std::vector<Key> even_keys(int n) {
  std::vector<Key> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) keys.push_back(static_cast<Key>(i * 2));
  return keys;
}

std::vector<Value> values_for(const std::vector<Key>& keys) {
  std::vector<Value> vals;
  vals.reserve(keys.size());
  for (Key k : keys) vals.push_back(k + 1);
  return vals;
}

hd::HybridBTree::Config config(int nmp_levels = 2, std::uint32_t partitions = 4,
                               std::uint32_t threads = 4) {
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = nmp_levels;
  cfg.partitions = partitions;
  cfg.max_threads = threads;
  return cfg;
}

}  // namespace

// ---------- NmpBTree in isolation ----------

TEST(NmpBTree, LeafOnlyPartitionInsertReadRemove) {
  hd::NmpBTree bt(0);  // top level == leaf
  hd::NmpBNode* leaf = bt.make_node(0);
  leaf->parent_seqnum = 0;
  // Fill below capacity.
  for (Key k = 1; k <= 10; ++k) {
    auto r = bt.insert(leaf, 0, k * 2, k);
    ASSERT_TRUE(r.ok);
  }
  auto r = bt.read(leaf, 0, 6);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 3u);
  EXPECT_FALSE(bt.read(leaf, 0, 7).ok);
  EXPECT_TRUE(bt.remove(leaf, 0, 6).ok);
  EXPECT_FALSE(bt.read(leaf, 0, 6).ok);
  EXPECT_TRUE(bt.update(leaf, 0, 8, 99).ok);
  EXPECT_EQ(bt.read(leaf, 0, 8).value, 99u);
}

TEST(NmpBTree, BoundaryCheckDetectsStaleAndAdoptsNewer) {
  hd::NmpBTree bt(0);
  hd::NmpBNode* leaf = bt.make_node(0);
  leaf->parent_seqnum = 4;
  // Offloaded seq older than recorded: begin node was split -> retry.
  EXPECT_TRUE(bt.read(leaf, 2, 1).retry);
  // Offloaded seq newer: sibling split; adopt.
  auto r = bt.read(leaf, 6, 1);
  EXPECT_FALSE(r.retry);
  EXPECT_EQ(leaf->parent_seqnum, 6u);
}

TEST(NmpBTree, FullTopLevelEscalatesWithLockPath) {
  hd::NmpBTree bt(0);
  hd::NmpBNode* leaf = bt.make_node(0);
  for (int i = 0; i < hd::kBTreeLeafSlots; ++i) {
    ASSERT_TRUE(bt.insert(leaf, 0, static_cast<Key>(i * 2 + 2), 1).ok);
  }
  // Leaf (== top level) is full: escalation.
  auto r = bt.insert(leaf, 0, 5, 5);
  EXPECT_TRUE(r.lock_path);
  ASSERT_NE(r.handle, nullptr);
  EXPECT_TRUE(leaf->locked);
  // A remove hitting the locked leaf must be told to retry.
  EXPECT_TRUE(bt.remove(leaf, 0, 4).retry);
  // Reads are still allowed on the locked path.
  EXPECT_TRUE(bt.read(leaf, 0, 4).ok);
  // A concurrent insert into the locked path must also retry.
  EXPECT_TRUE(bt.insert(leaf, 0, 7, 7).retry);
  // RESUME completes the split and stamps parent_seqnum.
  auto res = bt.resume_insert(r.handle, 12);
  EXPECT_TRUE(res.ok);
  ASSERT_NE(res.new_top, nullptr);
  EXPECT_FALSE(leaf->locked);
  EXPECT_FALSE(res.new_top->locked);
  EXPECT_EQ(leaf->parent_seqnum, 12u);
  EXPECT_EQ(res.new_top->parent_seqnum, 12u);
  // The divider separates the two leaves.
  EXPECT_LE(leaf->keys[leaf->slotuse - 1], res.up_key);
  EXPECT_GT(res.new_top->keys[0], res.up_key);
  // The new key landed in exactly one of the leaves.
  bool in_left = bt.read(leaf, 12, 5).ok;
  bool in_right = bt.read(res.new_top, 12, 5).ok;
  EXPECT_TRUE(in_left != in_right);
}

TEST(NmpBTree, UnlockPathRollsBack) {
  hd::NmpBTree bt(0);
  hd::NmpBNode* leaf = bt.make_node(0);
  for (int i = 0; i < hd::kBTreeLeafSlots; ++i) {
    ASSERT_TRUE(bt.insert(leaf, 0, static_cast<Key>(i + 1), 1).ok);
  }
  auto r = bt.insert(leaf, 0, 100, 1);
  ASSERT_TRUE(r.lock_path);
  EXPECT_TRUE(bt.unlock_path(r.handle).ok);
  EXPECT_FALSE(leaf->locked);
  // The insert did not happen.
  EXPECT_FALSE(bt.read(leaf, 0, 100).ok);
}

TEST(NmpBTree, FingerBatchesMatchPlainDescent) {
  // Two identical two-level partitions; one served with a per-batch finger
  // (the combiner's key-sorted batch path), one with plain root descents.
  // Results and final contents must match op for op.
  hd::NmpBTree with_finger(1);
  hd::NmpBTree plain(1);
  hd::NmpBNode* roots[2];
  for (int i = 0; i < 2; ++i) {
    hd::NmpBTree& bt = i == 0 ? with_finger : plain;
    roots[i] = bt.make_node(1);
    roots[i]->children[0] = bt.make_node(0);
    roots[i]->slotuse = 0;
  }
  hu::Xoshiro256 rng(13);
  std::uint64_t total_hits = 0;
  for (int pass = 0; pass < 300; ++pass) {
    // Ascending-key batch of mixed ops, as NmpCore would present it.
    std::vector<std::pair<int, Key>> batch;  // (op, key)
    Key k = 0;
    const std::size_t n = 2 + rng.next_below(10);
    for (std::size_t i = 0; i < n; ++i) {
      k += 1 + static_cast<Key>(rng.next_below(40));
      // 80-key universe: leaves stop splitting once their range holds fewer
      // than a leaf's capacity of possible keys, so the root (14 slots)
      // never fills and no batch op ever escalates with LOCK_PATH.
      batch.emplace_back(static_cast<int>(rng.next_below(4)), k % 80 + 1);
    }
    std::sort(batch.begin(), batch.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    hd::NmpBTree::Finger fg;
    for (const auto& [op, key] : batch) {
      const Value val = key * 3 + 1;
      hd::NmpBTree::OpResult ra, rb;
      switch (op) {
        case 0:
          ra = with_finger.read(roots[0], 0, key, &fg);
          rb = plain.read(roots[1], 0, key);
          break;
        case 1:
          ra = with_finger.update(roots[0], 0, key, val, &fg);
          rb = plain.update(roots[1], 0, key, val);
          break;
        case 2:
          ra = with_finger.insert(roots[0], 0, key, val, &fg);
          rb = plain.insert(roots[1], 0, key, val);
          break;
        default:
          ra = with_finger.remove(roots[0], 0, key, &fg);
          rb = plain.remove(roots[1], 0, key);
          break;
      }
      ASSERT_EQ(ra.ok, rb.ok) << "pass " << pass << " op " << op << " key " << key;
      ASSERT_EQ(ra.retry, rb.retry) << "pass " << pass << " key " << key;
      ASSERT_EQ(ra.lock_path, rb.lock_path) << "pass " << pass << " key " << key;
      ASSERT_EQ(ra.value, rb.value) << "pass " << pass << " key " << key;
      // This test keeps the key universe small enough that the partition
      // top never splits; an escalation would diverge the twins.
      ASSERT_FALSE(ra.lock_path);
    }
    total_hits += fg.hits;
    ASSERT_EQ(with_finger.count_keys(roots[0]), plain.count_keys(roots[1]))
        << "pass " << pass;
  }
  EXPECT_GT(total_hits, 0u);
  EXPECT_TRUE(with_finger.validate_subtree(roots[0], 0, ~Key{0}, true));
  EXPECT_TRUE(plain.validate_subtree(roots[1], 0, ~Key{0}, true));
}

// ---------- HybridBTree ----------

TEST(HybridBTree, SplitSizingRule) {
  // 2^21 keys at fill 0.5: leaves ~300k, fanout 7 -> height ~8; a 1MB LLC
  // holds the top ~5-6 levels.
  int nmp = hd::HybridBTree::nmp_levels_for_cache(1ull << 21, 1 << 20, 0.5);
  EXPECT_GE(nmp, 2);
  EXPECT_LE(nmp, 4);
  // Tiny cache: almost everything NMP-managed.
  EXPECT_GE(hd::HybridBTree::nmp_levels_for_cache(1ull << 21, 4096, 0.5), 5);
}

TEST(HybridBTree, BuildAndReadBack) {
  auto keys = even_keys(10000);
  auto vals = values_for(keys);
  hd::HybridBTree tree(config(), keys, vals);
  EXPECT_EQ(tree.size(), keys.size());
  EXPECT_TRUE(tree.validate());
  Value v = 0;
  for (Key k : keys) {
    ASSERT_TRUE(tree.read(k, v, 0)) << k;
    ASSERT_EQ(v, k + 1);
  }
  EXPECT_FALSE(tree.read(1, v, 0));
  EXPECT_FALSE(tree.read(keys.back() + 2, v, 0));
}

TEST(HybridBTree, HostPortionIsSmallSubset) {
  auto keys = even_keys(20000);
  auto vals = values_for(keys);
  hd::HybridBTree tree(config(/*nmp_levels=*/3), keys, vals);
  // Leaves + 2 inner levels pushed down: the host holds far fewer nodes
  // than the ~2900 leaves.
  EXPECT_LT(tree.host_node_count(), 200u);
  EXPECT_TRUE(tree.validate());
}

TEST(HybridBTree, InsertUpdateRemoveRoundTrip) {
  auto keys = even_keys(2000);
  auto vals = values_for(keys);
  hd::HybridBTree tree(config(), keys, vals);
  EXPECT_TRUE(tree.insert(5, 55, 0));
  EXPECT_FALSE(tree.insert(5, 66, 0));
  Value v = 0;
  ASSERT_TRUE(tree.read(5, v, 0));
  EXPECT_EQ(v, 55u);
  EXPECT_TRUE(tree.update(5, 77, 0));
  ASSERT_TRUE(tree.read(5, v, 0));
  EXPECT_EQ(v, 77u);
  EXPECT_TRUE(tree.remove(5, 0));
  EXPECT_FALSE(tree.remove(5, 0));
  EXPECT_FALSE(tree.read(5, v, 0));
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.size(), keys.size());
}

TEST(HybridBTree, SequentialMatchesReferenceModel) {
  auto keys = even_keys(5000);
  auto vals = values_for(keys);
  hd::HybridBTree tree(config(), keys, vals);
  std::map<Key, Value> model;
  for (std::size_t i = 0; i < keys.size(); ++i) model[keys[i]] = vals[i];
  hu::Xoshiro256 rng(23);
  for (int i = 0; i < 30000; ++i) {
    Key k = static_cast<Key>(rng.next_below(12000));
    switch (rng.next_below(4)) {
      case 0: {
        Value v = static_cast<Value>(rng.next());
        ASSERT_EQ(tree.insert(k, v, 0), model.emplace(k, v).second) << "key " << k;
        break;
      }
      case 1:
        ASSERT_EQ(tree.remove(k, 0), model.erase(k) > 0) << "key " << k;
        break;
      case 2: {
        Value v = static_cast<Value>(rng.next());
        bool present = model.count(k) > 0;
        ASSERT_EQ(tree.update(k, v, 0), present) << "key " << k;
        if (present) model[k] = v;
        break;
      }
      default: {
        Value v = 0;
        auto it = model.find(k);
        ASSERT_EQ(tree.read(k, v, 0), it != model.end()) << "key " << k;
        if (it != model.end()) { ASSERT_EQ(v, it->second); }
      }
    }
  }
  EXPECT_EQ(tree.size(), model.size());
  EXPECT_TRUE(tree.validate());
}

TEST(HybridBTree, EscalatedSplitsEndToEnd) {
  // Tail-insert ascending keys force repeated splits that escalate through
  // the partitions' top-level nodes into host-side splits.
  auto keys = even_keys(4000);
  auto vals = values_for(keys);
  hd::HybridBTree tree(config(/*nmp_levels=*/2), keys, vals);
  const Key base = keys.back() + 2;
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(tree.insert(base + static_cast<Key>(i), 1, 0)) << i;
  }
  EXPECT_EQ(tree.size(), 8000u);
  EXPECT_TRUE(tree.validate());
  Value v = 0;
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(tree.read(base + static_cast<Key>(i), v, 0));
  }
}

TEST(HybridBTree, RootGrowthViaEscalations) {
  // Small initial tree + many inserts: the host root itself must split.
  auto keys = even_keys(200);
  auto vals = values_for(keys);
  hd::HybridBTree tree(config(/*nmp_levels=*/1, /*partitions=*/2), keys, vals);
  const int h0 = tree.height();
  for (Key k = 1; k < 8000; k += 2) ASSERT_TRUE(tree.insert(k, k, 0));
  EXPECT_GT(tree.height(), h0);
  EXPECT_EQ(tree.size(), 200u + 4000u);
  EXPECT_TRUE(tree.validate());
}

TEST(HybridBTree, ConcurrentStripedInserts) {
  auto keys = even_keys(2000);
  auto vals = values_for(keys);
  hd::HybridBTree tree(config(), keys, vals);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  const Key base = keys.back() + 2;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(tree.insert(base + static_cast<Key>(i * kThreads + t),
                                static_cast<Value>(t), static_cast<std::uint32_t>(t)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tree.size(), keys.size() + kThreads * kPerThread);
  EXPECT_TRUE(tree.validate());
}

TEST(HybridBTree, ConcurrentMixedWorkload) {
  auto keys = even_keys(4096);
  auto vals = values_for(keys);
  hd::HybridBTree tree(config(), keys, vals);
  std::vector<std::thread> threads;
  std::atomic<long long> net[256] = {};
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      hu::Xoshiro256 rng(3000 + t);
      for (int i = 0; i < 3000; ++i) {
        // Odd keys: absent initially; fight over 256 of them.
        Key k = static_cast<Key>(rng.next_below(256)) * 16 + 1;
        switch (rng.next_below(3)) {
          case 0:
            if (tree.insert(k, k, t)) net[k / 16].fetch_add(1);
            break;
          case 1:
            if (tree.remove(k, t)) net[k / 16].fetch_sub(1);
            break;
          default: {
            Value v = 0;
            (void)tree.read(k, v, t);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(tree.validate());
  Value v = 0;
  for (int i = 0; i < 256; ++i) {
    const long long n = net[i].load();
    ASSERT_TRUE(n == 0 || n == 1);
    EXPECT_EQ(tree.read(static_cast<Key>(i) * 16 + 1, v, 0), n == 1) << i;
  }
  // Initial even keys must all still be present.
  EXPECT_GE(tree.size(), keys.size());
}

TEST(HybridBTree, NonBlockingCoOpsCompleteCorrectly) {
  auto keys = even_keys(3000);
  auto vals = values_for(keys);
  hd::HybridBTree tree(config(), keys, vals);
  // Runs `ops` through one depth-4 Frame, submitting each as a slot frees
  // up: up to four calls in flight on this thread.
  auto pipeline = [](std::vector<hh::CoTask<bool>>& ops) {
    hh::Frame frame(4);
    for (auto& op : ops) {
      while (!frame.submit(op.handle())) frame.step();
    }
    frame.drain();
  };
  // Ascending tail inserts: some escalate through LOCK_PATH, whose blocking
  // host half runs inside the frame.
  const Key base = keys.back() + 2;
  std::vector<hh::CoTask<bool>> ops;
  for (int i = 0; i < 500; ++i) {
    ops.push_back(tree.insert_co(base + static_cast<Key>(i), 1, 0));
  }
  pipeline(ops);
  for (auto& op : ops) EXPECT_TRUE(op.result());
  EXPECT_EQ(tree.size(), keys.size() + 500);
  EXPECT_TRUE(tree.validate());
  // Non-blocking reads see all inserted keys.
  std::vector<Value> values(500, 0);
  ops.clear();
  for (int i = 0; i < 500; ++i) {
    ops.push_back(tree.read_co(base + static_cast<Key>(i), &values[i], 0));
  }
  pipeline(ops);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(ops[i].result());
    EXPECT_EQ(values[i], 1u);
  }
}
