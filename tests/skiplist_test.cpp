// Tests for the skiplist family: sequential partition skiplist, lock-free
// skiplist (baseline), NMP-based flat-combining skiplist (prior work), and
// the hybrid skiplist (paper §3.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/lockfree_skiplist.hpp"
#include "hybrids/ds/nmp_skiplist.hpp"
#include "hybrids/ds/seq_skiplist.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/util/rng.hpp"

namespace hd = hybrids::ds;
namespace hh = hybrids::host;
namespace hu = hybrids::util;
using hybrids::Key;
using hybrids::Value;

// ---------- SeqSkipList ----------

TEST(SeqSkipList, InsertReadRemove) {
  hd::SeqSkipList list(4);
  hu::Xoshiro256 rng(1);
  for (Key k = 10; k <= 100; k += 10) {
    auto [node, existed] = list.insert(k, k * 2, hd::random_height(rng, 4), nullptr, list.head());
    EXPECT_FALSE(existed);
    EXPECT_EQ(node->key, k);
  }
  EXPECT_EQ(list.size(), 10u);
  EXPECT_TRUE(list.validate());
  for (Key k = 10; k <= 100; k += 10) {
    hd::SeqSkipList::Node* n = list.read(k, list.head());
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->value, k * 2);
  }
  EXPECT_EQ(list.read(15, list.head()), nullptr);
  EXPECT_TRUE(list.remove(50, list.head()));
  EXPECT_FALSE(list.remove(50, list.head()));
  EXPECT_EQ(list.read(50, list.head()), nullptr);
  EXPECT_EQ(list.size(), 9u);
  EXPECT_TRUE(list.validate());
}

TEST(SeqSkipList, DuplicateInsertFails) {
  hd::SeqSkipList list(4);
  auto r1 = list.insert(7, 1, 2, nullptr, list.head());
  EXPECT_FALSE(r1.existed);
  auto r2 = list.insert(7, 9, 3, nullptr, list.head());
  EXPECT_TRUE(r2.existed);
  EXPECT_EQ(r2.node, r1.node);
  EXPECT_EQ(list.read(7, list.head())->value, 1u);
}

TEST(SeqSkipList, RemovedNodeIsStaleButInspectable) {
  hd::SeqSkipList list(4);
  auto [node, existed] = list.insert(5, 50, 4, nullptr, list.head());
  ASSERT_FALSE(existed);
  EXPECT_FALSE(hd::SeqSkipList::is_stale(node));
  EXPECT_TRUE(list.remove(5, list.head()));
  // The paper's stale-begin detection: memory is retained, mark visible.
  EXPECT_TRUE(hd::SeqSkipList::is_stale(node));
}

TEST(SeqSkipList, BeginNodeTraversalFindsSuffix) {
  hd::SeqSkipList list(3);
  hd::SeqSkipList::Node* begin = nullptr;
  for (Key k = 1; k <= 50; ++k) {
    auto [node, existed] = list.insert(k, k, 3, nullptr, list.head());
    if (k == 25) begin = node;  // full-height node usable as begin
  }
  ASSERT_NE(begin, nullptr);
  // Traversal from the shortcut must find all keys strictly beyond the begin
  // node (the hybrid protocol always supplies a strict predecessor).
  for (Key k = 26; k <= 50; ++k) {
    EXPECT_NE(list.read(k, begin), nullptr) << k;
  }
  EXPECT_EQ(list.read(26, begin)->value, 26u);
}

TEST(SeqSkipList, MatchesReferenceModel) {
  hd::SeqSkipList list(8);
  std::map<Key, Value> model;
  hu::Xoshiro256 rng(42);
  for (int i = 0; i < 20000; ++i) {
    Key k = static_cast<Key>(rng.next_below(2000));
    switch (rng.next_below(3)) {
      case 0: {
        Value v = static_cast<Value>(rng.next());
        bool inserted = !list.insert(k, v, hd::random_height(rng, 8), nullptr, list.head()).existed;
        EXPECT_EQ(inserted, model.emplace(k, v).second);
        break;
      }
      case 1:
        EXPECT_EQ(list.remove(k, list.head()), model.erase(k) > 0);
        break;
      default: {
        hd::SeqSkipList::Node* n = list.read(k, list.head());
        auto it = model.find(k);
        ASSERT_EQ(n != nullptr, it != model.end());
        if (n != nullptr) { EXPECT_EQ(n->value, it->second); }
      }
    }
  }
  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(list.validate());
}

TEST(SeqSkipList, FingerFindMatchesPlainFind) {
  // find_finger must return exactly what find returns — same found node and
  // the same preds/succs arrays — across ascending-key sequences, which is
  // the access pattern the combiner's key-sorted batches produce.
  constexpr int kHeight = 8;
  hd::SeqSkipList list(kHeight);
  hu::Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    const Key k = static_cast<Key>(rng.next_below(5000));
    list.insert(k, k, hd::random_height(rng, kHeight), nullptr, list.head());
  }
  for (int round = 0; round < 200; ++round) {
    hd::SeqSkipList::Finger fg;
    // Ascending probe sequence with repeats (equal keys stay legal).
    std::vector<Key> probes;
    Key k = 0;
    for (int i = 0; i < 32; ++i) {
      k += static_cast<Key>(rng.next_below(300));
      probes.push_back(k);
      if (rng.next_below(4) == 0) probes.push_back(k);
    }
    for (Key probe : probes) {
      hd::SeqSkipList::Node* preds[hd::SeqSkipList::kMaxLevels];
      hd::SeqSkipList::Node* succs[hd::SeqSkipList::kMaxLevels];
      hd::SeqSkipList::Node* fpreds[hd::SeqSkipList::kMaxLevels];
      hd::SeqSkipList::Node* fsuccs[hd::SeqSkipList::kMaxLevels];
      hd::SeqSkipList::Node* plain = list.find(probe, list.head(), preds, succs);
      hd::SeqSkipList::Node* fingered =
          list.find_finger(probe, list.head(), fpreds, fsuccs, fg);
      ASSERT_EQ(fingered, plain) << "key " << probe;
      for (int lvl = 0; lvl < kHeight; ++lvl) {
        ASSERT_EQ(fpreds[lvl], preds[lvl]) << "pred lvl " << lvl << " key " << probe;
        ASSERT_EQ(fsuccs[lvl], succs[lvl]) << "succ lvl " << lvl << " key " << probe;
      }
    }
    EXPECT_GT(fg.hits, 0u);  // long ascending runs must actually reuse it
  }
}

TEST(NmpSkipList, BatchApplyMatchesSequentialApply) {
  // The combiner's batch path (apply_batch: ascending order + finger) must
  // produce exactly the responses and final structure of the one-at-a-time
  // handler applied in the same order. Mixed ops, duplicate keys included.
  constexpr int kHeight = 8;
  hd::SeqSkipList batched(kHeight);
  hd::SeqSkipList sequential(kHeight);
  hu::Xoshiro256 rng(11);
  for (int pass = 0; pass < 400; ++pass) {
    const std::size_t n = 2 + rng.next_below(15);
    std::vector<hybrids::nmp::Request> reqs(n);
    std::vector<hybrids::nmp::Response> resp_a(n), resp_b(n);
    for (std::size_t i = 0; i < n; ++i) {
      reqs[i].op = static_cast<hybrids::nmp::OpCode>(rng.next_below(4));
      reqs[i].key = static_cast<Key>(rng.next_below(3000));
      reqs[i].value = static_cast<Value>(rng.next());
      reqs[i].aux = 1 + rng.next_below(kHeight);  // insert tower height
    }
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return reqs[a].key < reqs[b].key;
    });
    std::vector<hybrids::nmp::BatchOp> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
      ops[i] = {&reqs[idx[i]], &resp_a[idx[i]]};
    }
    hd::NmpSkipList::apply_batch(batched, ops.data(), n, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      hd::NmpSkipList::apply(sequential, reqs[idx[i]], resp_b[idx[i]]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(resp_a[i].ok, resp_b[i].ok) << "pass " << pass << " op " << i;
      ASSERT_EQ(resp_a[i].value, resp_b[i].value) << "pass " << pass << " op " << i;
    }
    ASSERT_EQ(batched.size(), sequential.size()) << "pass " << pass;
  }
  EXPECT_TRUE(batched.validate());
  EXPECT_TRUE(sequential.validate());
  // Identical level-0 contents.
  const hd::SeqSkipList::Node* a = batched.head()->next[0];
  const hd::SeqSkipList::Node* b = sequential.head()->next[0];
  while (a != nullptr && b != nullptr) {
    ASSERT_EQ(a->key, b->key);
    ASSERT_EQ(a->value, b->value);
    a = a->next[0];
    b = b->next[0];
  }
  EXPECT_EQ(a, nullptr);
  EXPECT_EQ(b, nullptr);
}

// ---------- LfSkipList ----------

TEST(LfSkipList, SequentialMatchesReferenceModel) {
  hd::LfSkipList list(12);
  std::map<Key, Value> model;
  hu::Xoshiro256 rng(7);
  for (int i = 0; i < 30000; ++i) {
    Key k = static_cast<Key>(1 + rng.next_below(3000));
    switch (rng.next_below(4)) {
      case 0: {
        Value v = static_cast<Value>(rng.next());
        int h = hd::random_height(rng, 12);
        EXPECT_EQ(list.insert(k, v, h), model.emplace(k, v).second);
        break;
      }
      case 1:
        EXPECT_EQ(list.remove(k), model.erase(k) > 0);
        break;
      case 2: {
        Value v = static_cast<Value>(rng.next());
        bool present = model.count(k) > 0;
        EXPECT_EQ(list.update(k, v), present);
        if (present) model[k] = v;
        break;
      }
      default: {
        Value v = 0;
        auto it = model.find(k);
        ASSERT_EQ(list.get(k, v), it != model.end());
        if (it != model.end()) { EXPECT_EQ(v, it->second); }
      }
    }
  }
  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(list.validate());
}

TEST(LfSkipList, ConcurrentStripedInsertsAllLand) {
  hd::LfSkipList list(16);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      hu::Xoshiro256 rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        Key k = static_cast<Key>(1 + i * kThreads + t);  // disjoint stripes
        ASSERT_TRUE(list.insert(k, k, hd::random_height(rng, 16)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(list.size(), std::size_t{kThreads} * kPerThread);
  EXPECT_TRUE(list.validate());
  Value v = 0;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_TRUE(list.get(static_cast<Key>(1 + i), v));
  }
}

TEST(LfSkipList, ConcurrentInsertRemoveContention) {
  // All threads fight over the same small key range; afterwards the list
  // must equal the set of keys whose net effect was an insert.
  hd::LfSkipList list(12);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<long long> net[64] = {};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      hu::Xoshiro256 rng(500 + t);
      for (int i = 0; i < 5000; ++i) {
        Key k = static_cast<Key>(1 + rng.next_below(64));
        if (rng.next() & 1) {
          if (list.insert(k, k, hd::random_height(rng, 12))) net[k - 1].fetch_add(1);
        } else {
          if (list.remove(k)) net[k - 1].fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(list.validate());
  for (Key k = 1; k <= 64; ++k) {
    const long long n = net[k - 1].load();
    ASSERT_TRUE(n == 0 || n == 1) << "net effect must be 0 or 1";
    EXPECT_EQ(list.contains(k), n == 1) << "key " << k;
  }
}

TEST(LfSkipList, VersionedUpdateKeepsNewestValue) {
  hd::LfSkipList list(4);
  ASSERT_TRUE(list.insert(1, 10, 2));
  hd::LfSkipList::Node* n = list.get_node(1);
  ASSERT_NE(n, nullptr);
  hd::LfSkipList::update_versioned(n, 2, 222);
  hd::LfSkipList::update_versioned(n, 1, 111);  // stale version: ignored
  EXPECT_EQ(n->value_now(), 222u);
  hd::LfSkipList::update_versioned(n, 3, 333);
  EXPECT_EQ(n->value_now(), 333u);
}

// ---------- NmpSkipList ----------

namespace {
hd::NmpSkipList::Config nmp_config(std::uint32_t threads = 4) {
  hd::NmpSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.partitions = 4;
  cfg.partition_width = 1 << 16;
  cfg.max_threads = threads;
  return cfg;
}

// Runs `ops` through one Frame of `depth` on this thread, submitting each as
// a slot frees up: the §3.5 pipeline of up to `depth` calls in flight.
void pipeline(std::vector<hh::CoTask<bool>>& ops, std::uint32_t depth) {
  hh::Frame frame(depth);
  for (auto& op : ops) {
    while (!frame.submit(op.handle())) frame.step();
  }
  frame.drain();
}
}  // namespace

TEST(NmpSkipList, BasicOps) {
  hd::NmpSkipList list(nmp_config());
  EXPECT_TRUE(list.insert(100, 1, 0));
  EXPECT_FALSE(list.insert(100, 2, 0));
  Value v = 0;
  EXPECT_TRUE(list.read(100, v, 0));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(list.update(100, 9, 0));
  EXPECT_TRUE(list.read(100, v, 0));
  EXPECT_EQ(v, 9u);
  EXPECT_TRUE(list.remove(100, 0));
  EXPECT_FALSE(list.read(100, v, 0));
  EXPECT_TRUE(list.validate());
}

TEST(NmpSkipList, KeysLandInCorrectPartitions) {
  hd::NmpSkipList list(nmp_config());
  // One key per partition range.
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(list.insert(p * (1u << 16) + 5, p, 0));
  }
  EXPECT_EQ(list.size(), 4u);
  Value v = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(list.read(p * (1u << 16) + 5, v, 0));
    EXPECT_EQ(v, p);
  }
}

TEST(NmpSkipList, ConcurrentMixedWorkload) {
  hd::NmpSkipList list(nmp_config(4));
  std::vector<std::thread> threads;
  std::atomic<long long> net[128] = {};
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      hu::Xoshiro256 rng(t);
      for (int i = 0; i < 2000; ++i) {
        Key k = static_cast<Key>(rng.next_below(128)) * 1024;
        if (rng.next() & 1) {
          if (list.insert(k, k, t)) net[k / 1024].fetch_add(1);
        } else {
          if (list.remove(k, t)) net[k / 1024].fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(list.validate());
  Value v = 0;
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(list.read(static_cast<Key>(i) * 1024, v, 0), net[i].load() == 1);
  }
}

TEST(NmpSkipList, AsyncPipeline) {
  hd::NmpSkipList list(nmp_config());
  std::vector<hh::CoTask<bool>> ops;
  for (Key k = 0; k < 64; ++k) ops.push_back(list.insert_co(k * 7, k, 0));
  pipeline(ops, 4);
  for (auto& op : ops) EXPECT_TRUE(op.result());
  EXPECT_EQ(list.size(), 64u);
}

// ---------- HybridSkipList ----------

namespace {
hd::HybridSkipList::Config hybrid_config(std::uint32_t threads = 4) {
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.nmp_height = 6;
  cfg.partitions = 4;
  cfg.partition_width = 1 << 16;
  cfg.max_threads = threads;
  return cfg;
}
}  // namespace

TEST(HybridSkipList, SplitSizingRule) {
  // 2^20 keys, 1MB LLC, 128B nodes: host holds levels with 2^x * 128 <= 1MB
  // -> x = 13 host levels, 20 - 13 = 7 NMP levels.
  EXPECT_EQ(hd::HybridSkipList::nmp_height_for_cache(1ull << 20, 1 << 20, 128), 7);
  // Tiny cache: nearly everything NMP-managed, at least 1 host level.
  EXPECT_GE(hd::HybridSkipList::nmp_height_for_cache(1ull << 20, 256, 128), 18);
}

TEST(HybridSkipList, BasicOps) {
  hd::HybridSkipList list(hybrid_config());
  EXPECT_TRUE(list.insert(1000, 1, 0));
  EXPECT_FALSE(list.insert(1000, 2, 0));
  Value v = 0;
  EXPECT_TRUE(list.read(1000, v, 0));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(list.update(1000, 5, 0));
  EXPECT_TRUE(list.read(1000, v, 0));
  EXPECT_EQ(v, 5u);
  EXPECT_FALSE(list.read(999, v, 0));
  EXPECT_TRUE(list.remove(1000, 0));
  EXPECT_FALSE(list.remove(1000, 0));
  EXPECT_FALSE(list.read(1000, v, 0));
  EXPECT_TRUE(list.validate());
}

TEST(HybridSkipList, ManyKeysAcrossPartitionsWithTallAndShortNodes) {
  hd::HybridSkipList list(hybrid_config());
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(list.insert(static_cast<Key>(i * 37), static_cast<Value>(i), 0));
  }
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kN));
  // With 6 host levels over 5000 keys, a meaningful host subset must exist.
  EXPECT_GT(list.host_size(), 0u);
  EXPECT_LT(list.host_size(), static_cast<std::size_t>(kN));
  EXPECT_TRUE(list.validate());
  Value v = 0;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(list.read(static_cast<Key>(i * 37), v, 0)) << i;
    ASSERT_EQ(v, static_cast<Value>(i));
  }
}

TEST(HybridSkipList, SequentialMatchesReferenceModel) {
  hd::HybridSkipList list(hybrid_config());
  std::map<Key, Value> model;
  hu::Xoshiro256 rng(11);
  for (int i = 0; i < 20000; ++i) {
    Key k = static_cast<Key>(rng.next_below(4000) * 19);
    switch (rng.next_below(4)) {
      case 0: {
        Value v = static_cast<Value>(rng.next());
        EXPECT_EQ(list.insert(k, v, 0), model.emplace(k, v).second);
        break;
      }
      case 1:
        EXPECT_EQ(list.remove(k, 0), model.erase(k) > 0);
        break;
      case 2: {
        Value v = static_cast<Value>(rng.next());
        bool present = model.count(k) > 0;
        EXPECT_EQ(list.update(k, v, 0), present);
        if (present) model[k] = v;
        break;
      }
      default: {
        Value v = 0;
        auto it = model.find(k);
        ASSERT_EQ(list.read(k, v, 0), it != model.end()) << "key " << k;
        if (it != model.end()) { ASSERT_EQ(v, it->second); }
      }
    }
  }
  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(list.validate());
}

TEST(HybridSkipList, ConcurrentMixedWorkload) {
  hd::HybridSkipList list(hybrid_config(4));
  std::vector<std::thread> threads;
  std::atomic<long long> net[256] = {};
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      hu::Xoshiro256 rng(900 + t);
      for (int i = 0; i < 4000; ++i) {
        Key k = static_cast<Key>(rng.next_below(256)) * 769;
        switch (rng.next_below(3)) {
          case 0:
            if (list.insert(k, k, t)) net[k / 769].fetch_add(1);
            break;
          case 1:
            if (list.remove(k, t)) net[k / 769].fetch_sub(1);
            break;
          default: {
            Value v = 0;
            (void)list.read(k, v, t);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(list.validate());
  Value v = 0;
  for (int i = 0; i < 256; ++i) {
    const long long n = net[i].load();
    ASSERT_TRUE(n == 0 || n == 1);
    EXPECT_EQ(list.read(static_cast<Key>(i) * 769, v, 0), n == 1) << i;
  }
}

TEST(HybridSkipList, NonBlockingCoOpsCompleteCorrectly) {
  hd::HybridSkipList list(hybrid_config());
  // Insert a batch with up to four operations in flight.
  std::vector<hh::CoTask<bool>> ops;
  for (Key k = 1; k <= 200; ++k) ops.push_back(list.insert_co(k * 11, k, 0));
  pipeline(ops, 4);
  for (auto& op : ops) EXPECT_TRUE(op.result());
  EXPECT_EQ(list.size(), 200u);
  EXPECT_TRUE(list.validate());

  // Non-blocking reads return the inserted values.
  std::vector<Value> values(200, 0);
  ops.clear();
  for (Key k = 1; k <= 200; ++k) {
    ops.push_back(list.read_co(k * 11, &values[k - 1], 0));
  }
  pipeline(ops, 4);
  for (Key k = 1; k <= 200; ++k) {
    EXPECT_TRUE(ops[k - 1].result());
    EXPECT_EQ(values[k - 1], k);
  }
  // Non-blocking removes drain the structure.
  ops.clear();
  for (Key k = 1; k <= 200; ++k) ops.push_back(list.remove_co(k * 11, 0));
  pipeline(ops, 4);
  for (auto& op : ops) EXPECT_TRUE(op.result());
  EXPECT_EQ(list.size(), 0u);
}

TEST(HybridSkipList, UpdateRefreshesHostMirror) {
  // Insert until at least one tall node exists, then update all keys and
  // confirm reads (which may be served from the host mirror) see new values.
  hd::HybridSkipList list(hybrid_config());
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(list.insert(k * 3, 1, 0));
  ASSERT_GT(list.host_size(), 0u);
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(list.update(k * 3, 2, 0));
  Value v = 0;
  for (Key k = 1; k <= 500; ++k) {
    ASSERT_TRUE(list.read(k * 3, v, 0));
    ASSERT_EQ(v, 2u) << "host mirror must reflect updates (key " << k * 3 << ")";
  }
}
