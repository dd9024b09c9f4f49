// Cross-module integration tests: library structures driven by the workload
// generators (the composition the benches and examples rely on), plus
// failure-injection on the NMP runtime.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/nmp/combiner_pool.hpp"
#include "hybrids/nmp/nmp_core.hpp"
#include "hybrids/workload/ycsb.hpp"

namespace hd = hybrids::ds;
namespace hn = hybrids::nmp;
namespace hw = hybrids::workload;
using hybrids::Key;
using hybrids::Value;

TEST(Integration, HybridSkipListUnderYcsbAStream) {
  // YCSB-A (50/50 read/update, zipfian) through the real structure.
  hw::WorkloadSpec spec = hw::ycsb_a(1 << 12, /*partitions=*/4);
  hw::KeyLayout layout(spec.initial_keys, spec.partitions);

  hd::HybridSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.nmp_height = 6;
  cfg.partitions = spec.partitions;
  cfg.partition_width = layout.partition_width();
  cfg.max_threads = 2;
  hd::HybridSkipList list(cfg);
  for (Key k : layout.initial_key_set()) ASSERT_TRUE(list.insert(k, k, 0));

  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> reads{0}, read_hits{0}, updates{0}, update_hits{0};
  for (std::uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      hw::OpStream stream(spec, t);
      for (int i = 0; i < 5000; ++i) {
        hw::Op op = stream.next();
        if (op.type == hw::OpType::kRead) {
          Value v = 0;
          reads.fetch_add(1);
          read_hits.fetch_add(list.read(op.key, v, t) ? 1 : 0);
        } else {
          updates.fetch_add(1);
          update_hits.fetch_add(list.update(op.key, op.value, t) ? 1 : 0);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // The generator only draws loaded keys for reads/updates: all must hit.
  EXPECT_EQ(reads.load(), read_hits.load());
  EXPECT_EQ(updates.load(), update_hits.load());
  EXPECT_TRUE(list.validate());
  EXPECT_EQ(list.size(), spec.initial_keys);
}

TEST(Integration, HybridBTreeUnderSensitivityStream) {
  // The Figure 8 split-heavy 50-25-25 mix against the real hybrid B+ tree.
  hw::WorkloadSpec spec =
      hw::sensitivity(1 << 13, 50, 25, 25, /*split_heavy=*/true, /*parts=*/4);
  hw::KeyLayout layout(spec.initial_keys, spec.partitions);

  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = 2;
  cfg.partitions = spec.partitions;
  cfg.max_threads = 2;
  auto keys = layout.initial_key_set();
  std::vector<Value> vals(keys.begin(), keys.end());
  hd::HybridBTree tree(cfg, keys, vals);

  std::vector<std::thread> threads;
  std::atomic<long long> net{0};
  for (std::uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      hw::OpStream stream(spec, t);
      for (int i = 0; i < 4000; ++i) {
        hw::Op op = stream.next();
        switch (op.type) {
          case hw::OpType::kInsert:
            if (tree.insert(op.key, op.value, t)) net.fetch_add(1);
            break;
          case hw::OpType::kRemove:
            if (tree.remove(op.key, t)) net.fetch_sub(1);
            break;
          default: {
            Value v = 0;
            (void)tree.read(op.key, v, t);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.size(),
            static_cast<std::size_t>(static_cast<long long>(spec.initial_keys) +
                                     net.load()));
}

TEST(Integration, RetryInjectionThroughRuntime) {
  // A handler that demands retries for the first attempts of each request
  // exercises the host-side retry discipline end to end.
  std::map<Key, int> attempts;
  hn::NmpCore core(0, 2, [&attempts](const hn::Request& req, hn::Response& resp) {
    if (++attempts[req.key] % 3 != 0) {
      resp.retry = true;  // fail twice, succeed on the third attempt
      return;
    }
    resp.ok = true;
    resp.value = req.key + 1;
  });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  for (Key k = 1; k <= 20; ++k) {
    hn::Response r;
    do {
      hn::Request req;
      req.op = hn::OpCode::kRead;
      req.key = k;
      core.post(0, req);
      core.wait_done(0);
      r = core.slot(0).take();
    } while (r.retry);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, k + 1);
    EXPECT_EQ(attempts[k], 3);
  }
  pool.stop();
}

TEST(Integration, SkiplistSplitSizingConsistentWithBTreeSizing) {
  // Both sizing helpers must react the same way to cache growth: more cache
  // -> fewer NMP-managed levels (more pinned host levels).
  int prev_sl = 100, prev_bt = 100;
  for (std::size_t llc = 64 * 1024; llc <= 16 * 1024 * 1024; llc *= 4) {
    const int sl = hd::HybridSkipList::nmp_height_for_cache(1ull << 22, llc, 128);
    const int bt = hd::HybridBTree::nmp_levels_for_cache(1ull << 22, llc, 0.5);
    EXPECT_LE(sl, prev_sl);
    EXPECT_LE(bt, prev_bt);
    EXPECT_GE(sl, 1);
    EXPECT_GE(bt, 1);
    prev_sl = sl;
    prev_bt = bt;
  }
}
