// Tests for the adaptive-promotion extension (§7 future work): hot NMP-only
// keys are raised into the host-managed portion — and for the SplitController
// that drives the cache value/shortcut ratio and the promote budget online
// (ext_adaptive_skew's closed loop).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>

#include "hybrids/cache/controller.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/seq_skiplist.hpp"
#include "hybrids/util/rng.hpp"

namespace hd = hybrids::ds;
namespace hu = hybrids::util;
using hybrids::Key;
using hybrids::Value;

namespace {
hd::HybridSkipList::Config adaptive_config(std::uint32_t threshold,
                                           std::uint32_t budget) {
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.nmp_height = 6;
  cfg.partitions = 4;
  cfg.partition_width = 1 << 16;
  cfg.max_threads = 4;
  cfg.promote_threshold = threshold;
  cfg.promote_budget = budget;
  return cfg;
}
}  // namespace

TEST(SeqSkipListPromote, ReplacesShortNodeWithFullHeight) {
  hd::SeqSkipList list(6);
  for (Key k = 1; k <= 50; ++k) {
    (void)list.insert(k, k * 10, /*height=*/1, nullptr, list.head());
  }
  hd::SeqSkipList::Node* old_node = list.read(25, list.head());
  ASSERT_NE(old_node, nullptr);
  ASSERT_EQ(old_node->height, 1);
  // promote() recycles the short node it replaces, so read its version now
  // and never dereference old_node afterwards.
  const std::uint32_t old_version = old_node->version;
  int marker = 0;
  hd::SeqSkipList::Node* nn = list.promote(25, &marker);
  ASSERT_NE(nn, nullptr);
  EXPECT_EQ(nn->height, 6);
  EXPECT_EQ(nn->value, 250u);
  EXPECT_EQ(nn->host_ptr, &marker);
  EXPECT_GT(nn->version, old_version);
  // Structure remains a valid skiplist (validate() also rejects any
  // reachable marked node) and the key is reachable through the new node.
  EXPECT_TRUE(list.validate());
  EXPECT_EQ(list.read(25, list.head()), nn);
  EXPECT_EQ(list.size(), 50u);
  // Promoting again (already full height) is a no-op failure.
  EXPECT_EQ(list.promote(25, nullptr), nullptr);
  // Promoting an absent key fails.
  EXPECT_EQ(list.promote(1000, nullptr), nullptr);
}

TEST(AdaptiveHybridSkipList, HotKeyGetsPromoted) {
  hd::HybridSkipList list(adaptive_config(/*threshold=*/5, /*budget=*/16));
  // A key that lands NMP-only with overwhelming probability is hard to force
  // (heights are random), so insert many and hammer one of them.
  for (Key k = 1; k <= 200; ++k) ASSERT_TRUE(list.insert(k * 3, k, 0));
  const std::size_t host_before = list.host_size();
  Value v = 0;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(list.read(33, v, 0));
  // 33 = 11*3 was inserted; after >= threshold reads it must be promoted
  // (unless its tower already reached the host, in which case nothing fires).
  EXPECT_TRUE(list.validate());
  EXPECT_GE(list.host_size(), host_before);
  // Reads still return the correct value after promotion.
  ASSERT_TRUE(list.read(33, v, 0));
  EXPECT_EQ(v, 11u);
}

TEST(AdaptiveHybridSkipList, PromotionPreservesSemanticsUnderChurn) {
  hd::HybridSkipList list(adaptive_config(3, 64));
  std::map<Key, Value> model;
  hu::Xoshiro256 rng(77);
  for (int i = 0; i < 20000; ++i) {
    Key k = static_cast<Key>(rng.next_below(300)) * 7;
    switch (rng.next_below(4)) {
      case 0: {
        Value v = static_cast<Value>(rng.next());
        ASSERT_EQ(list.insert(k, v, 0), model.emplace(k, v).second);
        break;
      }
      case 1:
        ASSERT_EQ(list.remove(k, 0), model.erase(k) > 0);
        break;
      case 2: {
        Value v = static_cast<Value>(rng.next());
        bool present = model.count(k) > 0;
        ASSERT_EQ(list.update(k, v, 0), present);
        if (present) model[k] = v;
        break;
      }
      default: {
        Value v = 0;
        auto it = model.find(k);
        ASSERT_EQ(list.read(k, v, 0), it != model.end()) << k;
        if (it != model.end()) { ASSERT_EQ(v, it->second); }
      }
    }
  }
  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(list.validate());
  EXPECT_GT(list.promoted(), 0u);  // hot keys exist in a 300-key space
}

TEST(AdaptiveHybridSkipList, BudgetBoundsPromotions) {
  hd::HybridSkipList list(adaptive_config(2, 4));
  for (Key k = 1; k <= 400; ++k) ASSERT_TRUE(list.insert(k, k, 0));
  Value v = 0;
  for (Key k = 1; k <= 400; ++k) {
    for (int i = 0; i < 5; ++i) (void)list.read(k, v, 0);
  }
  EXPECT_LE(list.promoted(), 4u);
  EXPECT_TRUE(list.validate());
}

TEST(AdaptiveHybridSkipList, ConcurrentReadersPromoteSafely) {
  hd::HybridSkipList list(adaptive_config(4, 128));
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(list.insert(k * 2, k, 0));
  std::vector<std::thread> threads;
  std::atomic<bool> error{false};
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      hu::Xoshiro256 rng(t);
      Value v = 0;
      for (int i = 0; i < 4000; ++i) {
        Key k = static_cast<Key>(1 + rng.next_below(50)) * 2;  // hot range
        if (!list.read(k, v, t) || v != k / 2) error.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(error.load());
  EXPECT_TRUE(list.validate());
  EXPECT_GT(list.promoted(), 0u);
}

TEST(AdaptiveHybridSkipList, DisabledByDefault) {
  hd::HybridSkipList list(adaptive_config(0, 0));
  for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(list.insert(k, k, 0));
  Value v = 0;
  for (int i = 0; i < 100; ++i) (void)list.read(10, v, 0);
  EXPECT_EQ(list.promoted(), 0u);
}

// ---------------------------------------------------------------------------
// SplitController: the closed-loop knob driver for the hot-key cache split
// and the host-managed split. Pure logic over synthetic samples, so skew
// shifts and noisy windows are driven exactly.
// ---------------------------------------------------------------------------

namespace hcc = hybrids::cache;

namespace {

/// A window where the value tier clearly earns more benefit per byte.
hcc::SplitController::Sample value_favoring() {
  hcc::SplitController::Sample s;
  s.value_hits = 1000;
  s.shortcut_hits = 100;
  s.misses = 200;
  s.value_save_ns = 900;
  s.shortcut_save_ns = 300;
  s.queue_wait_share = 0.4;  // inside the promote band: promote knob holds
  return s;
}

/// The mirror image: shortcuts dominate.
hcc::SplitController::Sample shortcut_favoring() {
  hcc::SplitController::Sample s;
  s.value_hits = 100;
  s.shortcut_hits = 1000;
  s.misses = 200;
  s.value_save_ns = 300;
  s.shortcut_save_ns = 900;
  s.queue_wait_share = 0.4;
  return s;
}

}  // namespace

TEST(SplitController, RatioConvergesUnderSustainedSkewShift) {
  hcc::SplitController::Config cfg;
  cfg.ratio = 0.5;
  cfg.hysteresis = 3;
  hcc::SplitController ctl(cfg);

  // Phase 1: value-dominated traffic. The ratio climbs toward ratio_max and
  // clamps there — never past it.
  for (int w = 0; w < 60; ++w) (void)ctl.observe(value_favoring());
  EXPECT_DOUBLE_EQ(ctl.value_ratio(), cfg.ratio_max)
      << "sustained value skew did not converge to the clamp";

  // Phase 2: the workload shifts — shortcuts now dominate. The controller
  // tracks the shift down to ratio_min.
  for (int w = 0; w < 120; ++w) (void)ctl.observe(shortcut_favoring());
  EXPECT_DOUBLE_EQ(ctl.value_ratio(), cfg.ratio_min)
      << "controller failed to track the skew shift";
}

TEST(SplitController, SingleNoisyWindowNeverMovesAKnob) {
  hcc::SplitController::Config cfg;
  cfg.hysteresis = 3;
  hcc::SplitController ctl(cfg);
  const double r0 = ctl.value_ratio();
  const std::uint32_t p0 = ctl.promote_budget();

  // Alternating directions: the streak resets every window, so hysteresis
  // never fires no matter how many windows flow.
  for (int w = 0; w < 100; ++w) {
    (void)ctl.observe((w & 1) ? value_favoring() : shortcut_favoring());
  }
  EXPECT_DOUBLE_EQ(ctl.value_ratio(), r0) << "flapping input moved the ratio";
  EXPECT_EQ(ctl.promote_budget(), p0);
  EXPECT_EQ(ctl.ratio_moves(), 0u);

  // Two agreeing windows (one short of hysteresis) then a hold: no move.
  // (The hold first clears the +1 streak the alternating phase left behind.)
  hcc::SplitController::Sample hold;  // zero traffic → direction 0
  (void)ctl.observe(hold);
  (void)ctl.observe(value_favoring());
  (void)ctl.observe(value_favoring());
  (void)ctl.observe(hold);
  (void)ctl.observe(value_favoring());
  (void)ctl.observe(value_favoring());
  EXPECT_EQ(ctl.ratio_moves(), 0u)
      << "a hold window failed to reset the streak";
}

TEST(SplitController, NeverOscillatesPastHysteresisBound) {
  // Worst-case adversarial input: always pulls against the last move. The
  // anti-flap bound says a knob moves at most once per `hysteresis`
  // consecutive agreeing windows, so N windows allow at most N/hysteresis
  // moves, and the excursion between direction changes is one step.
  hcc::SplitController::Config cfg;
  cfg.hysteresis = 4;
  hcc::SplitController ctl(cfg);
  constexpr int kWindows = 400;
  double prev = ctl.value_ratio();
  double max_excursion = 0;
  for (int w = 0; w < kWindows; ++w) {
    // Blocks of `hysteresis` agreeing windows with alternating direction:
    // the fastest legal flip-flop schedule.
    const bool up = (w / cfg.hysteresis) % 2 == 0;
    (void)ctl.observe(up ? value_favoring() : shortcut_favoring());
    max_excursion = std::max(max_excursion, std::abs(ctl.value_ratio() - prev));
    prev = ctl.value_ratio();
  }
  EXPECT_LE(ctl.ratio_moves(),
            static_cast<std::uint64_t>(kWindows / cfg.hysteresis))
      << "more moves than one per hysteresis period";
  EXPECT_LE(max_excursion, ctl.ratio_step() + 1e-12)
      << "a single window moved the ratio more than one step";
  // And the position stayed inside the clamp throughout (spot check end).
  EXPECT_GE(ctl.value_ratio(), cfg.ratio_min);
  EXPECT_LE(ctl.value_ratio(), cfg.ratio_max);
}

TEST(SplitController, PromoteBudgetFollowsQueueWaitShare) {
  hcc::SplitController::Config cfg;
  cfg.hysteresis = 2;
  cfg.promote_budget = 64;
  cfg.promote_step = 16;
  cfg.promote_max = 128;
  hcc::SplitController ctl(cfg);

  hcc::SplitController::Sample s = value_favoring();
  s.queue_wait_share = 0.9;  // queue-bound: NMP side is the bottleneck
  for (int w = 0; w < 20; ++w) (void)ctl.observe(s);
  EXPECT_EQ(ctl.promote_budget(), cfg.promote_max)
      << "queue-bound windows did not raise the promote budget to the clamp";

  s.queue_wait_share = 0.05;  // idle queues: host levels are pure overhead
  for (int w = 0; w < 40; ++w) (void)ctl.observe(s);
  EXPECT_EQ(ctl.promote_budget(), cfg.promote_min)
      << "idle-queue windows did not lower the promote budget";

  // Inside the [queue_low, queue_high] band the knob holds (the band is
  // itself hysteresis).
  const std::uint64_t moves = ctl.promote_moves();
  s.queue_wait_share = 0.4;
  for (int w = 0; w < 20; ++w) (void)ctl.observe(s);
  EXPECT_EQ(ctl.promote_moves(), moves) << "in-band windows moved the knob";
}
