// Tests for the software NMP runtime: publication-list handshake, combiner
// serialization, the combiner pool, partition routing, blocking and
// non-blocking calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "hybrids/nmp/combiner_pool.hpp"
#include "hybrids/nmp/fault.hpp"
#include "hybrids/nmp/nmp_core.hpp"
#include "hybrids/nmp/partition_set.hpp"
#include "hybrids/telemetry/registry.hpp"

namespace hn = hybrids::nmp;
namespace ht = hybrids::telemetry;

TEST(PubSlot, HandshakeRoundTrip) {
  hn::PubSlot slot;
  EXPECT_FALSE(slot.done());
  hn::Request r;
  r.op = hn::OpCode::kRead;
  r.key = 42;
  slot.post(r);
  EXPECT_EQ(slot.status.load(), hn::PubSlot::kPending);
  slot.resp.ok = true;
  slot.resp.value = 7;
  slot.status.store(hn::PubSlot::kDone);
  EXPECT_TRUE(slot.done());
  hn::Response resp = slot.take();
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.value, 7u);
  EXPECT_EQ(slot.status.load(), hn::PubSlot::kEmpty);
}

TEST(NmpCore, ServesSingleRequest) {
  hn::NmpCore core(0, 4, [](const hn::Request& req, hn::Response& resp) {
    resp.ok = true;
    resp.value = req.key * 2;
  });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  hn::Request r;
  r.op = hn::OpCode::kNop;
  r.key = 21;
  core.post(0, r);
  core.wait_done(0);
  hn::Response resp = core.slot(0).take();
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.value, 42u);
  pool.stop();
  EXPECT_EQ(core.served(), 1u);
}

TEST(NmpCore, HandlerRunsSingleThreaded) {
  // The combiner must never run the handler concurrently with itself.
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  hn::NmpCore core(0, 16, [&](const hn::Request&, hn::Response& resp) {
    if (inside.fetch_add(1) != 0) overlapped.store(true);
    inside.fetch_sub(1);
    resp.ok = true;
  });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        hn::Request r;
        r.op = hn::OpCode::kNop;
        r.key = static_cast<hn::Key>(i);
        core.post(static_cast<std::uint32_t>(t), r);
        core.wait_done(static_cast<std::uint32_t>(t));
        (void)core.slot(static_cast<std::uint32_t>(t)).take();
      }
    });
  }
  for (auto& th : threads) th.join();
  pool.stop();
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(core.served(), 800u);
}

TEST(NmpCore, StopDrainsOutstandingWork) {
  hn::NmpCore core(0, 2, [](const hn::Request&, hn::Response& resp) { resp.ok = true; });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  hn::Request r;
  core.post(0, r);
  core.post(1, r);
  pool.stop();  // must not lose the posted requests
  EXPECT_TRUE(core.slot(0).done());
  EXPECT_TRUE(core.slot(1).done());
}

TEST(NmpCore, StopDrainsPendingBehindSlowHandler) {
  // Requests already posted when stop() is called must complete even when
  // the handler is slow — stop() may only join after the drain pass.
  hn::NmpCore core(0, 4, [](const hn::Request&, hn::Response& resp) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    resp.ok = true;
  });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  hn::Request r;
  for (std::uint32_t i = 0; i < 4; ++i) core.post(i, r);
  pool.stop();
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(core.slot(i).done()) << "slot " << i << " lost at stop()";
  }
  EXPECT_EQ(core.served(), 4u);
}

TEST(NmpCore, WaitDoneForTimesOutAgainstStalledHandler) {
  // A handler wedged on an external condition must surface as a bounded-wait
  // timeout at the host, never as a hang.
  std::atomic<bool> release{false};
  hn::NmpCore core(0, 2, [&](const hn::Request&, hn::Response& resp) {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    resp.ok = true;
  });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  hn::Request r;
  core.post(0, r);
  EXPECT_FALSE(core.wait_done_for(0, std::chrono::milliseconds(20)));
  EXPECT_FALSE(core.slot(0).done());
  if constexpr (ht::kEnabled) {
    EXPECT_GT(ht::snapshot().counter_total(ht::names::kWaitTimeoutTotal), 0u);
  }
  // Unwedge: the same slot must now complete through the normal wait.
  release.store(true, std::memory_order_release);
  core.wait_done(0);
  EXPECT_TRUE(core.slot(0).take().ok);
  pool.stop();
}

TEST(NmpCore, BatchHandlerSeesKeySortedOpsAndRoutesResponsesBySlot) {
  // Posting before start() is the deterministic way to form a batch: all
  // slots are kPending when the combiner's first scan pass runs, so it must
  // collect them into a single batch-handler call.
  std::vector<hn::Key> order;
  std::size_t calls = 0;
  hn::NmpCore core(0, 4, [](const hn::Request&, hn::Response& resp) {
    resp.ok = true;  // legacy handler must not run in this test
    resp.value = 0xDEAD;
  });
  core.set_batch_handler([&](hn::BatchOp* ops, std::size_t n) {
    ++calls;
    for (std::size_t i = 0; i < n; ++i) {
      order.push_back(ops[i].req->key);
      ops[i].resp->ok = true;
      ops[i].resp->value = ops[i].req->key * 2;
      // Mid-batch, every collected slot must still be kPending: completions
      // are only published after the whole batch is applied.
      for (std::uint32_t s = 0; s < core.slot_count(); ++s) {
        EXPECT_NE(core.slot(s).status.load(), hn::PubSlot::kDone);
      }
    }
  });
  const hn::Key keys[4] = {30, 10, 40, 20};
  for (std::uint32_t s = 0; s < 4; ++s) {
    hn::Request r;
    r.op = hn::OpCode::kNop;
    r.key = keys[s];
    core.post(s, r);
  }
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  for (std::uint32_t s = 0; s < 4; ++s) core.wait_done(s);
  pool.stop();
  // The batch was applied in ascending key order...
  ASSERT_EQ(calls, 1u);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<hn::Key>{10, 20, 30, 40}));
  // ...but each response landed in its op's original slot.
  for (std::uint32_t s = 0; s < 4; ++s) {
    hn::Response resp = core.slot(s).take();
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.value, keys[s] * 2);
  }
  if constexpr (ht::kEnabled) {
    EXPECT_GE(ht::snapshot().histogram_total(ht::names::kBatchSize).count(), 1u);
  }
}

TEST(NmpCore, SinglePendingRequestUsesLegacyHandler) {
  // A pass with exactly one pending request must go through the plain
  // handler, with or without a batch handler installed.
  std::atomic<bool> batch_ran{false};
  hn::NmpCore core(0, 4, [](const hn::Request& req, hn::Response& resp) {
    resp.ok = true;
    resp.value = req.key + 1;
  });
  core.set_batch_handler([&](hn::BatchOp*, std::size_t) {
    batch_ran.store(true);
  });
  hn::Request r;
  r.op = hn::OpCode::kNop;
  r.key = 7;
  core.post(0, r);
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  core.wait_done(0);
  hn::Response resp = core.slot(0).take();
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.value, 8u);
  pool.stop();
  EXPECT_FALSE(batch_ran.load());
}

TEST(NmpCore, EqualKeysKeepSlotOrderInBatch) {
  // stable_sort: ops on the same key must reach the batch handler in
  // publication-list (slot) order, so a same-key insert/remove pair keeps
  // its host-observable semantics.
  std::vector<hn::Value> order;
  hn::NmpCore core(0, 4,
                   [](const hn::Request&, hn::Response& resp) { resp.ok = true; });
  core.set_batch_handler([&](hn::BatchOp* ops, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      order.push_back(ops[i].req->value);
      ops[i].resp->ok = true;
    }
  });
  for (std::uint32_t s = 0; s < 4; ++s) {
    hn::Request r;
    r.op = hn::OpCode::kNop;
    r.key = s < 2 ? 5u : 3u;  // slots 2,3 sort before slots 0,1
    r.value = s;              // slot index, to observe ordering
    core.post(s, r);
  }
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  for (std::uint32_t s = 0; s < 4; ++s) core.wait_done(s);
  pool.stop();
  EXPECT_EQ(order, (std::vector<hn::Value>{2, 3, 0, 1}));
}

TEST(NmpCore, RestartAfterStop) {
  hn::NmpCore core(3, 2, [](const hn::Request&, hn::Response& resp) { resp.ok = true; });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  pool.stop();
  pool.start();
  hn::Request r;
  core.post(0, r);
  core.wait_done(0);
  EXPECT_TRUE(core.slot(0).take().ok);
  pool.stop();
}

namespace {
hn::PartitionSet make_set(std::uint32_t partitions, std::uint32_t threads,
                          std::uint32_t inflight) {
  hn::PartitionConfig cfg;
  cfg.partitions = partitions;
  cfg.max_threads = threads;
  cfg.slots_per_thread = inflight;
  cfg.partition_width = 1000;
  return hn::PartitionSet(cfg);
}
}  // namespace

TEST(PartitionSet, RejectsInvalidConfig) {
  // partition_of divides by partition_width and the slot layout needs at
  // least one slot; a zero in any dimension must fail fast at construction
  // with a clear message, not SIGFPE or misroute later.
  {
    hn::PartitionConfig cfg;
    cfg.partition_width = 0;
    EXPECT_THROW(hn::PartitionSet set(cfg), std::invalid_argument);
  }
  {
    hn::PartitionConfig cfg;
    cfg.partition_width = 1000;
    cfg.partitions = 0;
    EXPECT_THROW(hn::PartitionSet set(cfg), std::invalid_argument);
  }
  {
    hn::PartitionConfig cfg;
    cfg.partition_width = 1000;
    cfg.max_threads = 0;
    EXPECT_THROW(hn::PartitionSet set(cfg), std::invalid_argument);
  }
  {
    hn::PartitionConfig cfg;
    cfg.partition_width = 1000;
    cfg.slots_per_thread = 0;
    EXPECT_THROW(hn::PartitionSet set(cfg), std::invalid_argument);
  }
  // An enabled watchdog with a zero threshold would fence a partition on its
  // first tick (degrade) or never re-integrate it (recover).
  {
    hn::PartitionConfig cfg;
    cfg.partition_width = 1000;
    cfg.watchdog_interval_ms = 2;
    cfg.watchdog_misses_to_degrade = 0;
    EXPECT_THROW(hn::PartitionSet set(cfg), std::invalid_argument);
  }
  {
    hn::PartitionConfig cfg;
    cfg.partition_width = 1000;
    cfg.watchdog_interval_ms = 2;
    cfg.watchdog_misses_to_recover = 0;
    EXPECT_THROW(hn::PartitionSet set(cfg), std::invalid_argument);
  }
  // With the watchdog disabled the thresholds are inert and may be zero.
  {
    hn::PartitionConfig cfg;
    cfg.partitions = 2;  // small: construction registers per-partition metrics
    cfg.max_threads = 1;
    cfg.partition_width = 1000;
    cfg.watchdog_interval_ms = 0;
    cfg.watchdog_misses_to_degrade = 0;
    cfg.watchdog_misses_to_recover = 0;
    EXPECT_NO_THROW(hn::PartitionSet set(cfg));
  }
}

TEST(PartitionSet, WatchdogDegradesStalledPartitionAndRecovers) {
  hn::PartitionConfig cfg;
  cfg.partitions = 1;
  cfg.max_threads = 1;
  cfg.slots_per_thread = 2;
  cfg.partition_width = 1000;
  cfg.watchdog_interval_ms = 2;
  cfg.watchdog_misses_to_degrade = 3;
  cfg.watchdog_misses_to_recover = 2;
  hn::PartitionSet set(cfg);
  std::atomic<bool> release{false};
  set.set_handler(0, [&](const hn::Request&, hn::Response& resp) {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    resp.ok = true;
  });
  set.start();
  EXPECT_FALSE(set.degraded(0));

  hn::Request r;
  hn::OpHandle h = set.call_async(0, 0, r);
  ASSERT_TRUE(h.valid);
  // The stalled handler blocks served() progress with an outstanding post;
  // after misses_to_degrade watchdog intervals the partition must be marked
  // (and fenced).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!set.degraded(0) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(set.degraded(0));

  // Unwedge and drain the stalled op: the fenced pass already ran it, so it
  // still delivers the real reply.
  release.store(true, std::memory_order_release);
  EXPECT_TRUE(set.retrieve(h).ok);

  // The mark is sticky while the partition is idle: the supervisor re-arms
  // the lane, but idle intervals must not count as clean. No flap back to
  // healthy.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(set.degraded(0));

  // Only sustained progress re-integrates: pump traffic until the watchdog
  // has seen misses_to_recover consecutive progressing intervals. A call
  // that lands before the supervisor has re-armed the lane bounces.
  const auto recover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (set.degraded(0) && std::chrono::steady_clock::now() < recover_deadline) {
    const hn::Response resp = set.call(0, 0, r);
    EXPECT_TRUE(resp.ok || resp.failed_over);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(set.degraded(0));
  set.stop();

  if constexpr (ht::kEnabled) {
    const ht::Snapshot snap = ht::snapshot();
    EXPECT_GT(snap.counter_total(ht::names::kWatchdogFired), 0u);
    EXPECT_GT(snap.counter_total(ht::names::kPartitionDegraded), 0u);
  }
}

TEST(NmpCore, FencedCombinerStillDeliversInFlightReply) {
  // A fence raised while the combiner is inside a handler disarms the
  // partition from the next pass on, but the op it already ran must still
  // be answered: the supervisor only bounces after try_seize() takes the
  // pass token the zombie pass holds, so its completion CAS is ordered
  // before any takeover. Dropping
  // the reply instead would make the host's failed_over retry re-execute an
  // already-applied op.
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  hn::NmpCore core(0, 2, [&](const hn::Request&, hn::Response& resp) {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    resp.ok = true;
  });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  hn::Request r;
  core.post(0, r);
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  core.fence_raise();  // the in-flight handler is now a zombie's last act
  release.store(true, std::memory_order_release);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!core.quiesced() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_TRUE(core.quiesced());
  ASSERT_TRUE(core.try_seize());
  // The zombie's reply landed before the (token-gated) takeover window: the
  // slot is done with the real response, and nothing is left to bounce.
  EXPECT_TRUE(core.slot(0).done());
  EXPECT_TRUE(core.slot(0).take().ok);
  EXPECT_EQ(core.served(), 1u);
  // Re-arm over the same slots: the pool serves new posts again.
  pool.rearm(0, std::chrono::seconds(1));
  core.post(0, r);
  core.wait_done(0);
  EXPECT_TRUE(core.slot(0).take().ok);
  pool.stop();
}

TEST(NmpCore, StaleReplyRejectedAfterSlotTakeover) {
  // Defense in depth for the lost-CAS arm of complete(): if a fenced
  // combiner's reply arrives after the slot has already been taken over
  // (bounced to kDone by a new owner), the late publish must be rejected
  // rather than overwrite protocol state it no longer owns. The real
  // supervisor can never reach this arm — it bounces only after seizing the
  // zombie pass's token — so the takeover is simulated directly on the slot.
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  hn::NmpCore core(0, 2, [&](const hn::Request&, hn::Response& resp) {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    resp.ok = true;
  });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  hn::Request r;
  core.post(0, r);
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  core.fence_raise();
  // Simulated takeover while the zombie is still inside the handler: the
  // slot is answered failed_over and marked done by its "new owner".
  core.slot(0).resp.failed_over = true;
  core.slot(0).status.store(hn::PubSlot::kDone, std::memory_order_release);
  release.store(true, std::memory_order_release);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!core.quiesced() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_TRUE(core.quiesced());
  ASSERT_TRUE(core.try_seize());
  // The zombie's completion CAS lost: the takeover response survives and
  // the zombie counted nothing as served.
  const hn::Response out = core.slot(0).take();
  EXPECT_TRUE(out.failed_over);
  EXPECT_EQ(core.served(), 0u);
}

namespace {
// Shared scaffolding for the failover tests: one partition whose handler can
// be wedged on demand, plus a helper that waits for a predicate.
struct WedgeableSet {
  std::atomic<bool> wedge{false};
  std::atomic<bool> in_handler{false};
  hn::PartitionSet set;

  WedgeableSet() : set(config()) {
    set.set_handler(0, [this](const hn::Request& req, hn::Response& resp) {
      in_handler.store(true, std::memory_order_release);
      while (wedge.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      resp.ok = true;
      resp.value = req.key + 1;
    });
    set.start();
  }

  static hn::PartitionConfig config() {
    hn::PartitionConfig cfg;
    cfg.partitions = 1;
    cfg.max_threads = 2;
    cfg.slots_per_thread = 2;
    cfg.partition_width = 1000;
    cfg.watchdog_interval_ms = 2;
    cfg.watchdog_misses_to_degrade = 2;
    cfg.watchdog_misses_to_recover = 2;
    return cfg;
  }
};

template <typename Pred>
bool wait_for(Pred pred, std::chrono::seconds limit = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}
}  // namespace

TEST(PartitionSet, FailoverRespawnsAndBouncesInFlight) {
  WedgeableSet w;
  hn::PartitionSet& set = w.set;

  // Wedge the combiner inside a handler with an op in flight.
  w.wedge.store(true, std::memory_order_release);
  hn::Request r;
  r.key = 7;
  hn::OpHandle h = set.call_async(0, 0, r);
  ASSERT_TRUE(h.valid);
  ASSERT_TRUE(wait_for([&] { return w.in_handler.load(std::memory_order_acquire); }));

  // A second op the wedged pass has NOT picked up: it will still be pending
  // when the lane is fenced, so the supervisor must bounce it.
  hn::Request r2;
  r2.key = 9;
  hn::OpHandle h2 = set.call_async(0, 1, r2);
  ASSERT_TRUE(h2.valid);

  // Force the failover path and wait until the supervisor has fenced.
  set.trigger_failover(0);
  ASSERT_TRUE(wait_for([&] { return set.failovers(0) >= 1; }));
  EXPECT_TRUE(set.degraded(0));

  // While fenced, blocking calls bounce immediately instead of blocking on
  // the dead lane (bounded-wait guarantee).
  EXPECT_TRUE(set.call(0, 1, r).failed_over);

  // Release the zombie. It finishes the op it already ran and delivers the
  // real reply — an executed op must never read failed_over, or the host's
  // retry would double-apply it. The supervisor then reaps the zombie,
  // bounces the never-picked-up op, and respawns a fresh combiner.
  w.wedge.store(false, std::memory_order_release);
  hn::Response done = set.retrieve(h);
  EXPECT_TRUE(done.ok);
  EXPECT_FALSE(done.failed_over);
  EXPECT_EQ(done.value, r.key + 1);
  hn::Response bounced = set.retrieve(h2);
  EXPECT_TRUE(bounced.failed_over);

  // The respawned combiner serves again; sustained progress clears the mark.
  ASSERT_TRUE(wait_for([&] {
    hn::Response resp = set.call(0, 0, r);
    return !resp.failed_over && resp.ok && resp.value == r.key + 1;
  }));
  ASSERT_TRUE(wait_for([&] {
    (void)set.call(0, 0, r);
    return !set.degraded(0);
  }));
  EXPECT_GE(set.recoveries(0), 1u);
  set.stop();

  if constexpr (ht::kEnabled) {
    const ht::Snapshot snap = ht::snapshot();
    EXPECT_GT(snap.counter_total(ht::names::kPartitionFailover), 0u);
    EXPECT_GT(snap.counter_total(ht::names::kPartitionRecovered), 0u);
    EXPECT_GT(snap.counter_total(ht::names::kFailoverBouncedOps), 0u);
  }
}

TEST(PartitionSet, BlockingAndAsyncInterleaveOnOneThread) {
  // A single host thread with an async op in flight must still be able to
  // issue blocking calls: the two paths use distinct slots of the thread's
  // row and neither may steal or clobber the other's response.
  auto set = make_set(1, 1, 2);
  set.set_handler(0, [](const hn::Request& req, hn::Response& resp) {
    if (req.op == hn::OpCode::kUpdate) {
      // Give the async op a measurable service time so the blocking call
      // genuinely overlaps it.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    resp.ok = true;
    resp.value = req.key + 1;
  });
  set.start();
  for (int round = 0; round < 100; ++round) {
    hn::Request slow;
    slow.op = hn::OpCode::kUpdate;
    slow.key = static_cast<hn::Key>(2 * round);
    hn::OpHandle h = set.call_async(0, 0, slow);
    ASSERT_TRUE(h.valid);

    hn::Request fast;
    fast.op = hn::OpCode::kRead;
    fast.key = static_cast<hn::Key>(2 * round + 1);
    hn::Response br = set.call(0, 0, fast);
    EXPECT_TRUE(br.ok);
    EXPECT_EQ(br.value, fast.key + 1);

    hn::Response ar = set.retrieve(h);
    EXPECT_TRUE(ar.ok);
    EXPECT_EQ(ar.value, slow.key + 1);
  }
  set.stop();
}

TEST(PartitionSet, RoutesByKeyRange) {
  auto set = make_set(4, 2, 2);
  EXPECT_EQ(set.partition_of(0), 0u);
  EXPECT_EQ(set.partition_of(999), 0u);
  EXPECT_EQ(set.partition_of(1000), 1u);
  EXPECT_EQ(set.partition_of(3999), 3u);
  EXPECT_EQ(set.partition_of(400000), 3u);  // clamped to last partition
}

TEST(PartitionSet, BlockingCallsHitCorrectPartition) {
  auto set = make_set(4, 2, 2);
  for (std::uint32_t p = 0; p < 4; ++p) {
    set.set_handler(p, [p](const hn::Request& req, hn::Response& resp) {
      resp.ok = true;
      resp.value = p * 1000 + req.key % 1000;
    });
  }
  set.start();
  hn::Request r;
  r.op = hn::OpCode::kRead;
  r.key = 2345;
  hn::Response resp = set.call(set.partition_of(r.key), /*thread=*/0, r);
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.value, 2345u);
  set.stop();
}

TEST(PartitionSet, AsyncCallsCompleteAndRespectInflightLimit) {
  auto set = make_set(1, 1, 4);
  std::atomic<int> handled{0};
  set.set_handler(0, [&](const hn::Request& req, hn::Response& resp) {
    handled.fetch_add(1);
    resp.ok = true;
    resp.value = req.key + 1;
  });
  set.start();

  std::vector<hn::OpHandle> handles;
  hn::Request r;
  r.op = hn::OpCode::kNop;
  // A 5th in-flight call must be rejected before any retrieve.
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    r.key = static_cast<hn::Key>(i);
    hn::OpHandle h = set.call_async(0, 0, r);
    if (h.valid) {
      handles.push_back(h);
      ++accepted;
    }
  }
  EXPECT_LE(accepted, 4);
  for (auto& h : handles) {
    hn::Response resp = set.retrieve(h);
    EXPECT_TRUE(resp.ok);
  }
  // Slots freed: a new async call must be accepted again.
  hn::OpHandle h = set.call_async(0, 0, r);
  EXPECT_TRUE(h.valid);
  (void)set.retrieve(h);
  set.stop();
  EXPECT_EQ(handled.load(), accepted + 1);
}

TEST(PartitionSet, TelemetryServedCountsSumToTotalOps) {
  if constexpr (!ht::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // The registry is process-wide; clear residue from earlier tests in this
  // binary so the per-partition sums are attributable to this run.
  ht::reset_all();
  auto set = make_set(4, 4, 2);
  for (std::uint32_t p = 0; p < 4; ++p) {
    set.set_handler(p, [](const hn::Request&, hn::Response& resp) {
      resp.ok = true;
    });
  }
  set.start();
  constexpr std::uint64_t kOpsPerThread = 300;
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        hn::Request r;
        r.op = hn::OpCode::kRead;
        r.key = static_cast<hn::Key>((t * kOpsPerThread + i) * 7 % 4000);
        (void)set.call(set.partition_of(r.key), t, r);
      }
    });
  }
  for (auto& th : threads) th.join();
  set.stop();

  const ht::Snapshot snap = ht::snapshot();
  constexpr std::uint64_t kTotalOps = 4 * kOpsPerThread;
  // Per-partition served counts must sum to the total issued operations...
  EXPECT_EQ(snap.counter_total(ht::names::kServedTotal), kTotalOps);
  // ...and agree with the runtime's own served() accounting per partition.
  std::uint64_t nonzero_partitions = 0;
  for (const auto& c : snap.counters) {
    if (c.name != ht::names::kServedTotal) continue;
    ASSERT_GE(c.partition, 0);
    // The registry is process-wide: other tests in this binary may have
    // registered (now zeroed) instruments for partitions this set lacks.
    if (static_cast<std::uint32_t>(c.partition) >= set.partitions()) {
      EXPECT_EQ(c.value, 0u);
      continue;
    }
    EXPECT_EQ(c.value, set.core(static_cast<std::uint32_t>(c.partition)).served());
    nonzero_partitions += c.value > 0;
  }
  EXPECT_EQ(nonzero_partitions, 4u);  // the key pattern hits every partition
  // All offloads were blocking; queue-wait samples match the op count.
  EXPECT_EQ(snap.counter_total(ht::names::kOffloadPosted), kTotalOps);
  EXPECT_EQ(snap.histogram_total(ht::names::kQueueWaitNs).count(), kTotalOps);
  EXPECT_EQ(snap.counter_total(ht::names::kCallBlocking), kTotalOps);
  ht::reset_all();
}

TEST(PartitionSet, BatchHandlerSurvivesHandlerRebuild) {
  // set_handler() rebuilds the NmpCore; a batch handler installed *before*
  // that rebuild must still be in effect afterwards (and vice versa).
  auto set = make_set(1, 1, 4);
  std::atomic<std::uint64_t> batched_ops{0};
  set.set_batch_handler(0, [&](hn::BatchOp* ops, std::size_t n) {
    batched_ops.fetch_add(n);
    for (std::size_t i = 0; i < n; ++i) {
      ops[i].resp->ok = true;
      ops[i].resp->value = ops[i].req->key * 10;
    }
  });
  set.set_handler(0, [](const hn::Request& req, hn::Response& resp) {
    resp.ok = true;
    resp.value = req.key * 10;
  });
  // Fill the thread's async window before start() so the first scan pass
  // serves all four requests as one batch.
  std::vector<hn::OpHandle> handles;
  for (int i = 0; i < 4; ++i) {
    hn::Request r;
    r.op = hn::OpCode::kNop;
    r.key = static_cast<hn::Key>(4 - i);
    hn::OpHandle h = set.call_async(0, 0, r);
    ASSERT_TRUE(h.valid);
    handles.push_back(h);
  }
  set.start();
  for (int i = 0; i < 4; ++i) {
    hn::Response resp = set.retrieve(handles[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.value, static_cast<hn::Value>((4 - i) * 10));
  }
  set.stop();
  EXPECT_EQ(batched_ops.load(), 4u);
}

TEST(PartitionSet, ConcurrentMixedBlockingAndAsync) {
  auto set = make_set(2, 4, 2);
  std::atomic<std::uint64_t> sum{0};
  for (std::uint32_t p = 0; p < 2; ++p) {
    set.set_handler(p, [&](const hn::Request& req, hn::Response& resp) {
      sum.fetch_add(req.key);
      resp.ok = true;
    });
  }
  set.start();
  std::atomic<std::uint64_t> expected{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<hn::OpHandle> pending;
      for (int i = 0; i < 500; ++i) {
        hn::Request r;
        r.key = t * 1000 + static_cast<hn::Key>(i);
        expected.fetch_add(r.key);
        std::uint32_t p = set.partition_of(r.key);
        if (i % 3 == 0) {
          (void)set.call(p, t, r);
        } else {
          hn::OpHandle h = set.call_async(p, t, r);
          if (!h.valid) {
            // Drain one pending handle and retry.
            ASSERT_FALSE(pending.empty());
            (void)set.retrieve(pending.front());
            pending.erase(pending.begin());
            h = set.call_async(p, t, r);
            ASSERT_TRUE(h.valid);
          }
          pending.push_back(h);
        }
      }
      for (auto& h : pending) (void)set.retrieve(h);
    });
  }
  for (auto& th : threads) th.join();
  set.stop();
  EXPECT_EQ(sum.load(), expected.load());
}

// ---------------------------------------------------------------------------
// Combiner pool: a few service threads over many partitions.

namespace {
hn::PartitionConfig pool_config(std::uint32_t partitions,
                                std::uint32_t combiner_threads,
                                std::uint32_t host_threads) {
  hn::PartitionConfig cfg;
  cfg.partitions = partitions;
  cfg.max_threads = host_threads;
  cfg.slots_per_thread = 2;
  cfg.combiner_threads = combiner_threads;
  cfg.partition_width = 1000;
  return cfg;
}

#if defined(__linux__)
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Scheduler state letter of thread `tid` of this process ('S': sleeping
/// in the kernel — here only ever a futex wait), or 0 if unreadable.
char thread_state(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  return close == std::string::npos || close + 2 >= line.size()
             ? 0
             : line[close + 2];
}

#endif
}  // namespace

TEST(CombinerPool, ReplyWakesParkedHost) {
  // Regression test for the lost reply wakeup: a host parked on its slot
  // with a raw FUTEX_WAIT must be woken by the completion itself, not sleep
  // out its 2 ms wait window. The handler holds each reply until the
  // blocking host has actually parked (bounded at ~5 ms), so every call
  // exercises the combiner -> host handshake against a sleeping host.
  //
  // Wall-clock latency alone would make this flaky on a loaded machine, so
  // an observer thread watches each call instead: once it sees the reply
  // published, a woken host leaves the sleeping state at once (it turns
  // runnable even if it cannot run yet), while a host whose wake was lost
  // stays asleep until its window expires. A call is judged only when the
  // handler saw the host parked and the observer saw the reply within
  // 1.5 ms of the call's start — then the reply landed inside the host's
  // window, which opens after the post, so a window expiry
  // (wait_timeout_total) also means a lost wake.
  if constexpr (!ht::kEnabled) GTEST_SKIP() << "telemetry compiled out";
#if !defined(__linux__)
  GTEST_SKIP() << "needs /proc thread states";
#else
  constexpr std::int64_t kUs = 1000;
  constexpr int kMaxCalls = 5000;
  constexpr int kJudged = 50;
  hn::PartitionConfig cfg = pool_config(1, 1, 1);
  cfg.watchdog_interval_ms = 0;
  hn::PartitionSet set(cfg);
  std::atomic<long> host_tid{0};
  // Per call: whether the handler saw the host parked, when the call
  // started, when the observer first saw the reply, and whether the host
  // slept on after it.
  std::vector<std::atomic<bool>> host_parked(kMaxCalls);
  std::vector<std::int64_t> started(kMaxCalls);
  std::vector<std::atomic<std::int64_t>> reply_seen(kMaxCalls);
  std::vector<std::atomic<bool>> slept_on(kMaxCalls);
  set.set_handler(0, [&](const hn::Request& req, hn::Response& resp) {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(5);
    bool parked = false;
    while (!parked && std::chrono::steady_clock::now() < give_up) {
      parked = thread_state(host_tid.load()) == 'S';
    }
    host_parked[req.key].store(parked);
    resp.ok = true;
  });
  set.start();
  host_tid.store(static_cast<long>(syscall(SYS_gettid)));
  hn::PubSlot& slot = set.core(0).slot(0);  // thread 0's blocking slot
  std::atomic<int> current{-1};
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load()) {
      const int call = current.load();
      if (call < 0 || slot.status.load() != hn::PubSlot::kDone) continue;
      const std::int64_t now = steady_now_ns();
      std::int64_t first = 0;
      if (reply_seen[call].compare_exchange_strong(first, now)) continue;
      if (now - first > 500 * kUs && thread_state(host_tid.load()) == 'S' &&
          slot.status.load() == hn::PubSlot::kDone && current.load() == call) {
        slept_on[call].store(true);
      }
    }
  });
  // Whether call i qualifies for judging (see above).
  const auto judged = [&](int i) {
    const std::int64_t seen = reply_seen[i].load();
    return host_parked[i].load() && seen != 0 &&
           seen - started[i] <= 1500 * kUs;
  };
  // Calls run until enough qualify; a loaded machine spoils many.
  std::vector<int> expired;
  int calls = 0;
  for (int qualified = 0; qualified < kJudged && calls < kMaxCalls; ++calls) {
    const int i = calls;
    const std::uint64_t before =
        ht::snapshot().counter_total(ht::names::kWaitTimeoutTotal);
    started[i] = steady_now_ns();
    current.store(i);
    hn::Request r;
    r.key = static_cast<hn::Key>(i);
    EXPECT_TRUE(set.call(0, 0, r).ok);
    current.store(-1);
    if (ht::snapshot().counter_total(ht::names::kWaitTimeoutTotal) != before) {
      expired.push_back(i);
    }
    qualified += judged(i);
  }
  done.store(true);
  observer.join();
  set.stop();
  int qualified = 0;
  for (int i = 0; i < calls; ++i) {
    if (!judged(i)) continue;
    ++qualified;
    EXPECT_FALSE(slept_on[i].load())
        << "call " << i << ": the parked host slept through its reply";
    EXPECT_EQ(std::count(expired.begin(), expired.end(), i), 0)
        << "call " << i << ": the parked host's 2 ms wait window expired";
  }
  EXPECT_GE(qualified, kJudged) << "too few calls found the host parked";
#endif
}

TEST(CombinerPool, DefaultSizeLeavesCoresToHosts) {
  // The auto rule: min(partitions, max(1, hardware threads - host threads)).
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t free = hw > 2 ? hw - 2 : 1;
  hn::PartitionSet set(pool_config(8, 0, 2));
  EXPECT_EQ(set.combiner_threads(), std::min(8u, free));
  hn::PartitionSet one(pool_config(8, 0, hw + 4));
  EXPECT_EQ(one.combiner_threads(), 1u);
  hn::PartitionSet explicit_set(pool_config(8, 3, 2));
  explicit_set.start();
  EXPECT_EQ(explicit_set.combiner_threads(), 3u);
  explicit_set.stop();
  hn::PartitionSet capped(pool_config(2, 16, 2));
  EXPECT_EQ(capped.combiner_threads(), 2u);
}

TEST(CombinerPool, SingleOwnerPerPartitionWithSharedThreads) {
  // Two threads serve eight partitions while hosts hammer them with blocking
  // and async calls and the supervisor fences partitions and re-arms them on
  // the pool: no handler may ever be entered concurrently on the same
  // partition.
  constexpr std::uint32_t kParts = 8;
  constexpr std::uint32_t kHosts = 4;
  hn::PartitionConfig cfg = pool_config(kParts, 2, kHosts);
  cfg.watchdog_interval_ms = 2;
  cfg.watchdog_misses_to_degrade = 2;
  cfg.watchdog_misses_to_recover = 2;
  hn::PartitionSet set(cfg);
  std::vector<std::atomic<int>> inside(kParts);
  std::atomic<bool> overlapped{false};
  std::atomic<std::uint64_t> applied{0};
  for (std::uint32_t p = 0; p < kParts; ++p) {
    set.set_handler(p, [&, p](const hn::Request& req, hn::Response& resp) {
      if (inside[p].fetch_add(1) != 0) overlapped.store(true);
      for (int spin = 0; spin < 50; ++spin) {
        if (inside[p].load() != 1) overlapped.store(true);
      }
      inside[p].fetch_sub(1);
      applied.fetch_add(1);
      resp.ok = true;
      resp.value = req.key + 1;
    });
  }
  set.start();
  EXPECT_EQ(set.combiner_threads(), 2u);
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> wrong{false};
  std::vector<std::thread> hosts;
  for (std::uint32_t t = 0; t < kHosts; ++t) {
    hosts.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < 1500; ++i) {
        hn::Request r;
        r.key = static_cast<hn::Key>((i * 7 + t * 131) % (kParts * 1000));
        const std::uint32_t p = set.partition_of(r.key);
        hn::Response resp;
        if (i % 2 == 0) {
          resp = set.call(p, t, r);
        } else {
          hn::OpHandle h = set.call_async(p, t, r);
          resp = h.valid ? set.retrieve(h) : set.call(p, t, r);
        }
        if (resp.failed_over) continue;  // bounced: never applied
        if (!resp.ok || resp.value != r.key + 1) wrong.store(true);
        answered.fetch_add(1);
      }
    });
  }
  for (std::uint32_t k = 0; k < 6; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    set.trigger_failover((k * 3) % kParts);
  }
  for (auto& h : hosts) h.join();
  set.stop();
  EXPECT_FALSE(overlapped.load());
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(answered.load(), applied.load());
}

TEST(CombinerPool, StopDrainsEveryPartition) {
  // Requests still queued on any partition when stop() is called complete:
  // each thread keeps serving until a full round finds nothing new.
  constexpr std::uint32_t kParts = 8;
  hn::PartitionConfig cfg = pool_config(kParts, 2, 1);
  cfg.slots_per_thread = 4;
  hn::PartitionSet set(cfg);
  for (std::uint32_t p = 0; p < kParts; ++p) {
    set.set_handler(p, [](const hn::Request&, hn::Response& resp) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      resp.ok = true;
    });
  }
  set.start();
  std::vector<hn::OpHandle> handles;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    for (int i = 0; i < 4; ++i) {
      hn::OpHandle h = set.call_async(p, 0, hn::Request{});
      ASSERT_TRUE(h.valid);
      handles.push_back(h);
    }
  }
  set.stop();
  std::uint64_t served = 0;
  for (std::uint32_t p = 0; p < kParts; ++p) served += set.core(p).served();
  EXPECT_EQ(served, handles.size());
  for (const hn::OpHandle& h : handles) {
    EXPECT_TRUE(set.poll(h)) << "partition " << h.partition << " slot "
                             << h.slot << " lost at stop()";
    EXPECT_TRUE(set.retrieve(h).ok);
  }
}

TEST(CombinerPool, StuckHandlerDoesNotStrandSiblingPartitions) {
  // One pool thread serves four partitions; partition 0's handler blocks.
  // Its siblings must not wait for it: the watchdog fences each stranded
  // sibling, and re-arming it finds the old thread wedged and moves it to a
  // fresh one — so every sibling answers again within the watchdog budget.
  hn::PartitionConfig cfg = pool_config(4, 1, 2);
  cfg.watchdog_interval_ms = 2;
  cfg.watchdog_misses_to_degrade = 2;
  cfg.watchdog_misses_to_recover = 2;
  hn::PartitionSet set(cfg);
  std::atomic<bool> stuck{true};
  std::atomic<bool> entered{false};
  set.set_handler(0, [&](const hn::Request&, hn::Response& resp) {
    entered.store(true);
    while (stuck.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
    resp.ok = true;
  });
  for (std::uint32_t p = 1; p < 4; ++p) {
    set.set_handler(p, [](const hn::Request& req, hn::Response& resp) {
      resp.ok = true;
      resp.value = req.key + 1;
    });
  }
  set.start();
  ASSERT_EQ(set.combiner_threads(), 1u);
  hn::OpHandle h0 = set.call_async(0, 0, hn::Request{});
  ASSERT_TRUE(h0.valid);
  ASSERT_TRUE(wait_for([&] { return entered.load(); }));

  // Generous against sanitizer slowdowns, yet far below "until partition 0
  // returns", which here is never.
  const auto budget = std::chrono::seconds(2);
  for (std::uint32_t p = 1; p < 4; ++p) {
    hn::Request r;
    r.key = p * 1000 + 5;
    const auto t0 = std::chrono::steady_clock::now();
    hn::Response resp;
    do {
      resp = set.call(p, 1, r);
      ASSERT_LT(std::chrono::steady_clock::now() - t0, budget)
          << "partition " << p << " stranded behind partition 0";
    } while (resp.failed_over);
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.value, r.key + 1);
  }
  EXPECT_EQ(set.combiner_threads(), 2u);  // the live thread took them over
  // The stuck partition itself is fenced: calls bounce instead of hanging.
  ASSERT_TRUE(wait_for([&] { return set.failovers(0) >= 1; }));
  EXPECT_TRUE(set.call(0, 1, hn::Request{}).failed_over);

  // Unstick: the op already running is answered, and every lane
  // re-integrates under sustained traffic.
  stuck.store(false);
  hn::Response first = set.retrieve(h0);
  EXPECT_TRUE(first.ok);
  EXPECT_FALSE(first.failed_over);
  ASSERT_TRUE(wait_for([&] {
    for (std::uint32_t p = 0; p < 4; ++p) (void)set.call(p, 1, hn::Request{});
    return !set.degraded(0) && !set.degraded(1) && !set.degraded(2) &&
           !set.degraded(3);
  }));
  set.stop();
}

TEST(CombinerPool, IdleServerDeathIsFencedWithoutTraffic) {
  // A server that dies on a pass with nothing pending (kCombinerAbort on a
  // kick's re-scan) leaves no outstanding post for the watchdog to see. The
  // supervisor must still fence and re-arm the partition, so no later post
  // has to wait out the detection.
  if constexpr (!hn::fault::kCompiledIn) {
    GTEST_SKIP() << "fault injector compiled out (HYBRIDS_FAULTS=OFF)";
  }
  hn::PartitionConfig cfg = pool_config(2, 1, 1);
  cfg.watchdog_interval_ms = 2;
  cfg.watchdog_misses_to_degrade = 2;
  cfg.watchdog_misses_to_recover = 2;
  hn::PartitionSet set(cfg);
  for (std::uint32_t p = 0; p < 2; ++p) {
    set.set_handler(p, [](const hn::Request&, hn::Response& resp) {
      resp.ok = true;
    });
  }
  set.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hn::fault::Config fc;
  fc.enable(hn::fault::Kind::kCombinerAbort, 1.0);
  hn::fault::FaultInjector::arm(fc);
  set.core(0).kick();  // the ring makes the thread re-scan both partitions
  const bool died = wait_for(
      [&] { return !set.core(0).armed() && !set.core(1).armed(); },
      std::chrono::seconds(1));
  hn::fault::FaultInjector::disarm();
  ASSERT_TRUE(died) << "the abort did not fire";
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_EQ(set.core(p).posted(), 0u);
    EXPECT_TRUE(wait_for([&] { return set.failovers(p) > 0; },
                         std::chrono::seconds(2)))
        << "partition " << p << ": idle death never fenced";
    EXPECT_TRUE(wait_for([&] { return set.core(p).armed(); },
                         std::chrono::seconds(2)))
        << "partition " << p << ": never re-armed";
  }
  hn::Request r;
  r.key = 1;
  EXPECT_TRUE(set.call(0, 0, r).ok);
  r.key = 1001;
  EXPECT_TRUE(set.call(1, 0, r).ok);
  set.stop();
}

TEST(CombinerPool, LostDoorbellRecoveredByKick) {
  // A post whose doorbell is dropped (kLostWakeup) leaves the parked pool
  // thread asleep with the request pending; kick() must wake it, and the
  // woken thread must re-scan and serve the request.
  if constexpr (!hn::fault::kCompiledIn) {
    GTEST_SKIP() << "fault injector compiled out (HYBRIDS_FAULTS=OFF)";
  }
  hn::NmpCore core(0, 2, [](const hn::Request&, hn::Response& resp) {
    resp.ok = true;
  });
  hn::CombinerPool pool({&core}, 1);
  pool.start();
  // Let the thread run out of work and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hn::fault::Config fc;
  fc.enable(hn::fault::Kind::kLostWakeup, 1.0);
  hn::fault::FaultInjector::arm(fc);
  core.post(0, hn::Request{});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(core.slot(0).done()) << "the doorbell was not dropped";
  hn::fault::FaultInjector::disarm();
  core.kick();
  EXPECT_TRUE(wait_for([&] { return core.slot(0).done(); },
                       std::chrono::seconds(1)));
  EXPECT_TRUE(core.slot(0).take().ok);
  pool.stop();
  if constexpr (ht::kEnabled) {
    EXPECT_GT(ht::snapshot().counter_total(
                  std::string(ht::names::kFaultInjectedPrefix) +
                  hn::fault::kind_name(hn::fault::Kind::kLostWakeup)),
              0u);
  }
}
