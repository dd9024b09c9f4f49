#include "hybrids/nmp/partition_set.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "hybrids/trace/trace.hpp"

namespace hybrids::nmp {

namespace {
void validate_config(const PartitionConfig& c) {
  std::string bad;
  auto require = [&](bool ok, const char* field) {
    if (!ok) {
      if (!bad.empty()) bad += ", ";
      bad += field;
    }
  };
  require(c.partitions > 0, "partitions");
  require(c.partition_width > 0, "partition_width");
  require(c.max_threads > 0, "max_threads");
  require(c.slots_per_thread > 0, "slots_per_thread");
  if (!bad.empty()) {
    throw std::invalid_argument(
        "PartitionConfig: " + bad +
        " must be nonzero (partition_of divides keys by partition_width; "
        "slot layout needs at least one thread with one async slot)");
  }
  if (c.watchdog_interval_ms > 0 &&
      (c.watchdog_misses_to_degrade == 0 ||
       c.watchdog_misses_to_recover == 0)) {
    // A zero degrade threshold used to pass validation but could never fire
    // (the miss counter is compared after incrementing), silently meaning
    // "never degrade"; a zero recover threshold would re-integrate a lane
    // with no evidence of progress.
    throw std::invalid_argument(
        "PartitionConfig: watchdog_misses_to_degrade and "
        "watchdog_misses_to_recover must be nonzero while the watchdog is "
        "enabled (watchdog_interval_ms > 0)");
  }
}
}  // namespace

PartitionSet::PartitionSet(const PartitionConfig& config) : config_(config) {
  validate_config(config_);
  const std::uint32_t slots =
      config_.max_threads * (1 + config_.slots_per_thread);
  cores_.reserve(config_.partitions);
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    cores_.push_back(std::make_unique<NmpCore>(p, slots, NmpCore::Handler{}));
  }
  batch_handlers_.resize(config_.partitions);
  async_busy_.assign(config_.partitions, std::vector<std::uint8_t>(slots, 0));
  watch_.assign(config_.partitions, WatchState{});
  lane_ = std::make_unique<std::atomic<std::uint8_t>[]>(config_.partitions);
  force_failover_ = std::make_unique<std::atomic<bool>[]>(config_.partitions);
  failovers_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(config_.partitions);
  recoveries_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(config_.partitions);
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    lane_[p].store(kHealthy, std::memory_order_relaxed);
    force_failover_[p].store(false, std::memory_order_relaxed);
    failovers_[p].store(0, std::memory_order_relaxed);
    recoveries_[p].store(0, std::memory_order_relaxed);
  }
  namespace tn = telemetry::names;
  watchdog_fired_.reserve(config_.partitions);
  degraded_counter_.reserve(config_.partitions);
  failover_counter_.reserve(config_.partitions);
  recovered_counter_.reserve(config_.partitions);
  bounced_counter_.reserve(config_.partitions);
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    const auto scope = static_cast<std::int32_t>(p);
    watchdog_fired_.push_back(&telemetry::counter(tn::kWatchdogFired, scope));
    degraded_counter_.push_back(
        &telemetry::counter(tn::kPartitionDegraded, scope));
    failover_counter_.push_back(
        &telemetry::counter(tn::kPartitionFailover, scope));
    recovered_counter_.push_back(
        &telemetry::counter(tn::kPartitionRecovered, scope));
    bounced_counter_.push_back(
        &telemetry::counter(tn::kFailoverBouncedOps, scope));
  }
  calls_blocking_ = &telemetry::counter(tn::kCallBlocking);
  calls_async_ = &telemetry::counter(tn::kCallAsync);
  async_rejected_ = &telemetry::counter(tn::kAsyncRejected);
  async_inflight_ = &telemetry::latency(tn::kAsyncInflight);
}

PartitionSet::~PartitionSet() { stop(); }

std::uint32_t PartitionSet::combiner_threads() const {
  if (pool_) return pool_->threads();
  if (config_.combiner_threads > 0) {
    return std::min(config_.combiner_threads, config_.partitions);
  }
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t free = hw > config_.max_threads ? hw - config_.max_threads : 1;
  return std::min(config_.partitions, free);
}

void PartitionSet::set_handler(std::uint32_t p, NmpCore::Handler handler) {
  assert(!started_);
  // Rebuild the core with the handler installed (cores are cheap pre-start),
  // then re-apply any batch handler the rebuild discarded.
  const std::uint32_t slots = cores_[p]->slot_count();
  cores_[p] = std::make_unique<NmpCore>(p, slots, std::move(handler));
  if (batch_handlers_[p]) cores_[p]->set_batch_handler(batch_handlers_[p]);
}

void PartitionSet::set_batch_handler(std::uint32_t p,
                                     NmpCore::BatchHandler handler) {
  assert(!started_);
  batch_handlers_[p] = std::move(handler);
  cores_[p]->set_batch_handler(batch_handlers_[p]);
}

void PartitionSet::start() {
  if (started_) return;
  started_ = true;
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    lane_[p].store(kHealthy, std::memory_order_relaxed);
    force_failover_[p].store(false, std::memory_order_relaxed);
  }
  std::vector<NmpCore*> cores;
  for (auto& c : cores_) cores.push_back(c.get());
  const bool idle_spin =
      std::thread::hardware_concurrency() > config_.max_threads;
  pool_ = std::make_unique<CombinerPool>(std::move(cores), combiner_threads(),
                                         idle_spin);
  pool_->start();
  if (config_.watchdog_interval_ms > 0) {
    watchdog_stop_ = false;
    watch_.assign(config_.partitions, WatchState{});
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

void PartitionSet::stop() {
  if (!started_) return;
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
  pool_->stop();
  pool_.reset();
  started_ = false;
}

void PartitionSet::watchdog_loop() {
  std::unique_lock<std::mutex> lk(watchdog_mu_);
  const auto interval =
      std::chrono::milliseconds(config_.watchdog_interval_ms);
  while (!watchdog_cv_.wait_for(lk, interval, [this] { return watchdog_stop_; })) {
    for (std::uint32_t p = 0; p < config_.partitions; ++p) supervise(p);
  }
}

// One watchdog tick for partition p: progress accounting plus the failover
// lane state machine (see the transition table in partition_set.hpp).
//
// Stall/progress semantics (this is the watchdog-flap fix): the miss counter
// saturates instead of relying on exact equality, and neither it nor the
// degraded state is cleared by an *idle* interval — a wedged-but-unposted
// combiner must not read healthy. Only observed served() progress clears
// misses, and a recovering lane re-integrates only after
// watchdog_misses_to_recover consecutive progressing intervals.
void PartitionSet::supervise(std::uint32_t p) {
  NmpCore& core = *cores_[p];
  WatchState& w = watch_[p];
  // Read served before posted: if the core caught up in between we see
  // served >= posted and correctly count it as progress.
  const std::uint64_t served = core.served();
  const std::uint64_t posted = core.posted();
  const bool outstanding = posted > served;
  const bool progressed = served != w.last_served;
  // A lane the pool should be serving whose core is disarmed has lost its
  // server (kCombinerAbort): a miss even while idle, so the death is
  // recovered before the next post has to wait it out. Only the supervisor
  // fences and re-arms, so no lane transition can race this read.
  const bool dead = !core.armed();
  const bool forced =
      force_failover_[p].exchange(false, std::memory_order_acq_rel);
  const LaneState state = lane(p);
  if (state == kFenced) {
    // Waiting for the zombie to unwind; retry the reap every tick.
    recover(p);
    return;
  }
  w.last_served = served;  // recover() re-baselines after a bounce
  if ((outstanding && !progressed) || dead || forced) {
    // Missed heartbeat: re-wake the combiner (recovers lost wakeups and
    // nudges a descheduled thread) and escalate once the saturating miss
    // counter crosses the threshold (or a test forced the failover).
    watchdog_fired_[p]->inc();
    core.kick();
    w.clean = 0;  // a stall breaks any consecutive-progress streak
    if (w.misses != ~0u) ++w.misses;
    if (forced || w.misses >= config_.watchdog_misses_to_degrade) {
      if (state == kHealthy) degraded_counter_[p]->inc();
      fence(p);
    }
  } else if (progressed) {
    w.misses = 0;
    if (state == kRecovering &&
        ++w.clean >= config_.watchdog_misses_to_recover) {
      // Hysteresis met: re-integrate. The counts go before the lane's
      // release store, so a caller that reads degraded() == false also
      // reads this recovery.
      w.clean = 0;
      recovered_counter_[p]->inc();
      recoveries_[p].fetch_add(1, std::memory_order_relaxed);
      lane_[p].store(kHealthy, std::memory_order_release);
    }
  }
}

void PartitionSet::fence(std::uint32_t p) {
  cores_[p]->fence_raise();
  lane_[p].store(kFenced, std::memory_order_release);
  failover_counter_[p]->inc();
  failovers_[p].fetch_add(1, std::memory_order_relaxed);
  watch_[p].clean = 0;
  // With no pass in flight (kCombinerAbort, or an idle lane) the token is
  // free, so the common kill case completes fence -> bounce -> re-arm in
  // one tick.
  recover(p);
}

void PartitionSet::recover(std::uint32_t p) {
  NmpCore& core = *cores_[p];
  if (!core.try_seize()) return;  // fenced pass still running; next tick
  // Sole writer from here: no pass can run without the token, and hosts
  // never write a slot they have posted until it turns kDone.
  const std::uint64_t bounced = bounce_pending(p);
  if (bounced > 0) {
    bounced_counter_[p]->add(bounced);
    // Bounced ops never reached complete(): credit them as served so the
    // posted-vs-served progress check converges again.
    core.absorb_bounce(bounced);
  }
  WatchState& w = watch_[p];
  w.misses = 0;
  w.clean = 0;
  lane_[p].store(kRecovering, std::memory_order_release);
  pool_->rearm(p, stuck_after());
  // Progress baseline restarts from the post-bounce count, so the bounce
  // credit itself cannot masquerade as served progress next tick.
  w.last_served = core.served();
}

std::uint64_t PartitionSet::bounce_pending(std::uint32_t p) {
  NmpCore& core = *cores_[p];
  std::uint64_t bounced = 0;
  for (std::uint32_t i = 0; i < core.slot_count(); ++i) {
    PubSlot& s = core.slot(i);
    if (s.status.load(std::memory_order_acquire) != PubSlot::kPending) {
      continue;
    }
    Response r{};
    r.failed_over = true;
    s.resp = r;
    if constexpr (trace::kCompiledIn) {
      if (s.req.trace_id != 0) {
        s.done_ns = telemetry::now_ns();
        trace::record_instant(s.req.trace_id, trace::Phase::kFailover,
                              s.done_ns, static_cast<std::uint8_t>(s.req.op),
                              static_cast<std::int16_t>(p));
      }
    }
    s.publish_done();
    ++bounced;
  }
  return bounced;
}

Response PartitionSet::call(std::uint32_t p, std::uint32_t thread_id,
                            const Request& r) {
  NmpCore& core = *cores_[p];
  const std::uint32_t slot = thread_base(thread_id);
  calls_blocking_->inc();
  // A fenced lane has no server at all: bounce immediately rather than
  // posting into a dead publication list (the host never blocks on a fenced
  // partition). The lane can still flip right after this check; a post
  // caught by a fence is answered by the fenced pass or bounced by the
  // supervisor sweep, so the wait below always ends.
  if (lane(p) == kFenced) return bounce_response(p, r);
  const auto part = static_cast<std::int16_t>(p);
  const auto op = static_cast<std::uint8_t>(r.op);
  const std::uint64_t t0 = r.trace_id ? telemetry::now_ns() : 0;
  core.post(slot, r);
  trace::record_span(r.trace_id, trace::Phase::kPublish, t0,
                     r.trace_id ? telemetry::now_ns() : 0, op, part);
  core.wait_done(slot);
  PubSlot& s = core.slot(slot);
  // done_ns was plain-written by the combiner before its kDone release
  // store, which wait_done's acquire load synchronized with.
  trace::record_span(r.trace_id, trace::Phase::kWake, s.done_ns,
                     r.trace_id ? telemetry::now_ns() : 0, op, part);
  return s.take();
}

Response PartitionSet::bounce_response(std::uint32_t p, const Request& r) {
  bounced_counter_[p]->inc();
  trace::record_instant(r.trace_id, trace::Phase::kFailover,
                        r.trace_id ? telemetry::now_ns() : 0,
                        static_cast<std::uint8_t>(r.op),
                        static_cast<std::int16_t>(p));
  Response resp{};
  resp.failed_over = true;
  return resp;
}

OpHandle PartitionSet::call_async(std::uint32_t p, std::uint32_t thread_id,
                                  const Request& r) {
  // No async post into a fenced lane, which has no server. Callers fall
  // back to the blocking call, which bounces.
  if (lane(p) == kFenced) {
    async_rejected_->inc();
    return OpHandle{};
  }
  auto& busy = async_busy_[p];
  const std::uint32_t base = thread_base(thread_id);
  for (std::uint32_t i = 1; i <= config_.slots_per_thread; ++i) {
    if (!busy[base + i]) {
      busy[base + i] = 1;
      const std::uint64_t t0 = r.trace_id ? telemetry::now_ns() : 0;
      cores_[p]->post(base + i, r);
      trace::record_span(r.trace_id, trace::Phase::kPublish, t0,
                         r.trace_id ? telemetry::now_ns() : 0,
                         static_cast<std::uint8_t>(r.op),
                         static_cast<std::int16_t>(p));
      calls_async_->inc();
      if constexpr (telemetry::kEnabled) {
        // In-flight depth of this thread's window against partition p,
        // including the post we just made (only the owner writes `busy`).
        std::uint32_t depth = 0;
        for (std::uint32_t j = 1; j <= config_.slots_per_thread; ++j) {
          depth += busy[base + j];
        }
        async_inflight_->record(depth);
      }
      return OpHandle{p, base + i, true};
    }
  }
  async_rejected_->inc();
  return OpHandle{};
}

bool PartitionSet::poll(const OpHandle& h) {
  assert(h.valid);
  return cores_[h.partition]->slot(h.slot).done();
}

Response PartitionSet::retrieve(const OpHandle& h) {
  assert(h.valid);
  NmpCore& core = *cores_[h.partition];
  core.wait_done(h.slot);
  PubSlot& s = core.slot(h.slot);
  // Read the trace fields before take() releases the slot for re-posting.
  // req is safe to read here: the combiner stopped touching the slot at its
  // kDone store, and only this (owning) thread can recycle it.
  trace::record_span(s.req.trace_id, trace::Phase::kWake, s.done_ns,
                     s.req.trace_id ? telemetry::now_ns() : 0,
                     static_cast<std::uint8_t>(s.req.op),
                     static_cast<std::int16_t>(h.partition));
  Response r = s.take();
  async_busy_[h.partition][h.slot] = 0;
  return r;
}

}  // namespace hybrids::nmp
