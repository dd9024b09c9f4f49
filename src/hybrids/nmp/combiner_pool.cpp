#include "hybrids/nmp/combiner_pool.hpp"

#include <algorithm>
#include <cassert>

#include "hybrids/nmp/fault.hpp"
#include "hybrids/util/backoff.hpp"
#include "hybrids/util/futex.hpp"

namespace hybrids::nmp {

namespace {
// How long an idle thread polls its partitions' post counters before it
// parks: about 15 post -> reply ping-pongs (p99 1.0-1.6 us on a 4-vCPU
// Xeon), so a closed-loop host's next post almost always lands inside it
// and skips both the park and the doorbell syscall. On perfbench's
// skiplist_ycsbc (2 blocking hosts, 2 pool threads) parks per offload went
// 0.63 / 0.085 / 0.02 / 0.0005 / 0.00013 for no spin and 5, 10, 20, 50 us,
// while op p50 was 8.8 us without the spin and 2.0-2.3 us with any of them.
constexpr std::chrono::microseconds kIdleSpin{20};

// seen[] value that forces a scan: no post counter ever reaches it.
constexpr std::uint64_t kNever = ~std::uint64_t{0};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

CombinerPool::CombinerPool(std::vector<NmpCore*> cores, std::uint32_t threads,
                           bool idle_spin)
    : cores_(std::move(cores)),
      initial_threads_(std::clamp<std::uint32_t>(
          threads, 1, static_cast<std::uint32_t>(cores_.size()))),
      idle_spin_(idle_spin),
      owner_(cores_.size(), 0) {
  assert(!cores_.empty());
  namespace tn = telemetry::names;
  park_ = &telemetry::counter(tn::kParkTotal);
  spin_hit_ = &telemetry::counter(tn::kIdleSpinHitTotal);
}

CombinerPool::~CombinerPool() { stop(); }

void CombinerPool::start() {
  if (!workers_.empty()) return;
  stop_.store(false, std::memory_order_relaxed);
  for (std::uint32_t t = 0; t < initial_threads_; ++t) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    NmpCore& c = *cores_[i];
    owner_[i] = static_cast<std::uint32_t>(i % initial_threads_);
    ++workers_[owner_[i]]->assigned;
    c.bell_.store(&workers_[owner_[i]]->bell, std::memory_order_release);
    c.armed_.store(c.fence_.load(std::memory_order_acquire),
                   std::memory_order_release);
  }
  for (auto& w : workers_) launch(*w);
}

void CombinerPool::stop() {
  if (workers_.empty()) return;
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& w : workers_) w->bell.ring();
  for (auto& w : workers_) w->thread.join();
  for (NmpCore* c : cores_) c->bell_.store(nullptr, std::memory_order_release);
  workers_.clear();
  worker_count_.store(0, std::memory_order_release);
}

void CombinerPool::launch(Worker& w) {
  w.thread = std::thread([this, &w] { serve(w); });
  worker_count_.fetch_add(1, std::memory_order_acq_rel);
}

bool CombinerPool::wedged(const Worker& w,
                          std::chrono::nanoseconds stuck_after) const {
  const std::int64_t since = w.pass_since.load(std::memory_order_acquire);
  return since != 0 && steady_ns() - since > stuck_after.count();
}

void CombinerPool::rearm(std::uint32_t index,
                         std::chrono::nanoseconds stuck_after) {
  assert(!workers_.empty());
  NmpCore& c = *cores_[index];
  std::uint32_t to = owner_[index];
  if (wedged(*workers_[to], stuck_after)) {
    // The old server is stuck inside some partition's handler: move this
    // core to a live thread so it does not share the stall.
    const auto n = static_cast<std::uint32_t>(workers_.size());
    std::uint32_t best = n;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (j == to || wedged(*workers_[j], stuck_after)) continue;
      if (best == n || workers_[j]->assigned < workers_[best]->assigned) {
        best = j;
      }
    }
    if (best == n && n < cores_.size()) {
      workers_.push_back(std::make_unique<Worker>());
      launch(*workers_.back());
    }
    if (best < workers_.size()) {
      --workers_[to]->assigned;
      ++workers_[best]->assigned;
      owner_[index] = to = best;
    }
  }
  Worker& w = *workers_[to];
  c.bell_.store(&w.bell, std::memory_order_seq_cst);
  c.armed_.store(c.fence_.load(std::memory_order_acquire),
                 std::memory_order_seq_cst);
  c.release_pass();
  // The bump makes the thread re-scan the core (posts made while it was
  // disarmed are still pending); the ring reaches it even if it is parked
  // or has not learned it owns the core yet.
  c.pending_.fetch_add(1, std::memory_order_seq_cst);
  w.bell.ring();
}

bool CombinerPool::serve_core(Worker& w, std::size_t index,
                              std::uint64_t& seen) {
  NmpCore& c = *cores_[index];
  const std::uint64_t epoch = c.armed_.load(std::memory_order_acquire);
  if (epoch != c.fence_.load(std::memory_order_acquire)) return false;
  if (!c.try_acquire_pass()) {
    // Another holder has the token for a moment: the thread a rearm just
    // moved this core away from, which took the token before re-checking
    // bell_ below and is about to back off. Keep the core due so the next
    // round retries it instead of leaving its posts to the waiting host's
    // kick.
    seen = kNever;
    return false;
  }
  // Re-check under the token: a fence, or a rearm that moved the core to
  // another thread, may have landed since the loads above.
  if (c.bell_.load(std::memory_order_acquire) != &w.bell ||
      c.armed_.load(std::memory_order_acquire) != epoch ||
      c.fence_.load(std::memory_order_acquire) != epoch) {
    c.release_pass();
    return false;
  }
  w.pass_since.store(steady_ns(), std::memory_order_release);
  // Lifecycle fault hooks: abort kills this partition's server (the core is
  // disarmed until the supervisor re-arms it); wedge hangs the pass — the
  // thread holds the token, serving nothing, until the core is fenced (or
  // the pool stops, so an unfenced wedge cannot hang shutdown), like a
  // handler that does not return.
  if (fault::kCompiledIn && fault::FaultInjector::armed()) {
    if (fault::FaultInjector::fire(fault::Kind::kCombinerAbort, c.id_)) {
      c.armed_.store(NmpCore::kDisarmed, std::memory_order_release);
      c.release_pass();
      w.pass_since.store(0, std::memory_order_release);
      return true;
    }
    if (fault::FaultInjector::fire(fault::Kind::kCombinerWedge, c.id_)) {
      while (c.fence_.load(std::memory_order_acquire) == epoch &&
             !stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      c.release_pass();
      w.pass_since.store(0, std::memory_order_release);
      return true;
    }
  }
  // Fault hook: a stalled combiner sleeps before scanning, starving every
  // partition of this thread for the stall window (watchdog territory).
  fault::maybe_stall(fault::Kind::kCombinerStall, c.id_);
  c.scan_and_serve(epoch);
  c.release_pass();
  w.pass_since.store(0, std::memory_order_release);
  return true;
}

bool CombinerPool::has_work(const Worker& w,
                            const std::vector<std::uint64_t>& seen,
                            std::uint32_t word) const {
  // seq_cst loads: this is the server's half of the doorbell handshake
  // when called after `parked` is raised.
  if (stop_.load(std::memory_order_seq_cst)) return true;
  if (w.bell.word.load(std::memory_order_seq_cst) != word) return true;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const NmpCore& c = *cores_[i];
    if (c.bell_.load(std::memory_order_seq_cst) == &w.bell &&
        c.pending_.load(std::memory_order_seq_cst) != seen[i]) {
      return true;
    }
  }
  return false;
}

void CombinerPool::serve(Worker& w) {
  // seen[i]: core i's post counter when this thread last scanned it. A
  // round scans only cores whose counter moved, plus every core after a
  // ring (kick, rearm, stop).
  std::vector<std::uint64_t> seen(cores_.size(), kNever);
  std::uint32_t last_word = w.bell.word.load(std::memory_order_seq_cst);
  while (true) {
    const bool stopping = stop_.load(std::memory_order_seq_cst);
    const std::uint32_t word = w.bell.word.load(std::memory_order_seq_cst);
    if (word != last_word) {
      std::fill(seen.begin(), seen.end(), kNever);
      last_word = word;
    }
    bool worked = false;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      NmpCore& c = *cores_[i];
      if (c.bell_.load(std::memory_order_acquire) != &w.bell) {
        seen[i] = kNever;
        continue;
      }
      const std::uint64_t cur = c.pending_.load(std::memory_order_seq_cst);
      if (cur == seen[i]) continue;
      // Consumed even when the core is disarmed: a rearm bumps the counter
      // again. serve_core puts it back when the token was busy.
      seen[i] = cur;
      worked |= serve_core(w, i, seen[i]);
    }
    if (worked) continue;
    if (stopping) break;
    if (idle_spin_) {
      const std::int64_t until =
          steady_ns() + std::chrono::nanoseconds(kIdleSpin).count();
      bool hit = false;
      for (std::uint32_t i = 0; !hit; ++i) {
        hit = has_work(w, seen, word);
        if ((i & 31) == 31 && steady_ns() >= until) break;
        util::cpu_relax();
      }
      if (hit) {
        spin_hit_->inc();
        continue;
      }
    }
    w.bell.parked.store(1, std::memory_order_seq_cst);
    const std::uint32_t parked_word =
        w.bell.word.load(std::memory_order_seq_cst);
    if (!has_work(w, seen, word)) {
      park_->inc();
      util::futex_wait(w.bell.word, parked_word);
    }
    w.bell.parked.store(0, std::memory_order_relaxed);
  }
}

}  // namespace hybrids::nmp
