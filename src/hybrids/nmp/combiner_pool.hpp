// The threads that serve NMP partitions.
//
// A CombinerPool runs a few service threads over many NmpCores: each thread
// is assigned a set of partitions and runs their combiner passes
// (NmpCore::scan_and_serve) round-robin, re-scanning a partition only when
// its post counter moved. This follows the paper's programming model — a
// partition is served by exactly one thread at any instant, which takes the
// partition's pass token for the whole pass — without dedicating a thread
// to every partition: with more partitions than free cores, one thread per
// partition only adds parks, wakes and context switches to every offload.
//
// Idle threads spin briefly (when the host leaves a core free for it), then
// park on their doorbell with the Dekker handshake of publication.hpp, so a
// post makes the futex syscall only when its server is actually parked.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "hybrids/nmp/nmp_core.hpp"
#include "hybrids/telemetry/registry.hpp"

namespace hybrids::nmp {

class CombinerPool {
 public:
  /// Serves `cores` with `threads` service threads (clamped to
  /// [1, cores.size()]); core i starts on thread i % threads. With
  /// `idle_spin` a thread that runs out of work spins for a short budget
  /// before it parks — worth it only when it has a core of its own.
  CombinerPool(std::vector<NmpCore*> cores, std::uint32_t threads,
               bool idle_spin = false);
  ~CombinerPool();

  CombinerPool(const CombinerPool&) = delete;
  CombinerPool& operator=(const CombinerPool&) = delete;

  /// Arms every core at its current fence epoch and launches the threads.
  /// Idempotent.
  void start();
  /// Drains every armed core and joins the threads. Idempotent.
  void stop();

  /// Service threads currently running (grows past the initial count only
  /// when rearm() finds every thread wedged).
  std::uint32_t threads() const {
    return worker_count_.load(std::memory_order_acquire);
  }

  /// Hands core `index` back to the pool after a failover: the caller holds
  /// its pass token (NmpCore::try_seize). The core is armed at its current
  /// fence epoch on its previous thread — unless that thread has been inside
  /// one pass for longer than `stuck_after` (a handler that does not
  /// return), in which case the core moves to the least-loaded thread that
  /// is not, or to a new thread if every thread is wedged (at most one
  /// thread per core). Releases the token. Supervisor only, while started.
  void rearm(std::uint32_t index, std::chrono::nanoseconds stuck_after);

 private:
  struct Worker {
    Doorbell bell;
    // steady_clock ns when the current pass began; 0 between passes. Read
    // by rearm() to tell a wedged thread from a busy one.
    std::atomic<std::int64_t> pass_since{0};
    std::uint32_t assigned = 0;  // cores owned (rearm's load balance)
    std::thread thread;
  };

  void launch(Worker& w);
  void serve(Worker& w);
  /// Serves core `index` once if it is armed and its token is free.
  /// Returns whether the thread spent the pass on it. Resets `seen` (the
  /// core's entry in the thread's scan record) when the token was busy.
  bool serve_core(Worker& w, std::size_t index, std::uint64_t& seen);
  /// True if the thread should run another round instead of parking.
  bool has_work(const Worker& w, const std::vector<std::uint64_t>& seen,
                std::uint32_t word) const;
  bool wedged(const Worker& w, std::chrono::nanoseconds stuck_after) const;

  std::vector<NmpCore*> cores_;
  std::uint32_t initial_threads_;
  bool idle_spin_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::uint32_t> owner_;  // worker index per core
  std::atomic<std::uint32_t> worker_count_{0};
  std::atomic<bool> stop_{false};
  telemetry::Counter* park_;
  telemetry::Counter* spin_hit_;
};

}  // namespace hybrids::nmp
