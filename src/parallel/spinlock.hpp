// Test-and-test-and-set spinlock used as the per-owner cube lock of the
// locked spread kernel (cube_spread_force).
//
// Algorithm 4 of the paper protects each thread's subset of cubes with the
// owner thread's private lock; threads spreading fiber forces into foreign
// cubes acquire the owner's lock first. (CubeSolver itself spreads
// owner-computes and takes no lock; see core/cube_solver.hpp.) Critical sections are tiny (a few
// scattered adds), so a spinlock beats a futex-backed std::mutex.
//
// Memory-order / TSan notes. The lock is acquired only through the
// exchange(acquire); the inner while-loop is a pure wait that performs no
// acquisition itself, so its loads can be memory_order_relaxed — the
// acquire that synchronizes-with the previous holder's release-store in
// unlock() is the exchange retried after the spin observes the flag clear.
// ThreadSanitizer models every std::atomic access, so the relaxed spin
// load is *not* a race and needs no suppression; what TSan verifies is
// that data written under the lock is published by the release/acquire
// pair on flag_. The test suite exercises this under -fsanitize=thread
// (tests/parallel/test_spinlock.cpp, scripts/run_sanitized_tests.sh).
#pragma once

#include <atomic>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/modelcheck.hpp"
#include "parallel/race_detector.hpp"
#include "parallel/thread_safety.hpp"

namespace lbmib {

class LBMIB_CAPABILITY("SpinLock") SpinLock {
 public:
  SpinLock() = default;

  ~SpinLock() {
    LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active())
                         rd->forget_sync(this);)
  }

  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() LBMIB_ACQUIRE() {
    // Model-checked path: the acquisition is a schedule point and a
    // contended wait parks cooperatively until unlock()'s notify, so
    // the engine can enumerate acquisition orders and a lock whose
    // holder never releases shows up as a structural deadlock.
    LBMIB_MC_CHECK(if (mc::active()) {
      mc::sched_point(mc::Op::kLockAcquire, this);
      const CancelToken* token = CancelToken::current();
      for (;;) {
        if (!flag_.exchange(true, std::memory_order_acquire)) {
          LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active())
                               rd->lock_acquire(this);)
          return;
        }
        mc::wait_until(this, [this, token] {
          return !flag_.load(std::memory_order_relaxed) ||
                 (token != nullptr && token->cancelled());
        });
        if (flag_.load(std::memory_order_relaxed) && token != nullptr &&
            token->cancelled()) {
          cancel_point("SpinLock::lock");
        }
      }
    })
    // Contended spin iterations feed lbmib_spinlock_spins_total when a
    // tracing session is live; the counter add happens once per
    // contended acquisition, outside the spin loop.
    LBMIB_TRACE_ON(std::int64_t trace_spins = 0;)
    for (;;) {
      // Optimistically try to grab the lock.
      if (!flag_.exchange(true, std::memory_order_acquire)) {
        LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active())
                             rd->lock_acquire(this);)
        LBMIB_TRACE_ON(if (trace_spins > 0 && obs::Tracer::active()) {
          obs::metric_spinlock_spins().inc(
              static_cast<double>(trace_spins));
        })
        return;
      }
      // Spin on a plain load to avoid cache-line ping-pong. Relaxed is
      // sufficient: see the header comment. The occasional CancelToken
      // poll makes a wait on a lock whose holder died (or stalled
      // forever) cancellable; critical sections are a few adds, so
      // 2^14 spins of patience never fires on a healthy lock.
      int cancel_check = 0;
      while (flag_.load(std::memory_order_relaxed)) {
        LBMIB_TRACE_ON(++trace_spins;)
        if ((++cancel_check & 0x3FFF) == 0) cancel_point("SpinLock::lock");
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
  }

  bool try_lock() LBMIB_TRY_ACQUIRE(true) {
    LBMIB_MC_CHECK(mc::sched_point(mc::Op::kLockTryAcquire, this);)
    // Test first so a failing try_lock doesn't bounce the cache line
    // exclusive between contenders.
    if (flag_.load(std::memory_order_relaxed)) return false;
    const bool acquired = !flag_.exchange(true, std::memory_order_acquire);
    LBMIB_RACE_CHECK(if (acquired) {
      if (RaceDetector* rd = RaceDetector::active()) rd->lock_acquire(this);
    })
    return acquired;
  }

  void unlock() LBMIB_RELEASE() {
    LBMIB_MC_CHECK(mc::sched_point(mc::Op::kLockRelease, this);)
    // Release the detector edge before the real release-store so the
    // next acquirer's hook always observes it.
    LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active())
                         rd->lock_release(this);)
    flag_.store(false, std::memory_order_release);
    LBMIB_MC_CHECK(mc::notify(this);)
  }

 private:
  std::atomic<bool> flag_{false};
};

/// RAII guard for SpinLock (CP.20: never plain lock()/unlock()).
class LBMIB_SCOPED_CAPABILITY SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) LBMIB_ACQUIRE(lock) : lock_(lock) {
    lock_.lock();
  }
  ~SpinLockGuard() LBMIB_RELEASE() { lock_.unlock(); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace lbmib
