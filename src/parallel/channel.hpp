// Blocking message channel — the building block of the in-process
// message-passing layer used by the distributed-memory solver.
//
// The paper's first future-work item is extending the cube-based
// implementation "to extreme-scale distributed memory manycore systems".
// Distributed2DSolver (both SolverKinds kDistributed and kDistributed2D)
// realizes that algorithm with ranks that share no fluid state and
// communicate only through these channels; porting it to MPI means
// replacing Channel/Communicator with MPI_Send/MPI_Recv and nothing else.
//
// Each delivered message is also a happens-before edge: the receiver
// acquires the clock the sender released (RaceDetector::channel_send/
// channel_recv, called inside the critical section so the detector's
// clock FIFO stays aligned with the message FIFO). That is how the
// distributed solver's halo exchanges order cross-rank accesses for the
// race detector without any solver-side hooks.
// recv() is a cancellation point (parallel/cancel.hpp): it polls the
// installed CancelToken on a bounded wait, so a receiver whose message
// was lost (a dropped halo packet, a dead sender) unwinds with
// CancelledError instead of blocking forever. try_recv()/recv_for()
// give callers non-blocking and deadline-bounded variants; all three
// issue the same channel_recv clock edge as recv(), and only on a
// successful dequeue — the detector's clock FIFO must pop exactly when
// the message FIFO does.
//
// send() consults the chaos switchboard (parallel/chaos.hpp) when a
// fault is armed: a dropped message is discarded before the queue push
// and before any clock edge (to the detector it never happened, exactly
// like a packet lost on the wire); a duplicated one is pushed twice
// with two send edges.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/chaos.hpp"
#include "parallel/modelcheck.hpp"
#include "parallel/mutex.hpp"
#include "parallel/race_detector.hpp"

namespace lbmib {

/// Unbounded FIFO channel. send() never blocks; recv() blocks until a
/// message is available. Multiple producers and consumers are safe.
template <class T>
class Channel {
 public:
  Channel() = default;

  ~Channel() {
    // A channel destroyed with undelivered messages would otherwise
    // leave stale clocks behind for a future channel at this address,
    // desynchronizing that channel's clock FIFO from its message FIFO.
    LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active())
                         rd->forget_sync(this);)
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T value) {
    // Schedule point before the push; the mc::notify after the push is
    // what model-checked receivers cooperatively wait on (the condvar
    // notify below is a no-op for them).
    LBMIB_MC_CHECK(mc::sched_point(mc::Op::kChanSend, this);)
    int copies = 1;
    if (chaos::enabled()) {
      switch (chaos::on_channel_send()) {
        case chaos::SendAction::kDrop:
          return;  // lost on the wire: no push, no clock edge
        case chaos::SendAction::kDuplicate:
          copies = 2;
          break;
        case chaos::SendAction::kDeliver:
          break;
      }
    }
    {
      MutexLock lock(mutex_);
      for (int i = 0; i < copies; ++i) {
        queue_.push_back(i + 1 < copies ? value : std::move(value));
        // Peak backlog across every channel: how far the consumer side
        // of a halo exchange lags its producers.
        LBMIB_TRACE_ON(if (obs::Tracer::active()) {
          obs::metric_channel_queue_depth_peak().max_of(
              static_cast<double>(queue_.size()));
        })
        LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active())
                             rd->channel_send(this);)
      }
    }
    if (copies > 1) cv_.notify_all();
    else cv_.notify_one();
    LBMIB_MC_CHECK(mc::notify(this);)
  }

  T recv() {
    // Model-checked path: replace the bounded condvar poll with a
    // cooperative wait so the engine sees a blocked receiver (a message
    // that can never arrive is a structural deadlock, and a send/recv
    // ordering that loses the wakeup would show as one too).
    LBMIB_MC_CHECK(if (mc::active()) {
      mc::sched_point(mc::Op::kChanRecv, this);
      const CancelToken* token = CancelToken::current();
      for (;;) {
        {
          MutexLock lock(mutex_);
          if (!queue_.empty()) return pop_locked();
        }
        mc::wait_until(this, [this, token] {
          MutexLock lock(mutex_);
          return !queue_.empty() ||
                 (token != nullptr && token->cancelled());
        });
        {
          MutexLock lock(mutex_);
          if (!queue_.empty()) return pop_locked();
        }
        // Woken with an empty queue: only cancellation can do that
        // (no schedule point separates the wakeup from the re-check).
        cancel_point("Channel::recv");
      }
    })
    MutexLock lock(mutex_);
    while (queue_.empty()) {
      // Bounded wait so a receiver whose message never arrives can be
      // cancelled; 20 ms idle-poll, zero extra wakeups when messages
      // flow (the sender's notify ends the wait early).
      if (!mutex_.wait_for(cv_, std::chrono::milliseconds(20)) &&
          queue_.empty()) {
        cancel_point("Channel::recv");
      }
    }
    return pop_locked();
  }

  /// Non-blocking receive: the next message, or nullopt when the
  /// channel is empty right now.
  std::optional<T> try_recv() {
    LBMIB_MC_CHECK(mc::sched_point(mc::Op::kChanTryRecv, this);)
    MutexLock lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    return pop_locked();
  }

  /// Bounded-blocking receive: waits up to `timeout` for a message,
  /// then returns nullopt. Polls the CancelToken like recv().
  template <class Rep, class Period>
  std::optional<T> recv_for(std::chrono::duration<Rep, Period> timeout) {
    // Model-checked path: the deadline is abstracted away — the
    // scheduler may fire the timeout as an explicit transition at any
    // point while the receiver is blocked, so both outcomes (message
    // and nullopt) are explored regardless of the real duration.
    LBMIB_MC_CHECK(if (mc::active()) {
      mc::sched_point(mc::Op::kChanRecvFor, this);
      const CancelToken* token = CancelToken::current();
      for (;;) {
        {
          MutexLock lock(mutex_);
          if (!queue_.empty()) return pop_locked();
        }
        const bool pred_held = mc::wait_until_for(this, [this, token] {
          MutexLock lock(mutex_);
          return !queue_.empty() ||
                 (token != nullptr && token->cancelled());
        });
        if (!pred_held) return std::nullopt;
        {
          MutexLock lock(mutex_);
          if (!queue_.empty()) return pop_locked();
        }
        cancel_point("Channel::recv_for");
      }
    })
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mutex_);
    while (queue_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return std::nullopt;
      const auto slice = std::min<std::chrono::steady_clock::duration>(
          deadline - now, std::chrono::milliseconds(20));
      if (!mutex_.wait_for(cv_, slice) && queue_.empty()) {
        cancel_point("Channel::recv_for");
      }
    }
    return pop_locked();
  }

  /// Non-blocking probe (used by tests).
  bool empty() const {
    MutexLock lock(mutex_);
    return queue_.empty();
  }

 private:
  /// Dequeue under the held lock, issuing the matching clock edge.
  T pop_locked() LBMIB_REQUIRES(mutex_) {
    T value = std::move(queue_.front());
    queue_.pop_front();
    LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active())
                         rd->channel_recv(this);)
    return value;
  }

  mutable Mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> queue_ LBMIB_GUARDED_BY(mutex_);
};

}  // namespace lbmib
