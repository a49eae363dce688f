// Clean-protocol models for every primitive the checker covers:
// SpinBarrier/BlockingBarrier (generations, poison-on-cancel),
// SpinLock mutual exclusion, Channel (FIFO, try_recv, recv_for,
// lost-wakeup freedom), ThreadTeam fork/join and error-cancel, the
// dataflow dependence-counter/queue-slot handshake, the parity
// buffer-swap protocol, and CancelToken claim-once. Every exploration
// here must pass exhaustively — each one is a bounded proof that no
// interleaving of the modeled configuration deadlocks, races (the PR-4
// detector runs under every schedule) or violates the protocol
// assertion. The deliberately broken counterparts live in
// test_modelcheck_bugs.cpp.
#include "parallel/modelcheck.hpp"

#include <gtest/gtest.h>

#if LBMIB_MODELCHECK_ENABLED

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "cube/cube_grid.hpp"
#include "parallel/barrier.hpp"
#include "parallel/cancel.hpp"
#include "parallel/channel.hpp"
#include "parallel/race_detector.hpp"
#include "parallel/spinlock.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {
namespace {

mc::Options opts(const char* name) {
  mc::Options options;
  options.name = name;
  return options;
}

template <class BarrierT>
mc::Result explore_barrier_generations(const char* name) {
  return mc::explore(opts(name), [] {
    struct State {
      BarrierT barrier{2};
      std::array<int, 2> progress{0, 0};
    };
    auto state = std::make_shared<State>();
    std::vector<mc::ThreadBody> threads;
    for (int tid = 0; tid < 2; ++tid) {
      threads.push_back([state, tid] {
        for (int gen = 1; gen <= 2; ++gen) {
          state->progress[static_cast<std::size_t>(tid)] = gen;
          state->barrier.arrive_and_wait();
          // Leaving generation `gen` proves the partner reached it too.
          mc::check(state->progress[0] >= gen && state->progress[1] >= gen,
                    "barrier released before both threads arrived");
        }
      });
    }
    return threads;
  });
}

TEST(McModels, SpinBarrierTwoGenerationsClean) {
  const mc::Result result =
      explore_barrier_generations<SpinBarrier>("spin-barrier");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GE(result.schedules, 2u);
}

TEST(McModels, BlockingBarrierTwoGenerationsClean) {
  const mc::Result result =
      explore_barrier_generations<BlockingBarrier>("blocking-barrier");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GE(result.schedules, 2u);
}

// Poison protocol: a cancelled barrier wait unwinds with CancelledError
// in EVERY interleaving of canceller vs waiter — whether the cancel
// lands before the arrive (the entry poll throws) or while parked (the
// cancel's wildcard notify wakes the cooperative wait).
TEST(McModels, CancelledBarrierWaitAlwaysUnwinds) {
  const mc::Result result = mc::explore(opts("barrier-cancel"), [] {
    struct State {
      CancelToken token;
      SpinBarrier barrier{2};
    };
    auto state = std::make_shared<State>();
    std::vector<mc::ThreadBody> threads;
    threads.push_back([state] {
      CancelScope scope(&state->token);
      bool unwound = false;
      try {
        state->barrier.arrive_and_wait();
      } catch (const CancelledError&) {
        unwound = true;
      }
      mc::check(unwound, "poisoned barrier wait must throw CancelledError");
    });
    threads.push_back([state] {
      // Never arrives: cancels instead (the partner would block forever
      // without the cancellation).
      state->token.cancel("partner bailed", CancelCause::kUser);
    });
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
}

TEST(McModels, SpinLockMutualExclusionClean) {
  const mc::Result result = mc::explore(opts("spinlock"), [] {
    struct State {
      SpinLock lock;
      int in_critical_section = 0;
    };
    auto state = std::make_shared<State>();
    std::vector<mc::ThreadBody> threads;
    for (int tid = 0; tid < 2; ++tid) {
      threads.push_back([state] {
        state->lock.lock();
        mc::check(state->in_critical_section == 0, "mutual exclusion");
        state->in_critical_section = 1;
        // A schedule point INSIDE the critical section: the checker may
        // try to run the other thread here, which must block on the lock.
        mc::sched_point(mc::Op::kAccess, &state->in_critical_section);
        mc::check(state->in_critical_section == 1, "no intruder");
        state->in_critical_section = 0;
        state->lock.unlock();
      });
    }
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GE(result.schedules, 2u);
}

TEST(McModels, SpinLockTryLockNeverBreaksExclusion) {
  const mc::Result result = mc::explore(opts("spinlock-try"), [] {
    struct State {
      SpinLock lock;
      int in_critical_section = 0;
    };
    auto state = std::make_shared<State>();
    std::vector<mc::ThreadBody> threads;
    for (int tid = 0; tid < 2; ++tid) {
      threads.push_back([state] {
        if (!state->lock.try_lock()) return;  // losing is fine
        mc::check(state->in_critical_section == 0, "try_lock exclusion");
        state->in_critical_section = 1;
        mc::sched_point(mc::Op::kAccess, &state->in_critical_section);
        state->in_critical_section = 0;
        state->lock.unlock();
      });
    }
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
}

TEST(McModels, ChannelDeliversInFifoOrder) {
  const mc::Result result = mc::explore(opts("channel-fifo"), [] {
    auto channel = std::make_shared<Channel<int>>();
    std::vector<mc::ThreadBody> threads;
    threads.push_back([channel] {
      channel->send(1);
      channel->send(2);
    });
    threads.push_back([channel] {
      const int first = channel->recv();
      const int second = channel->recv();
      mc::check(first == 1 && second == 2, "FIFO order");
    });
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GE(result.schedules, 2u);
}

TEST(McModels, ChannelTryRecvSeesBothOutcomes) {
  const auto outcomes = std::make_shared<std::set<std::string>>();
  const mc::Result result =
      mc::explore(opts("channel-try"), [outcomes] {
        auto channel = std::make_shared<Channel<int>>();
        std::vector<mc::ThreadBody> threads;
        threads.push_back([channel] { channel->send(7); });
        threads.push_back([channel, outcomes] {
          const std::optional<int> probe = channel->try_recv();
          if (probe.has_value()) {
            mc::check(*probe == 7, "probed value");
            outcomes->insert("hit");
          } else {
            outcomes->insert("miss");
            mc::check(channel->recv() == 7, "value after miss");
          }
        });
        return threads;
      });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
  // Exploration must drive the probe both before and after the send.
  EXPECT_EQ(outcomes->count("hit"), 1u);
  EXPECT_EQ(outcomes->count("miss"), 1u);
}

// recv_for under the checker: the deadline is an explicit scheduler
// transition, so both the delivery and the timeout outcome must be
// explored regardless of the nominal duration.
TEST(McModels, ChannelRecvForExploresTimeoutAndDelivery) {
  const auto outcomes = std::make_shared<std::set<std::string>>();
  const mc::Result result =
      mc::explore(opts("channel-recv-for"), [outcomes] {
        auto channel = std::make_shared<Channel<int>>();
        std::vector<mc::ThreadBody> threads;
        threads.push_back([channel] { channel->send(42); });
        threads.push_back([channel, outcomes] {
          const std::optional<int> got =
              channel->recv_for(std::chrono::milliseconds(1));
          if (got.has_value()) {
            mc::check(*got == 42, "delivered value");
            outcomes->insert("delivered");
          } else {
            outcomes->insert("timeout");
          }
        });
        return threads;
      });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(outcomes->count("delivered"), 1u);
  EXPECT_EQ(outcomes->count("timeout"), 1u);
}

// Lost-wakeup freedom: two blocking receivers, two messages. If any
// send/recv interleaving could drop a wakeup, some schedule would leave
// a receiver parked forever and the engine would report a deadlock.
TEST(McModels, ChannelNeverLosesAWakeup) {
  const mc::Result result = mc::explore(opts("channel-wakeup"), [] {
    auto channel = std::make_shared<Channel<int>>();
    auto sum = std::make_shared<std::atomic<int>>(0);
    std::vector<mc::ThreadBody> threads;
    threads.push_back([channel] {
      channel->send(1);
      channel->send(2);
    });
    for (int consumer = 0; consumer < 2; ++consumer) {
      threads.push_back(
          [channel, sum] { sum->fetch_add(channel->recv()); });
    }
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
}

TEST(McModels, ThreadTeamForkJoinRunsEveryWorker) {
  const mc::Result result = mc::explore(opts("team-forkjoin"), [] {
    std::vector<mc::ThreadBody> threads;
    threads.push_back([] {
      auto ran = std::make_shared<std::array<int, 2>>();
      ran->fill(0);
      ThreadTeam team(2);
      team.run([ran](int tid) {
        mc::sched_point(mc::Op::kAccess, &(*ran)[static_cast<std::size_t>(tid)]);
        (*ran)[static_cast<std::size_t>(tid)] = 1;
      });
      mc::check((*ran)[0] == 1 && (*ran)[1] == 1,
                "join returned before every worker finished");
    });
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
}

// Error-cancel protocol: when one worker throws, the secondary
// cancellation must unwedge the other worker's barrier wait in every
// interleaving, and join must rethrow the ROOT error, not the
// CancelledError the victim unwound with.
TEST(McModels, ThreadTeamErrorCancelsStuckPartner) {
  const mc::Result result = mc::explore(opts("team-error"), [] {
    std::vector<mc::ThreadBody> threads;
    threads.push_back([] {
      auto token = std::make_shared<CancelToken>();
      CancelScope scope(token.get());
      SpinBarrier barrier(2);
      ThreadTeam team(2);
      bool root_error_surfaced = false;
      try {
        team.run([&barrier](int tid) {
          if (tid == 1) throw Error("injected worker failure");
          // tid 0: waits for a partner that will never arrive; only the
          // error-cancel can release it.
          barrier.arrive_and_wait();
        });
      } catch (const CancelledError&) {
        // wrong exception: root cause must win
      } catch (const Error& e) {
        root_error_surfaced = std::string(e.what()).find(
                                  "injected worker failure") !=
                              std::string::npos;
      }
      mc::check(root_error_surfaced, "join rethrows the root failure");
    });
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
}

// The dataflow handshake in miniature: two producers decrement a
// dependence counter; exactly the last one publishes the queue slot;
// a consumer blocks on the slot. Mirrors the seams in
// core/cube_solver.cpp (kEdgeAcqRel on the counter, kEdgeRelease /
// kEdgeAcquire plus notify on the slot) including the race-detector
// edges, so a publish protocol error would surface as a race or a
// deadlock in some schedule.
TEST(McModels, DataflowCounterPublishesExactlyOnce) {
  constexpr std::int64_t kEmpty = -1;
  const mc::Result result = mc::explore(opts("dataflow"), [] {
    struct State {
      std::atomic<int> pending{2};
      std::atomic<std::int64_t> slot{kEmpty};
      std::atomic<int> publishes{0};
    };
    auto state = std::make_shared<State>();
    std::vector<mc::ThreadBody> threads;
    for (int producer = 0; producer < 2; ++producer) {
      threads.push_back([state] {
        mc::sched_point(mc::Op::kEdgeAcqRel, &state->pending);
        race::edge_acq_rel(&state->pending);
        if (state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          race::edge_acquire(&state->pending);
          state->publishes.fetch_add(1);
          mc::sched_point(mc::Op::kEdgeRelease, &state->slot);
          race::edge_release(&state->slot);
          state->slot.store(7, std::memory_order_release);
          mc::notify(&state->slot);
        }
      });
    }
    threads.push_back([state] {
      mc::sched_point(mc::Op::kEdgeAcquire, &state->slot);
      mc::wait_until(&state->slot, [state] {
        return state->slot.load(std::memory_order_acquire) != kEmpty;
      });
      race::edge_acquire(&state->slot);
      mc::check(state->slot.load(std::memory_order_acquire) == 7,
                "published task value");
      mc::check(state->publishes.load() == 1, "exactly one publisher");
    });
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GE(result.schedules, 2u);
}

// Parity buffer-swap protocol, correctly ordered: the kernel write and
// the swap are separated by a barrier, so the swap's exclusive-write
// model of both df roles never overlaps a kernel access in any
// schedule. (The premature-swap bug model drops the barrier — see
// test_modelcheck_bugs.cpp.)
TEST(McModels, ParitySwapOrderedByBarrierIsRaceFree) {
  const mc::Result result = mc::explore(opts("parity-clean"), [] {
    struct State {
      CubeGrid grid{8, 4, 4, 4};  // two cubes
      SpinBarrier barrier{2};
    };
    auto state = std::make_shared<State>();
    std::vector<mc::ThreadBody> threads;
    threads.push_back([state] {
      mc::sched_point(mc::Op::kAccess, &state->grid);
      race::access(&state->grid, 0, RaceField::kDf, RaceAccess::kWrite,
                   "kernel write");
      state->barrier.arrive_and_wait();
    });
    threads.push_back([state] {
      state->barrier.arrive_and_wait();
      state->grid.swap_df_buffers();
    });
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
}

// Claim-once: with racing cancellers the real CancelToken must elect
// exactly one winner, and the published cause/reason pair must be the
// winner's, never a mix — in every interleaving. Both winners must
// occur somewhere in the explored space.
TEST(McModels, CancelTokenClaimOnceElectsOneConsistentWinner) {
  const auto winners = std::make_shared<std::set<std::string>>();
  const mc::Result result = mc::explore(opts("token"), [winners] {
    auto token = std::make_shared<CancelToken>();
    std::vector<mc::ThreadBody> threads;
    threads.push_back(
        [token] { token->cancel("first canceller", CancelCause::kUser); });
    threads.push_back([token] {
      token->cancel("second canceller", CancelCause::kWatchdog);
    });
    threads.push_back([token, winners] {
      mc::wait_until(token.get(), [token] { return token->cancelled(); });
      const CancelCause cause = token->cause();
      const std::string reason = token->reason();
      const bool user_won =
          cause == CancelCause::kUser && reason == "first canceller";
      const bool watchdog_won =
          cause == CancelCause::kWatchdog && reason == "second canceller";
      mc::check(user_won || watchdog_won,
                "winner's cause and reason must be consistent");
      winners->insert(user_won ? "user" : "watchdog");
    });
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(winners->count("user"), 1u);
  EXPECT_EQ(winners->count("watchdog"), 1u);
}

// The whole clean suite again under a CHESS-style preemption bound:
// the bounded space is a subset, so it must also be clean, and these
// tiny models are fully covered at two preemptions.
TEST(McModels, CleanModelsPassAtPreemptionBound) {
  mc::Options bounded = opts("spinlock-bound");
  bounded.preemption_bound = 2;
  const mc::Result result = mc::explore(bounded, [] {
    struct State {
      SpinLock lock;
      int in_critical_section = 0;
    };
    auto state = std::make_shared<State>();
    std::vector<mc::ThreadBody> threads;
    for (int tid = 0; tid < 2; ++tid) {
      threads.push_back([state] {
        state->lock.lock();
        mc::check(state->in_critical_section == 0, "exclusion at bound");
        state->in_critical_section = 1;
        mc::sched_point(mc::Op::kAccess, &state->in_critical_section);
        state->in_critical_section = 0;
        state->lock.unlock();
      });
    }
    return threads;
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
}

}  // namespace
}  // namespace lbmib

#else  // !LBMIB_MODELCHECK_ENABLED

TEST(McModels, RequiresModelcheckBuild) {
  GTEST_SKIP() << "built without LBMIB_MODELCHECK";
}

#endif
