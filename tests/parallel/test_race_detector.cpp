#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "parallel/barrier.hpp"
#include "parallel/channel.hpp"
#include "parallel/race_detector.hpp"
#include "parallel/spinlock.hpp"
#include "parallel/thread_team.hpp"

#if LBMIB_RACE_DETECT_ENABLED
#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"
#endif

namespace lbmib {
namespace {

/// Runs `first` on one thread, then `second` on a different thread that
/// is alive at the same time: a joined thread's id may be recycled, and
/// the detector keys its slots on thread ids, so the second closure must
/// not inherit the first one's slot. The handshake is a raw atomic the
/// detector cannot see, so no happens-before edge leaks into the
/// schedule under test.
template <class F1, class F2>
void sequenced_on_two_threads(F1&& first, F2&& second) {
  std::atomic<bool> first_done{false};
  std::exception_ptr error;
  std::thread a([&] {
    first();
    first_done.store(true, std::memory_order_release);
  });
  std::thread b([&] {
    while (!first_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    try {
      second();
    } catch (...) {
      error = std::current_exception();
    }
  });
  a.join();
  b.join();
  if (error) std::rethrow_exception(error);
}

// --- direct detector API --------------------------------------------------
// These drive RaceDetector itself, independent of the build's hook gate,
// so the algorithm is tested even in plain builds.

constexpr RaceField kF = RaceField::kDf;
constexpr auto kRd = RaceAccess::kRead;
constexpr auto kWr = RaceAccess::kWrite;
constexpr auto kSc = RaceAccess::kScatter;

TEST(RaceDetector, UnorderedWritesConflict) {
  RaceDetector rd;
  int space = 0;
  EXPECT_THROW(sequenced_on_two_threads(
                   [&] { rd.on_access(&space, 0, kF, kWr, "first write"); },
                   [&] { rd.on_access(&space, 0, kF, kWr, "second write"); }),
               Error);
}

TEST(RaceDetector, UnorderedReadThenWriteConflicts) {
  RaceDetector rd;
  int space = 0;
  EXPECT_THROW(sequenced_on_two_threads(
                   [&] { rd.on_access(&space, 3, kF, kRd, "read"); },
                   [&] { rd.on_access(&space, 3, kF, kWr, "write"); }),
               Error);
}

TEST(RaceDetector, ConcurrentReadsAreClean) {
  RaceDetector rd;
  int space = 0;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] { rd.on_access(&space, 0, kF, kRd, "read a"); },
      [&] { rd.on_access(&space, 0, kF, kRd, "read b"); }));
}

TEST(RaceDetector, ScatterScatterCommutes) {
  // Atomic force accumulation from two unordered threads is legal...
  RaceDetector rd;
  int space = 0;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] { rd.on_access(&space, 0, RaceField::kForce, kSc, "scatter a"); },
      [&] { rd.on_access(&space, 0, RaceField::kForce, kSc, "scatter b"); }));
}

TEST(RaceDetector, ScatterThenUnorderedReadConflicts) {
  // ...but reading the accumulated value without an ordering edge is not.
  RaceDetector rd;
  int space = 0;
  EXPECT_THROW(
      sequenced_on_two_threads(
          [&] { rd.on_access(&space, 0, RaceField::kForce, kSc, "scatter"); },
          [&] { rd.on_access(&space, 0, RaceField::kForce, kRd, "read"); }),
      Error);
}

TEST(RaceDetector, DistinctLocationsAndFieldsAreIndependent) {
  RaceDetector rd;
  int space = 0;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] {
        rd.on_access(&space, 0, RaceField::kDf, kWr, "df write");
      },
      [&] {
        rd.on_access(&space, 1, RaceField::kDf, kWr, "other cube");
        rd.on_access(&space, 0, RaceField::kMacro, kWr, "other field");
      }));
}

TEST(RaceDetector, ReleaseAcquireEdgeOrders) {
  RaceDetector rd;
  int space = 0;
  int counter = 0;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] {
        rd.on_access(&space, 0, kF, kWr, "producer write");
        rd.edge_release(&counter);
      },
      [&] {
        rd.edge_acquire(&counter);
        rd.on_access(&space, 0, kF, kWr, "consumer write");
      }));
}

TEST(RaceDetector, MissingDataflowEdgeDetected) {
  // The consumer acquires the wrong dependence counter, as a task-graph
  // bug that dropped an edge would: the producer's write stays
  // unordered and must fire deterministically.
  for (int run = 0; run < 10; ++run) {
    RaceDetector rd;
    int space = 0;
    int counter = 0;
    int wrong_counter = 0;
    EXPECT_THROW(sequenced_on_two_threads(
                     [&] {
                       rd.on_access(&space, 0, kF, kWr, "producer write");
                       rd.edge_release(&counter);
                     },
                     [&] {
                       rd.edge_acquire(&wrong_counter);
                       rd.on_access(&space, 0, kF, kWr, "consumer write");
                     }),
                 Error)
        << "run " << run;
  }
}

TEST(RaceDetector, AcqRelChainsThroughCounter) {
  // Two contributors decrement a dependence counter (acq_rel); the final
  // consumer acquires it and must be ordered after both.
  RaceDetector rd;
  int space = 0;
  int counter = 0;
  std::atomic<int> stage{0};
  auto wait_for = [&](int s) {
    while (stage.load(std::memory_order_acquire) < s) {
      std::this_thread::yield();
    }
  };
  std::exception_ptr error;
  std::thread a([&] {
    rd.on_access(&space, 0, kF, kWr, "contributor a");
    rd.edge_acq_rel(&counter);
    stage.store(1, std::memory_order_release);
  });
  std::thread b([&] {
    wait_for(1);
    rd.on_access(&space, 1, kF, kWr, "contributor b");
    rd.edge_acq_rel(&counter);
    stage.store(2, std::memory_order_release);
  });
  std::thread c([&] {
    wait_for(2);
    try {
      rd.edge_acquire(&counter);
      rd.on_access(&space, 0, kF, kWr, "consumer");
      rd.on_access(&space, 1, kF, kWr, "consumer");
    } catch (...) {
      error = std::current_exception();
    }
  });
  a.join();
  b.join();
  c.join();
  EXPECT_FALSE(static_cast<bool>(error));
}

TEST(RaceDetector, BarrierProtocolOrders) {
  // Both participants arrive; the generation's merged clock orders the
  // leaver after every arriver's pre-barrier work.
  RaceDetector rd;
  int space = 0;
  int barrier = 0;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] {
        rd.on_access(&space, 0, kF, kWr, "pre-barrier write");
        rd.barrier_arrive(&barrier, 2);
        // Does not leave yet; the edge must come from the merged clock.
      },
      [&] {
        const std::uint64_t gen = rd.barrier_arrive(&barrier, 2);
        rd.barrier_leave(&barrier, gen);
        rd.on_access(&space, 0, kF, kWr, "post-barrier write");
      }));
}

TEST(RaceDetector, SkippedBarrierDetected) {
  // The second thread runs ahead without arriving at the barrier the
  // first thread synchronized on: no edge, deterministic report.
  for (int run = 0; run < 10; ++run) {
    RaceDetector rd;
    int space = 0;
    int barrier = 0;
    EXPECT_THROW(
        sequenced_on_two_threads(
            [&] {
              rd.on_access(&space, 0, kF, kWr, "pre-barrier write");
              rd.barrier_arrive(&barrier, 2);
            },
            [&] { rd.on_access(&space, 0, kF, kWr, "skipped the barrier"); }),
        Error)
        << "run " << run;
  }
}

TEST(RaceDetector, LockChainOrders) {
  RaceDetector rd;
  int space = 0;
  int lock = 0;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] {
        rd.lock_acquire(&lock);
        rd.on_access(&space, 0, kF, kWr, "locked write a");
        rd.lock_release(&lock);
      },
      [&] {
        rd.lock_acquire(&lock);
        rd.on_access(&space, 0, kF, kWr, "locked write b");
        rd.lock_release(&lock);
      }));
}

TEST(RaceDetector, ChannelMessageOrders) {
  RaceDetector rd;
  int space = 0;
  int channel = 0;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] {
        rd.on_access(&space, 0, kF, kWr, "pre-send write");
        rd.channel_send(&channel);
      },
      [&] {
        rd.channel_recv(&channel);
        rd.on_access(&space, 0, kF, kWr, "post-recv write");
      }));
}

TEST(RaceDetector, ForkJoinOrders) {
  RaceDetector rd;
  int space = 0;
  rd.on_access(&space, 0, kF, kWr, "parent before fork");
  const std::uint64_t token = rd.fork();
  std::thread worker([&] {
    rd.worker_start(token);
    rd.on_access(&space, 0, kF, kWr, "worker write");
    rd.worker_end(token);
  });
  worker.join();
  rd.join(token);
  EXPECT_NO_THROW(rd.on_access(&space, 0, kF, kWr, "parent after join"));
}

TEST(RaceDetector, WorkerWithoutStartConflicts) {
  RaceDetector rd;
  int space = 0;
  rd.on_access(&space, 0, kF, kWr, "parent before fork");
  rd.fork();
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      // Never calls worker_start: no edge from the parent's write.
      rd.on_access(&space, 0, kF, kWr, "rogue worker write");
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  EXPECT_TRUE(static_cast<bool>(error));
}

TEST(RaceDetector, ForgetSpaceClearsShadowState) {
  RaceDetector rd;
  int space = 0;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] { rd.on_access(&space, 0, kF, kWr, "old grid write"); },
      [&] {
        rd.forget_space(&space);
        rd.on_access(&space, 0, kF, kWr, "new grid write");
      }));
}

TEST(RaceDetector, ForgetSyncDropsStaleClock) {
  RaceDetector rd;
  int space = 0;
  int var = 0;
  EXPECT_THROW(sequenced_on_two_threads(
                   [&] {
                     rd.on_access(&space, 0, kF, kWr, "producer write");
                     rd.edge_release(&var);
                     rd.forget_sync(&var);
                   },
                   [&] {
                     // The released clock is gone; this acquire is a no-op.
                     rd.edge_acquire(&var);
                     rd.on_access(&space, 0, kF, kWr, "consumer write");
                   }),
               Error);
}

TEST(RaceDetector, ReportNamesBothAccessesAndContexts) {
  RaceDetector rd;
  int space = 0;
  std::string message;
  sequenced_on_two_threads(
      [&] {
        RaceDetector::set_context("phase one");
        rd.on_access(&space, 2, RaceField::kMacro, kWr, "velocity update");
        RaceDetector::set_context(nullptr);
      },
      [&] {
        RaceDetector::set_context("phase two");
        try {
          rd.on_access(&space, 2, RaceField::kMacro, kRd, "fiber move");
        } catch (const Error& e) {
          message = e.what();
        }
        RaceDetector::set_context(nullptr);
      });
  ASSERT_FALSE(message.empty()) << "detector did not fire";
  EXPECT_NE(message.find("macro"), std::string::npos) << message;
  EXPECT_NE(message.find("location 2"), std::string::npos) << message;
  EXPECT_NE(message.find("velocity update"), std::string::npos) << message;
  EXPECT_NE(message.find("fiber move"), std::string::npos) << message;
  EXPECT_NE(message.find("phase one"), std::string::npos) << message;
  EXPECT_NE(message.find("phase two"), std::string::npos) << message;
}

// --- through the real primitives ------------------------------------------
// The primitives' hooks are compiled in only under LBMIB_RACE_DETECT;
// ScopedRaceDetector gives each test virgin detector state.

#if LBMIB_RACE_DETECT_ENABLED

TEST(RaceDetectorPrimitives, SpinBarrierEstablishesEdge) {
  ScopedRaceDetector sd;
  int space = 0;
  SpinBarrier barrier(2);
  std::exception_ptr error;
  std::thread a([&] {
    race::access(&space, 0, kF, kWr, "pre-barrier write");
    barrier.arrive_and_wait();
  });
  std::thread b([&] {
    barrier.arrive_and_wait();
    try {
      race::access(&space, 0, kF, kWr, "post-barrier write");
    } catch (...) {
      error = std::current_exception();
    }
  });
  a.join();
  b.join();
  EXPECT_FALSE(static_cast<bool>(error));
}

TEST(RaceDetectorPrimitives, SpinLockEstablishesEdge) {
  ScopedRaceDetector sd;
  int space = 0;
  SpinLock lock;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] {
        SpinLockGuard guard(lock);
        race::access(&space, 0, kF, kWr, "locked write a");
      },
      [&] {
        SpinLockGuard guard(lock);
        race::access(&space, 0, kF, kWr, "locked write b");
      }));
}

TEST(RaceDetectorPrimitives, ChannelEstablishesEdge) {
  ScopedRaceDetector sd;
  int space = 0;
  Channel<int> channel;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] {
        race::access(&space, 0, kF, kWr, "pre-send write");
        channel.send(1);
      },
      [&] {
        (void)channel.recv();
        race::access(&space, 0, kF, kWr, "post-recv write");
      }));
}

TEST(RaceDetectorPrimitives, ThreadTeamForkJoinOrders) {
  ScopedRaceDetector sd;
  int space = 0;
  race::access(&space, 0, kF, kWr, "main before run");
  std::atomic<int> failures{0};
  ThreadTeam team(2);
  team.run([&](int) {
    try {
      race::access(&space, 0, kF, kRd, "worker read");
    } catch (const Error&) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  // join() must order main after both workers' reads.
  EXPECT_NO_THROW(race::access(&space, 0, kF, kWr, "main after run"));
}

// --- injected violations through the real grid hooks ----------------------

TEST(RaceDetectorInjection, ForeignUnlockedWriteDetected) {
  // Thread A writes cube 0's force field under the owner's lock; thread B
  // bypasses the lock, through the one-node add or the z-run add every
  // spread writes through. Must fire on every run.
  const Real w[3] = {0.25, 0.0, 0.5};
  for (bool z_run : {false, true}) {
    for (int run = 0; run < 10; ++run) {
      ScopedRaceDetector sd;
      CubeGrid grid(8, 8, 8, 4);
      SpinLock owner_lock;
      EXPECT_THROW(sequenced_on_two_threads(
                       [&] {
                         SpinLockGuard guard(owner_lock);
                         grid.add_force_locked(owner_lock, 0, 0, 0,
                                               {1e-5, 0.0, 0.0});
                       },
                       [&] {
                         if (z_run) {
                           grid.add_force_run(0, 0, w, 3, {1e-5, 0.0, 0.0});
                         } else {
                           grid.add_force(0, 0, {1e-5, 0.0, 0.0});
                         }
                       }),
                   Error)
          << (z_run ? "z-run add, run " : "one-node add, run ") << run;
    }
  }
}

TEST(RaceDetectorInjection, PrematureBufferSwapDetected) {
  // Thread A streams cube 0 into df_new; thread B swaps the buffers
  // without waiting for the update barrier. The swap is modeled as an
  // exclusive write to every location of both df roles, so it conflicts
  // with A's un-ordered push.
  for (int run = 0; run < 10; ++run) {
    ScopedRaceDetector sd;
    CubeGrid grid(8, 8, 8, 4);
    EXPECT_THROW(
        sequenced_on_two_threads([&] { cube_collide_stream(grid, 0.8, 0); },
                                 [&] { grid.swap_df_buffers(); }),
        Error)
        << "run " << run;
  }
}

TEST(RaceDetectorInjection, OrderedSwapIsClean) {
  // The same schedule with a release/acquire edge (as the update barrier
  // provides in the solvers) is silent.
  ScopedRaceDetector sd;
  CubeGrid grid(8, 8, 8, 4);
  int edge = 0;
  EXPECT_NO_THROW(sequenced_on_two_threads(
      [&] {
        cube_collide_stream(grid, 0.8, 0);
        race::edge_release(&edge);
      },
      [&] {
        race::edge_acquire(&edge);
        grid.swap_df_buffers();
      }));
}

TEST(RaceDetectorInjection, SkippedUpdateBarrierDetected) {
  // Thread A streams cube 1, pushing into every neighbour's df_new —
  // including cube 0's. Thread B updates cube 0's velocity from df_new
  // without waiting for the stream barrier: unordered scatter vs read.
  for (int run = 0; run < 10; ++run) {
    ScopedRaceDetector sd;
    CubeGrid grid(8, 8, 8, 4);
    EXPECT_THROW(
        sequenced_on_two_threads([&] { cube_stream(grid, 1); },
                                 [&] { cube_update_velocity(grid, 0); }),
        Error)
        << "run " << run;
  }
}

#else

TEST(RaceDetectorPrimitives, DISABLED_RequiresLbmibRaceDetectBuild) {
  GTEST_SKIP() << "rebuild with -DLBMIB_RACE_DETECT=ON to exercise the "
                  "primitive and grid hooks";
}

#endif  // LBMIB_RACE_DETECT_ENABLED

}  // namespace
}  // namespace lbmib
