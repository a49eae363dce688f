#include <gtest/gtest.h>

#include <atomic>

#include "common/error.hpp"
#include "core/cube_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"
#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"
#include "parallel/access_checker.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {
namespace {

/// 2 threads x 8 cubes, split in halves: cubes 0-3 -> thread 0,
/// cubes 4-7 -> thread 1.
AccessChecker make_checker() {
  AccessChecker checker(8, 2);
  for (Size c = 0; c < 8; ++c) checker.set_owner(c, c < 4 ? 0 : 1);
  return checker;
}

TEST(AccessChecker, OwnerWritesOwnCubesFreely) {
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 0);
  EXPECT_NO_THROW(checker.check_unlocked_write(0));
  EXPECT_NO_THROW(checker.check_owned_write(2, StepPhase::kSpread));
}

TEST(AccessChecker, UnlockedForeignWriteFires) {
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 1);
  try {
    checker.check_unlocked_write(0);  // cube 0 belongs to thread 0
    FAIL() << "checker did not fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unlocked foreign-cube write"),
              std::string::npos)
        << e.what();
  }
}

TEST(AccessChecker, LockedForeignWriteWithOwnersLockPasses) {
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 1);
  // Thread 1 writes cube 0 holding thread 0's lock, in the spread phase.
  EXPECT_NO_THROW(checker.check_locked_write(0, 0));
}

TEST(AccessChecker, WrongLockFires) {
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 1);
  // Cube 0 is guarded by thread 0's lock; holding one's own lock is not
  // enough.
  EXPECT_THROW(checker.check_locked_write(0, 1), Error);
}

TEST(AccessChecker, LockedWriteOutsideSpreadPhaseFires) {
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 1);
  checker.advance_phase(StepPhase::kCollideStream);
  EXPECT_THROW(checker.check_locked_write(0, 0), Error);
}

TEST(AccessChecker, KernelInWrongPhaseFires) {
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 0);
  // Fresh binding starts in kSpread; a collide-phase kernel must wait for
  // the barrier.
  EXPECT_THROW(checker.check_owned_write(0, StepPhase::kCollideStream),
               Error);
  checker.advance_phase(StepPhase::kCollideStream);
  EXPECT_NO_THROW(checker.check_owned_write(0, StepPhase::kCollideStream));
}

TEST(AccessChecker, BarrierPhaseViolationFires) {
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 0);
  checker.advance_phase(StepPhase::kCollideStream);  // legal successor
  // Re-announcing the same phase means a barrier fired twice.
  try {
    checker.advance_phase(StepPhase::kCollideStream);
    FAIL() << "checker did not fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("barrier phase violation"),
              std::string::npos)
        << e.what();
  }
}

TEST(AccessChecker, SkippedBarrierFires) {
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 0);
  // kSpread -> kUpdate skips the collide+stream barrier.
  EXPECT_THROW(checker.advance_phase(StepPhase::kUpdate), Error);
}

TEST(AccessChecker, SwapOutsideMoveCopyPhaseFires) {
  // The fused pipeline's O(1) buffer swap replaces kernel 9's copy, so it
  // inherits the same slot in the protocol: only the move+copy phase, after
  // the update barrier has retired every read of the old df.
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 0);
  EXPECT_THROW(checker.check_swap(), Error);  // kSpread
  checker.advance_phase(StepPhase::kCollideStream);
  EXPECT_THROW(checker.check_swap(), Error);
  checker.advance_phase(StepPhase::kUpdate);
  EXPECT_THROW(checker.check_swap(), Error);
  checker.advance_phase(StepPhase::kMoveCopy);
  EXPECT_NO_THROW(checker.check_swap());
}

TEST(AccessChecker, SwapByUnboundThreadIsExempt) {
  // Sequential paths and tests swap without entering the protocol.
  AccessChecker checker = make_checker();
  EXPECT_NO_THROW(checker.check_swap());
}

TEST(AccessChecker, PhaseCycleWrapsAroundCleanly) {
  AccessChecker checker = make_checker();
  ScopedThreadBind bind(checker, 0);
  for (int step = 0; step < 3; ++step) {
    checker.advance_phase(StepPhase::kCollideStream);
    checker.advance_phase(StepPhase::kUpdate);
    checker.advance_phase(StepPhase::kMoveCopy);
    checker.advance_phase(StepPhase::kSpread);
  }
  EXPECT_EQ(checker.current_phase(), StepPhase::kSpread);
}

TEST(AccessChecker, UnboundThreadsAreExempt) {
  AccessChecker checker = make_checker();
  // No binding: sequential paths and tests may touch any cube.
  EXPECT_NO_THROW(checker.check_unlocked_write(0));
  EXPECT_NO_THROW(checker.check_owned_write(7, StepPhase::kUpdate));
  EXPECT_EQ(checker.bound_thread(), -1);
}

TEST(AccessChecker, BindingIsPerThread) {
  AccessChecker checker = make_checker();
  std::atomic<int> failures{0};
  ThreadTeam team(2);
  team.run([&](int tid) {
    ScopedThreadBind bind(checker, tid);
    // Each worker owns its half and must not touch the other half
    // unlocked.
    const Size own = tid == 0 ? 0 : 4;
    const Size foreign = tid == 0 ? 4 : 0;
    try {
      checker.check_unlocked_write(own);
    } catch (const Error&) {
      failures.fetch_add(1);
    }
    try {
      checker.check_unlocked_write(foreign);
      failures.fetch_add(1);  // should have thrown
    } catch (const Error&) {
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(AccessChecker, RejectsInvalidConfiguration) {
  EXPECT_THROW(AccessChecker(4, 0), Error);
  AccessChecker checker(4, 2);
  EXPECT_THROW(checker.set_owner(4, 0), Error);
  EXPECT_THROW(checker.set_owner(0, 2), Error);
  EXPECT_THROW(checker.bind_thread(2), Error);
}

// --- integration through the real write hooks ----------------------------
// These need the hooks compiled in (cmake -DLBMIB_CHECK_ACCESS=ON); the
// sanitizer script's address leg and the CI matrix build that way.

#if LBMIB_ACCESS_CHECK_ENABLED

/// 8x8x8 grid with 4^3 cubes -> 2x2x2 = 8 cubes, split in halves.
struct CheckedGrid {
  CheckedGrid() : grid(8, 8, 8, 4), checker(grid.num_cubes(), 2) {
    for (Size c = 0; c < grid.num_cubes(); ++c) {
      checker.set_owner(c, c < grid.num_cubes() / 2 ? 0 : 1);
    }
    grid.attach_access_checker(&checker);
  }
  CubeGrid grid;
  AccessChecker checker;
};

TEST(AccessCheckerHooks, AddForceFiresOnUnlockedForeignWrite) {
  CheckedGrid g;
  ScopedThreadBind bind(g.checker, 1);
  EXPECT_THROW(g.grid.add_force(0, 0, {1.0, 0.0, 0.0}), Error);
  // The owner writes the same node freely.
  EXPECT_NO_THROW(g.grid.add_force(7, 0, {1.0, 0.0, 0.0}));
  // The same for the z-run add every spread writes through.
  const Real w[3] = {0.25, 0.0, 0.5};
  EXPECT_THROW(g.grid.add_force_run(0, 0, w, 3, {1.0, 0.0, 0.0}), Error);
  EXPECT_NO_THROW(g.grid.add_force_run(7, 0, w, 3, {1.0, 0.0, 0.0}));
}

TEST(AccessCheckerHooks, AddForceLockedValidatesLockIndex) {
  CheckedGrid g;
  SpinLock locks[2];
  ScopedThreadBind bind(g.checker, 1);
  {
    SpinLockGuard guard(locks[0]);
    EXPECT_NO_THROW(
        g.grid.add_force_locked(locks[0], 0, 0, 0, {1.0, 0.0, 0.0}));
  }
  {
    SpinLockGuard guard(locks[1]);
    // Cube 0 is guarded by lock 0, not lock 1.
    EXPECT_THROW(
        g.grid.add_force_locked(locks[1], 1, 0, 0, {1.0, 0.0, 0.0}),
        Error);
  }
}

TEST(AccessCheckerHooks, KernelFiresOnBarrierPhaseViolation) {
  CheckedGrid g;
  ScopedThreadBind bind(g.checker, 0);
  // Fresh binding is in the spread phase: colliding now means the thread
  // ran past a barrier it never arrived at.
  EXPECT_THROW(cube_collide(g.grid, 0.8, 0), Error);
  g.checker.advance_phase(StepPhase::kCollideStream);
  EXPECT_NO_THROW(cube_collide(g.grid, 0.8, 0));
  // ...and kernels of a *later* phase still fire.
  EXPECT_THROW(cube_update_velocity(g.grid, 0), Error);
}

TEST(AccessCheckerHooks, KernelFiresOnForeignCube) {
  CheckedGrid g;
  ScopedThreadBind bind(g.checker, 0);
  g.checker.advance_phase(StepPhase::kCollideStream);
  EXPECT_THROW(cube_collide(g.grid, 0.8, 7), Error);  // owned by thread 1
}

TEST(AccessCheckerHooks, CheckedCubeSolverRunMatchesSequential) {
  // The full solver must be violation-free under the checker, and the
  // checker must not perturb results.
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  SequentialSolver seq(p);
  seq.run(4);
  p.num_threads = 4;
  CubeSolver cube(p);
  ASSERT_NE(cube.cubes().access_checker(), nullptr);
  EXPECT_NO_THROW(cube.run(4));
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-12);
}

#else

TEST(AccessCheckerHooks, DISABLED_RequiresLbmibCheckAccessBuild) {
  GTEST_SKIP() << "rebuild with -DLBMIB_CHECK_ACCESS=ON to exercise the "
                  "grid/kernel hooks";
}

#endif  // LBMIB_ACCESS_CHECK_ENABLED

}  // namespace
}  // namespace lbmib
