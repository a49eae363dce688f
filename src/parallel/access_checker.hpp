// Debug-mode cube-ownership and barrier-phase checker.
//
// Algorithm 4's correctness rests on three invariants that nothing in a
// release build verifies:
//   1. every write to a cube owned by another thread happens under that
//      owner thread's lock (cube2thread ownership + per-owner SpinLock);
//      CubeSolver's owner-computes spread makes no foreign write at all,
//      so there every unlocked write must come from the owner,
//   2. the barriers actually separate the step's phases — a kernel must
//      only run in the phase the protocol assigns to it,
//   3. ownership (cube2thread / fiber2thread) never drifts mid-step.
//
// AccessChecker shadows the cube grid with its owner map plus a per-thread
// phase automaton and turns each invariant into a runtime assertion that
// throws lbmib::Error with a precise diagnostic. The class itself is
// always compiled (so it is unit-testable in every configuration); the
// *hooks* on the hot paths (CubeGrid::add_force, the cube kernels, the
// cube solver's phase transitions) are compiled only when the build
// defines LBMIB_CHECK_ACCESS (CMake option of the same name), so release
// builds pay nothing.
//
// Thread identity is a thread_local binding (bind_thread/ScopedThreadBind):
// worker threads of a checked solver bind their tid for the duration of
// the time loop; unbound threads (sequential paths, tests, I/O) are exempt
// from ownership checks because they run outside the protocol.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lbmib {

/// The phases of one cube-solver time step, in protocol order. Successive
/// phases are separated by a barrier (the paper's three barriers plus the
/// fiber-force barrier documented in DESIGN.md §7.1); the cycle wraps
/// from kMoveCopy back to kSpread at the end-of-step barrier.
enum class StepPhase : int {
  /// Fiber forces, plus Algorithm 4's locked spread (the only phase its
  /// cross-thread writes are legal in). CubeSolver runs kernels 1-3 here
  /// and spreads owner-computes at the start of kCollideStream.
  kSpread = 0,
  kCollideStream = 1, ///< (owned spread +) collision + streaming, own cubes
  kUpdate = 2,        ///< inlet/outlet + macroscopic update on owned cubes
  kMoveCopy = 3,      ///< fiber motion (foreign reads) + df copy/force reset
};
constexpr int kNumStepPhases = 4;

/// Human-readable phase name ("spread", "collide+stream", ...).
std::string_view step_phase_name(StepPhase phase);

class AccessChecker {
 public:
  /// A checker for `num_cubes` cubes distributed over `num_threads`
  /// owners. All cubes start unowned (owner -1); fill the map with
  /// set_owner before checking.
  AccessChecker(Size num_cubes, int num_threads);
  ~AccessChecker();
  /// Movable (factory helpers return by value); the live() registration
  /// follows the move. Not copyable: two checkers sharing a phase
  /// mirror would be meaningless.
  AccessChecker(AccessChecker&& other) noexcept;
  AccessChecker& operator=(AccessChecker&&) = delete;
  AccessChecker(const AccessChecker&) = delete;
  AccessChecker& operator=(const AccessChecker&) = delete;

  int num_threads() const { return num_threads_; }
  Size num_cubes() const { return static_cast<Size>(owner_.size()); }

  /// Record that `cube` is owned by thread `owner` (from cube2thread).
  void set_owner(Size cube, int owner);
  int owner_of(Size cube) const;

  // --- thread identity (thread_local; see ScopedThreadBind) --------------

  /// Bind the calling thread to `tid` for this checker and reset its phase
  /// automaton to kSpread (the phase a step starts in).
  void bind_thread(int tid);
  /// Remove the calling thread's binding.
  void unbind_thread();
  /// The calling thread's bound tid for this checker, or -1 if unbound.
  int bound_thread() const;

  // --- barrier-phase protocol ---------------------------------------------

  /// Called by a bound worker right after a barrier: transition into `to`.
  /// Throws if `to` is not the protocol successor of the thread's current
  /// phase — i.e. if a barrier was skipped, duplicated, or reordered.
  void advance_phase(StepPhase to);

  /// Current phase of the calling thread (must be bound).
  StepPhase current_phase() const;

  // --- cross-thread diagnostics -------------------------------------------

  /// Formatted per-tid phase table ("tid 0: collide+stream\n..."), read
  /// from a relaxed atomic mirror of each bound thread's automaton. For
  /// hang reports: unlike the thread_local automaton, the mirror is
  /// readable from the watchdog's monitor thread. Unbound tids show "-".
  std::string phase_table() const;

  /// The most recently constructed live checker, or nullptr — the one a
  /// watchdog hang report should ask for phase_table(). (Checked runs
  /// have one checker per cube solver; with several live at once the
  /// newest wins, which is only a diagnostics limitation.)
  static const AccessChecker* live();

  // --- write checks (throw lbmib::Error on violation) ---------------------

  /// An unlocked write to `cube` (e.g. CubeGrid::add_force without a
  /// lock). Legal only for unbound threads or the cube's owner.
  void check_unlocked_write(Size cube) const;

  /// A write to `cube` under the lock of owner thread `locked_owner`.
  /// Verifies the caller locked the *right* lock (locked_owner ==
  /// cube2thread(cube)) and, for bound threads, that the write happens in
  /// the spread phase — the only phase where foreign writes are legal.
  void check_locked_write(Size cube, int locked_owner) const;

  /// A kernel writing `cube` without locks in phase `phase` (collision,
  /// update, copy...). Verifies the caller is the owner and its phase
  /// automaton is in `phase`. Unbound threads are exempt.
  void check_owned_write(Size cube, StepPhase phase) const;

  /// The fused pipeline's O(1) buffer swap (CubeGrid::swap_df_buffers).
  /// The swap retargets every cube's df/df_new base at once, so it is only
  /// legal in the move+copy phase — after the update barrier has published
  /// all df_new writes and before any thread starts the next step's reads.
  /// Unbound threads (sequential paths, tests) are exempt.
  void check_swap() const;

 private:
  [[noreturn]] void fail(const std::string& what) const;

  int num_threads_;
  std::vector<int> owner_;  ///< cube id -> owning tid (cube2thread image)
  /// tid -> mirrored phase int, or -1 while unbound (see phase_table()).
  std::unique_ptr<std::atomic<int>[]> phase_mirror_;
};

/// RAII binding of the calling thread to a checker tid (exception-safe:
/// worker bodies may throw through ThreadTeam).
class ScopedThreadBind {
 public:
  ScopedThreadBind(AccessChecker& checker, int tid) : checker_(checker) {
    checker_.bind_thread(tid);
  }
  ~ScopedThreadBind() { checker_.unbind_thread(); }
  ScopedThreadBind(const ScopedThreadBind&) = delete;
  ScopedThreadBind& operator=(const ScopedThreadBind&) = delete;

 private:
  AccessChecker& checker_;
};

}  // namespace lbmib

/// Statement-level hook gate: expands its arguments verbatim when the
/// build enables the checker, to nothing otherwise. Usage:
///   LBMIB_ACCESS_CHECK(if (auto* ck = grid.access_checker())
///                          ck->check_owned_write(cube, phase);)
#if defined(LBMIB_CHECK_ACCESS) && LBMIB_CHECK_ACCESS
#define LBMIB_ACCESS_CHECK(...) __VA_ARGS__
#define LBMIB_ACCESS_CHECK_ENABLED 1
#else
#define LBMIB_ACCESS_CHECK(...)
#define LBMIB_ACCESS_CHECK_ENABLED 0
#endif
