// Zero-allocation steady step: once a solver's team has warmed up, a time
// step must not allocate. This binary replaces the global operator new
// with one that tallies every byte any thread asks for; the step
// observer reads the tally, and the steps between its 4th and its last
// call of one run(12) must have allocated nothing. Per-step scratch (the
// spread bins among it) must therefore be sized once and reused. The
// dataflow task graph is bounded the same way: a long fiber-free run
// allocates only its team, whatever its length.
//
// The distributed kinds stay out for now: Distributed2DSolver allocates
// its halo vectors, fiber all-reduce buffers and channel blocks on every
// rank-step, about 1570 allocations in the 8 checked steps of this input
// for both kDistributed and kDistributed2D.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>

#include "core/solver.hpp"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t bytes, std::size_t alignment) {
  g_allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const std::size_t n = bytes == 0 ? 1 : bytes;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(n)
                // aligned_alloc wants a size that is a multiple of the
                // alignment.
                : std::aligned_alloc(alignment,
                                     (n + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lbmib {
namespace {

struct AllocCase {
  SolverKind kind;
  bool fused;
};

// Keeps the printed test parameter stable (the default prints bytes,
// padding included).
void PrintTo(const AllocCase& c, std::ostream* os) {
  *os << solver_kind_name(c.kind) << (c.fused ? " fused" : " reference");
}

class ZeroAllocStep : public ::testing::TestWithParam<AllocCase> {};

TEST_P(ZeroAllocStep, SteadyStepsAllocateNothing) {
  SimulationParams p = presets::tiny();
  p.num_threads = 4;
  p.fused_step = GetParam().fused;
  std::unique_ptr<Solver> solver = make_solver(GetParam().kind, p);

  constexpr Index kSteps = 12;
  std::array<std::size_t, kSteps> tally{};
  Index calls = 0;
  solver->run(kSteps, [&](Solver&, Index) {
    tally[static_cast<std::size_t>(calls++)] =
        g_allocated_bytes.load(std::memory_order_relaxed);
  });
  ASSERT_EQ(calls, kSteps);
  EXPECT_EQ(tally[kSteps - 1] - tally[3], 0u)
      << "bytes allocated between observer calls 4 and " << kSteps;
}

INSTANTIATE_TEST_SUITE_P(
    NonDistributedKinds, ZeroAllocStep,
    ::testing::Values(AllocCase{SolverKind::kSequential, true},
                      AllocCase{SolverKind::kSequential, false},
                      AllocCase{SolverKind::kOpenMP, true},
                      AllocCase{SolverKind::kOpenMP, false},
                      AllocCase{SolverKind::kCube, true},
                      AllocCase{SolverKind::kCube, false},
                      AllocCase{SolverKind::kDataflow, true},
                      AllocCase{SolverKind::kDataflow, false}),
    [](const ::testing::TestParamInfo<AllocCase>& info) {
      return std::string(solver_kind_name(info.param.kind)) +
             (info.param.fused ? "_fused" : "_reference");
    });

TEST(ZeroAllocDataflow, LongFiberFreeRunAllocatesUnderOneMegabyte) {
  // Overlapped steps run in graphs of at most kMaxGraphSteps steps over a
  // queue sized at construction, so the run's length sizes nothing. A
  // queue holding the whole run would be 2 * 64 cubes * 20000 steps * 8 B
  // (about 20.5 MB) on this input.
  SimulationParams p = presets::tiny();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.num_threads = 2;
  std::unique_ptr<Solver> solver = make_solver(SolverKind::kDataflow, p);
  constexpr Index kSteps = 20000;
  const std::size_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  solver->run(kSteps);
  const std::size_t bytes =
      g_allocated_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(solver->steps_completed(), kSteps);
  EXPECT_LT(bytes, std::size_t{1} << 20) << bytes << " bytes allocated";
}

}  // namespace
}  // namespace lbmib
