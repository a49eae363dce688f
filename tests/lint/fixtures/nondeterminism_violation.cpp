// lbmib-nondeterminism must flag hidden-input randomness, wall-clock
// reads, pointer-keyed ordered containers, and floating-point atomic
// accumulation.
//
// EXPECT: 'rand' is nondeterministic across runs
// EXPECT: wall-clock read is nondeterministic across runs
// EXPECT: std::random_device draws from the OS entropy pool
// EXPECT: iterates in address order
// EXPECT: std::atomic_ref over a floating-point value accumulates in schedule order
// EXPECT: floating-point std::atomic updated by 'fetch_add'
// EXPECT: floating-point std::atomic updated by 'compare_exchange_strong'
#include "stub_lbmib.h"

struct Task {};

int pick() {
  return rand() % 4;
}

void stamp() {
  auto t = std::chrono::system_clock::now();
  (void)t;
}

unsigned hardware_seed() {
  std::random_device rd;
  return rd();
}

std::map<Task*, int> task_priorities;

void spread(double* fx, double f) {
  std::atomic_ref<double>(fx[0]).fetch_add(f);
}

std::atomic<double> total_force;

void accumulate(double f) { total_force.fetch_add(f); }

void accumulate_once(double f) {
  double seen = total_force.load();
  total_force.compare_exchange_strong(seen, seen + f);
}
