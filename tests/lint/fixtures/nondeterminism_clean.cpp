// Seeded RNG, steady_clock durations, value-keyed containers, integer
// atomic counters and a published (stored, never accumulated)
// floating-point atomic must pass lbmib-nondeterminism.
//
// EXPECT-CLEAN
#include "stub_lbmib.h"

unsigned long long pick(lbmib::SplitMix64& rng) {
  return rng.next() % 4;
}

void duration() {
  auto t0 = std::chrono::steady_clock::now();
  auto t1 = std::chrono::steady_clock::now();
  (void)t0;
  (void)t1;
}

std::map<int, int> task_priorities;  // keyed by stable task id

std::atomic<long> fiber_cursor;

long claim() { return fiber_cursor.fetch_add(1); }

std::atomic<double> last_residual;

void publish(double residual) { last_residual.store(residual); }

double spread_sum(const double* f, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += f[i];
  return sum;
}
