// Minimal standalone declarations for the lbmib-tidy lint fixtures.
//
// The fixtures must parse as a single TU with no repo or system
// includes: the clang-tidy plugin engine compiles them with just
// `-std=c++17 -I tests/lint/fixtures`, and hermetic decls keep the AST
// small and the diagnostics' line numbers stable. Only the shapes the
// matchers look at are declared (qualified names, member functions,
// template arity); nothing here is ever linked or executed.
//
// Deliberately violation-free: every fixture includes this header, so a
// stray raw-sync or df-parity pattern here would fail the *_clean
// fixtures under both engines.
#pragma once

namespace std {

class mutex {
 public:
  void lock();
  void unlock();
  bool try_lock();
};

class recursive_mutex {
 public:
  void lock();
  void unlock();
};

class condition_variable {
 public:
  void notify_one();
  void notify_all();
};

class thread {
 public:
  thread();
  template <class F>
  explicit thread(F f);
  void join();
};

namespace chrono {
struct steady_clock {
  struct time_point {};
  static time_point now();
};
struct system_clock {
  struct time_point {};
  static time_point now();
};
struct high_resolution_clock {
  struct time_point {};
  static time_point now();
};
}  // namespace chrono

class random_device {
 public:
  unsigned operator()();
};

template <class T>
class atomic {
 public:
  T load() const;
  void store(T value);
  T fetch_add(T value);
  T fetch_sub(T value);
  bool compare_exchange_weak(T& expected, T desired);
  bool compare_exchange_strong(T& expected, T desired);
};

template <class T>
class atomic_ref {
 public:
  explicit atomic_ref(T& object);
  T fetch_add(T value) const;
};

template <class K, class V>
class map {
 public:
  V& operator[](const K&);
};
template <class K>
class set {
 public:
  void insert(const K&);
};
template <class K, class V>
class multimap {};
template <class K>
class multiset {};

}  // namespace std

extern "C" {
int rand(void);
void srand(unsigned);
long time(long*);
long clock(void);
}

namespace lbmib {

class SpinLock {
 public:
  void lock();
  void unlock();
  bool try_lock();
};

class SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock);
  ~SpinLockGuard();
};

class Mutex {
 public:
  void lock();
  void unlock();
  void wait(std::condition_variable& cv);
  template <class D>
  bool wait_for(std::condition_variable& cv, D timeout);
};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mutex);
  ~MutexLock();
};

void cancel_point(const char* what);
void throw_if_cancelled(const char* what);

struct ProgressBoard {
  static ProgressBoard& global();
  void beat(const char* what);
};

template <class T>
class Channel {
 public:
  void send(T value);
  bool recv(T& out);
  template <class D>
  bool recv_for(T& out, D timeout);
};

class SpinBarrier {
 public:
  void arrive_and_wait();
};

struct SplitMix64 {
  explicit SplitMix64(unsigned long long seed);
  unsigned long long next();
};

struct CubeGrid {
  static constexpr unsigned kDfSlot = 0;
  static constexpr unsigned kDfNewSlot = 19;
  void swap_df_buffers();
  void set_swap_parity(bool parity);
  unsigned df_slot_base() const;
  unsigned df_new_slot_base() const;
  static unsigned df_base_for(bool parity);
  static unsigned df_new_base_for(bool parity);
  double* data();
  double* df_;
  double* df_new_;
};

struct FluidGrid {
  void swap_buffers();
  double* df();
  double* df_new();
};

class WallTimer {
 public:
  WallTimer();
  double seconds() const;
};

enum class Phase { kBending, kCollideStream };

class KernelProfiler {
 public:
  void add(Phase phase, double seconds);
};

class KernelScope {
 public:
  KernelScope(KernelProfiler& prof, Phase phase, long arg = -1);
  ~KernelScope();
};

}  // namespace lbmib
