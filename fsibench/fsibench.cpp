// fsibench: runs one benchmark workload in this process and prints its
// metrics as one JSON line (the last line of standard output).
//
//   fsibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --tmp-dir <dir> [--smoke]
//
// --trace 0 is the timed run: set-up (repeated before and after the run,
// median), a warm-up, then one run() call of the solver with per-step
// stamps from the step observer, then the correctness checks outside the
// timed region. It reports the end-to-end metrics.
//
// --trace 1 is the traced run: the same set-up and stepping in alternating
// untraced and traced segments (their p50 ratio is the tracing overhead),
// the critical-path split and per-thread profiles the solvers already
// keep, and a replay that times calls into each library module's public
// functions on this workload's own input. It reports the per-layer
// metrics. No span or counter is added to the library.
//
// The seed only shifts each sheet origin by a sub-lattice offset in
// [0, 1)^3; the library receives nothing but the SimulationParams.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/params.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "core/cube_solver.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/health.hpp"
#include "core/resilient_runner.hpp"
#include "core/sequential_solver.hpp"
#include "core/simulation.hpp"
#include "core/verification.hpp"
#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"
#include "cube/distribution.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/fiber_sheet.hpp"
#include "ib/interpolation.hpp"
#include "ib/spreading.hpp"
#include "io/checkpoint.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/fused.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/simd.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "parallel/mesh.hpp"
#include "parallel/spinlock.hpp"
#include "perfmodel/roofline.hpp"

#ifndef FSIBENCH_VECTOR_FLAGS
#define FSIBENCH_VECTOR_FLAGS ""
#endif

namespace {

using lbmib::Index;
using lbmib::Real;
using lbmib::Size;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const Size n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const Size lo = static_cast<Size>(std::floor(pos));
  const Size hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Median over the consecutive full windows of `window` samples of
/// `stat(window)`; `stat` of the whole sample when no window is full.
double windowed_median(
    const std::vector<double>& v, Size window,
    const std::function<double(const std::vector<double>&)>& stat) {
  std::vector<double> per_window;
  for (Size i = 0; i + window <= v.size(); i += window) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(i);
    const std::vector<double> w(first,
                                first + static_cast<std::ptrdiff_t>(window));
    per_window.push_back(stat(w));
  }
  return per_window.empty() ? stat(v) : median(per_window);
}

/// Time `reps` calls of `fn` (after one untimed warm call when reps > 1)
/// and return the median in milliseconds.
double median_ms(int reps, const std::function<void()>& fn,
                 const std::function<void()>& between = nullptr) {
  std::vector<double> ms;
  for (int r = (reps > 1 ? -1 : 0); r < reps; ++r) {
    if (between) between();
    const auto t0 = Clock::now();
    fn();
    if (r >= 0) ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

long cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? v : -1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  lbmib::SolverKind kind = lbmib::SolverKind::kSequential;
  bool job = false;  ///< run through ResilientRunner
  lbmib::SimulationParams params;
  std::vector<lbmib::Vec3> offsets;  ///< seeded sheet-origin shifts
  /// Metrics whose code path this workload's step does not execute; their
  /// values come from the replay on this input (or are structural zeros).
  std::set<std::string> absent;
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table1_seq", "cube_channel", "ib_dense_d2d", "ib_dense_cube",
      "cube_job"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  const int threads = std::min(4, host_cpus());
  // The paper's Table I input: 124x64x64 channel driven by a body force,
  // one 20x20 l.u. sheet of 52x52 fiber nodes.
  lbmib::SimulationParams p = lbmib::presets::table1_sequential();
  if (name == "table1_seq") {
    w.kind = lbmib::SolverKind::kSequential;
    p.num_threads = 1;
  } else if (name == "cube_channel" || name == "cube_job") {
    w.kind = lbmib::SolverKind::kCube;
    w.job = (name == "cube_job");
    p.nx = 128;  // Table I rounded up to the cube edge
    p.cube_size = 8;
    p.num_threads = threads;
  } else if (name == "ib_dense_d2d" || name == "ib_dense_cube") {
    // Fig. 8's 104x104 fiber count on two tandem 30x30 l.u. sheets in a
    // small channel: an IB-dominant step. On the cube solver the locked
    // spread takes most of it.
    if (name == "ib_dense_cube") {
      w.kind = lbmib::SolverKind::kCube;
      p.cube_size = 8;
    } else {
      w.kind = lbmib::SolverKind::kDistributed2D;
    }
    p.nx = 64;
    p.ny = 48;
    p.nz = 48;
    p.num_threads = threads;
    p.num_fibers = 104;
    p.nodes_per_fiber = 104;
    p.sheet_width = 30.0;
    p.sheet_height = 30.0;
    p.sheet_origin = {12.0, 9.0, 9.0};
    p.pin_mode = lbmib::PinMode::kLeadingEdge;
    lbmib::SheetSpec second{104,  104,   30.0, 30.0, {38.0, 9.0, 9.0},
                            0.02, 0.002, 0.0,  lbmib::PinMode::kLeadingEdge};
    p.extra_sheets.push_back(second);
  } else {
    throw lbmib::Error("unknown workload '" + name + "'");
  }

  lbmib::SplitMix64 rng(seed);
  auto offset = [&rng] {
    const double x = rng.next_double();
    const double y = rng.next_double();
    const double z = rng.next_double();
    return lbmib::Vec3{x, y, z};
  };
  w.offsets.push_back(offset());
  p.sheet_origin += w.offsets.back();
  for (lbmib::SheetSpec& s : p.extra_sheets) {
    w.offsets.push_back(offset());
    s.origin += w.offsets.back();
  }
  p.validate();
  w.params = p;

  if (w.kind == lbmib::SolverKind::kCube) {
    w.absent.insert({"lbm.collide_stream_ms", "lbm.collide_stream_gbps",
                     "lbm.update_velocity_ms", "lbm.reset_forces_ms",
                     "ib.spread_ms", "ib.move_fibers_ms"});
  } else {
    w.absent.insert({"cube.collide_stream_ms", "cube.update_velocity_ms",
                     "cube.move_fibers_ms", "cube.cubes",
                     "cube.solid_free_cubes", "cube.spread_locked_ms",
                     "cube.spread_unlocked_ms"});
  }
  if (name == "table1_seq") w.absent.insert("parallel.barrier_frac");
  if (name != "ib_dense_d2d") w.absent.insert("parallel.halo_frac");
  if (!w.job) {
    w.absent.insert({"io.checkpoint_save_ms", "io.checkpoint_load_ms",
                     "io.checkpoint_mb"});
  }
  return w;
}

// --- the solver under test ---------------------------------------------------

/// A workload's solver behind the API a user drives: a Simulation, or a
/// ResilientRunner for the job workload. Every run() is one library
/// run() call with a per-step observer stamping the wall clock, so the
/// persistent thread team is kept across the timed steps.
class Job {
 public:
  Job(const Workload& w, const std::string& checkpoint_base) {
    auto stamp = [this](lbmib::Solver&, Index) {
      stamps_.push_back(Clock::now());
    };
    if (w.job) {
      lbmib::ResilienceConfig config;
      // Scans aligned with checkpoints: both land on one step in 25, so the
      // step percentiles read plain steps and mlups carries the job work.
      config.health_interval = 25;
      config.checkpoint_interval = 25;
      config.checkpoint_base = checkpoint_base;
      config.keep_checkpoints = true;
      runner_ = std::make_unique<lbmib::ResilientRunner>(w.kind, w.params,
                                                         config);
      runner_->on_step(1, stamp);
    } else {
      sim_ = std::make_unique<lbmib::Simulation>(w.kind, w.params);
      sim_->on_step(1, stamp);
    }
  }
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  lbmib::Solver& solver() {
    return runner_ ? runner_->solver() : sim_->solver();
  }

  /// Advance `steps` steps; returns the wall seconds of the call.
  double run(Index steps) {
    stamps_.clear();
    stamps_.reserve(static_cast<Size>(steps));
    start_ = Clock::now();
    if (runner_) {
      const lbmib::ResilienceReport report =
          runner_->run(solver().steps_completed() + steps);
      if (!report.completed || report.retries_used != 0) {
        job_issue_ = "resilient run: " + report.to_string();
      }
    } else {
      sim_->run(steps);
    }
    return seconds_since(start_);
  }

  /// Per-step wall seconds of the last run(), from consecutive stamps.
  std::vector<double> step_seconds() const {
    std::vector<double> out;
    Clock::time_point prev = start_;
    for (const Clock::time_point& t : stamps_) {
      out.push_back(std::chrono::duration<double>(t - prev).count());
      prev = t;
    }
    return out;
  }

  /// Non-empty when a resilient run did not complete cleanly.
  const std::string& job_issue() const { return job_issue_; }

 private:
  std::unique_ptr<lbmib::Simulation> sim_;
  std::unique_ptr<lbmib::ResilientRunner> runner_;
  std::vector<Clock::time_point> stamps_;
  Clock::time_point start_{};
  std::string job_issue_;
};

// --- records -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Bytes of solver state the step sweeps (fluid fields + fiber arrays),
/// from the layout each solver allocates.
double working_set_bytes(const lbmib::Solver& s) {
  const double points =
      static_cast<double>(lbmib::structure_num_nodes(s.structure()));
  // position, anchor, three force vectors, pin flag
  const double fiber_bytes = points * (5.0 * 3.0 * sizeof(Real) + 1.0);
  const lbmib::SimulationParams& p = s.params();
  if (const lbmib::FluidGrid* g = s.planar_fluid()) {
    const double n = static_cast<double>(g->num_nodes());
    return 2.0 * lbmib::kQ * static_cast<double>(g->plane_stride()) *
               sizeof(Real) +
           7.0 * n * sizeof(Real) + n + fiber_bytes;
  }
  if (const auto* c = dynamic_cast<const lbmib::CubeSolver*>(&s)) {
    const double n = static_cast<double>(c->cubes().num_nodes());
    return static_cast<double>(lbmib::CubeGrid::kSlotsPerCube) * n *
               sizeof(Real) +
           n + fiber_bytes;
  }
  if (const auto* d = dynamic_cast<const lbmib::Distributed2DSolver*>(&s)) {
    // Each rank holds its tile plus one ghost layer per side and a replica
    // of the whole structure.
    double bytes = 0.0;
    const int ranks = d->ranks_x() * d->ranks_y();
    for (int r = 0; r < ranks; ++r) {
      const auto t = d->tile_of(r);
      const double n = static_cast<double>((t.x_hi - t.x_lo + 2) *
                                           (t.y_hi - t.y_lo + 2) * p.nz);
      bytes += (2.0 * lbmib::kQ + 7.0) * n * sizeof(Real) + n + fiber_bytes;
    }
    return bytes;
  }
  return 0.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string tmp_dir = ".";
};

/// Shared state of one benchmark invocation.
class Bench {
 public:
  Bench(Options opt, Workload w) : opt_(std::move(opt)), w_(std::move(w)) {}

  int run() {
    describe();
    if (opt_.traced) {
      traced();
    } else {
      timed();
    }
    emit();
    return 0;
  }

 private:
  // Knobs scaled down by --smoke so every path runs in a few seconds.
  int setup_reps() const { return opt_.smoke ? 1 : 13; }
  int replay_reps() const { return opt_.smoke ? 1 : 9; }
  int io_reps() const { return opt_.smoke ? 1 : 3; }
  Index check_steps() const { return opt_.smoke ? 2 : 3; }

  std::string checkpoint_base() const {
    return (std::filesystem::path(opt_.tmp_dir) / "job.ckpt").string();
  }

  void metric(const std::string& name, double value,
              const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  void fail(const std::string& why) { failures_.push_back(why); }

  void describe() {
    const lbmib::SimulationParams& p = w_.params;
    record("workload", json_string(w_.name));
    record("seed", std::to_string(opt_.seed));
    std::string offs = "[";
    for (Size i = 0; i < w_.offsets.size(); ++i) {
      const lbmib::Vec3& o = w_.offsets[i];
      offs += (i ? ", [" : "[") + json_number(o.x) + ", " +
              json_number(o.y) + ", " + json_number(o.z) + "]";
    }
    record("sheet_origin_offsets", offs + "]");
    record("solver", json_string(std::string(
                         lbmib::solver_kind_name(w_.kind)) +
                     (w_.job ? " (resilient runner)" : "")));
    record("threads", std::to_string(p.num_threads));
    record("nproc", std::to_string(host_cpus()));
    record("simd_isa", json_string(lbmib::simd::isa_name()));
    record("vector_width_doubles",
           std::to_string(lbmib::simd::vector_width_doubles()));
    record("vector_flags", json_string(FSIBENCH_VECTOR_FLAGS));
    const long l2 = cache_bytes(_SC_LEVEL2_CACHE_SIZE);
    const long llc = cache_bytes(_SC_LEVEL3_CACHE_SIZE);
    record("l2_bytes", l2 > 0 ? std::to_string(l2) : "null");
    record("llc_bytes", llc > 0 ? std::to_string(llc) : "null");
    record("grid", json_string(std::to_string(p.nx) + "x" +
                               std::to_string(p.ny) + "x" +
                               std::to_string(p.nz)));
    record("fluid_nodes", std::to_string(p.fluid_nodes()));
    record("fiber_points", std::to_string(p.fiber_nodes()));
    record("params", json_string(p.summary()));
  }

  void record(const std::string& key, const std::string& json_value) {
    record_.emplace_back(key, json_value);
  }

  /// Construct the job `setup_reps()` times (dropping each before the next,
  /// so every set-up pays its own page faults) and keep the last.
  std::unique_ptr<Job> set_up(std::vector<double>& setup_s) {
    std::unique_ptr<Job> job;
    for (int r = 0; r < setup_reps(); ++r) {
      job.reset();
      const auto t0 = Clock::now();
      job = std::make_unique<Job>(w_, checkpoint_base());
      setup_s.push_back(seconds_since(t0));
    }
    return job;
  }

  /// Warm-up steps, then the number of steps that fills `budget_s` at the
  /// warm-up's pace (its last call's median step). The job workload runs
  /// whole 25-step intervals so every run carries the same share of health
  /// scans and checkpoints (one of each per interval).
  Index warm_up_and_size(Job& job, double budget_s) {
    if (opt_.smoke) {
      job.run(1);
      return w_.job ? 5 : 4;
    }
    if (w_.job) {
      const double wall = job.run(5);  // one health scan + one checkpoint
      const std::vector<double> steps = job.step_seconds();
      double stepped = 0.0;
      for (double s : steps) stepped += s;
      const double overhead = std::max(0.0, wall - stepped);
      const double per_interval = 25.0 * median(steps) + overhead;
      return 25 * std::max<Index>(1, std::llround(budget_s / per_interval));
    }
    // Warm up in calls of about half a second until two consecutive calls
    // agree on the pace within 10%: a fresh team of blocking threads can
    // run several times slower until the scheduler has spread it out.
    double spent = 0.0;
    double step = 0.0;
    double prev = 0.0;
    for (Index k = 3;;) {
      spent += job.run(k);
      step = std::max(1e-4, median(job.step_seconds()));
      if ((spent >= 2.0 && std::abs(step / prev - 1.0) < 0.1) ||
          spent >= 6.0) {
        break;
      }
      prev = step;
      k = std::clamp<Index>(std::llround(0.5 / step), 3, 1000);
    }
    record("warm_up_step_ms", json_number(step * 1e3));
    return std::clamp<Index>(std::llround(budget_s / step), 20, 100000);
  }

  // --- correctness (always outside the timed region) ------------------------

  /// The real run's final state, snapshotted into planar layout.
  struct FinalState {
    lbmib::FluidGrid fluid;
    lbmib::Structure structure;
    Index step;
  };

  /// Snapshot the job's final state, check it, and drop the job so the
  /// checks and replays that follow run without it in memory.
  FinalState release(std::unique_ptr<Job> job) {
    const lbmib::SimulationParams& p = w_.params;
    FinalState s{lbmib::FluidGrid(p.nx, p.ny, p.nz), job->solver().structure(),
                 job->solver().steps_completed()};
    job->solver().snapshot_fluid(s.fluid);
    if (!job->job_issue().empty()) fail(job->job_issue());
    check_final_state(s);
    return s;
  }

  /// Health, finiteness and mass conservation of the final state.
  void check_final_state(const FinalState& s) {
    const lbmib::FluidGrid& snap = s.fluid;
    lbmib::HealthMonitor monitor;
    const lbmib::HealthReport health =
        monitor.scan(snap, s.structure, s.step);
    if (!health.healthy()) fail("health scan: " + health.to_string());
    Size fluid = 0;
    for (Size i = 0; i < snap.num_nodes(); ++i) fluid += !snap.solid(i);
    const double m0 = w_.params.rho0 * static_cast<double>(fluid);
    const double drift = std::abs(snap.total_mass() - m0) / m0;
    record("mass_drift_rel", json_number(drift));
    if (!(drift <= 1e-9)) {
      fail("total mass drifted by " + json_number(drift) + " (relative)");
    }
  }

  /// A parallel solver's first steps against SequentialSolver.
  void check_against_sequential() {
    if (w_.kind == lbmib::SolverKind::kSequential) return;
    const Index steps = check_steps();
    std::vector<Real> u;
    lbmib::Structure ref_structure;
    {
      lbmib::SequentialSolver ref(w_.params);
      ref.run(steps);
      const lbmib::FluidGrid& g = ref.fluid();
      u.reserve(3 * g.num_nodes());
      for (Size i = 0; i < g.num_nodes(); ++i) {
        u.push_back(g.ux(i));
        u.push_back(g.uy(i));
        u.push_back(g.uz(i));
      }
      ref_structure = ref.structure();
    }
    std::unique_ptr<lbmib::Solver> s = lbmib::make_solver(w_.kind, w_.params);
    s->run(steps);
    lbmib::FluidGrid snap(w_.params.nx, w_.params.ny, w_.params.nz);
    s->snapshot_fluid(snap);
    double du = 0.0;
    for (Size i = 0; i < snap.num_nodes(); ++i) {
      du = std::max({du, std::abs(snap.ux(i) - u[3 * i]),
                     std::abs(snap.uy(i) - u[3 * i + 1]),
                     std::abs(snap.uz(i) - u[3 * i + 2])});
    }
    const double dx =
        lbmib::compare_structures(ref_structure, s->structure()).max_position;
    record("vs_sequential_max_du", json_number(du));
    record("vs_sequential_max_dx", json_number(dx));
    if (!(du <= 1e-11) || !(dx <= 1e-11)) {
      fail("differs from SequentialSolver after " + std::to_string(steps) +
           " steps: max |du| " + json_number(du) + ", max |dX| " +
           json_number(dx));
    }
  }

  /// The job's newest checkpoint must load back bit-identical to the
  /// state it was taken from.
  void check_checkpoint(const FinalState& s) {
    const lbmib::FluidGrid& snap = s.fluid;
    const lbmib::SimulationParams& p = w_.params;
    lbmib::FluidGrid loaded(p.nx, p.ny, p.nz);
    lbmib::Structure loaded_structure = lbmib::make_structure(p);
    const Index loaded_step = lbmib::CheckpointRotation(checkpoint_base())
                                  .load(loaded, loaded_structure);
    if (loaded_step != s.step) {
      fail("newest checkpoint holds step " + std::to_string(loaded_step) +
           ", expected " + std::to_string(s.step));
      return;
    }
    const Size n = snap.num_nodes();
    bool same = true;
    for (int d = 0; d < lbmib::kQ && same; ++d) {
      same = std::memcmp(snap.df_plane(d), loaded.df_plane(d),
                         n * sizeof(Real)) == 0 &&
             std::memcmp(snap.df_new_plane(d), loaded.df_new_plane(d),
                         n * sizeof(Real)) == 0;
    }
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (Size i = 0; i < n && same; ++i) {
      same = bits(snap.rho(i)) == bits(loaded.rho(i)) &&
             bits(snap.ux(i)) == bits(loaded.ux(i)) &&
             bits(snap.uy(i)) == bits(loaded.uy(i)) &&
             bits(snap.uz(i)) == bits(loaded.uz(i)) &&
             bits(snap.fx(i)) == bits(loaded.fx(i)) &&
             bits(snap.fy(i)) == bits(loaded.fy(i)) &&
             bits(snap.fz(i)) == bits(loaded.fz(i)) &&
             snap.solid(i) == loaded.solid(i);
    }
    if (same) {
      same = lbmib::compare_structures(s.structure, loaded_structure)
                 .max_any() == 0.0;
    }
    if (!same) fail("checkpoint did not load back bit-identical");
  }

  // --- the timed run (--trace 0) ---------------------------------------------

  void timed() {
    // The peak RSS is read after the first set-up in this fresh process and
    // its first steps (one whole scan-and-checkpoint interval on the job
    // workload), which make every allocation a step makes. Later, memory
    // that repeated set-ups and per-step buffers free stays with the
    // allocator or not from run to run (ib_dense_d2d read 80 MB on seven
    // of ten 40 s runs and 96-101 MB on three), so the whole-run peak goes
    // to the record only.
    std::vector<double> setup_s;
    double rss = 0.0;
    {
      const auto t0 = Clock::now();
      // Its own checkpoint files, so the checkpoint check below reads the
      // timed job's.
      Job first(w_, checkpoint_base() + ".first");
      setup_s.push_back(seconds_since(t0));
      first.run(w_.job ? 25 : check_steps());
      rss = peak_rss_mb();
    }
    // The other set-ups run half before the timed call and half after it,
    // so their median spans the run rather than one moment of host load.
    std::unique_ptr<Job> job = set_up(setup_s);
    record("working_set_bytes", json_number(working_set_bytes(job->solver())));
    const Index steps = warm_up_and_size(*job, opt_.seconds);
    const double wall = job->run(steps);
    const std::vector<double> step_s = job->step_seconds();
    record("peak_rss_mb_whole_run", json_number(peak_rss_mb()));
    {
      const FinalState final_state = release(std::move(job));
      if (w_.job) check_checkpoint(final_state);
    }
    set_up(setup_s).reset();

    // Load from other tenants of a shared host comes in bursts of a few
    // seconds. The rate and the tail are therefore read per window of
    // consecutive steps and the median window is reported, so one burst
    // moves one window rather than the run's figure. A rate window of 25
    // steps holds exactly one health scan and checkpoint on the job
    // workload; a tail window of 50 steps has five samples beyond its p90.
    constexpr Size kRateWindow = 25;
    constexpr Size kTailWindow = 50;
    auto p90 = [](const std::vector<double>& v) { return percentile(v, 0.9); };
    const double nodes = static_cast<double>(w_.params.fluid_nodes());
    metric("mlups", nodes / windowed_median(step_s, kRateWindow, mean) / 1e6,
           "MLUPS");
    metric("step_ms_p50", percentile(step_s, 0.5) * 1e3, "ms");
    metric("step_ms_p90", windowed_median(step_s, kTailWindow, p90) * 1e3,
           "ms");
    metric("setup_s", median(setup_s), "s");
    metric("peak_rss_mb", rss, "MB");
    record("timed_steps", std::to_string(steps));
    record("step_samples", std::to_string(step_s.size()));
    record("timed_wall_s", json_number(wall));
    record("rate_windows", std::to_string(step_s.size() / kRateWindow));
    record("tail_windows", std::to_string(step_s.size() / kTailWindow));
    record("mlups_whole_run",
           json_number(nodes * static_cast<double>(steps) / wall / 1e6));
    record("step_ms_p90_whole_run", json_number(p90(step_s) * 1e3));
    std::string setups = "[";
    for (Size i = 0; i < setup_s.size(); ++i) {
      setups += (i ? ", " : "") + json_number(setup_s[i]);
    }
    record("setup_s_samples", setups + "]");
    check_against_sequential();
  }

  // --- the traced run (--trace 1) --------------------------------------------

  void traced() {
    const lbmib::SimulationParams& p = w_.params;
    std::vector<double> setup_s;
    std::unique_ptr<Job> job = set_up(setup_s);
    record("working_set_bytes", json_number(working_set_bytes(job->solver())));
    const Index n = warm_up_and_size(*job, 0.3 * opt_.seconds);

    // Untraced and traced segments alternate so host drift hits both
    // alike; each traced segment is its own tracer session (step ids
    // restart with every run() call) and is attributed on its own.
    const int pairs = opt_.smoke ? 1 : 3;
    const Index seg = std::max<Index>(n / pairs, w_.job ? 5 : 3);
    std::vector<double> plain_s, traced_s;
    lbmib::obs::PathBreakdown c;
    double spread_in_run_s = 0.0;
    const lbmib::Kernel spread = lbmib::Kernel::kSpreadForce;
    for (int i = 0; i < pairs; ++i) {
      const double before = job->solver().profiler().seconds(spread);
      job->run(seg);
      spread_in_run_s += job->solver().profiler().seconds(spread) - before;
      for (double s : job->step_seconds()) plain_s.push_back(s);

      lbmib::obs::Tracer::start();
      lbmib::obs::Tracer::set_thread_name("main");
      job->run(seg);
      lbmib::obs::Tracer::stop();
      for (double s : job->step_seconds()) traced_s.push_back(s);
      const lbmib::obs::PathBreakdown one =
          lbmib::obs::attribute_current_session().critical;
      c.step_seconds += one.step_seconds;
      c.compute_seconds += one.compute_seconds;
      c.barrier_seconds += one.barrier_seconds;
      c.halo_seconds += one.halo_seconds;
      c.serial_seconds += one.serial_seconds;
      c.steps += one.steps;
    }
    const double step_total = c.step_seconds > 0.0 ? c.step_seconds : 1.0;
    metric("parallel.compute_frac", c.compute_seconds / step_total,
           "fraction");
    metric("parallel.barrier_frac", c.barrier_seconds / step_total,
           "fraction");
    metric("parallel.halo_frac", c.halo_seconds / step_total, "fraction");
    metric("parallel.serial_frac", c.serial_seconds / step_total,
           "fraction");
    {
      const std::vector<lbmib::KernelProfiler> per_thread =
          job->solver().per_thread_profiles();
      double max_s = 0.0, sum_s = 0.0;
      for (const lbmib::KernelProfiler& prof : per_thread) {
        max_s = std::max(max_s, prof.total_seconds());
        sum_s += prof.total_seconds();
      }
      const double mean_s = sum_s / static_cast<double>(per_thread.size());
      metric("parallel.imbalance", mean_s > 0.0 ? max_s / mean_s : 1.0,
             "ratio");
    }
    metric("cube.spread_in_run_ms",
           spread_in_run_s / static_cast<double>(plain_s.size()) * 1e3, "ms");
    const double p50_plain = percentile(plain_s, 0.5);
    const double p50_traced = percentile(traced_s, 0.5);
    metric("obs.trace_overhead_frac", p50_traced / p50_plain - 1.0,
           "fraction");
    record("segment_steps", std::to_string(seg));
    record("critical_path_steps", std::to_string(c.steps));
    record("step_ms_p50_untraced", json_number(p50_plain * 1e3));
    record("step_ms_p50_traced", json_number(p50_traced * 1e3));

    replay_planar(*job);

    // core + io on the real solver's state.
    {
      lbmib::FluidGrid snap(p.nx, p.ny, p.nz);
      metric("core.snapshot_ms", median_ms(io_reps(), [&] {
               job->solver().snapshot_fluid(snap);
             }),
             "ms");
    }
    {
      lbmib::HealthMonitor monitor;
      metric("core.health_scan_ms", median_ms(io_reps(), [&] {
               monitor.scan(job->solver());
             }),
             "ms");
    }
    {
      FinalState s = release(std::move(job));
      const std::string ckpt =
          (std::filesystem::path(opt_.tmp_dir) / "replay.ckpt").string();
      metric("io.checkpoint_save_ms", median_ms(io_reps(), [&] {
               lbmib::save_checkpoint(ckpt, s.fluid, s.structure, s.step);
             }),
             "ms");
      metric("io.checkpoint_mb",
             static_cast<double>(std::filesystem::file_size(ckpt)) / 1e6,
             "MB");
      metric("io.checkpoint_load_ms", median_ms(io_reps(), [&] {
               lbmib::load_checkpoint(ckpt, s.fluid, s.structure);
             }),
             "ms");
      std::filesystem::remove(ckpt);
    }

    replay_cube();
    metric("core.setup.grid_ms", median_ms(io_reps(), [&] {
             if (w_.kind == lbmib::SolverKind::kCube) {
               lbmib::CubeGrid grid(p);
             } else {
               lbmib::FluidGrid grid(p);
             }
           }),
           "ms");
    metric("core.setup.structure_ms", median_ms(replay_reps(), [&] {
             lbmib::Structure s = lbmib::make_structure(p);
           }),
           "ms");
    metric("perfmodel.triad_gbps",
           lbmib::perfmodel::measure_peak_bandwidth_gbps(p.num_threads),
           "GB/s");
    check_against_sequential();
  }

  /// The exact call sequence of SequentialSolver::step, one module call at
  /// a time, on a fresh planar copy of this workload's input. On the
  /// sequential workload each replayed step alternates with one step of
  /// the real solver, so host drift hits both alike, and the summed
  /// per-call medians must account for the median of those steps within
  /// 15%: a replay that misses a call is not trusted.
  void replay_planar(Job& job) {
    lbmib::SimulationParams p = w_.params;
    p.num_threads = 1;
    lbmib::FluidGrid grid(p);
    lbmib::Structure st = lbmib::make_structure(p);
    enum { kForces, kReset, kSpread, kCollide, kUpdate, kMove, kSwap, kCalls };
    std::vector<double> ms[kCalls];
    auto timed = [&](int call, const std::function<void()>& fn, bool keep) {
      const auto t0 = Clock::now();
      fn();
      if (keep) ms[call].push_back(seconds_since(t0) * 1e3);
    };
    const bool account = (w_.kind == lbmib::SolverKind::kSequential);
    std::vector<double> steps_s;
    const int reps = replay_reps();
    for (int r = (reps > 1 ? -1 : 0); r < reps; ++r) {
      const bool keep = r >= 0;
      timed(kForces, [&] {
        for (lbmib::FiberSheet& s : st) {
          lbmib::compute_bending_force(s, 0, s.num_fibers());
          lbmib::compute_stretching_force(s, 0, s.num_fibers());
          lbmib::compute_elastic_force(s, 0, s.num_fibers());
        }
      }, keep);
      timed(kReset, [&] { grid.reset_forces(p.body_force); }, keep);
      timed(kSpread, [&] {
        for (const lbmib::FiberSheet& s : st) {
          lbmib::spread_force(s, grid, 0, s.num_fibers());
        }
      }, keep);
      timed(kCollide, [&] {
        lbmib::fused_collide_stream_x_slab(grid, p.tau, nullptr, 0, grid.nx(),
                                           p.simd_step, p.tile_y);
      }, keep);
      timed(kUpdate, [&] {
        lbmib::update_velocity_range(grid, 0, grid.num_nodes());
      }, keep);
      timed(kMove, [&] {
        for (lbmib::FiberSheet& s : st) {
          lbmib::move_fibers(s, grid, 0, s.num_fibers());
        }
      }, keep);
      timed(kSwap, [&] { grid.swap_buffers(); }, keep);
      if (account && keep) {
        job.run(1);
        steps_s.push_back(job.step_seconds().front());
      }
    }
    double med[kCalls];
    double replay_ms = 0.0;
    for (int call = 0; call < kCalls; ++call) {
      med[call] = median(ms[call]);
      replay_ms += med[call];
    }

    metric("lbm.collide_stream_ms", med[kCollide], "ms");
    const lbmib::perfmodel::KernelTraffic* traffic =
        lbmib::perfmodel::kernel_traffic("collide_stream");
    metric("lbm.collide_stream_gbps",
           traffic->bytes_per_unit * static_cast<double>(grid.num_nodes()) /
               (med[kCollide] * 1e-3) / 1e9,
           "GB/s");
    metric("lbm.update_velocity_ms", med[kUpdate], "ms");
    metric("lbm.reset_forces_ms", med[kReset], "ms");
    metric("ib.fiber_forces_ms", med[kForces], "ms");
    metric("ib.spread_ms", med[kSpread], "ms");
    metric("ib.move_fibers_ms", med[kMove], "ms");
    metric("ib.points",
           static_cast<double>(lbmib::structure_num_nodes(st)), "count");
    record("replay_step_ms", json_number(replay_ms));
    if (!account) return;

    const double step_ms = percentile(steps_s, 0.5) * 1e3;
    const double accounted = replay_ms / step_ms;
    record("replay_accounted_frac", json_number(accounted));
    if (!opt_.smoke && std::abs(accounted - 1.0) > 0.15) {
      fail("replayed lbm.* + ib.* per-step time " + json_number(replay_ms) +
           " ms is not within 15% of the step p50 " + json_number(step_ms) +
           " ms measured alongside it");
    }
  }

  /// Cube-module calls on a fresh cube-blocked copy of this input: every
  /// cube once per call, one thread, and the three spreading variants.
  void replay_cube() {
    lbmib::SimulationParams p = w_.params;
    p.num_threads = 1;
    lbmib::CubeGrid grid(p);
    lbmib::Structure st = lbmib::make_structure(p);
    for (lbmib::FiberSheet& s : st) lbmib::compute_all_fiber_forces(s);
    const Size cubes = grid.num_cubes();
    Size solid_free = 0;
    for (Size c = 0; c < cubes; ++c) solid_free += grid.solid_free_region(c);
    metric("cube.cubes", static_cast<double>(cubes), "count");
    metric("cube.solid_free_cubes", static_cast<double>(solid_free), "count");

    const int reps = replay_reps();
    metric("cube.collide_stream_ms", median_ms(reps, [&] {
             for (Size c = 0; c < cubes; ++c) {
               lbmib::cube_collide_stream(grid, p.tau, c, p.simd_step);
             }
           }),
           "ms");
    metric("cube.update_velocity_ms", median_ms(reps, [&] {
             for (Size c = 0; c < cubes; ++c) {
               lbmib::cube_update_velocity(grid, c);
             }
           }),
           "ms");
    // The owner-lock array of the workload's thread mesh, taken by one
    // thread: the uncontended cost of the locked spread.
    const int threads = w_.params.num_threads;
    const lbmib::ThreadMesh mesh = lbmib::fitted_mesh(
        threads, grid.cubes_x(), grid.cubes_y(), grid.cubes_z());
    const lbmib::CubeDistribution dist(grid.cubes_x(), grid.cubes_y(),
                                       grid.cubes_z(), mesh);
    std::vector<lbmib::SpinLock> locks(static_cast<Size>(threads));
    auto reset = [&] { grid.reset_forces(p.body_force); };
    metric("cube.spread_locked_ms", median_ms(reps, [&] {
             for (const lbmib::FiberSheet& s : st) {
               lbmib::cube_spread_force(s, grid, dist, locks, 0,
                                        s.num_fibers());
             }
           }, reset),
           "ms");
    metric("cube.spread_unlocked_ms", median_ms(reps, [&] {
             for (const lbmib::FiberSheet& s : st) {
               lbmib::cube_spread_force_unlocked(s, grid, 0, s.num_fibers());
             }
           }, reset),
           "ms");
    metric("cube.move_fibers_ms", median_ms(reps, [&] {
             for (lbmib::FiberSheet& s : st) {
               lbmib::cube_move_fibers(s, grid, 0, s.num_fibers());
             }
           }),
           "ms");
  }

  // --- output ----------------------------------------------------------------

  void emit() {
    std::cout << "fsibench " << w_.name << " (" << (opt_.traced ? "traced" : "timed")
              << " run, seed " << opt_.seed << ")\n";
    for (const Metric& m : metrics_) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-26s %14.6g %-9s%s", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    w_.absent.count(m.name) ? "  absent: not in this step"
                                            : "");
      std::cout << line << "\n";
    }
    for (const std::string& f : failures_) std::cout << "  FAILED: " << f << "\n";

    std::ostringstream js;
    js << "{\"correct\": " << (failures_.empty() ? "true" : "false")
       << ", \"attempted\": 1, \"failed\": " << (failures_.empty() ? 0 : 1)
       << ", \"failures\": [";
    for (Size i = 0; i < failures_.size(); ++i) {
      js << (i ? ", " : "") << json_string(failures_[i]);
    }
    js << "], \"metrics\": {";
    for (Size i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      js << (i ? ", " : "") << json_string(m.name)
         << ": {\"value\": " << json_number(m.value)
         << ", \"unit\": " << json_string(m.unit) << "}";
    }
    js << "}, \"absent\": [";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!w_.absent.count(m.name)) continue;
      js << (first ? "" : ", ") << json_string(m.name);
      first = false;
    }
    js << "], \"record\": {";
    for (Size i = 0; i < record_.size(); ++i) {
      js << (i ? ", " : "") << json_string(record_[i].first) << ": "
         << record_[i].second;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
  }

  Options opt_;
  Workload w_;
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> record_;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fsibench: " << why
            << "\nusage: fsibench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --tmp-dir <dir> [--smoke]\nworkloads:";
  for (const std::string& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.traced = std::stoi(value()) != 0;
      } else if (a == "--tmp-dir") {
        opt.tmp_dir = value();
      } else if (a == "--smoke") {
        opt.smoke = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    Bench bench(opt, make_workload(opt.workload, opt.seed));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "fsibench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
}
