// state_sweep: FNV-1a hashes of the simulation state over a matrix of
// solver configurations.
//
// Each cell of the matrix builds one solver kind on a small input, runs a
// fixed schedule of run() and step() calls, and prints one line:
//
//   cell <id> df=<hash> rho=<hash> u=<hash> X=<hash> f=<hash>
//
// with FNV-1a 64-bit hashes of the distributions, the density, the
// velocity, the fiber positions and the fluid force field, all read in
// planar node order through snapshot_fluid(). scripts/compare_states.sh
// compiles this one file against two library trees with the same flags
// and prints every cell whose lines differ, so the sweep sticks to the
// public solver API (make_solver, run, step, snapshot_fluid, structure).
// Hashes are comparable only between builds with the same compiler flags:
// FMA contraction differs between -march=native, the -mavx2 -mfma
// fallback and the sanitizer builds.
//
// --cross checks, within this build, the kind pairs that step
// bit-identically on every cell: OpenMP = sequential and dataflow = cube
// at equal thread counts, and cube = sequential on the reference and
// scalar fused pipelines. It prints each pair that differs and exits 1 if
// any does.
//
// Usage: state_sweep [--preset default|quick] [--cross]
//   --preset  default: the full matrix; quick: one schedule and thread
//             count per kind, for a smoke run
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "lbm/fluid_grid.hpp"

namespace {

using lbmib::Index;
using lbmib::Size;
using lbmib::SimulationParams;
using lbmib::Solver;
using lbmib::SolverKind;

/// FNV-1a 64 over the bytes of a stream of doubles.
class Fnv1a {
 public:
  void add(double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The hash columns of one cell, in print order.
struct StateHash {
  std::uint64_t df, rho, u, x, f;
  bool operator==(const StateHash&) const = default;
};

constexpr const char* kColumns[] = {"df", "rho", "u", "X", "f"};

StateHash hash_state(const Solver& solver) {
  const SimulationParams& p = solver.params();
  lbmib::FluidGrid g(p.nx, p.ny, p.nz);
  solver.snapshot_fluid(g);
  Fnv1a df, rho, u, x, f;
  for (Size n = 0; n < g.num_nodes(); ++n) {
    for (int dir = 0; dir < lbmib::kQ; ++dir) df.add(g.df(dir, n));
    rho.add(g.rho(n));
    u.add(g.ux(n));
    u.add(g.uy(n));
    u.add(g.uz(n));
    f.add(g.fx(n));
    f.add(g.fy(n));
    f.add(g.fz(n));
  }
  for (const lbmib::FiberSheet& sheet : solver.structure()) {
    for (Size i = 0; i < sheet.num_nodes(); ++i) {
      x.add(sheet.position(i).x);
      x.add(sheet.position(i).y);
      x.add(sheet.position(i).z);
    }
  }
  return {df.value(), rho.value(), u.value(), x.value(), f.value()};
}

/// A schedule of run()/step() calls. Its observer does nothing, so it
/// exercises each kind's observer path without touching the state.
using Schedule = std::function<void(Solver&)>;

void idle_observer(Solver&, Index) {}

void run_then_observed(Solver& s) {
  s.run(3);
  s.run(4, idle_observer, 2);
}

void interleaved(Solver& s) {
  s.run(3);
  s.step();
  s.run(1);
  s.run(4);
  s.run(2, idle_observer, 1);
  s.run(2);
}

std::string cell_id(const std::string& group, SolverKind kind,
                    int threads) {
  return group + "/" + std::string(lbmib::solver_kind_name(kind)) + "/t" +
         std::to_string(threads);
}

struct Cell {
  std::string group;  ///< id without the kind and thread count
  SolverKind kind;
  int threads;
  SimulationParams params;
  Schedule schedule;

  std::string id() const { return cell_id(group, kind, threads); }
};

struct KindThreads {
  SolverKind kind;
  std::vector<int> threads;
};

std::vector<KindThreads> kinds_for(bool quick) {
  if (quick) {
    return {{SolverKind::kSequential, {1}},  {SolverKind::kOpenMP, {2}},
            {SolverKind::kCube, {2}},        {SolverKind::kDataflow, {2}},
            {SolverKind::kDistributed, {2}}, {SolverKind::kDistributed2D, {4}}};
  }
  return {{SolverKind::kSequential, {1}},
          {SolverKind::kOpenMP, {1, 2, 4}},
          {SolverKind::kCube, {1, 2, 4}},
          {SolverKind::kDataflow, {1, 2, 4}},
          {SolverKind::kDistributed, {1, 2, 3, 4, 6}},
          {SolverKind::kDistributed2D, {1, 2, 3, 4, 6}}};
}

/// presets::tiny with the sheet off the lattice, driven by `boundary`.
SimulationParams boundary_input(const std::string& boundary) {
  SimulationParams p = lbmib::presets::tiny();
  p.sheet_origin = {6.37, 5.61, 6.23};
  if (boundary == "periodic") {
    p.boundary = lbmib::BoundaryType::kPeriodic;
    p.body_force = {1e-5, 0.0, 0.0};
  } else if (boundary == "channel" || boundary == "obstacle") {
    p.boundary = lbmib::BoundaryType::kChannel;
    p.body_force = {1e-5, 0.0, 0.0};
    if (boundary == "obstacle") p.obstacles.push_back({{11.0, 8.0, 8.0}, 2.0});
  } else if (boundary == "inlet") {
    p.boundary = lbmib::BoundaryType::kInletOutlet;
    p.inlet_velocity = {0.02, 0.0, 0.0};
  } else {
    p.boundary = lbmib::BoundaryType::kCavity;
    p.lid_velocity = {0.03, 0.01, 0.0};
  }
  return p;
}

/// The leading-edge-pinned sheet in a body-force channel with a moving
/// initial flow: the cross-kind restore input.
SimulationParams pinned_channel_input() {
  SimulationParams p = lbmib::presets::tiny();
  p.boundary = lbmib::BoundaryType::kChannel;
  p.body_force = {1e-5, 0.0, 0.0};
  p.initial_velocity = {0.05, 0.01, 0.0};
  p.pin_mode = lbmib::PinMode::kLeadingEdge;
  return p;
}

struct Pipeline {
  const char* name;
  bool fused, simd;
};
constexpr Pipeline kPipelines[] = {
    {"reference", false, false}, {"scalar", true, false}, {"simd", true, true}};

std::vector<Cell> build_matrix(bool quick) {
  std::vector<Cell> cells;
  const std::vector<KindThreads> kinds = kinds_for(quick);
  auto add = [&](const std::string& group, SimulationParams p,
                 const Schedule& schedule, bool cube_kinds_only) {
    for (const KindThreads& k : kinds) {
      const bool cube_kind =
          k.kind == SolverKind::kCube || k.kind == SolverKind::kDataflow;
      if (cube_kinds_only && !cube_kind) continue;
      for (int t : k.threads) {
        p.num_threads = t;
        p.validate();
        cells.push_back({group, k.kind, t, p, schedule});
      }
    }
  };
  std::vector<std::pair<std::string, Schedule>> schedules = {
      {"run", run_then_observed}, {"interleaved", interleaved}};
  if (quick) schedules.erase(schedules.begin());
  for (const Pipeline& pipe : kPipelines) {
    for (const char* collision : {"bgk", "mrt"}) {
      auto configure = [&](SimulationParams p) {
        p.fused_step = pipe.fused;
        p.simd_step = pipe.simd;
        p.collision = std::strcmp(collision, "mrt") == 0
                          ? lbmib::CollisionModel::kMRT
                          : lbmib::CollisionModel::kBGK;
        return p;
      };
      const std::string suffix =
          std::string("/") + pipe.name + "/" + collision;
      for (const char* boundary :
           {"periodic", "channel", "inlet", "cavity", "obstacle"}) {
        for (const bool fibers : {true, false}) {
          if (quick && !fibers) continue;
          SimulationParams p = configure(boundary_input(boundary));
          if (!fibers) {
            p.num_fibers = 0;
            p.nodes_per_fiber = 0;
          }
          for (const auto& [name, schedule] : schedules) {
            add(std::string(fibers ? "sheet/" : "free/") + boundary + suffix +
                    "/" + name,
                p, schedule, false);
          }
        }
      }
      // The pinned channel at every cube size; the cube size reaches only
      // the cube-layout kinds, so the others run it once.
      for (const Index k : {Index{2}, Index{4}, Index{8}}) {
        if (quick && k != 4) continue;
        SimulationParams p = configure(pinned_channel_input());
        p.cube_size = k;
        add("pinned-k" + std::to_string(k) + "/channel" + suffix + "/run", p,
            run_then_observed, k != 4);
      }
    }
  }
  return cells;
}

/// The id of the cell `cell` must equal bit for bit, or "" when none:
/// OpenMP = sequential, dataflow = cube at its thread count, and cube =
/// sequential off the SIMD leg.
std::string exact_partner(const Cell& cell) {
  const bool simd = cell.params.fused_step && cell.params.simd_step;
  switch (cell.kind) {
    case SolverKind::kOpenMP:
      return cell_id(cell.group, SolverKind::kSequential, 1);
    case SolverKind::kDataflow:
      return cell_id(cell.group, SolverKind::kCube, cell.threads);
    case SolverKind::kCube:
      return simd ? "" : cell_id(cell.group, SolverKind::kSequential, 1);
    default:
      return "";
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "state_sweep: %s\nusage: state_sweep [--preset default|quick] "
               "[--cross]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false, cross = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--cross") {
      cross = true;
    } else if (a == "--preset" && i + 1 < argc) {
      const std::string preset = argv[++i];
      if (preset != "default" && preset != "quick") {
        return usage("unknown preset");
      }
      quick = preset == "quick";
    } else {
      return usage(("unknown argument '" + a + "'").c_str());
    }
  }

  const std::vector<Cell> cells = build_matrix(quick);
  std::map<std::string, StateHash> hashes;
  for (const Cell& c : cells) {
    std::unique_ptr<Solver> solver = lbmib::make_solver(c.kind, c.params);
    c.schedule(*solver);
    const StateHash h = hash_state(*solver);
    hashes.emplace(c.id(), h);
    if (!cross) {
      std::printf("cell %s df=%016llx rho=%016llx u=%016llx X=%016llx "
                  "f=%016llx\n",
                  c.id().c_str(), static_cast<unsigned long long>(h.df),
                  static_cast<unsigned long long>(h.rho),
                  static_cast<unsigned long long>(h.u),
                  static_cast<unsigned long long>(h.x),
                  static_cast<unsigned long long>(h.f));
    }
  }
  if (!cross) return 0;

  Size pairs = 0, differing = 0;
  for (const Cell& c : cells) {
    const auto it = hashes.find(exact_partner(c));
    if (it == hashes.end()) continue;
    ++pairs;
    const StateHash& a = hashes.at(c.id());
    const StateHash& b = it->second;
    if (a == b) continue;
    ++differing;
    const std::uint64_t ca[] = {a.df, a.rho, a.u, a.x, a.f};
    const std::uint64_t cb[] = {b.df, b.rho, b.u, b.x, b.f};
    std::string cols;
    for (int k = 0; k < 5; ++k) {
      if (ca[k] == cb[k]) continue;
      cols += std::string(cols.empty() ? "" : ",") + kColumns[k];
    }
    std::printf("differs %s vs %s: %s\n", c.id().c_str(), it->first.c_str(),
                cols.c_str());
  }
  std::printf("cross: %zu exact pairs, %zu differ\n", pairs, differing);
  return differing == 0 ? 0 : 1;
}
