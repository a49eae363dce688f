#include "cube/cube_grid.hpp"

#include <cstring>

#include "common/error.hpp"
#include "lbm/boundary.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {

CubeGrid::CubeGrid(Index nx, Index ny, Index nz, Index cube_size, Real rho0,
                   const Vec3& u0)
    : nx_(nx), ny_(ny), nz_(nz), k_(cube_size) {
  require(nx > 0 && ny > 0 && nz > 0, "grid dimensions must be positive");
  require(cube_size >= 1, "cube size must be at least 1");
  require(nx % cube_size == 0 && ny % cube_size == 0 && nz % cube_size == 0,
          "grid dimensions must be divisible by the cube size");
  ncx_ = nx / k_;
  ncy_ = ny / k_;
  ncz_ = nz / k_;
  m_ = static_cast<Size>(k_) * static_cast<Size>(k_) *
       static_cast<Size>(k_);
  block_stride_ = kSlotsPerCube * m_;
  data_.reset(num_cubes() * block_stride_);
  solid_.reset(num_cubes() * m_);
  cube_has_solid_.reset(num_cubes());
  build_lookup_tables();
  initialize(rho0, u0);
}

void CubeGrid::build_lookup_tables() {
  const Index extents[3] = {nx_, ny_, nz_};
  for (int axis = 0; axis < 3; ++axis) {
    std::vector<AxisCoord>& table = axis_coords_[axis];
    table.resize(static_cast<Size>(extents[axis]));
    for (Index g = 0; g < extents[axis]; ++g) {
      table[static_cast<Size>(g)] = {g / k_, g % k_};
    }
  }
  neighbors_.reset(num_cubes() * 27);
  auto wrap = [](Index v, Index n) { return (v + n) % n; };
  for (Index cx = 0; cx < ncx_; ++cx) {
    for (Index cy = 0; cy < ncy_; ++cy) {
      for (Index cz = 0; cz < ncz_; ++cz) {
        const Size cube = cube_id(cx, cy, cz);
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
              const Size slot = static_cast<Size>((dx + 1) * 9 +
                                                  (dy + 1) * 3 + (dz + 1));
              neighbors_[cube * 27 + slot] =
                  cube_id(wrap(cx + dx, ncx_), wrap(cy + dy, ncy_),
                          wrap(cz + dz, ncz_));
            }
          }
        }
      }
    }
  }
}

CubeGrid::CubeGrid(const SimulationParams& params)
    : nx_(params.nx), ny_(params.ny), nz_(params.nz), k_(params.cube_size) {
  require(nx_ > 0 && ny_ > 0 && nz_ > 0,
          "grid dimensions must be positive");
  require(k_ >= 1, "cube size must be at least 1");
  require(nx_ % k_ == 0 && ny_ % k_ == 0 && nz_ % k_ == 0,
          "grid dimensions must be divisible by the cube size");
  ncx_ = nx_ / k_;
  ncy_ = ny_ / k_;
  ncz_ = nz_ / k_;
  m_ = static_cast<Size>(k_) * static_cast<Size>(k_) *
       static_cast<Size>(k_);
  block_stride_ = kSlotsPerCube * m_;
  const int threads = params.first_touch ? params.num_threads : 1;
  if (threads <= 1) {
    data_.reset(num_cubes() * block_stride_);
    solid_.reset(num_cubes() * m_);
    cube_has_solid_.reset(num_cubes());
    initialize(params.rho0, params.initial_velocity);
  } else {
    // NUMA first-touch: allocate without touching, then let a thread
    // team write contiguous linear-id cube ranges — the order the cube
    // solvers hand cubes to threads — so each worker's blocks bind to
    // its own node. A std::thread team rather than OpenMP: the cube
    // solvers are std::thread code, and ThreadSanitizer cannot see
    // libgomp's synchronization, so it would check every later access
    // to these pages against the OpenMP workers' writes.
    data_.reset_uninitialized(num_cubes() * block_stride_);
    solid_.reset_uninitialized(num_cubes() * m_);
    cube_has_solid_.reset_uninitialized(num_cubes());
    const Size nth = static_cast<Size>(threads);
    ThreadTeam(threads).run([&](int tid) {
      const Size begin = num_cubes() * static_cast<Size>(tid) / nth;
      const Size end = num_cubes() * (static_cast<Size>(tid) + 1) / nth;
      initialize_range(begin, end, params.rho0, params.initial_velocity);
    });
  }
  build_lookup_tables();
  // Shared mask logic (walls + obstacles) via is_boundary_solid.
  for (Index x = 0; x < nx_; ++x) {
    for (Index y = 0; y < ny_; ++y) {
      for (Index z = 0; z < nz_; ++z) {
        if (is_boundary_solid(params, x, y, z)) {
          const NodeRef r = locate(x, y, z);
          set_solid(r.cube, r.local, true);
        }
      }
    }
  }
  if (params.boundary == BoundaryType::kCavity) {
    set_lid_velocity(params.lid_velocity);
  }
}

void CubeGrid::set_solid(Size cube, Size local, bool s) {
  solid_[cube * m_ + local] = s ? 1 : 0;
  if (s) {
    cube_has_solid_[cube] = 1;
  } else if (cube_has_solid_[cube]) {
    // Clearing may have removed the last solid node: rescan the cube.
    std::uint8_t any = 0;
    for (Size i = 0; i < m_; ++i) any |= solid_[cube * m_ + i];
    cube_has_solid_[cube] = any;
  }
}

bool CubeGrid::solid_free_region(Size cube) const {
  if (cube_has_solid_[cube]) return false;
  const Size* n = neighbors_.data() + cube * 27;
  for (int i = 0; i < 27; ++i) {
    if (cube_has_solid_[n[i]]) return false;
  }
  return true;
}

CubeGrid::NodeRef CubeGrid::locate_periodic(Index x, Index y, Index z) const {
  return locate(FluidGrid::wrap(x, nx_), FluidGrid::wrap(y, ny_),
                FluidGrid::wrap(z, nz_));
}

void CubeGrid::initialize_range(Size cube_begin, Size cube_end, Real rho0,
                                const Vec3& u0) {
  Real eq[kQ];
  for (int dir = 0; dir < kQ; ++dir) {
    eq[dir] = d3q19::equilibrium(dir, rho0, u0);
  }
  for (Size cube = cube_begin; cube < cube_end; ++cube) {
    for (int dir = 0; dir < kQ; ++dir) {
      Real* g = slot(cube, df_base_ + static_cast<Size>(dir));
      Real* gn = slot(cube, df_new_base_ + static_cast<Size>(dir));
      for (Size i = 0; i < m_; ++i) g[i] = eq[dir];
      std::memset(gn, 0, m_ * sizeof(Real));
    }
    Real* r = slot(cube, kRhoSlot);
    Real* ux = slot(cube, kUxSlot);
    Real* uy = slot(cube, kUySlot);
    Real* uz = slot(cube, kUzSlot);
    for (Size i = 0; i < m_; ++i) {
      r[i] = rho0;
      ux[i] = u0.x;
      uy[i] = u0.y;
      uz[i] = u0.z;
    }
    std::memset(slot(cube, kFxSlot), 0, m_ * sizeof(Real));
    std::memset(slot(cube, kFySlot), 0, m_ * sizeof(Real));
    std::memset(slot(cube, kFzSlot), 0, m_ * sizeof(Real));
  }
  if (cube_end > cube_begin) {
    std::memset(solid_.data() + cube_begin * m_, 0,
                (cube_end - cube_begin) * m_);
    std::memset(cube_has_solid_.data() + cube_begin, 0,
                cube_end - cube_begin);
  }
}

void CubeGrid::initialize(Real rho0, const Vec3& u0) {
  for (Size cube = 0; cube < num_cubes(); ++cube) {
    for (Size local = 0; local < m_; ++local) {
      rho(cube, local) = rho0;
      set_velocity(cube, local, u0);
      slot(cube, kFxSlot)[local] = 0.0;
      slot(cube, kFySlot)[local] = 0.0;
      slot(cube, kFzSlot)[local] = 0.0;
      for (int dir = 0; dir < kQ; ++dir) {
        df(cube, dir, local) = d3q19::equilibrium(dir, rho0, u0);
        df_new(cube, dir, local) = 0.0;
      }
    }
  }
}

void CubeGrid::reset_forces(const Vec3& constant_force) {
  for (Size cube = 0; cube < num_cubes(); ++cube) {
    reset_forces(cube, constant_force);
  }
}

void CubeGrid::reset_forces(Size cube, const Vec3& constant_force) {
  LBMIB_RACE_CHECK(race::access(this, cube, RaceField::kForce,
                                RaceAccess::kWrite, "reset forces");)
  Real* fx = slot(cube, kFxSlot);
  Real* fy = slot(cube, kFySlot);
  Real* fz = slot(cube, kFzSlot);
  for (Size local = 0; local < m_; ++local) {
    fx[local] = constant_force.x;
    fy[local] = constant_force.y;
    fz[local] = constant_force.z;
  }
}

void CubeGrid::from_planar(const FluidGrid& grid) {
  require(grid.nx() == nx_ && grid.ny() == ny_ && grid.nz() == nz_,
          "planar grid dimensions do not match");
  for (Index x = 0; x < nx_; ++x) {
    for (Index y = 0; y < ny_; ++y) {
      for (Index z = 0; z < nz_; ++z) {
        const Size p = grid.index(x, y, z);
        const NodeRef r = locate(x, y, z);
        for (int dir = 0; dir < kQ; ++dir) {
          df(r.cube, dir, r.local) = grid.df(dir, p);
          df_new(r.cube, dir, r.local) = grid.df_new(dir, p);
        }
        rho(r.cube, r.local) = grid.rho(p);
        set_velocity(r.cube, r.local, grid.velocity(p));
        slot(r.cube, kFxSlot)[r.local] = grid.fx(p);
        slot(r.cube, kFySlot)[r.local] = grid.fy(p);
        slot(r.cube, kFzSlot)[r.local] = grid.fz(p);
        set_solid(r.cube, r.local, grid.solid(p));
      }
    }
  }
}

void CubeGrid::to_planar(FluidGrid& grid) const {
  require(grid.nx() == nx_ && grid.ny() == ny_ && grid.nz() == nz_,
          "planar grid dimensions do not match");
  for (Index x = 0; x < nx_; ++x) {
    for (Index y = 0; y < ny_; ++y) {
      for (Index z = 0; z < nz_; ++z) {
        const Size p = grid.index(x, y, z);
        const NodeRef r = locate(x, y, z);
        for (int dir = 0; dir < kQ; ++dir) {
          grid.df(dir, p) = df(r.cube, dir, r.local);
          grid.df_new(dir, p) = df_new(r.cube, dir, r.local);
        }
        grid.rho(p) = rho(r.cube, r.local);
        grid.set_velocity(p, velocity(r.cube, r.local));
        grid.fx(p) = slot(r.cube, kFxSlot)[r.local];
        grid.fy(p) = slot(r.cube, kFySlot)[r.local];
        grid.fz(p) = slot(r.cube, kFzSlot)[r.local];
        grid.set_solid(p, solid(r.cube, r.local));
      }
    }
  }
}

void CubeGrid::apply_boundary(BoundaryType type) {
  if (type == BoundaryType::kPeriodic) return;
  const bool x_walls = (type == BoundaryType::kCavity);
  for (Index x = 0; x < nx_; ++x) {
    for (Index y = 0; y < ny_; ++y) {
      for (Index z = 0; z < nz_; ++z) {
        if (y == 0 || y == ny_ - 1 || z == 0 || z == nz_ - 1 ||
            (x_walls && (x == 0 || x == nx_ - 1))) {
          const NodeRef r = locate(x, y, z);
          set_solid(r.cube, r.local, true);
        }
      }
    }
  }
}

}  // namespace lbmib
