#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/fault_injection.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"
#include "ib/fiber_sheet.hpp"
#include "io/checkpoint.hpp"
#include "lbm/fluid_grid.hpp"
#include "temp_path.hpp"

namespace lbmib {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = test_temp_path("lbmib_checkpoint_test", ".bin");
};

void randomize_state(FluidGrid& grid, FiberSheet& sheet,
                     std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (Size n = 0; n < grid.num_nodes(); ++n) {
    for (int d = 0; d < kQ; ++d) {
      grid.df(d, n) = rng.next_double();
      grid.df_new(d, n) = rng.next_double();
    }
    grid.rho(n) = rng.next_double(0.9, 1.1);
    grid.set_velocity(
        n, {rng.next_double(), rng.next_double(), rng.next_double()});
    grid.fx(n) = rng.next_double();
    grid.set_solid(n, rng.next_below(7) == 0);
  }
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    sheet.position(i) = {rng.next_double(0.0, 10.0),
                         rng.next_double(0.0, 10.0),
                         rng.next_double(0.0, 10.0)};
    sheet.elastic_force(i) = {rng.next_double(), 0.0, 0.0};
    sheet.set_pinned(i, rng.next_below(3) == 0);
  }
}

TEST_F(CheckpointTest, RoundTripIsBitExact) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {2.0, 1.0, 1.0}, 0.05, 0.01);
  randomize_state(grid, sheet, 42);
  save_checkpoint(path_, grid, sheet);

  FluidGrid grid2(6, 4, 4);
  FiberSheet sheet2(3, 4, 2.0, 3.0, {2.0, 1.0, 1.0}, 0.05, 0.01);
  load_checkpoint(path_, grid2, sheet2);

  for (Size n = 0; n < grid.num_nodes(); ++n) {
    for (int d = 0; d < kQ; ++d) {
      EXPECT_EQ(grid2.df(d, n), grid.df(d, n));
      EXPECT_EQ(grid2.df_new(d, n), grid.df_new(d, n));
    }
    EXPECT_EQ(grid2.rho(n), grid.rho(n));
    EXPECT_EQ(grid2.velocity(n), grid.velocity(n));
    EXPECT_EQ(grid2.fx(n), grid.fx(n));
    EXPECT_EQ(grid2.solid(n), grid.solid(n));
  }
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    EXPECT_EQ(sheet2.position(i), sheet.position(i));
    EXPECT_EQ(sheet2.elastic_force(i), sheet.elastic_force(i));
    EXPECT_EQ(sheet2.pinned(i), sheet.pinned(i));
  }
}

TEST_F(CheckpointTest, ResumedSimulationContinuesIdentically) {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};

  // Run 10 steps straight through.
  SequentialSolver straight(p);
  straight.run(10);

  // Run 5, checkpoint, restore into a fresh solver, run 5 more.
  SequentialSolver first(p);
  first.run(5);
  save_checkpoint(path_, first.fluid(), first.sheet());
  SequentialSolver second(p);
  load_checkpoint(path_, second.fluid(), second.sheet());
  second.run(5);

  for (Size n = 0; n < straight.fluid().num_nodes(); ++n) {
    for (int d = 0; d < kQ; ++d) {
      EXPECT_EQ(second.fluid().df(d, n), straight.fluid().df(d, n));
    }
  }
  for (Size i = 0; i < straight.sheet().num_nodes(); ++i) {
    EXPECT_EQ(second.sheet().position(i), straight.sheet().position(i));
  }
}

TEST_F(CheckpointTest, RejectsWrongDimensions) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {}, 0.0, 0.0);
  save_checkpoint(path_, grid, sheet);
  FluidGrid wrong_grid(6, 4, 8);
  EXPECT_THROW(load_checkpoint(path_, wrong_grid, sheet), Error);
  FiberSheet wrong_sheet(3, 5, 2.0, 3.0, {}, 0.0, 0.0);
  EXPECT_THROW(load_checkpoint(path_, grid, wrong_sheet), Error);
}

TEST_F(CheckpointTest, RejectsGarbageFile) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a checkpoint";
  }
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {}, 0.0, 0.0);
  EXPECT_THROW(load_checkpoint(path_, grid, sheet), Error);
}

TEST_F(CheckpointTest, RejectsTruncatedFile) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {}, 0.0, 0.0);
  save_checkpoint(path_, grid, sheet);
  // Truncate the file to half.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto full = in.tellg();
  in.seekg(0);
  std::vector<char> half(static_cast<Size>(full) / 2);
  in.read(half.data(), static_cast<std::streamsize>(half.size()));
  in.close();
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(half.data(), static_cast<std::streamsize>(half.size()));
  }
  EXPECT_THROW(load_checkpoint(path_, grid, sheet), Error);
}

TEST_F(CheckpointTest, RejectsMissingFile) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {}, 0.0, 0.0);
  EXPECT_THROW(load_checkpoint("/nonexistent_xyz/cp.bin", grid, sheet),
               Error);
}

// --- v3 corruption paths ---------------------------------------------------

void expect_load_error_containing(const std::string& path, FluidGrid& grid,
                                  FiberSheet& sheet,
                                  const std::string& needle) {
  try {
    load_checkpoint(path, grid, sheet);
    FAIL() << "expected load_checkpoint to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST_F(CheckpointTest, StepCountRoundTrips) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {2.0, 1.0, 1.0}, 0.05, 0.01);
  save_checkpoint(path_, grid, sheet, 1234);
  EXPECT_EQ(peek_checkpoint_step(path_), 1234);
  FluidGrid grid2(6, 4, 4);
  FiberSheet sheet2(3, 4, 2.0, 3.0, {2.0, 1.0, 1.0}, 0.05, 0.01);
  EXPECT_EQ(load_checkpoint(path_, grid2, sheet2), 1234);
}

TEST_F(CheckpointTest, SaveIsAtomicNoTempFileLeftBehind) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {}, 0.0, 0.0);
  save_checkpoint(path_, grid, sheet);
  std::ifstream tmp(path_ + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

TEST_F(CheckpointTest, WrongMagicSaysNotACheckpoint) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {}, 0.0, 0.0);
  save_checkpoint(path_, grid, sheet);
  // Corrupt the magic (first 8 bytes).
  fault::flip_bit(path_, 0, 3);
  expect_load_error_containing(path_, grid, sheet, "not a checkpoint");
}

TEST_F(CheckpointTest, UnsupportedVersionRejected) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {}, 0.0, 0.0);
  save_checkpoint(path_, grid, sheet);
  // The version field is the second u64; 3 -> 2 flips bit 0.
  fault::flip_bit(path_, 8, 0);
  expect_load_error_containing(path_, grid, sheet,
                               "unsupported checkpoint version");
}

TEST_F(CheckpointTest, TruncatedHeaderReportsTruncationNotMismatch) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {}, 0.0, 0.0);
  save_checkpoint(path_, grid, sheet);
  // Cut the file inside the header (after magic + version + nx).
  fault::truncate_file(path_, 20);
  expect_load_error_containing(path_, grid, sheet, "truncated");
}

TEST_F(CheckpointTest, TruncatedBodyReportsTruncation) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {}, 0.0, 0.0);
  save_checkpoint(path_, grid, sheet);
  fault::truncate_file(path_, fault::file_size(path_) - 64);
  expect_load_error_containing(path_, grid, sheet, "truncated");
}

TEST_F(CheckpointTest, BitFlippedSectionFailsChecksum) {
  FluidGrid grid(6, 4, 4);
  FiberSheet sheet(3, 4, 2.0, 3.0, {2.0, 1.0, 1.0}, 0.05, 0.01);
  randomize_state(grid, sheet, 7);
  save_checkpoint(path_, grid, sheet);
  // Flip one bit deep inside the grid section (header is 60 bytes).
  fault::flip_bit(path_, 4096, 5);
  FluidGrid grid2(6, 4, 4);
  FiberSheet sheet2(3, 4, 2.0, 3.0, {2.0, 1.0, 1.0}, 0.05, 0.01);
  expect_load_error_containing(path_, grid2, sheet2, "checksum");
}

class CheckpointRotationTest : public ::testing::Test {
 protected:
  void TearDown() override { CheckpointRotation(base_).remove_files(); }
  std::string base_ = test_temp_path("lbmib_rotation_test", ".ckpt");
};

TEST_F(CheckpointRotationTest, LoadsNewestSlot) {
  FluidGrid grid(6, 4, 4);
  Structure structure;
  structure.emplace_back(3, 4, 2.0, 3.0, Vec3{2.0, 1.0, 1.0}, 0.05, 0.01);

  CheckpointRotation rotation(base_);
  EXPECT_FALSE(rotation.has_checkpoint());

  randomize_state(grid, structure[0], 1);
  rotation.save(grid, structure, 5);
  randomize_state(grid, structure[0], 2);
  rotation.save(grid, structure, 10);
  EXPECT_EQ(rotation.latest_step(), 10);

  FluidGrid loaded(6, 4, 4);
  Structure loaded_structure;
  loaded_structure.emplace_back(3, 4, 2.0, 3.0, Vec3{2.0, 1.0, 1.0}, 0.05,
                                0.01);
  EXPECT_EQ(rotation.load(loaded, loaded_structure), 10);
  EXPECT_EQ(compare_fluid(loaded, grid).max_any(), 0.0);
}

TEST_F(CheckpointRotationTest, TornNewestSlotFallsBackToPreviousGood) {
  FluidGrid grid(6, 4, 4);
  Structure structure;
  structure.emplace_back(3, 4, 2.0, 3.0, Vec3{2.0, 1.0, 1.0}, 0.05, 0.01);

  CheckpointRotation rotation(base_);
  randomize_state(grid, structure[0], 1);
  rotation.save(grid, structure, 5);
  FluidGrid state_at_5(6, 4, 4);
  state_at_5.copy_from(grid);

  randomize_state(grid, structure[0], 2);
  rotation.save(grid, structure, 10);

  // Tear the newer checkpoint mid-body, as a crash during write would.
  const std::string newer =
      peek_checkpoint_step(rotation.slot_path(0)) == 10
          ? rotation.slot_path(0)
          : rotation.slot_path(1);
  fault::truncate_file(newer, fault::file_size(newer) / 2);

  FluidGrid loaded(6, 4, 4);
  Structure loaded_structure;
  loaded_structure.emplace_back(3, 4, 2.0, 3.0, Vec3{2.0, 1.0, 1.0}, 0.05,
                                0.01);
  EXPECT_EQ(rotation.load(loaded, loaded_structure), 5);
  EXPECT_EQ(compare_fluid(loaded, state_at_5).max_any(), 0.0);
}

TEST_F(CheckpointRotationTest, BothSlotsCorruptThrows) {
  FluidGrid grid(6, 4, 4);
  Structure structure;
  structure.emplace_back(3, 4, 2.0, 3.0, Vec3{2.0, 1.0, 1.0}, 0.05, 0.01);

  CheckpointRotation rotation(base_);
  rotation.save(grid, structure, 5);
  rotation.save(grid, structure, 10);
  for (int slot : {0, 1}) {
    fault::truncate_file(rotation.slot_path(slot),
                         fault::file_size(rotation.slot_path(slot)) / 2);
  }
  EXPECT_THROW(rotation.load(grid, structure), Error);
}

}  // namespace
}  // namespace lbmib
