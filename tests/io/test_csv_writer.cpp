#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "io/csv_writer.hpp"
#include "temp_path.hpp"

namespace lbmib {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = test_temp_path("lbmib_csv_test", ".csv");
};

TEST_F(CsvWriterTest, HeaderAndRows) {
  {
    CsvWriter csv(path_, {"step", "mass", "momentum"});
    csv.row({1.0, 2.5, 3.0});
    csv.row({2.0, 2.5, 3.25});
  }
  EXPECT_EQ(slurp(path_), "step,mass,momentum\n1,2.5,3\n2,2.5,3.25\n");
}

TEST_F(CsvWriterTest, LabeledRows) {
  {
    CsvWriter csv(path_, {"solver", "threads", "seconds"});
    csv.row("openmp", {8.0, 1.5});
    csv.row("cube", {8.0, 1.0});
  }
  EXPECT_EQ(slurp(path_),
            "solver,threads,seconds\nopenmp,8,1.5\ncube,8,1\n");
}

TEST_F(CsvWriterTest, RejectsWidthMismatch) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), Error);
  EXPECT_THROW(csv.row({1.0, 2.0, 3.0}), Error);
  EXPECT_THROW(csv.row("label", {1.0, 2.0}), Error);
}

TEST_F(CsvWriterTest, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(path_, {}), Error);
}

TEST_F(CsvWriterTest, RejectsUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/x.csv", {"a"}), Error);
}

}  // namespace
}  // namespace lbmib
