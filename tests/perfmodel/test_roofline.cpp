// Roofline report tests: the analytic traffic table, the
// bound-classification math against synthetic peaks (no probe — the
// peaks are handed in, so the answers are exact), and the JSON shape
// that BENCH_step.json embeds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perfmodel/roofline.hpp"

namespace lbmib::perfmodel {
namespace {

TEST(Roofline, TrafficTableCoversTheHotKernels) {
  // The four fluid sweepers and the IB kernels must be modeled; the
  // O(1) pointer swap must not be.
  for (const char* name :
       {"collide_stream", "collide", "stream", "copy_df",
        "update_velocity", "spread", "move_fibers", "bending",
        "stretching", "elastic"}) {
    const KernelTraffic* t = kernel_traffic(name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_GT(t->bytes_per_unit, 0.0) << name;
    EXPECT_STREQ(t->span_name, name);
    const std::string unit = t->unit;
    EXPECT_TRUE(unit == "node" || unit == "point") << name;
  }
  EXPECT_EQ(kernel_traffic("swap_df"), nullptr);
  EXPECT_EQ(kernel_traffic("no_such_kernel"), nullptr);
  EXPECT_FALSE(kernel_traffic_table().empty());

  // D3Q19 fused sweep: 19 df reads + 19 df writes + force reads are
  // the compulsory floor; pure streaming moves bytes but no flops.
  EXPECT_GE(kernel_traffic("collide_stream")->bytes_per_unit,
            38 * 8.0);
  EXPECT_EQ(kernel_traffic("stream")->flops_per_unit, 0.0);
  EXPECT_GT(kernel_traffic("collide_stream")->flops_per_unit, 0.0);
}

TEST(Roofline, ClassifiesBandwidthVsComputeBound) {
  MachinePeaks peaks;
  peaks.gbps = 10.0;
  peaks.gflops = 100.0;  // balance = 10 flop/byte
  EXPECT_DOUBLE_EQ(peaks.balance(), 10.0);

  // collide_stream's AI (260 flops / 328 bytes ~ 0.79) sits far below
  // a 10 flop/byte balance: bandwidth-bound.
  KernelMeasurement m;
  m.name = "collide_stream";
  m.units = 1e6;  // node-steps
  const KernelTraffic* t = kernel_traffic(m.name);
  // Exactly half the bandwidth roof: bytes = 5 GB/s * seconds.
  m.seconds = t->bytes_per_unit * m.units / 5e9;

  const RooflineReport report =
      build_roofline({m}, peaks);
  ASSERT_EQ(report.rows.size(), 1u);
  const RooflineRow& r = report.rows[0];
  EXPECT_TRUE(r.bandwidth_bound);
  EXPECT_NEAR(r.ai, t->flops_per_unit / t->bytes_per_unit, 1e-12);
  EXPECT_NEAR(r.achieved_gbps, 5.0, 1e-9);
  EXPECT_NEAR(r.roof_fraction, 0.5, 1e-9);
  EXPECT_NEAR(r.model_gbytes, t->bytes_per_unit * m.units / 1e9,
              1e-12);

  // Same kernel against a bandwidth-rich machine (balance 0.1
  // flop/byte): now the flops ceiling binds.
  peaks.gbps = 1000.0;
  const RooflineRow r2 = build_roofline({m}, peaks).rows[0];
  EXPECT_FALSE(r2.bandwidth_bound);
}

TEST(Roofline, DropsUnmodeledAndEmptyRowsAndSortsBySeconds) {
  MachinePeaks peaks;
  peaks.gbps = 10.0;
  peaks.gflops = 100.0;

  std::vector<KernelMeasurement> ms(4);
  ms[0].name = "spread";
  ms[0].seconds = 0.1;
  ms[0].units = 1e4;
  ms[1].name = "collide_stream";
  ms[1].seconds = 2.0;
  ms[1].units = 1e6;
  ms[2].name = "swap_df";  // no traffic model -> dropped
  ms[2].seconds = 1.0;
  ms[2].units = 1e6;
  ms[3].name = "update_velocity";  // no time measured -> dropped
  ms[3].seconds = 0.0;
  ms[3].units = 1e6;

  const RooflineReport report = build_roofline(ms, peaks);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].kernel, "collide_stream");
  EXPECT_EQ(report.rows[1].kernel, "spread");
}

TEST(Roofline, CounterColumnsFlowThroughToReportAndJson) {
  MachinePeaks peaks;
  peaks.gbps = 10.0;
  peaks.gflops = 100.0;
  peaks.threads = 4;

  KernelMeasurement m;
  m.name = "collide_stream";
  m.seconds = 1.0;
  m.units = 1e6;
  m.has_counters = true;
  m.cycles = 4e9;
  m.instructions = 8e9;  // IPC 2
  m.llc_references = 1e8;
  m.llc_misses = 5e7;  // miss rate 0.5
  m.stalled_backend = 1e9;

  const RooflineReport report =
      build_roofline({m}, peaks,
                     {{"cycles", true},
                      {"instructions", true},
                      {"llc_references", true},
                      {"llc_misses", true},
                      {"stalled_backend", true}});
  ASSERT_EQ(report.rows.size(), 1u);
  const RooflineRow& r = report.rows[0];
  EXPECT_TRUE(r.has_counters);
  EXPECT_TRUE(report.counters_available);
  EXPECT_NEAR(r.ipc.value_or(-1.0), 2.0, 1e-12);
  EXPECT_NEAR(r.llc_miss_rate.value_or(-1.0), 0.5, 1e-12);
  EXPECT_NEAR(r.llc_miss_per_unit.value_or(-1.0), 5e7 / 1e6, 1e-9);
  // 5e7 line fills x 64 B in 1 s = 3.2 GB/s.
  EXPECT_NEAR(r.measured_gbps.value_or(-1.0), 3.2, 1e-9);
  EXPECT_NEAR(r.stalled_frac.value_or(-1.0), 0.25, 1e-12);

  const std::string text = report.to_string();
  EXPECT_NE(text.find("collide_stream"), std::string::npos);
  EXPECT_NE(text.find("bandwidth"), std::string::npos);

  const std::string json = report.json();
  EXPECT_NE(json.find("\"peaks\""), std::string::npos);
  EXPECT_NE(json.find("\"ipc\""), std::string::npos);
  EXPECT_NE(json.find("\"bound\": \"bandwidth\""), std::string::npos);
}

TEST(Roofline, SoftwareOnlyCountersAreReportedAbsentNotZero) {
  // A host without a PMU grants only the software events: the span
  // sampled counters (has_counters), but every hardware sum is 0.
  MachinePeaks peaks;
  peaks.gbps = 10.0;
  peaks.gflops = 100.0;
  KernelMeasurement m;
  m.name = "collide_stream";
  m.seconds = 1.0;
  m.units = 1e6;
  m.has_counters = true;

  EventAvailability events = {
      {"cycles", false},          {"instructions", false},
      {"llc_references", false},  {"llc_misses", false},
      {"stalled_backend", false}, {"dtlb_misses", false},
      {"task_clock", true},       {"page_faults", true}};
  const RooflineReport report = build_roofline({m}, peaks, events);
  EXPECT_FALSE(report.counters_available);
  EXPECT_FALSE(report.rows[0].ipc.has_value());

  const std::string json = report.json();
  EXPECT_NE(json.find("\"counters_available\": false"), std::string::npos);
  EXPECT_NE(json.find("\"events\": {\"cycles\": false, "
                      "\"instructions\": false"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"task_clock\": true"), std::string::npos);
  for (const char* column :
       {"ipc", "llc_miss_rate", "llc_miss_per_unit", "measured_gbps",
        "stalled_backend_frac"}) {
    EXPECT_NE(json.find("\"" + std::string(column) + "\": null"),
              std::string::npos)
        << column << " must be null, not 0, without its events: " << json;
  }

  // Granting cycles+instructions makes IPC a measurement again, while
  // the LLC columns stay absent.
  events[0].second = true;
  events[1].second = true;
  const RooflineReport partial = build_roofline({m}, peaks, events);
  EXPECT_TRUE(partial.counters_available);
  EXPECT_NE(partial.json().find("\"ipc\": 0.0000"), std::string::npos)
      << partial.json();
  EXPECT_NE(partial.json().find("\"llc_miss_rate\": null"),
            std::string::npos);

  // Without an availability map nothing was granted: the counter
  // columns stay absent and the report claims no counters.
  const RooflineReport unprobed = build_roofline({m}, peaks);
  EXPECT_FALSE(unprobed.counters_available);
  EXPECT_NE(unprobed.json().find("\"ipc\": null"), std::string::npos);
  EXPECT_NE(unprobed.json().find("\"events\": {}"), std::string::npos);
}

}  // namespace
}  // namespace lbmib::perfmodel
