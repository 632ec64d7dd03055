// Cross-module integration tests: whole-experiment runs at reduced scale
// (full-scale runs live in the bench binaries) plus the HPL/Green500 story.

#include <gtest/gtest.h>

#include "tibsim/apps/hpl.hpp"
#include "tibsim/cluster/cluster.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/arch/registry.hpp"
#include "tibsim/core/experiments.hpp"

namespace tibsim::core {
namespace {

using namespace units;

TEST(Integration, MicroKernelExperimentProducesFullSweeps) {
  const MicroKernelExperiment experiment(
      MicroKernelExperiment::Mode::SingleCore);
  const auto sweeps = experiment.run();
  ASSERT_EQ(sweeps.size(), 4u);
  for (const auto& sweep : sweeps) {
    EXPECT_FALSE(sweep.points.empty());
    for (const auto& point : sweep.points) {
      EXPECT_GT(point.suiteSeconds, 0.0);
      EXPECT_GT(point.suiteEnergyJ, 0.0);
      EXPECT_GT(point.speedupVsBaseline, 0.0);
      EXPECT_EQ(point.kernels.size(), 11u);
    }
  }
}

TEST(Integration, MultiCoreSweepBeatsSingleCore) {
  const auto single =
      MicroKernelExperiment(MicroKernelExperiment::Mode::SingleCore).run();
  const auto multi =
      MicroKernelExperiment(MicroKernelExperiment::Mode::MultiCore).run();
  for (std::size_t p = 0; p < single.size(); ++p) {
    const auto& s = single[p].points.back();
    const auto& m = multi[p].points.back();
    EXPECT_GT(m.speedupVsBaseline, s.speedupVsBaseline)
        << single[p].platform;
    EXPECT_LT(m.suiteEnergyJ, s.suiteEnergyJ) << single[p].platform;
  }
}

TEST(Integration, StreamExperimentShape) {
  const auto rows = streamExperiment();
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_GT(row.singleCoreBytesPerS[i], 0.0) << row.platform;
      EXPECT_LE(row.singleCoreBytesPerS[i],
                row.multiCoreBytesPerS[i] * 1.001)
          << row.platform;
    }
    EXPECT_GT(row.efficiencyVsPeak, 0.15) << row.platform;
    EXPECT_LT(row.efficiencyVsPeak, 0.75) << row.platform;
  }
}

TEST(Integration, ScalabilityCurvesAtReducedScale) {
  cluster::ClusterSpec spec = cluster::ClusterSpec::tibidabo();
  const auto curves = scalabilityExperiment(spec, {4, 8, 16, 32});
  // PEPC's reference input does not fit below 24 nodes, so at these counts
  // only the other four applications report.
  ASSERT_GE(curves.size(), 4u);
  for (const auto& curve : curves) {
    EXPECT_FALSE(curve.points.empty()) << curve.application;
    double prevSpeedup = 0.0;
    for (const auto& point : curve.points) {
      EXPECT_GT(point.speedup, prevSpeedup * 0.95) << curve.application;
      prevSpeedup = point.speedup;
    }
    // No curve is super-linear beyond noise.
    EXPECT_LT(curve.points.back().speedup,
              curve.points.back().nodes * 1.15)
        << curve.application;
  }
}

TEST(Integration, SpecfemScalesBetterThanHydro) {
  cluster::ClusterSpec spec = cluster::ClusterSpec::tibidabo();
  const auto curves = scalabilityExperiment(spec, {4, 32});
  double specfemEff = 0.0, hydroEff = 0.0;
  for (const auto& curve : curves) {
    if (curve.points.size() < 2) continue;
    const double eff =
        curve.points.back().speedup / curve.points.back().nodes;
    if (curve.application == "SPECFEM3D") specfemEff = eff;
    if (curve.application == "HYDRO") hydroEff = eff;
  }
  EXPECT_GT(specfemEff, 0.0);
  EXPECT_GT(hydroEff, 0.0);
  EXPECT_GT(specfemEff, hydroEff);
}

TEST(Integration, HplGreen500AtModerateScale) {
  cluster::ClusterSpec spec = cluster::ClusterSpec::tibidabo();
  cluster::ClusterSimulation sim(spec);
  // 16 nodes with a reduced memory fraction keeps the test fast; the
  // full 96-node run is the hpl_green500 experiment.
  const auto result = apps::HplBenchmark::run(sim, 16, 0.10);
  EXPECT_GT(result.efficiency(), 0.35);
  EXPECT_LT(result.efficiency(), 0.60);
  EXPECT_GT(result.mflopsPerWatt, 60.0);
  EXPECT_LT(result.mflopsPerWatt, 220.0);
}

TEST(Integration, HplHeadlineNumbersAt96Nodes) {
  // The paper's Section 4 headline: ~97 GFLOPS, 51 % efficiency,
  // ~120 MFLOPS/W on 96 Tibidabo nodes.
  cluster::ClusterSimulation sim(cluster::ClusterSpec::tibidabo());
  const auto result = apps::HplBenchmark::run(sim, 96);
  EXPECT_NEAR(result.gflops, 97.0, 12.0);
  EXPECT_NEAR(result.efficiency(), 0.51, 0.05);
  EXPECT_NEAR(result.mflopsPerWatt, 120.0, 15.0);
}

TEST(Integration, OpenMxImprovesHplOverTcp) {
  cluster::ClusterSimulation tcp(cluster::ClusterSpec::tibidabo());
  cluster::ClusterSimulation omx(cluster::ClusterSpec::tibidaboOpenMx());
  const auto rTcp = apps::HplBenchmark::run(tcp, 8, 0.08);
  const auto rOmx = apps::HplBenchmark::run(omx, 8, 0.08);
  EXPECT_GT(rOmx.gflops, rTcp.gflops);
}

TEST(Integration, PingPongSweepSeriesConsistent) {
  const auto series = pingPongSweep(arch::PlatformRegistry::tegra2(),
                                    net::Protocol::TcpIp, ghz(1.0),
                                    latencyMessageSizes());
  ASSERT_EQ(series.messageBytes.size(), latencyMessageSizes().size());
  for (double l : series.latencySeconds) {
    EXPECT_GT(l, 50e-6);
    EXPECT_LT(l, 200e-6);
  }
}

}  // namespace
}  // namespace tibsim::core
