#include <gtest/gtest.h>

#include "wlp/workloads/spice.hpp"

namespace wlp::workloads {
namespace {

TEST(SpiceDevices, MixedListStillExactAcrossMethods) {
  ThreadPool pool(4);
  SpiceConfig cfg;
  cfg.devices = 800;
  cfg.bjt_fraction = 0.3;
  cfg.mosfet_fraction = 0.3;
  const SpiceLoad load(cfg);

  std::vector<double> ref = load.fresh_matrix();
  load.run_sequential(ref);

  for (int method = 0; method < 3; ++method) {
    std::vector<double> out = load.fresh_matrix();
    switch (method) {
      case 0: load.run_general1(pool, out); break;
      case 1: load.run_general2(pool, out); break;
      default: load.run_general3(pool, out); break;
    }
    EXPECT_EQ(out, ref) << "method " << method;
  }
}

TEST(SpiceDevices, KindsFollowConfiguredFractions) {
  SpiceConfig cfg;
  cfg.devices = 20000;
  cfg.bjt_fraction = 0.25;
  cfg.mosfet_fraction = 0.5;
  const SpiceLoad load(cfg);
  // Count kinds through the profile's work scale classes.
  const auto lp = load.profile();
  long heavy = 0, medium = 0, light = 0;
  for (double w : lp.work) {
    // scales: BJT 1.65*t+2, MOSFET 1.1*t+2, cap 0.55*t+2 with t in [4,24].
    if (w > 1.1 * 24 + 2) ++heavy;           // unambiguously BJT
    else if (w < 0.55 * 24 + 2 + 1e-9 && w >= 0.55 * 4 + 2 - 1e-9) ++light;
    else ++medium;
  }
  // Rough sanity: all three classes present in expected proportions.
  EXPECT_GT(heavy, 0);
  EXPECT_GT(light, 0);
  EXPECT_GT(medium, 0);
}

TEST(SpiceDevices, EvaluateIsDeterministicPerModel) {
  DeviceModel m;
  m.c0 = 1e-10;
  m.bias = 1.3;
  m.terms = 12;
  for (auto kind : {DeviceKind::kCapacitor, DeviceKind::kBJT, DeviceKind::kMOSFET}) {
    m.kind = kind;
    const double a = SpiceLoad::evaluate(m);
    const double b = SpiceLoad::evaluate(m);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(std::isfinite(a));
  }
}

TEST(SpiceDevices, MosfetCutoffRegionIsZero) {
  DeviceModel m;
  m.kind = DeviceKind::kMOSFET;
  m.c0 = 1e-10;
  m.bias = 0.2;  // below threshold: vov <= 0
  m.terms = 8;
  EXPECT_EQ(SpiceLoad::evaluate(m), 0.0);
}

TEST(SpiceDevices, DefaultConfigIsPureLoop40) {
  const SpiceLoad load({.devices = 500,
                        .min_terms = 4,
                        .max_terms = 24,
                        .bjt_fraction = 0.0,
                        .mosfet_fraction = 0.0,
                        .seed = 9});
  const auto lp = load.profile();
  for (double w : lp.work) EXPECT_LE(w, 0.55 * 24 + 2 + 1e-9);
}

}  // namespace
}  // namespace wlp::workloads
