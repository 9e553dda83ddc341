// The strongest validation in the repository: the measured steady-state
// availability of real protocol engines driven by the discrete-event
// simulator must agree with §4's closed-form/CTMC results, for every
// scheme, across group sizes and failure ratios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "reldev/analysis/availability.hpp"
#include "reldev/analysis/traffic.hpp"
#include "reldev/core/experiment.hpp"

namespace reldev::core {
namespace {

// gtest prints a Case byte by byte into the ctest name. `tag` fills the
// four bytes between `scheme` and `sites`, which were once uninitialised
// padding; it pins them to the values the established test names carry,
// so the names no longer depend on whatever the stack held at startup.
struct Case {
  SchemeKind scheme;
  std::uint32_t tag;
  std::size_t sites;
  double rho;
};
static_assert(sizeof(Case) == 24, "Case must have no implicit padding");

class SimVsAnalytic : public ::testing::TestWithParam<Case> {};

double analytic(const Case& c) {
  switch (c.scheme) {
    case SchemeKind::kVoting:
      return analysis::voting_availability(c.sites, c.rho);
    case SchemeKind::kAvailableCopy:
      return analysis::available_copy_availability(c.sites, c.rho);
    case SchemeKind::kNaiveAvailableCopy:
      return analysis::naive_available_copy_availability(c.sites, c.rho);
  }
  return -1.0;
}

TEST_P(SimVsAnalytic, MeasuredAvailabilityMatchesTheory) {
  const Case c = GetParam();
  AvailabilityOptions options;
  options.scheme = c.scheme;
  options.sites = c.sites;
  options.rho = c.rho;
  options.horizon = 120'000;
  options.warmup = 1'000;
  options.batches = 30;
  options.seed = 20'250'707;

  const auto measured = run_availability_experiment(options);
  const double expected = analytic(c);
  // Allow the 95% CI half-width plus a small numerical cushion.
  const double tolerance = std::max(0.004, 2.0 * measured.half_width);
  EXPECT_NEAR(measured.availability, expected, tolerance)
      << scheme_kind_name(c.scheme) << " n=" << c.sites << " rho=" << c.rho
      << " (ci half-width " << measured.half_width << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimVsAnalytic,
    ::testing::Values(
        // Voting at the Figure 9/10 configurations.
        Case{SchemeKind::kVoting, 0, 3, 0.1},
        Case{SchemeKind::kVoting, 0, 5, 0.2},
        Case{SchemeKind::kVoting, 0, 6, 0.3},
        Case{SchemeKind::kVoting, 0, 2, 0.5},
        // Available copy.
        Case{SchemeKind::kAvailableCopy, 0, 2, 0.3},
        Case{SchemeKind::kAvailableCopy, 0, 3, 0.2},
        Case{SchemeKind::kAvailableCopy, 0x002C3B03, 4, 0.4},
        // Naive available copy.
        Case{SchemeKind::kNaiveAvailableCopy, 0xEFE00000, 2, 0.3},
        Case{SchemeKind::kNaiveAvailableCopy, 0, 3, 0.2},
        Case{SchemeKind::kNaiveAvailableCopy, 0xCAC00000, 4, 0.4}));

TEST(SimVsAnalyticTraffic, MulticastWriteCostsMatchFormulas) {
  // Measured per-write transmissions vs §5.1, n = 5, rho = 0.05.
  TrafficOptions options;
  options.sites = 5;
  options.rho = 0.05;
  options.horizon = 3'000;
  options.seed = 99;
  options.mode = net::AddressingMode::kMulticast;

  options.scheme = SchemeKind::kNaiveAvailableCopy;
  EXPECT_NEAR(run_traffic_experiment(options).per_write, 1.0, 1e-9);

  options.scheme = SchemeKind::kAvailableCopy;
  const double ua = analysis::available_copy_participation(5, 0.05);
  EXPECT_NEAR(run_traffic_experiment(options).per_write, ua, 0.25);

  options.scheme = SchemeKind::kVoting;
  const double uv = analysis::voting_participation(5, 0.05);
  EXPECT_NEAR(run_traffic_experiment(options).per_write, 1.0 + uv, 0.25);
}

TEST(SimVsAnalyticTraffic, UniqueWriteCostsMatchFormulas) {
  TrafficOptions options;
  options.sites = 5;
  options.rho = 0.05;
  options.horizon = 3'000;
  options.seed = 17;
  options.mode = net::AddressingMode::kUnique;

  options.scheme = SchemeKind::kNaiveAvailableCopy;
  EXPECT_NEAR(run_traffic_experiment(options).per_write, 4.0, 1e-9);

  options.scheme = SchemeKind::kVoting;
  const double uv = analysis::voting_participation(5, 0.05);
  // n + 2 U_V - 3 with n = 5.
  EXPECT_NEAR(run_traffic_experiment(options).per_write, 2.0 + 2.0 * uv,
              0.45);
}

TEST(SimVsAnalyticTraffic, ReadCostsMatchFormulas) {
  TrafficOptions options;
  options.sites = 5;
  options.rho = 0.05;
  options.horizon = 3'000;
  options.reads_per_write = 2.0;
  options.mode = net::AddressingMode::kMulticast;

  options.scheme = SchemeKind::kAvailableCopy;
  EXPECT_DOUBLE_EQ(run_traffic_experiment(options).per_read, 0.0);

  options.scheme = SchemeKind::kVoting;
  const double uv = analysis::voting_participation(5, 0.05);
  EXPECT_NEAR(run_traffic_experiment(options).per_read, uv, 0.25);
}

}  // namespace
}  // namespace reldev::core
