// Figures 11 and 12 of the paper: expected high-level transmissions
// generated by one write plus x reads at rho = 0.05, as the number of
// sites grows, in a MULTICAST network (Figure 11) and in a UNIQUE-
// ADDRESSING network where every destination is a separate transmission
// (Figure 12, §5.2). Voting is plotted for read:write ratios 1:1, 2:1 and
// 4:1; the available-copy schemes don't depend on x because their reads
// are free. Prints one table per figure.
//
// Analytic columns use §5's formulas; measured columns drive the real
// protocol engines over the counting transport in the discrete-event
// simulator.
#include <iostream>

#include "reldev/analysis/traffic.hpp"
#include "reldev/core/experiment.hpp"
#include "reldev/util/flags.hpp"
#include "reldev/util/table.hpp"

using namespace reldev;
using analysis::Scheme;

namespace {

struct Figure {
  int number;
  net::AddressingMode mode;
  const char* network;
  std::uint64_t seed_base;
  const char* shape_note;
};

constexpr Figure kFigures[] = {
    {11, net::AddressingMode::kMulticast, "multicast network", 110'000,
     "\nPaper shape check: NAC (flat at 1) < AC (~n) < voting; voting grows "
     "with the\nread ratio x while the available-copy schemes ignore it "
     "entirely.\n"},
    {12, net::AddressingMode::kUnique, "unique addressing", 120'000,
     "\nPaper shape check: same ordering as Figure 11 with larger absolute "
     "gaps;\nvoting at x=4 is the steepest curve by far.\n"},
};

TextTable figure_table(const Figure& figure, double rho, bool simulate,
                       double horizon) {
  const auto mode = figure.mode;
  TextTable table({"n", "NAC", "AC", "vote x=1", "vote x=2", "vote x=4",
                   "NAC sim", "AC sim", "vote x=2 sim"});
  table.set_title("Figure " + std::to_string(figure.number) +
                  ": transmissions per (1 write + x reads), " +
                  figure.network + ", rho = " + TextTable::fmt(rho, 2));

  for (std::size_t n = 2; n <= 8; ++n) {
    std::vector<std::string> row{std::to_string(n)};
    row.push_back(TextTable::fmt(
        analysis::workload_cost(Scheme::kNaiveAvailableCopy, mode, n, rho, 2),
        3));
    row.push_back(TextTable::fmt(
        analysis::workload_cost(Scheme::kAvailableCopy, mode, n, rho, 2), 3));
    for (const double x : {1.0, 2.0, 4.0}) {
      row.push_back(TextTable::fmt(
          analysis::workload_cost(Scheme::kVoting, mode, n, rho, x), 3));
    }
    if (simulate) {
      core::TrafficOptions options;
      options.mode = mode;
      options.sites = n;
      options.rho = rho;
      options.reads_per_write = 2.0;
      options.horizon = horizon;
      options.seed = figure.seed_base + n;

      options.scheme = core::SchemeKind::kNaiveAvailableCopy;
      row.push_back(TextTable::fmt(
          core::run_traffic_experiment(options).per_workload_unit, 3));
      options.scheme = core::SchemeKind::kAvailableCopy;
      row.push_back(TextTable::fmt(
          core::run_traffic_experiment(options).per_workload_unit, 3));
      options.scheme = core::SchemeKind::kVoting;
      row.push_back(TextTable::fmt(
          core::run_traffic_experiment(options).per_workload_unit, 3));
    } else {
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_double("rho", 0.05, "failure rate / repair rate");
  flags.add_double("horizon", 1'500, "simulated time per measured point");
  flags.add_bool("csv", false, "emit CSV");
  flags.add_bool("no-sim", false, "analytic columns only (fast)");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n';
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("fig11_12_traffic");
    return 0;
  }
  const double rho = flags.get_double("rho");
  const bool simulate = !flags.get_bool("no-sim");
  const double horizon = flags.get_double("horizon");

  for (const Figure& figure : kFigures) {
    const TextTable table = figure_table(figure, rho, simulate, horizon);
    if (flags.get_bool("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
      std::cout << figure.shape_note;
    }
  }
  return 0;
}
