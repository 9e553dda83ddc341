// Figures 9 and 10 of the paper: availability of a replicated block with
// THREE (Figure 9) and FOUR (Figure 10) copies under the available-copy
// schemes vs twice as many copies under majority consensus voting, as
// rho = lambda/mu sweeps 0 -> 0.20. Prints one table per figure.
//
// Three independent routes per point: the paper's closed forms, the
// mechanically-built CTMC of Figures 7/8, and a discrete-event simulation
// of the real protocol engines. The paper's shape: both available-copy
// curves sit far above voting and are indistinguishable from each other
// below rho ~ 0.10.
#include <iostream>

#include "reldev/analysis/availability.hpp"
#include "reldev/analysis/markov.hpp"
#include "reldev/core/experiment.hpp"
#include "reldev/util/flags.hpp"
#include "reldev/util/table.hpp"

using namespace reldev;

namespace {

/// One figure: `copies` available copies against 2 * `copies` voting ones.
struct Figure {
  int number;
  std::size_t copies;
  const char* copies_word;
  const char* voting_word;
  std::uint64_t seed_base;
  const char* shape_note;
};

constexpr Figure kFigures[] = {
    {9, 3, "three", "six", 90'000,
     "\nPaper shape check: A_A(3) >= A_NA(3) >> A_V(6) for all rho in (0, "
     "0.20];\nAC and NAC visually identical below rho = 0.10.\n"},
    {10, 4, "four", "eight", 100'000,
     "\nPaper shape check: both available-copy curves dominate A_V(8) "
     "everywhere;\nthe AC/NAC gap only opens past rho ~ 0.10.\n"},
};

TextTable figure_table(const Figure& figure, bool simulate, double horizon) {
  const std::size_t n = figure.copies;
  const std::string ac = "(" + std::to_string(n) + ")";
  const std::string vote = "(" + std::to_string(2 * n) + ")";
  TextTable table({"rho", "A_V" + vote, "A_A" + ac, "A_NA" + ac,
                   "A_A" + ac + " ctmc", "A_NA" + ac + " ctmc",
                   "A_A" + ac + " sim", "A_NA" + ac + " sim",
                   "A_V" + vote + " sim"});
  table.set_title("Figure " + std::to_string(figure.number) +
                  ": availabilities for " + figure.copies_word +
                  " available copies vs " + figure.voting_word +
                  " voting copies");

  for (int step = 0; step <= 10; ++step) {
    const double rho = 0.02 * step;
    std::vector<std::string> row;
    row.push_back(TextTable::fmt(rho, 2));
    row.push_back(
        TextTable::fmt(analysis::voting_availability(2 * n, rho), 6));
    row.push_back(
        TextTable::fmt(analysis::available_copy_availability(n, rho), 6));
    row.push_back(TextTable::fmt(
        analysis::naive_available_copy_availability(n, rho), 6));
    if (rho > 0.0) {
      row.push_back(TextTable::fmt(
          analysis::solve_available_copy_chain(n, rho).availability(), 6));
      row.push_back(TextTable::fmt(
          analysis::solve_naive_available_copy_chain(n, rho).availability(),
          6));
    } else {
      row.push_back("1.000000");
      row.push_back("1.000000");
    }
    if (simulate && rho > 0.0) {
      core::AvailabilityOptions options;
      options.sites = n;
      options.rho = rho;
      options.horizon = horizon;
      options.warmup = horizon / 50;
      options.seed = figure.seed_base + static_cast<std::uint64_t>(step);

      options.scheme = core::SchemeKind::kAvailableCopy;
      row.push_back(TextTable::fmt(
          core::run_availability_experiment(options).availability, 6));
      options.scheme = core::SchemeKind::kNaiveAvailableCopy;
      row.push_back(TextTable::fmt(
          core::run_availability_experiment(options).availability, 6));
      options.scheme = core::SchemeKind::kVoting;
      options.sites = 2 * n;
      row.push_back(TextTable::fmt(
          core::run_availability_experiment(options).availability, 6));
    } else {
      row.push_back(simulate ? "1.000000" : "-");
      row.push_back(simulate ? "1.000000" : "-");
      row.push_back(simulate ? "1.000000" : "-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_double("horizon", 60'000,
                   "simulated time per DES measurement (repair rate = 1)");
  flags.add_bool("csv", false, "emit CSV");
  flags.add_bool("no-sim", false, "analytic columns only (fast)");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n';
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("fig09_10_availability");
    return 0;
  }
  const bool simulate = !flags.get_bool("no-sim");
  const double horizon = flags.get_double("horizon");

  for (const Figure& figure : kFigures) {
    const TextTable table = figure_table(figure, simulate, horizon);
    if (flags.get_bool("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
      std::cout << figure.shape_note;
    }
  }
  return 0;
}
