// Shared scaffolding for the figure benches: header banner, CLI wiring, and
// the reduced-but-shape-preserving default grids (see DESIGN.md Section 6).
#pragma once

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "driver/cli.h"
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "sim/spec.h"

namespace stale::bench {

// Prints the figure banner: what paper artifact this regenerates, with which
// parameters, at which scale.
inline void print_header(const std::string& figure,
                         const std::string& description,
                         const driver::Cli& cli,
                         const std::string& params) {
  std::cout << "# " << figure << " — " << description << "\n";
  std::cout << "# " << params << "\n";
  std::cout << "# " << cli.scale_description() << "\n";
}

// T grid used by the periodic/continuous sweeps. Paper scale uses the full
// log-spaced grid the figures span; the default drops a couple of points to
// keep single-core wall time low without losing the curve's shape.
inline std::vector<double> t_grid(const driver::Cli& cli, double max_t) {
  if (cli.has("paper")) return driver::default_t_grid(max_t);
  if (cli.has("fast")) return {0.5, 4.0, 32.0};
  std::vector<double> grid;
  for (double t : {0.1, 0.5, 2.0, 8.0, 32.0, 128.0}) {
    if (t <= max_t) grid.push_back(t);
  }
  return grid;
}

// Wraps a bench main body with uniform flag handling: --help prints the flag
// table (standard flags plus `extra`) and exits 0; a bad flag prints a
// message and the usage line instead of a raw terminate.
template <typename Body>
int run_bench(int argc, const char* const* argv,
              const std::vector<sim::Flag>& extra, Body body) {
  try {
    driver::Cli cli(argc, argv, extra);
    if (cli.help_requested()) {
      cli.print_help(std::cout);
      return 0;
    }
    body(cli);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n"
              << sim::usage(driver::Cli::flag_table(
                     argc > 0 ? argv[0] : nullptr, extra))
              << "\n";
    return 1;
  }
}

}  // namespace stale::bench
