// Ablation (extension): the individual-update model — each server refreshes
// its own board entry on a de-phased period-T timer, so entries have mixed
// ages — vs. the synchronized periodic bulletin board. Mitzenmacher found
// this model close to periodic update; the paper omitted it "for
// compactness". Expected shape: same algorithm ordering as Figure 2, with
// LI interpreting against the mean entry age.
#include <iostream>

#include "bench_common.h"

namespace {

void run_panel(const stale::driver::Cli& cli,
               stale::driver::UpdateModel model, const std::string& title) {
  stale::driver::ExperimentConfig base;
  base.num_servers = 10;
  base.lambda = 0.9;
  base.model = model;
  cli.apply_run_scale(base);

  const std::vector<std::string> policies = {
      "random", "k_subset:2", "k_subset:10", "basic_li", "aggressive_li"};
  std::cout << "\n## panel: " << title << "\n";
  stale::driver::SweepOptions options;
  options.csv = cli.csv();
  stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 32.0), policies,
                             std::cout, options);
}

}  // namespace

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::bench::print_header(
            "Ablation: individual updates",
            "de-phased per-server board refresh vs. synchronized periodic",
            cli, "n = 10, lambda = 0.9");
        run_panel(cli, stale::driver::UpdateModel::kPeriodic,
                  "synchronized periodic board");
        run_panel(cli, stale::driver::UpdateModel::kIndividual,
                  "individual per-server updates");
      });
}
