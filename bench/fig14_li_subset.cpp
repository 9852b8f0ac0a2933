// Figure 14: Basic LI-k — Basic LI restricted to a random k-subset of the
// load information — vs. the plain k-subset algorithms, under (a) the
// update-on-access model, (b) continuous update with fixed (constant) delay,
// and (c) the periodic bulletin board. Expected shape: at the same
// information budget k, interpreting the loads beats taking their minimum;
// LI-k improves as k grows (unlike plain k-subset, more information never
// hurts); and under panels (b)/(c) even small-k LI-k performs close to full
// Basic LI.
#include <iostream>

#include "bench_common.h"
#include "loadinfo/delay_distribution.h"

namespace {

void run_panel(const stale::driver::Cli& cli,
               stale::driver::UpdateModel model, const std::string& title) {
  stale::driver::ExperimentConfig base;
  base.num_servers = 10;
  base.lambda = 0.9;
  base.model = model;
  base.delay_kind = stale::loadinfo::DelayKind::kConstant;
  cli.apply_run_scale(base);
  if (model == stale::driver::UpdateModel::kUpdateOnAccess) {
    base.min_jobs_per_client = cli.has("paper") ? 1000 : 100;
  }

  const std::vector<std::string> policies = {
      "k_subset:2",   "k_subset:3",   "basic_li_k:2",
      "basic_li_k:3", "basic_li_k:5", "basic_li"};
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
            "Figure 14",
            "Basic LI over restricted information (LI-k) vs. plain k-subset",
            cli, "n = 10, lambda = 0.9");
        run_panel(cli, stale::driver::UpdateModel::kUpdateOnAccess,
                  "(a) update-on-access");
        run_panel(cli, stale::driver::UpdateModel::kContinuous,
                  "(b) continuous update, constant delay");
        run_panel(cli, stale::driver::UpdateModel::kPeriodic,
                  "(c) periodic bulletin board");
      });
}
