// Figure 6: service time vs. mean update delay under the continuous update
// model, one panel per delay distribution (constant, uniform(T/2, 3T/2),
// uniform(0, 2T), exponential(T)), when clients only know the *average*
// delay T. Expected shape: Basic LI >= Aggressive LI here (the stationary
// rule makes Aggressive conservative); higher-variance delays help the
// k-subset algorithms and shrink LI's edge — under exponential delay
// k-subset can beat Basic LI by up to ~16%.
#include <iostream>

#include "bench_common.h"
#include "loadinfo/delay_distribution.h"

namespace {

void run_panel(const stale::driver::Cli& cli,
               stale::loadinfo::DelayKind kind) {
  stale::driver::ExperimentConfig base;
  base.num_servers = 10;
  base.lambda = 0.9;
  base.model = stale::driver::UpdateModel::kContinuous;
  base.delay_kind = kind;
  base.know_actual_age = false;
  cli.apply_run_scale(base);

  const std::vector<std::string> policies = {
      "random",      "k_subset:2", "k_subset:3",
      "k_subset:10", "basic_li",   "aggressive_li"};
  std::cout << "\n## panel: delay = "
            << stale::loadinfo::delay_kind_name(kind) << "\n";
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
            "Figure 6",
            "continuous update model, clients know only the mean delay", cli,
            "n = 10, lambda = 0.9; panels = delay distributions of mean T");
        using stale::loadinfo::DelayKind;
        for (DelayKind kind : {DelayKind::kConstant, DelayKind::kUniformHalf,
                               DelayKind::kUniformFull,
                               DelayKind::kExponential}) {
          run_panel(cli, kind);
        }
      });
}
