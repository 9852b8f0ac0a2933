// Figure 7: the continuous-update sweep when clients know the *actual* age
// of the information each request sees (vs. Figure 6's average-only).
// Expected shape: the extra knowledge improves the LI algorithms for every
// delay distribution, and the improvement grows with the distribution's
// variance — closing the gap k-subset enjoyed under exponential delay.
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
  base.know_actual_age = true;
  cli.apply_run_scale(base);

  // Basic LI with known age vs. the strongest fixed-k competitor and
  // Aggressive LI, as in the paper's panels.
  const std::vector<std::string> policies = {
      "k_subset:2", "k_subset:3", "basic_li", "aggressive_li"};
  std::cout << "\n## panel: delay = "
            << stale::loadinfo::delay_kind_name(kind) << " (actual age known)"
            << "\n";
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
            "Figure 7",
            "continuous update model, clients know each request's actual "
            "information age",
            cli, "n = 10, lambda = 0.9; non-constant delay distributions");
        using stale::loadinfo::DelayKind;
        for (DelayKind kind : {DelayKind::kUniformHalf,
                               DelayKind::kUniformFull,
                               DelayKind::kExponential}) {
          run_panel(cli, kind);
        }
      });
}
