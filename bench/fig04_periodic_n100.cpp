// Figure 4: the Figure 2 sweep with n = 100 servers instead of the standard
// n = 10. Expected shape: qualitatively identical to Figure 2 — LI's
// advantage is not an artifact of the small default cluster.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 100;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kPeriodic;
        cli.apply_run_scale(base);
        // 100 servers cost ~10x per job; halve the default run length (the
        // cluster also mixes faster with 90 arrivals per time unit).
        if (!cli.has("paper") && !cli.has("num-jobs")) {
          base.num_jobs /= 2;
          base.warmup_jobs /= 2;
        }

        stale::bench::print_header(
            "Figure 4",
            "service time vs. update delay, periodic update, n = 100", cli,
            "n = 100, lambda = 0.9, exp(1) jobs");

        const std::vector<std::string> policies = {
            "random",       "k_subset:2", "k_subset:3",
            "k_subset:100", "basic_li",   "aggressive_li"};
        stale::driver::SweepOptions options;
        options.csv = cli.csv();
        stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 128.0),
                                   policies, std::cout, options);
      });
}
