// Figure 8: service time vs. update delay under the update-on-access model,
// where each client reuses the load snapshot piggybacked on its previous
// response and T equals the mean per-client inter-request time (the client
// population is sized as lambda * n * T). Expected shape: per-client updates
// desynchronize the herd, so every algorithm stays reasonable; Basic LI is
// best by a modest margin across the whole sweep.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 10;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kUpdateOnAccess;
        cli.apply_run_scale(base);
        // Paper: ensure every client launches at least 1,000 jobs; the
        // reduced default keeps a 100-job floor.
        base.min_jobs_per_client = cli.has("paper") ? 1000 : 100;

        stale::bench::print_header(
            "Figure 8", "service time vs. update delay, update-on-access",
            cli,
            "n = 10, lambda = 0.9; clients = lambda*n*T, snapshot rides the "
            "previous response");

        const std::vector<std::string> policies = {
            "random",      "k_subset:2", "k_subset:3",
            "k_subset:10", "basic_li",   "aggressive_li"};
        stale::driver::SweepOptions options;
        options.csv = cli.csv();
        stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 64.0),
                                   policies, std::cout, options);
      });
}
