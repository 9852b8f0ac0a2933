// Figure 9: the update-on-access sweep with bursty clients — bursts of ~10
// requests whose within-burst gaps are 1% of the client's mean inter-request
// time. Expected shape: although a client's snapshot is on average T old,
// most requests arrive mid-burst and see a nearly fresh picture, so every
// load-using algorithm beats oblivious random by a wide margin even at large
// T; Basic LI is best or tied throughout.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 10;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kUpdateOnAccess;
        base.bursty = true;
        cli.apply_run_scale(base);
        base.min_jobs_per_client = cli.has("paper") ? 1000 : 100;

        stale::bench::print_header(
            "Figure 9",
            "update-on-access with bursty clients (burst ~10, gaps T/100)",
            cli, "n = 10, lambda = 0.9");

        const std::vector<std::string> policies = {
            "random",      "k_subset:2", "k_subset:3",
            "k_subset:10", "basic_li",   "aggressive_li"};
        stale::driver::SweepOptions options;
        options.csv = cli.csv();
        stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 64.0),
                                   policies, std::cout, options);
      });
}
