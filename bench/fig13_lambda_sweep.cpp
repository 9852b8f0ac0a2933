// Figure 13: service time vs. offered load lambda at a fixed update interval
// T = 10 (periodic update), comparing Basic LI told the exact lambda against
// Basic LI that conservatively assumes lambda-hat = 1.0 (the system's
// maximum per-server throughput), plus the usual competitors. Expected
// shape: the two Basic LI lines are nearly indistinguishable (< 1% apart in
// the paper) and both beat the k-subset family at this staleness.
#include <iostream>

#include "bench_common.h"
#include "driver/table.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {{"t", "T", "update interval"}},
      [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 10;
        base.model = stale::driver::UpdateModel::kPeriodic;
        base.update_interval = cli.number("t", 10.0);
        cli.apply_run_scale(base);

        stale::bench::print_header(
            "Figure 13",
            "service time vs. arrival rate; conservative lambda-hat = 1.0 vs "
            "exact",
            cli,
            "n = 10, T = " +
                stale::driver::Table::fmt(base.update_interval, 1));

        struct Column {
          std::string label;
          std::string policy;
          double estimate;  // per-server lambda-hat; < 0 = exact
        };
        const std::vector<Column> columns_spec = {
            {"random", "random", -1.0},
            {"k_subset:2", "k_subset:2", -1.0},
            {"k_subset:3", "k_subset:3", -1.0},
            {"basic_li(exact)", "basic_li", -1.0},
            {"basic_li(lh=1.0)", "basic_li", 1.0},
            {"aggressive_li(exact)", "aggressive_li", -1.0},
        };
        std::vector<std::string> columns{"lambda"};
        for (const auto& column : columns_spec) columns.push_back(column.label);
        stale::driver::Table table(std::move(columns));

        const std::vector<double> lambdas =
            cli.has("fast") ? std::vector<double>{0.3, 0.7, 0.9}
                            : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.8,
                                                  0.9, 0.95, 0.98};
        for (double lambda : lambdas) {
          std::vector<std::string> row{stale::driver::Table::fmt(lambda, 2)};
          for (const auto& column : columns_spec) {
            stale::driver::ExperimentConfig config = base;
            config.lambda = lambda;
            config.policy = column.policy;
            config.lambda_estimate_per_server = column.estimate;
            const auto result = stale::driver::run_experiment(config);
            row.push_back(
                stale::driver::Table::fmt_ci(result.mean(), result.ci90()));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout, cli.csv());
      });
}
