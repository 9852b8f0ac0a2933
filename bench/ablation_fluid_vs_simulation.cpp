// Ablation: fluid-limit analytic model vs. discrete-event simulation.
// Mitzenmacher's mean-field method (which the paper's related work leans on)
// computes the periodic-update d-choices system deterministically in the
// n -> infinity limit. Here the fluid prediction sits next to simulations at
// n = 10 and n = 100: the n = 100 column converges onto the fluid value,
// and the analytic fresh-limit (power-of-d fixed point) anchors T -> 0 —
// an independent derivation agreeing with the engine end to end.
#include <iostream>

#include "analysis/fluid_model.h"
#include "bench_common.h"
#include "driver/table.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {{"d", "D", "choices per arrival in the fluid model"}},
      [](const stale::driver::Cli& cli) {
        const int d = cli.integer<int>("d", 2);
        stale::driver::ExperimentConfig base;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kPeriodic;
        base.policy = "k_subset:" + std::to_string(d);
        cli.apply_run_scale(base);

        stale::bench::print_header(
            "Ablation: fluid model vs. simulation",
            "mean-field analytic prediction vs. discrete-event engine, "
            "d-choices under periodic update",
            cli,
            "lambda = 0.9, d = " + std::to_string(d) +
                "; fresh-limit fixed point = " +
                stale::driver::Table::fmt(
                    stale::analysis::power_of_d_response_time(0.9, d), 4));

        stale::driver::Table table({"T", "fluid (n=inf)", "sim n=10",
                                    "sim n=100", "fluid aggr_li",
                                    "sim aggr_li n=100"});
        const std::vector<double> t_values =
            cli.has("fast") ? std::vector<double>{1.0, 4.0}
                            : std::vector<double>{0.5, 1.0, 2.0, 4.0, 8.0};
        for (double t : t_values) {
          stale::analysis::FluidOptions options;
          options.max_length = 100;
          const auto fluid =
              stale::analysis::fluid_periodic_dchoices(0.9, d, t, options);

          std::vector<std::string> row{stale::driver::Table::fmt(t, 2),
                                       stale::driver::Table::fmt(
                                           fluid.mean_response, 4)};
          for (int n : {10, 100}) {
            stale::driver::ExperimentConfig config = base;
            config.num_servers = n;
            config.update_interval = t;
            const auto result = stale::driver::run_experiment(config);
            row.push_back(stale::driver::Table::fmt_ci(result.mean(),
                                                       result.ci90()));
          }
          const auto aggressive_fluid =
              stale::analysis::fluid_periodic_aggressive_li(0.9, t, options);
          row.push_back(
              stale::driver::Table::fmt(aggressive_fluid.mean_response, 4));
          {
            stale::driver::ExperimentConfig config = base;
            config.num_servers = 100;
            config.update_interval = t;
            config.policy = "aggressive_li";
            const auto result = stale::driver::run_experiment(config);
            row.push_back(stale::driver::Table::fmt_ci(result.mean(),
                                                       result.ci90()));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout, cli.csv());
      });
}
