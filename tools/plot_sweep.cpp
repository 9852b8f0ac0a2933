// plot_sweep: renders the --csv output of any sweep bench as an SVG chart.
//
//   build/bench/fig02_periodic_update --csv |
//       build/tools/plot_sweep --out fig02.svg --title "Figure 2"
//           --log-x --log-y --x-label ... --y-label ...
//
// Reads stdin, writes the SVG to --out (default sweep.svg). --help prints
// every flag.
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/svg_plot.h"
#include "sim/spec.h"

namespace {

const stale::sim::FlagTable kFlags = {
    "plot_sweep",
    "Renders a sweep bench's --csv output (read from stdin) as an SVG line "
    "chart.",
    {
        {"out", "FILE", "SVG to write (default sweep.svg)"},
        {"title", "TEXT", "chart title"},
        {"x-label", "TEXT", "x-axis label"},
        {"y-label", "TEXT", "y-axis label"},
        {"log-x", "", "logarithmic x axis"},
        {"log-y", "", "logarithmic y axis"},
        {"width", "PX", "chart width in pixels"},
        {"height", "PX", "chart height in pixels"},
    },
    /*positionals=*/{},
};

int run(const stale::sim::FlagParser& flags) {
  const std::string out_path = flags.get("out", "sweep.svg");
  stale::obs::PlotOptions options;
  options.title = flags.get("title", options.title);
  options.x_label = flags.get("x-label", "T (mean service times)");
  options.y_label = flags.get("y-label", "mean response time");
  options.log_x = flags.has("log-x");
  options.log_y = flags.has("log-y");
  options.width = flags.integer<int>("width", options.width);
  options.height = flags.integer<int>("height", options.height);

  std::ostringstream buffer;
  buffer << std::cin.rdbuf();
  const auto series = stale::obs::parse_sweep_csv(buffer.str());
  if (series.empty()) {
    throw std::runtime_error(
        "no parsable series on stdin (pipe a bench's --csv output)");
  }
  const std::string svg = stale::obs::render_line_chart(series, options);
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write '" + out_path + "'");
  out << svg;
  std::cerr << "plot_sweep: wrote " << out_path << " (" << series.size()
            << " series)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return stale::sim::run_tool(argc, argv, kFlags, run);
}
