// playdiff: the record->replay comparison gate.
//
//   playdiff LIVE.json SIM.json [--tol-response R] [--tol-share S]
//            [--require-herd-match] [--report OUT.txt]
//
// Reads two obs::ReplayMetrics files (a live recording's metrics.json and
// the output of `staleload_sim --workload replay:DIR --replay-metrics-out`),
// prints a side-by-side comparison, and exits 0 when every metric agrees
// within tolerance, 1 when any diverges, 2 on usage/parse errors. The
// default tolerances are the documented CI budget (see
// obs::DiffTolerance): live and sim share the workload but not service
// draws or network jitter, so this is a consistency gate, not bit-equality.
// --help prints every flag.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "obs/replay_metrics.h"
#include "sim/spec.h"

namespace {

const stale::sim::FlagTable kFlags = {
    "playdiff",
    "Compares two replay-metrics files; exit 0 within tolerance, 1 beyond "
    "it, 2 on bad input.",
    {
        {"tol-response", "R", "relative tolerance on response quantiles"},
        {"tol-share", "S", "total-variation tolerance on dispatch shares"},
        {"require-herd-match", "", "fail when the herd verdicts disagree"},
        {"report", "OUT", "also write the comparison to OUT"},
    },
    {
        {"A.json", "", "first metrics file (e.g. a live metrics.json)"},
        {"B.json", "", "second metrics file (e.g. the sim replay's)"},
    },
};

stale::obs::ReplayMetrics load_metrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  return stale::obs::parse_replay_metrics(in);
}

void print_row(std::ostream& out, const char* name, double a, double b) {
  out << "  " << std::left << std::setw(16) << name << std::right
      << std::setw(12) << a << std::setw(12) << b << "\n";
}

void write_report(std::ostream& out, const stale::obs::ReplayMetrics& a,
                  const stale::obs::ReplayMetrics& b,
                  const std::vector<std::string>& failures) {
  out << std::setprecision(5);
  out << "playdiff: " << a.source << " (" << a.jobs << " jobs) vs "
      << b.source << " (" << b.jobs << " jobs)\n";
  out << "  " << std::left << std::setw(16) << "metric" << std::right
      << std::setw(12) << a.source << std::setw(12) << b.source << "\n";
  print_row(out, "mean_response", a.mean_response, b.mean_response);
  print_row(out, "p50_response", a.p50_response, b.p50_response);
  print_row(out, "p90_response", a.p90_response, b.p90_response);
  print_row(out, "p99_response", a.p99_response, b.p99_response);
  out << "  dispatch_share  ";
  for (double share : a.dispatch_share) out << " " << share;
  out << "  vs ";
  for (double share : b.dispatch_share) out << " " << share;
  out << "\n";
  if (a.has_herd || b.has_herd) {
    out << "  herding          " << (a.herding ? "yes" : "no") << " vs "
        << (b.herding ? "yes" : "no") << "\n";
  }
  if (failures.empty()) {
    out << "PASS: metrics agree within tolerance\n";
  } else {
    for (const std::string& failure : failures) {
      out << "FAIL: " << failure << "\n";
    }
  }
}

int run(const stale::sim::FlagParser& flags) {
  stale::obs::DiffTolerance tolerance;
  tolerance.response = flags.number("tol-response", tolerance.response);
  tolerance.share_tv = flags.number("tol-share", tolerance.share_tv);
  tolerance.require_herd_match = flags.has("require-herd-match");
  if (tolerance.response <= 0.0 || tolerance.share_tv <= 0.0) {
    throw std::invalid_argument("tolerances must be > 0");
  }
  const std::string report_path = flags.get("report", "");

  const stale::obs::ReplayMetrics a = load_metrics(flags.positionals()[0]);
  const stale::obs::ReplayMetrics b = load_metrics(flags.positionals()[1]);
  const std::vector<std::string> failures =
      stale::obs::diff_replay_metrics(a, b, tolerance);

  write_report(std::cout, a, b, failures);
  if (!report_path.empty()) {
    std::ofstream report(report_path);
    if (!report) {
      throw std::runtime_error("cannot write '" + report_path + "'");
    }
    write_report(report, a, b, failures);
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return stale::sim::run_tool(argc, argv, kFlags, run, /*error_exit=*/2);
}
