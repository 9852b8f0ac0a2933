// The simulator's command line, shared by every bench binary and
// staleload_sim: the standard run-scale, parallelism, fault, churn and
// multi-dispatcher flags (declared with their help in cli.cpp; any binary's
// --help prints them) on top of the generic sim::FlagParser, plus whatever
// flags a bench adds. The scale presets: --paper (500k jobs, 100k warmup,
// 10 trials), --fast (20k / 5k / 2), default (120k / 30k / 5) — the reduced
// lengths that keep every qualitative shape.
//
// Parsing is strict (see sim/spec.h): unknown or repeated flags, switches
// given values (--paper=0), and non-numeric, non-finite or out-of-range
// values all throw std::invalid_argument naming the flag; bench mains
// report it and exit non-zero.
#pragma once

#include <string>
#include <vector>

#include "driver/experiment.h"
#include "sim/spec.h"

namespace stale::driver {

class Cli : public sim::FlagParser {
 public:
  // Parses argv against the standard flags plus `extra` (a bench's own
  // flags and switches). Throws std::invalid_argument on bad input.
  Cli(int argc, const char* const* argv,
      const std::vector<sim::Flag>& extra = {});

  // The standard flags plus `extra`, as --help prints them, for the
  // program at path `argv0` (nullable).
  static sim::FlagTable flag_table(const char* argv0,
                                   const std::vector<sim::Flag>& extra);

  bool csv() const { return has("csv"); }

  // Resolved worker-thread count: --jobs when given, else the STALE_JOBS
  // environment variable, else hardware_concurrency.
  int jobs() const;

  // Applies --paper/--fast/--num-jobs/--warmup/--trials/--seed/--jobs and
  // the fault flags to `config`, range-checking each value.
  void apply_run_scale(ExperimentConfig& config) const;

  // Applies just the fault flags (called by apply_run_scale; exposed for
  // drivers that manage run lengths themselves).
  void apply_faults(ExperimentConfig& config) const;

  // One-line description of the selected scale, for bench headers.
  std::string scale_description() const;
};

}  // namespace stale::driver
