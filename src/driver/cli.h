// Minimal CLI flag parsing shared by all bench binaries.
//
// Every figure bench accepts:
//   --paper           paper-fidelity run lengths (500k jobs, 100k warmup,
//                     10 trials)
//   --fast            smoke-test lengths (20k jobs, 5k warmup, 2 trials)
//   (default)         reduced lengths that keep every qualitative shape
//                     (120k jobs, 30k warmup, 5 trials)
//   --num-jobs N --warmup N --trials N --seed S   manual overrides
//   --jobs N          worker threads (make-style); defaults to the
//                     STALE_JOBS env var, else hardware_concurrency.
//                     --jobs 1 restores the old single-threaded path.
//   --csv             machine-readable output
//   --fault-spec S    full fault spec (see fault/fault_spec.h), e.g.
//                     "crash=0.01,down=5,loss=0.2,cutoff=2T"
//   --crash-rate R / --update-loss P / --max-staleness X
//                     shorthand overrides for the spec's crash, loss, and
//                     cutoff fields (X accepts "2T" multiples-of-T form)
//   --dispatchers D   cooperating dispatchers over the one cluster (default
//                     1 = the paper's single dispatcher)
//   --dispatcher-split {uniform,weighted}
//                     how arrivals are thinned across the D dispatchers
//   --token-budget B  JIQ policies only: per-dispatcher cap on queued idle
//                     tokens (matched-message-rate comparisons); 0 = no cap
//
// Parsing is strict: unknown flags, switches given values (--paper=0),
// non-numeric or out-of-range values all throw std::invalid_argument with a
// message naming the flag; bench mains report it and exit non-zero.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/experiment.h"

namespace stale::driver {

class Cli {
 public:
  // Parses argv. Throws std::invalid_argument on unknown flags unless they
  // are listed in `extra_flags` (flags that take a value) or `extra_switches`
  // (boolean flags).
  Cli(int argc, const char* const* argv,
      const std::vector<std::string>& extra_flags = {},
      const std::vector<std::string>& extra_switches = {});

  bool has(const std::string& flag) const;
  std::string get(const std::string& flag, const std::string& fallback) const;
  double get_double(const std::string& flag, double fallback) const;
  std::int64_t get_int(const std::string& flag, std::int64_t fallback) const;

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

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace stale::driver
