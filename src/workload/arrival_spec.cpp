#include "workload/arrival_spec.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "check/contracts.h"
#include "sim/spec.h"
#include "workload/trace.h"

namespace stale::workload {

namespace {

struct ParsedSpec {
  std::string kind;
  std::vector<double> params;
  std::string path;  // trace specs only
};

// Errors here and in build() are unprefixed; with_spec_context adds
// "arrival spec 'SPEC': ".
ParsedSpec parse_spec(const std::string& spec) {
  const std::vector<std::string> parts = sim::split_fields(spec, ':');
  ParsedSpec parsed;
  parsed.kind = parts[0];
  if (parsed.kind == "poisson") {
    if (parts.size() != 1) {
      throw std::invalid_argument("poisson takes no parameters");
    }
    return parsed;
  }
  if (parsed.kind == "trace") {
    if (parts.size() != 2 || parts[1].empty()) {
      throw std::invalid_argument("expected trace:FILE");
    }
    parsed.path = parts[1];
    return parsed;
  }
  static const struct {
    const char* kind;
    std::vector<const char*> fields;
    const char* usage;
  } kForms[] = {
      {"mmpp", {"M1", "M2", "D1", "D2"}, "mmpp:M1:M2:D1:D2"},
      {"ramp", {"PERIOD", "AMP"}, "ramp:PERIOD:AMP"},
      {"flash", {"AT", "MULT", "RAMP", "HOLD", "DECAY"},
       "flash:AT:MULT:RAMP:HOLD:DECAY"},
  };
  for (const auto& form : kForms) {
    if (parsed.kind != form.kind) continue;
    if (parts.size() != form.fields.size() + 1) {
      throw std::invalid_argument(std::string("expected ") + form.usage);
    }
    for (std::size_t i = 1; i < parts.size(); ++i) {
      parsed.params.push_back(
          sim::parse_number(parts[i], "", form.fields[i - 1]));
    }
    return parsed;
  }
  throw std::invalid_argument(
      "unknown kind '" + parsed.kind +
      "' (expected poisson | mmpp:M1:M2:D1:D2 | ramp:PERIOD:AMP | "
      "flash:AT:MULT:RAMP:HOLD:DECAY | trace:FILE)");
}

ArrivalProcessPtr build(const ParsedSpec& parsed, double base_rate,
                        bool dry_run) {
  if (parsed.kind == "poisson") {
    if (dry_run) return nullptr;
    return std::make_unique<PoissonProcess>(base_rate);
  }
  if (parsed.kind == "trace") {
    if (dry_run) return nullptr;  // existence checked at build time
    return std::make_unique<TraceProcess>(load_trace(parsed.path));
  }
  if (parsed.kind == "mmpp") {
    const double m0 = parsed.params[0];
    const double m1 = parsed.params[1];
    const double d0 = parsed.params[2];
    const double d1 = parsed.params[3];
    if (m0 < 0.0 || m1 < 0.0 || m0 + m1 <= 0.0) {
      throw std::invalid_argument(
          "mmpp: rate multipliers must be >= 0 with at least one > 0");
    }
    if (d0 <= 0.0 || d1 <= 0.0) {
      throw std::invalid_argument("mmpp: dwell times must be > 0");
    }
    if (!std::isfinite(base_rate * (m0 * d0 + m1 * d1) / (d0 + d1))) {
      throw std::invalid_argument("mmpp: long-run rate overflows");
    }
    if (dry_run) return nullptr;
    return std::make_unique<MmppProcess>(base_rate * m0, base_rate * m1, d0,
                                         d1);
  }
  if (parsed.kind == "ramp") {
    ModulatedPoissonProcess::RampParams ramp;
    ramp.period = parsed.params[0];
    ramp.amplitude = parsed.params[1];
    if (ramp.period <= 0.0) {
      throw std::invalid_argument("ramp: period must be > 0");
    }
    if (ramp.amplitude < 0.0 || ramp.amplitude >= 1.0) {
      throw std::invalid_argument("ramp: amplitude must be in [0, 1)");
    }
    if (dry_run) return nullptr;
    return std::make_unique<ModulatedPoissonProcess>(base_rate, ramp);
  }
  ModulatedPoissonProcess::FlashParams flash;
  flash.at = parsed.params[0];
  flash.mult = parsed.params[1];
  flash.ramp = parsed.params[2];
  flash.hold = parsed.params[3];
  flash.decay = parsed.params[4];
  if (flash.at < 0.0) {
    throw std::invalid_argument("flash: onset time must be >= 0");
  }
  if (flash.mult < 1.0) {
    throw std::invalid_argument("flash: peak multiplier must be >= 1");
  }
  if (flash.ramp < 0.0 || flash.hold < 0.0 || flash.decay < 0.0) {
    throw std::invalid_argument("flash: ramp/hold/decay must be >= 0");
  }
  if (dry_run) return nullptr;
  return std::make_unique<ModulatedPoissonProcess>(base_rate, flash);
}

}  // namespace

ArrivalProcessPtr make_arrival_process(const std::string& spec,
                                       double base_rate) {
  if (base_rate <= 0.0) {
    throw std::invalid_argument("make_arrival_process: base rate must be > 0");
  }
  return sim::with_spec_context("arrival spec", spec, [&] {
    return build(parse_spec(spec), base_rate, /*dry_run=*/false);
  });
}

void validate_arrival_spec(const std::string& spec) {
  sim::with_spec_context("arrival spec", spec, [&] {
    build(parse_spec(spec), /*base_rate=*/1.0, /*dry_run=*/true);
  });
}

// --- MMPP ------------------------------------------------------------------

MmppProcess::MmppProcess(double rate0, double rate1, double dwell0,
                         double dwell1)
    : rates_{rate0, rate1}, dwells_{dwell0, dwell1} {
  // Long-run rate: dwell-weighted average of the per-state rates.
  const double long_run =
      (rate0 * dwell0 + rate1 * dwell1) / (dwell0 + dwell1);
  STALE_ASSERT(long_run > 0.0, "MmppProcess: zero long-run rate");
  mean_gap_ = 1.0 / long_run;
}

double MmppProcess::next_gap(sim::Rng& rng) {
  double gap = 0.0;
  for (;;) {
    if (switch_at_ < 0.0) {
      switch_at_ =
          now_ - std::log(rng.next_double_open0()) * dwells_[state_];
    }
    const double rate = rates_[state_];
    if (rate > 0.0) {
      const double candidate = -std::log(rng.next_double_open0()) / rate;
      if (now_ + candidate <= switch_at_) {
        gap += candidate;
        now_ += candidate;
        return gap;
      }
    }
    // No arrival before the state switch (or a zero-rate state): consume the
    // rest of the dwell and redraw in the new state. Memorylessness makes
    // discarding the overshooting candidate exact.
    gap += switch_at_ - now_;
    now_ = switch_at_;
    state_ = 1 - state_;
    switch_at_ = -1.0;
  }
}

std::string MmppProcess::describe() const {
  const auto num = sim::format_number;
  return "mmpp(rates " + num(rates_[0]) + "/" + num(rates_[1]) + ", dwells " +
         num(dwells_[0]) + "/" + num(dwells_[1]) + ")";
}

void MmppProcess::reset() {
  state_ = 0;
  now_ = 0.0;
  switch_at_ = -1.0;
}

// --- thinned time-varying Poisson ------------------------------------------

ModulatedPoissonProcess::ModulatedPoissonProcess(double base_rate,
                                                 const RampParams& ramp)
    : shape_(Shape::kRamp),
      base_rate_(base_rate),
      max_rate_(base_rate * (1.0 + ramp.amplitude)),
      ramp_(ramp) {}

ModulatedPoissonProcess::ModulatedPoissonProcess(double base_rate,
                                                 const FlashParams& flash)
    : shape_(Shape::kFlash),
      base_rate_(base_rate),
      max_rate_(base_rate * flash.mult),
      flash_(flash) {}

double ModulatedPoissonProcess::rate_at(double t) const {
  if (shape_ == Shape::kRamp) {
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    return base_rate_ *
           (1.0 + ramp_.amplitude * std::sin(kTwoPi * t / ramp_.period));
  }
  // Flash-crowd envelope: 1x -> mult over `ramp`, hold, back to 1x.
  const double peak_start = flash_.at + flash_.ramp;
  const double peak_end = peak_start + flash_.hold;
  const double off = peak_end + flash_.decay;
  double mult = 1.0;
  if (t <= flash_.at || t >= off) {
    mult = 1.0;
  } else if (t < peak_start) {
    mult = 1.0 + (flash_.mult - 1.0) * (t - flash_.at) / flash_.ramp;
  } else if (t <= peak_end) {
    mult = flash_.mult;
  } else {
    mult = flash_.mult - (flash_.mult - 1.0) * (t - peak_end) / flash_.decay;
  }
  return base_rate_ * mult;
}

double ModulatedPoissonProcess::next_gap(sim::Rng& rng) {
  // Ogata thinning: candidates from a homogeneous stream at max_rate_, each
  // accepted with probability rate(t)/max_rate_. Exact for any rate function
  // bounded by max_rate_.
  const double start = now_;
  for (;;) {
    now_ += -std::log(rng.next_double_open0()) / max_rate_;
    if (rng.next_double() * max_rate_ <= rate_at(now_)) {
      return now_ - start;
    }
  }
}

std::string ModulatedPoissonProcess::describe() const {
  const auto num = sim::format_number;
  if (shape_ == Shape::kRamp) {
    return "ramp(base " + num(base_rate_) + ", period " + num(ramp_.period) +
           ", amp " + num(ramp_.amplitude) + ")";
  }
  return "flash(base " + num(base_rate_) + ", at " + num(flash_.at) + ", x" +
         num(flash_.mult) + ", ramp " + num(flash_.ramp) + ", hold " +
         num(flash_.hold) + ", decay " + num(flash_.decay) + ")";
}

}  // namespace stale::workload
