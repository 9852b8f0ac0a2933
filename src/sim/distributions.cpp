#include "sim/distributions.h"

#include <initializer_list>
#include <vector>

#include "check/contracts.h"
#include "sim/spec.h"

namespace stale::sim {

namespace {

void require(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

}  // namespace

Deterministic::Deterministic(double value) : value_(value) {
  require(value >= 0.0, "Deterministic: value must be >= 0");
}

std::string Deterministic::describe() const {
  return "det:" + format_number(value_);
}

Exponential::Exponential(double mean) : mean_(mean) {
  require(mean > 0.0, "Exponential: mean must be > 0");
}

std::string Exponential::describe() const {
  return "exp:" + format_number(mean_);
}

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
  require(lo >= 0.0 && hi >= lo, "Uniform: need 0 <= lo <= hi");
}

std::string Uniform::describe() const {
  return "uniform:" + format_number(lo_) + ":" + format_number(hi_);
}

BoundedPareto::BoundedPareto(double alpha, double k, double p)
    : alpha_(alpha), k_(k), p_(p), tail_(1.0 - std::pow(k / p, alpha)) {
  require(alpha > 0.0, "BoundedPareto: alpha must be > 0");
  require(k > 0.0 && p > k, "BoundedPareto: need 0 < k < p");
}

BoundedPareto BoundedPareto::with_mean(double alpha, double mean,
                                       double max_over_mean) {
  require(mean > 0.0 && max_over_mean > 1.0,
          "BoundedPareto::with_mean: need mean > 0 and max_over_mean > 1");
  const double p = max_over_mean * mean;
  // mean(k) is continuous and strictly increasing in k on (0, p); bisect.
  double lo = p * 1e-12;
  double hi = p * (1.0 - 1e-12);
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (BoundedPareto(alpha, mid, p).mean() < mean) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const BoundedPareto fitted(alpha, 0.5 * (lo + hi), p);
  // Extreme shapes overflow the moment integral; refuse them rather than
  // hand back a distribution with the wrong mean.
  require(std::abs(fitted.mean() - mean) <= 1e-6 * mean,
          "BoundedPareto::with_mean: no fit reaches the requested mean");
  STALE_DCHECK(fitted.k() > 0.0 && fitted.k() < p);
  return fitted;
}

double BoundedPareto::sample(Rng& rng) const {
  // Inverse CDF: F(x) = (1 - (k/x)^alpha) / tail  =>
  //   x = k * (1 - u * tail)^(-1/alpha)
  const double u = rng.next_double();
  return k_ * std::pow(1.0 - u * tail_, -1.0 / alpha_);
}

double BoundedPareto::mean() const {
  // E[X] = integral_k^p x f(x) dx.
  if (alpha_ == 1.0) {
    return k_ / tail_ * std::log(p_ / k_) * 1.0;
  }
  const double c = alpha_ * std::pow(k_, alpha_) / tail_;
  return c * (std::pow(k_, 1.0 - alpha_) - std::pow(p_, 1.0 - alpha_)) /
         (alpha_ - 1.0);
}

double BoundedPareto::variance() const {
  // E[X^2] via the same moment integral with exponent 2.
  double second;
  if (alpha_ == 2.0) {
    second = alpha_ * std::pow(k_, alpha_) / tail_ * std::log(p_ / k_);
  } else {
    const double c = alpha_ * std::pow(k_, alpha_) / tail_;
    second = c * (std::pow(k_, 2.0 - alpha_) - std::pow(p_, 2.0 - alpha_)) /
             (alpha_ - 2.0);
  }
  const double m = mean();
  return second - m * m;
}

std::string BoundedPareto::describe() const {
  return "bp:" + format_number(alpha_) + ":" + format_number(k_) + ":" +
         format_number(p_);
}

Hyperexponential::Hyperexponential(double prob1, double mean1, double mean2)
    : prob1_(prob1), mean1_(mean1), mean2_(mean2) {
  require(prob1 >= 0.0 && prob1 <= 1.0, "Hyperexponential: prob1 in [0,1]");
  require(mean1 > 0.0 && mean2 > 0.0, "Hyperexponential: means must be > 0");
}

double Hyperexponential::sample(Rng& rng) const {
  const double mean = rng.next_double() < prob1_ ? mean1_ : mean2_;
  return -mean * std::log(rng.next_double_open0());
}

double Hyperexponential::mean() const {
  return prob1_ * mean1_ + (1.0 - prob1_) * mean2_;
}

double Hyperexponential::variance() const {
  const double second =
      2.0 * (prob1_ * mean1_ * mean1_ + (1.0 - prob1_) * mean2_ * mean2_);
  const double m = mean();
  return second - m * m;
}

std::string Hyperexponential::describe() const {
  return "hyper:" + format_number(prob1_) + ":" + format_number(mean1_) + ":" +
         format_number(mean2_);
}

DistributionPtr parse_distribution(const std::string& spec) {
  // Every error, the constructors' range checks included, comes out as
  // "distribution 'SPEC': ...".
  return with_spec_context("distribution", spec, [&]() -> DistributionPtr {
    const std::vector<std::string> parts = split_fields(spec, ':');
    const std::string& kind = parts[0];
    // The kind's parameter names, checked against the field count first.
    const auto fields = [&](std::initializer_list<const char*> names) {
      if (parts.size() != names.size() + 1) {
        throw std::invalid_argument(
            kind + " takes " + std::to_string(names.size()) + " parameter" +
            (names.size() == 1 ? "" : "s"));
      }
      std::vector<double> values;
      std::size_t i = 1;
      for (const char* name : names) {
        values.push_back(parse_number(parts[i++], "", name));
      }
      return values;
    };
    if (kind == "det") {
      return std::make_unique<Deterministic>(fields({"VALUE"})[0]);
    }
    if (kind == "exp") {
      return std::make_unique<Exponential>(fields({"MEAN"})[0]);
    }
    if (kind == "uniform") {
      const auto v = fields({"LO", "HI"});
      return std::make_unique<Uniform>(v[0], v[1]);
    }
    if (kind == "bp") {
      const auto v = fields({"ALPHA", "K", "P"});
      return std::make_unique<BoundedPareto>(v[0], v[1], v[2]);
    }
    if (kind == "bpmean") {
      const auto v = fields({"ALPHA", "MEAN", "MAXOVERMEAN"});
      return std::make_unique<BoundedPareto>(
          BoundedPareto::with_mean(v[0], v[1], v[2]));
    }
    if (kind == "hyper") {
      const auto v = fields({"P", "M1", "M2"});
      return std::make_unique<Hyperexponential>(v[0], v[1], v[2]);
    }
    throw std::invalid_argument("unknown kind '" + kind + "'");
  });
}

}  // namespace stale::sim
