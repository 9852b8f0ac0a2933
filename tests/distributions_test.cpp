#include "sim/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.h"

namespace stale::sim {
namespace {

// Draws `n` samples and returns (sample mean, sample variance).
std::pair<double, double> sample_moments(const Distribution& dist, int n,
                                         std::uint64_t seed = 99) {
  Rng rng(seed);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = dist.sample(rng);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  return {mean, sum_sq / n - mean * mean};
}

TEST(DeterministicTest, AlwaysReturnsValue) {
  Deterministic dist(3.5);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dist.sample(rng), 3.5);
  EXPECT_EQ(dist.mean(), 3.5);
  EXPECT_EQ(dist.variance(), 0.0);
}

TEST(DeterministicTest, RejectsNegative) {
  EXPECT_THROW(Deterministic(-1.0), std::invalid_argument);
}

TEST(ExponentialTest, MomentsMatchAnalytic) {
  Exponential dist(2.0);
  const auto [mean, variance] = sample_moments(dist, 400000);
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(variance, 4.0, 0.1);
}

TEST(ExponentialTest, SamplesArePositive) {
  Exponential dist(1.0);
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) ASSERT_GT(dist.sample(rng), 0.0);
}

TEST(ExponentialTest, RejectsNonPositiveMean) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(ExponentialTest, MedianMatchesAnalytic) {
  Exponential dist(1.0);
  Rng rng(5);
  std::vector<double> samples(100001);
  for (double& s : samples) s = dist.sample(rng);
  std::nth_element(samples.begin(), samples.begin() + 50000, samples.end());
  EXPECT_NEAR(samples[50000], std::log(2.0), 0.02);
}

TEST(UniformTest, MomentsMatchAnalytic) {
  Uniform dist(1.0, 3.0);
  const auto [mean, variance] = sample_moments(dist, 200000);
  EXPECT_NEAR(mean, 2.0, 0.01);
  EXPECT_NEAR(variance, 4.0 / 12.0, 0.01);
}

TEST(UniformTest, SamplesWithinBounds) {
  Uniform dist(0.5, 1.5);
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GE(x, 0.5);
    ASSERT_LT(x, 1.5);
  }
}

TEST(UniformTest, RejectsBadBounds) {
  EXPECT_THROW(Uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Uniform(-1.0, 1.0), std::invalid_argument);
}

TEST(BoundedParetoTest, SamplesWithinSupport) {
  BoundedPareto dist(1.1, 0.1, 100.0);
  Rng rng(9);
  for (int i = 0; i < 100000; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GE(x, 0.1);
    ASSERT_LE(x, 100.0);
  }
}

TEST(BoundedParetoTest, SampleMeanMatchesAnalyticMean) {
  BoundedPareto dist(1.5, 0.5, 512.0);
  const auto [mean, variance] = sample_moments(dist, 1000000);
  EXPECT_NEAR(mean, dist.mean(), dist.mean() * 0.03);
  (void)variance;  // heavy tails make the sampled variance too noisy to pin
}

TEST(BoundedParetoTest, AnalyticMeanAgainstNumericIntegration) {
  // Trapezoidal integration of x * f(x) over [k, p] in log space.
  const BoundedPareto dist(1.1, 0.2, 1000.0);
  const double alpha = 1.1;
  const double k = 0.2;
  const double p = 1000.0;
  const double tail = 1.0 - std::pow(k / p, alpha);
  const int steps = 200000;
  double integral = 0.0;
  const double log_k = std::log(k);
  const double log_p = std::log(p);
  const double h = (log_p - log_k) / steps;
  auto integrand = [&](double log_x) {
    const double x = std::exp(log_x);
    const double pdf = alpha * std::pow(k, alpha) * std::pow(x, -alpha - 1.0) /
                       tail;
    return x * pdf * x;  // extra x = Jacobian of the log substitution
  };
  for (int i = 0; i <= steps; ++i) {
    const double weight = (i == 0 || i == steps) ? 0.5 : 1.0;
    integral += weight * integrand(log_k + i * h);
  }
  integral *= h;
  EXPECT_NEAR(dist.mean(), integral, integral * 1e-4);
}

TEST(BoundedParetoTest, WithMeanHitsRequestedMean) {
  for (double alpha : {1.1, 1.5, 1.9}) {
    const BoundedPareto dist = BoundedPareto::with_mean(alpha, 1.0, 1000.0);
    EXPECT_NEAR(dist.mean(), 1.0, 1e-6) << "alpha=" << alpha;
    EXPECT_NEAR(dist.p(), 1000.0, 1e-9);
    EXPECT_GT(dist.k(), 0.0);
    EXPECT_LT(dist.k(), 1.0);
  }
}

TEST(BoundedParetoTest, VarianceGrowsAsTailHeavier) {
  const BoundedPareto heavy = BoundedPareto::with_mean(1.1, 1.0, 1000.0);
  const BoundedPareto light = BoundedPareto::with_mean(1.9, 1.0, 1000.0);
  EXPECT_GT(heavy.variance(), light.variance());
  // Both are far more variable than exponential(1) (variance 1).
  EXPECT_GT(light.variance(), 1.0);
}

TEST(BoundedParetoTest, RejectsBadParameters) {
  EXPECT_THROW(BoundedPareto(0.0, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(BoundedPareto(1.1, 0.0, 2.0), std::invalid_argument);
  EXPECT_THROW(BoundedPareto(1.1, 2.0, 2.0), std::invalid_argument);
  EXPECT_THROW(BoundedPareto::with_mean(1.1, 0.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(BoundedPareto::with_mean(1.1, 1.0, 1.0), std::invalid_argument);
}

TEST(HyperexponentialTest, MomentsMatchAnalytic) {
  Hyperexponential dist(0.3, 0.5, 4.0);
  const auto [mean, variance] = sample_moments(dist, 500000);
  EXPECT_NEAR(mean, dist.mean(), 0.02);
  EXPECT_NEAR(variance, dist.variance(), dist.variance() * 0.05);
}

TEST(HyperexponentialTest, RejectsBadParameters) {
  EXPECT_THROW(Hyperexponential(-0.1, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Hyperexponential(1.1, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Hyperexponential(0.5, 0.0, 1.0), std::invalid_argument);
}

TEST(ParseDistributionTest, ParsesEveryKind) {
  EXPECT_EQ(parse_distribution("det:2.5")->mean(), 2.5);
  EXPECT_EQ(parse_distribution("exp:1.5")->mean(), 1.5);
  EXPECT_DOUBLE_EQ(parse_distribution("uniform:1:3")->mean(), 2.0);
  EXPECT_NEAR(parse_distribution("bpmean:1.1:1.0:1000")->mean(), 1.0, 1e-6);
  EXPECT_GT(parse_distribution("bp:1.5:0.3:100")->mean(), 0.3);
  EXPECT_NEAR(parse_distribution("hyper:0.5:1:3")->mean(), 2.0, 1e-12);
}

TEST(ParseDistributionTest, DescribeRoundTrips) {
  for (const char* spec : {"det:2.5", "exp:1.5", "uniform:1:3"}) {
    const auto dist = parse_distribution(spec);
    const auto again = parse_distribution(dist->describe());
    EXPECT_DOUBLE_EQ(again->mean(), dist->mean()) << spec;
  }
  // Ten significant digits survive describe() exactly.
  for (const char* spec : {"exp:1.234567891", "uniform:0.1234567891:3"}) {
    const auto dist = parse_distribution(spec);
    EXPECT_EQ(dist->describe(), spec);
    EXPECT_EQ(parse_distribution(dist->describe())->mean(), dist->mean())
        << spec;
  }
}

TEST(ParseDistributionTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_distribution(""), std::invalid_argument);
  EXPECT_THROW(parse_distribution("nope:1"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("exp"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("exp:abc"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("exp:1:2"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("uniform:1"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("bp:1.1:1"), std::invalid_argument);
}

}  // namespace
}  // namespace stale::sim
