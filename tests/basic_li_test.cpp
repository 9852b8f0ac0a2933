#include "core/load_interpretation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "sim/rng.h"

namespace stale::core {
namespace {

using ::testing::TestWithParam;

TEST(BasicLiTest, HandComputedSufficientArrivals) {
  // b = {0, 2, 4}, K = 10: all three servers fill to level (0+2+4+10)/3.
  const std::vector<double> loads = {0.0, 2.0, 4.0};
  const auto p = basic_li_probabilities(std::span<const double>(loads), 10.0);
  EXPECT_NEAR(p[0], 16.0 / 30.0, 1e-12);
  EXPECT_NEAR(p[1], 10.0 / 30.0, 1e-12);
  EXPECT_NEAR(p[2], 4.0 / 30.0, 1e-12);
}

TEST(BasicLiTest, HandComputedInsufficientArrivals) {
  // b = {0, 2, 4}, K = 3: only the two least-loaded servers can level
  // (Eq. 3 gives m = 2); level = (0 + 2 + 3) / 2 = 2.5.
  const std::vector<double> loads = {0.0, 2.0, 4.0};
  const auto p = basic_li_probabilities(std::span<const double>(loads), 3.0);
  EXPECT_NEAR(p[0], 2.5 / 3.0, 1e-12);
  EXPECT_NEAR(p[1], 0.5 / 3.0, 1e-12);
  EXPECT_EQ(p[2], 0.0);
}

TEST(BasicLiTest, SeverelyInsufficientArrivalsGoToLeastLoaded) {
  const std::vector<double> loads = {0.0, 2.0, 4.0};
  const auto p = basic_li_probabilities(std::span<const double>(loads), 1.0);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_EQ(p[1], 0.0);
  EXPECT_EQ(p[2], 0.0);
}

TEST(BasicLiTest, UnsortedInputHandled) {
  const std::vector<double> loads = {4.0, 0.0, 2.0};
  const auto p = basic_li_probabilities(std::span<const double>(loads), 10.0);
  EXPECT_NEAR(p[1], 16.0 / 30.0, 1e-12);
  EXPECT_NEAR(p[2], 10.0 / 30.0, 1e-12);
  EXPECT_NEAR(p[0], 4.0 / 30.0, 1e-12);
}

TEST(BasicLiTest, ZeroArrivalsLimitIsUniformOverMinima) {
  const std::vector<double> loads = {1.0, 1.0, 3.0};
  const auto p = basic_li_probabilities(std::span<const double>(loads), 0.0);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
  EXPECT_EQ(p[2], 0.0);
}

TEST(BasicLiTest, LargeArrivalsLimitIsUniform) {
  const std::vector<double> loads = {0.0, 5.0, 10.0};
  const auto p =
      basic_li_probabilities(std::span<const double>(loads), 1e9);
  for (double v : p) EXPECT_NEAR(v, 1.0 / 3.0, 1e-6);
}

TEST(BasicLiTest, EqualLoadsGiveUniform) {
  const std::vector<double> loads = {7.0, 7.0, 7.0, 7.0};
  for (double k : {0.0, 0.5, 100.0}) {
    const auto p = basic_li_probabilities(std::span<const double>(loads), k);
    for (double v : p) EXPECT_NEAR(v, 0.25, 1e-12) << "K=" << k;
  }
}

TEST(BasicLiTest, IntOverloadMatchesDouble) {
  const std::vector<int> int_loads = {0, 2, 4};
  const std::vector<double> dbl_loads = {0.0, 2.0, 4.0};
  const auto a = basic_li_probabilities(std::span<const int>(int_loads), 5.0);
  const auto b =
      basic_li_probabilities(std::span<const double>(dbl_loads), 5.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(BasicLiTest, SingleServerGetsEverything) {
  const std::vector<double> loads = {9.0};
  const auto p = basic_li_probabilities(std::span<const double>(loads), 3.0);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
}

TEST(BasicLiTest, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW(basic_li_probabilities(std::span<const double>(empty), 1.0),
               std::invalid_argument);
  const std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(basic_li_probabilities(std::span<const double>(negative), 1.0),
               std::invalid_argument);
  const std::vector<double> fine = {1.0, 2.0};
  EXPECT_THROW(basic_li_probabilities(std::span<const double>(fine), -1.0),
               std::invalid_argument);
}

TEST(BasicLiWeightedTest, ReducesToUnweightedForEqualRates) {
  const std::vector<double> loads = {1.0, 4.0, 2.0, 0.0};
  const std::vector<double> rates = {1.0, 1.0, 1.0, 1.0};
  const auto a = basic_li_probabilities(std::span<const double>(loads), 6.0);
  const auto b = basic_li_probabilities_weighted(loads, rates, 6.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
}

TEST(BasicLiWeightedTest, HandComputedHeterogeneous) {
  // Equal (zero) backlogs, rates 1 and 3, K = 4: the fill is proportional to
  // rate, so p = {1/4, 3/4}.
  const std::vector<double> loads = {0.0, 0.0};
  const std::vector<double> rates = {1.0, 3.0};
  const auto p = basic_li_probabilities_weighted(loads, rates, 4.0);
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[1], 0.75, 1e-12);
}

TEST(BasicLiWeightedTest, FastServerAbsorbsBacklogFirst) {
  // Server 0: load 2, rate 1 (normalized 2.0); server 1: load 2, rate 4
  // (normalized 0.5). With small K everything goes to the fast server.
  const std::vector<double> loads = {2.0, 2.0};
  const std::vector<double> rates = {1.0, 4.0};
  const auto p = basic_li_probabilities_weighted(loads, rates, 1.0);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
}

TEST(BasicLiWeightedTest, ZeroArrivalsSharesByRateAmongMinima) {
  const std::vector<double> loads = {0.0, 0.0, 5.0};
  const std::vector<double> rates = {1.0, 3.0, 1.0};
  const auto p = basic_li_probabilities_weighted(loads, rates, 0.0);
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[1], 0.75, 1e-12);
  EXPECT_EQ(p[2], 0.0);
}

TEST(BasicLiWeightedTest, RejectsMismatchedAndBadRates) {
  const std::vector<double> loads = {1.0, 2.0};
  const std::vector<double> short_rates = {1.0};
  EXPECT_THROW(basic_li_probabilities_weighted(loads, short_rates, 1.0),
               std::invalid_argument);
  const std::vector<double> zero_rates = {1.0, 0.0};
  EXPECT_THROW(basic_li_probabilities_weighted(loads, zero_rates, 1.0),
               std::invalid_argument);
}

TEST(HybridLiTest, FirstIntervalProportionalToDeficit) {
  const std::vector<double> loads = {1.0, 3.0, 5.0};
  const auto p = hybrid_li_first_interval_probabilities(loads);
  // Deficits below the max (5): 4, 2, 0 -> probabilities 4/6, 2/6, 0.
  EXPECT_NEAR(p[0], 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(p[1], 2.0 / 6.0, 1e-12);
  EXPECT_EQ(p[2], 0.0);
  EXPECT_DOUBLE_EQ(hybrid_li_first_interval_jobs(loads), 6.0);
}

TEST(HybridLiTest, EqualLoadsFallBackToUniform) {
  const std::vector<double> loads = {2.0, 2.0};
  const auto p = hybrid_li_first_interval_probabilities(loads);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
  EXPECT_DOUBLE_EQ(hybrid_li_first_interval_jobs(loads), 0.0);
}

// ---------------------------------------------------------------------------
// Property sweep: invariants over random load vectors and K values.
// ---------------------------------------------------------------------------

struct LiPropertyCase {
  int num_servers;
  // Fills the alignment gap before max_load. GoogleTest prints a parameter
  // that has no PrintTo overload as its raw bytes, and CTest names each case
  // by that print, so a gap left uninitialised would name the cases after
  // whatever the stack held. The tags pin those bytes to the case names this
  // sweep has always been listed under; the test body never reads them.
  std::uint32_t name_tag;
  double max_load;
  double expected_arrivals;
};
static_assert(sizeof(LiPropertyCase) == 24, "name_tag must fill the gap");

class BasicLiPropertyTest : public TestWithParam<LiPropertyCase> {};

TEST_P(BasicLiPropertyTest, InvariantsHoldOnRandomVectors) {
  const LiPropertyCase param = GetParam();
  sim::Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(param.num_servers));
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<double> loads(static_cast<std::size_t>(param.num_servers));
    for (double& b : loads) {
      b = std::floor(rng.next_double() * param.max_load);
    }
    const auto p = basic_li_probabilities(std::span<const double>(loads),
                                          param.expected_arrivals);

    // (1) Valid probability vector.
    double sum = 0.0;
    for (double v : p) {
      ASSERT_GE(v, 0.0);
      sum += v;
    }
    ASSERT_NEAR(sum, 1.0, 1e-9);

    // (2) Monotone: lower reported load never gets a smaller share.
    for (std::size_t i = 0; i < loads.size(); ++i) {
      for (std::size_t j = 0; j < loads.size(); ++j) {
        if (loads[i] < loads[j]) {
          ASSERT_GE(p[i] + 1e-12, p[j])
              << "load " << loads[i] << " vs " << loads[j];
        }
      }
    }

    // (3) Equalization: servers receiving probability end at a common level
    // b_i + K * p_i = L, and servers receiving none already sit at or above
    // that level.
    if (param.expected_arrivals > 0.0) {
      double level = -1.0;
      for (std::size_t i = 0; i < loads.size(); ++i) {
        if (p[i] > 1e-9) {
          const double end = loads[i] + param.expected_arrivals * p[i];
          if (level < 0.0) {
            level = end;
          } else {
            ASSERT_NEAR(end, level, 1e-6);
          }
        }
      }
      for (std::size_t i = 0; i < loads.size(); ++i) {
        if (p[i] <= 1e-9) {
          ASSERT_GE(loads[i] + 1e-6, level);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BasicLiPropertyTest,
    ::testing::Values(LiPropertyCase{2, 0, 5.0, 0.5},
                      LiPropertyCase{2, 0, 5.0, 10.0},
                      LiPropertyCase{5, 0, 10.0, 0.0},
                      LiPropertyCase{5, 0, 10.0, 3.0},
                      LiPropertyCase{10, 0xEFE00000, 20.0, 9.0},
                      LiPropertyCase{10, 0x002C3B03, 20.0, 90.0},
                      LiPropertyCase{50, 0, 8.0, 45.0},
                      LiPropertyCase{100, 0xCAC00000, 50.0, 500.0}));

class WeightedLiPropertyTest : public TestWithParam<LiPropertyCase> {};

TEST_P(WeightedLiPropertyTest, WeightedInvariantsHold) {
  const LiPropertyCase param = GetParam();
  sim::Rng rng(0xFACE ^ static_cast<std::uint64_t>(param.num_servers));
  for (int rep = 0; rep < 100; ++rep) {
    std::vector<double> loads(static_cast<std::size_t>(param.num_servers));
    std::vector<double> rates(loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i) {
      loads[i] = std::floor(rng.next_double() * param.max_load);
      rates[i] = 0.5 + 2.0 * rng.next_double();
    }
    const auto p = basic_li_probabilities_weighted(loads, rates,
                                                   param.expected_arrivals);
    double sum = 0.0;
    for (double v : p) {
      ASSERT_GE(v, 0.0);
      sum += v;
    }
    ASSERT_NEAR(sum, 1.0, 1e-9);

    // Equalization in normalized units: (b_i + K p_i) / c_i constant over
    // the filled set; unfilled servers sit at or above that level.
    if (param.expected_arrivals > 0.0) {
      double level = -1.0;
      for (std::size_t i = 0; i < loads.size(); ++i) {
        const double end =
            (loads[i] + param.expected_arrivals * p[i]) / rates[i];
        if (p[i] > 1e-9) {
          if (level < 0.0) {
            level = end;
          } else {
            ASSERT_NEAR(end, level, 1e-6);
          }
        }
      }
      for (std::size_t i = 0; i < loads.size(); ++i) {
        if (p[i] <= 1e-9) {
          ASSERT_GE(loads[i] / rates[i] + 1e-6, level);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightedLiPropertyTest,
    ::testing::Values(LiPropertyCase{2, 0x00007FFE, 5.0, 2.0},
                      LiPropertyCase{5, 0xFFFFFFFF, 10.0, 8.0},
                      LiPropertyCase{10, 0, 20.0, 30.0},
                      LiPropertyCase{25, 0x00007F1E, 10.0, 100.0}));

}  // namespace
}  // namespace stale::core
