#include "core/load_interpretation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/sampler.h"
#include "policy/basic_li_policy.h"
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

// ---------------------------------------------------------------------------
// BasicLiSolver parity: a solver sorted once and re-solved for many K must
// agree bit for bit with a fresh call, and with the per-call algorithm the
// solver replaced (kept verbatim below as the reference).
// ---------------------------------------------------------------------------

// The per-call Basic LI: sort, scan the prefix, fill, renormalize.
std::vector<double> reference_basic_li(std::span<const double> loads,
                                       std::span<const double> rates,
                                       double expected_arrivals) {
  const std::size_t n = loads.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return loads[a] * rates[b] < loads[b] * rates[a];
  });
  std::vector<double> p(n, 0.0);
  const double K = expected_arrivals;
  if (K <= 1e-12) {
    const std::size_t first = order[0];
    const double min_norm = loads[first] / rates[first];
    double rate_sum = 0.0;
    for (std::size_t i : order) {
      if (loads[i] / rates[i] <= min_norm + 1e-12) rate_sum += rates[i];
    }
    for (std::size_t i : order) {
      if (loads[i] / rates[i] <= min_norm + 1e-12) p[i] = rates[i] / rate_sum;
    }
    return p;
  }
  std::size_t m = 1;
  double load_sum = loads[order[0]];
  double rate_sum = rates[order[0]];
  for (std::size_t j = 2; j <= n; ++j) {
    const std::size_t idx = order[j - 1];
    const double cand_load_sum = load_sum + loads[idx];
    const double cand_rate_sum = rate_sum + rates[idx];
    const double need = loads[idx] / rates[idx] * cand_rate_sum - cand_load_sum;
    if (need <= K) {
      m = j;
      load_sum = cand_load_sum;
      rate_sum = cand_rate_sum;
    } else {
      break;
    }
  }
  const double level = (load_sum + K) / rate_sum;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t idx = order[j];
    p[idx] = (level * rates[idx] - loads[idx]) / K;
    if (p[idx] < 0.0) p[idx] = 0.0;
  }
  const double total = std::accumulate(p.begin(), p.end(), 0.0);
  for (double& v : p) v /= total;
  return p;
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

// K values that straddle every fill boundary of the board: the limits, the
// K -> 0 cutoff, and each prefix's need_j with its neighbours on both sides.
std::vector<double> probe_arrivals(std::span<const double> loads,
                                   std::span<const double> rates) {
  std::vector<std::size_t> order(loads.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return loads[a] * rates[b] < loads[b] * rates[a];
  });
  std::vector<double> ks = {0.0, 1e-13, 1e-12, 1e9};
  double load_sum = 0.0;
  double rate_sum = 0.0;
  for (std::size_t idx : order) {
    load_sum += loads[idx];
    rate_sum += rates[idx];
    const double need = loads[idx] / rates[idx] * rate_sum - load_sum;
    if (!(need > 0.0)) continue;
    ks.push_back(std::nextafter(need, 0.0));
    ks.push_back(need);
    ks.push_back(std::nextafter(need, std::numeric_limits<double>::infinity()));
  }
  return ks;
}

struct SolverBoard {
  std::vector<double> loads;
  std::vector<double> rates;
  bool integral;
};

// Heavily tied integer loads, tied and untied reals, unit and heterogeneous
// rates, from one server up to a few hundred.
std::vector<SolverBoard> solver_boards() {
  sim::Rng rng(0xB0A2D);
  std::vector<SolverBoard> boards;
  for (int n : {1, 2, 3, 7, 40, 300}) {
    for (int variant = 0; variant < 4; ++variant) {
      SolverBoard board;
      board.integral = variant == 0;
      board.loads.resize(static_cast<std::size_t>(n));
      board.rates.assign(static_cast<std::size_t>(n), 1.0);
      for (std::size_t i = 0; i < board.loads.size(); ++i) {
        switch (variant) {
          case 0:  // integer queue lengths, four distinct levels
            board.loads[i] = static_cast<double>(rng.next_below(4));
            break;
          case 1:  // reals on a coarse grid: ties plus fractional sums
            board.loads[i] = 0.1 * static_cast<double>(rng.next_below(6));
            break;
          case 2:  // tied integers on three tied rate classes
            board.loads[i] = static_cast<double>(rng.next_below(5));
            board.rates[i] = 0.5 * static_cast<double>(1 + rng.next_below(3));
            break;
          default:  // untied reals, continuous rates
            board.loads[i] = 10.0 * rng.next_double();
            board.rates[i] = 0.5 + 2.0 * rng.next_double();
            break;
        }
      }
      boards.push_back(std::move(board));
    }
  }
  return boards;
}

TEST(BasicLiSolverTest, CachedSolveMatchesFreshCallsBitForBit) {
  BasicLiSolver weighted;  // reused across boards of different sizes
  BasicLiSolver unit;
  std::vector<double> p;
  for (const SolverBoard& board : solver_boards()) {
    const std::vector<int> as_int(board.loads.begin(), board.loads.end());
    const bool unit_rates =
        std::all_of(board.rates.begin(), board.rates.end(),
                    [](double c) { return c == 1.0; });
    weighted.set_board(board.loads, board.rates);
    if (board.integral) {
      unit.set_board(std::span<const int>(as_int));
    } else if (unit_rates) {
      unit.set_board(std::span<const double>(board.loads));
    }
    const std::vector<double> ks = probe_arrivals(board.loads, board.rates);
    // Walk K up, then back down: nothing of one solve may leak into the next.
    std::vector<double> walk = ks;
    walk.insert(walk.end(), ks.rbegin(), ks.rend());
    for (double k : walk) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << board.loads.size() << " K=" << k);
      const auto want = bits(reference_basic_li(board.loads, board.rates, k));
      weighted.solve(k, p);
      ASSERT_EQ(bits(p), want);
      const auto fresh =
          basic_li_probabilities_weighted(board.loads, board.rates, k);
      ASSERT_EQ(bits(fresh), want);
      if (!unit_rates) continue;
      unit.solve(k, p);
      ASSERT_EQ(bits(p), want);
      const auto fresh_unit =
          board.integral
              ? basic_li_probabilities(std::span<const int>(as_int), k)
              : basic_li_probabilities(std::span<const double>(board.loads),
                                       k);
      ASSERT_EQ(bits(fresh_unit), want);
    }
  }
}

TEST(BasicLiSolverTest, RejectsBadInputAndKeepsItsBoard) {
  BasicLiSolver solver;
  std::vector<double> p;
  EXPECT_THROW(solver.solve(1.0, p), std::logic_error);
  const std::vector<double> loads = {2.0, 0.0, 1.0};
  solver.set_board(std::span<const double>(loads));
  const std::vector<double> empty;
  const std::vector<int> negative = {1, -1};
  EXPECT_THROW(solver.set_board(std::span<const double>(empty)),
               std::invalid_argument);
  EXPECT_THROW(solver.set_board(std::span<const int>(negative)),
               std::invalid_argument);
  EXPECT_THROW(solver.set_board(loads, std::vector<double>{1.0, 0.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(solver.solve(-1.0, p), std::invalid_argument);
  EXPECT_THROW(solver.solve(std::numeric_limits<double>::infinity(), p),
               std::invalid_argument);
  // The rejected boards left the sorted one in place.
  solver.solve(1.0, p);
  EXPECT_EQ(bits(p),
            bits(basic_li_probabilities(std::span<const double>(loads), 1.0)));
}

TEST(BasicLiSolverTest, PolicyPicksMatchFreshPerCallReference) {
  // One RNG stream each for the policy and the reference, which rebuilds
  // its distribution from scratch on every request. Steps bump the board
  // version (with and without new loads), move only K, or change nothing.
  policy::BasicLiPolicy policy;
  sim::Rng script(0x5EED);
  sim::Rng policy_rng(77);
  sim::Rng reference_rng(77);
  std::vector<int> loads(40);
  for (int& b : loads) b = static_cast<int>(script.next_below(5));
  policy::DispatchContext context;
  context.lambda_total = 36.0;
  context.age = 0.5;
  std::uint64_t version = 1;
  int version_bumps = 0;
  int k_moves = 0;
  for (int step = 0; step < 4000; ++step) {
    switch (script.next_below(5)) {
      case 0:  // new board
        for (int i = 0; i < 3; ++i) {
          loads[script.next_below(loads.size())] =
              static_cast<int>(script.next_below(6));
        }
        ++version;
        ++version_bumps;
        break;
      case 1:  // version bump, same loads
        ++version;
        ++version_bumps;
        break;
      case 2:  // K moves, including K = 0 and the tiny-K limit
        context.age = script.next_below(8) == 0
                          ? 1e-15 * static_cast<double>(script.next_below(2))
                          : 2.0 * script.next_double();
        ++k_moves;
        break;
      default:  // nothing changes: the cached sampler serves the request
        break;
    }
    context.loads = loads;
    context.info_version = version;
    const int got = policy.select(context, policy_rng);

    const std::vector<double> as_double(loads.begin(), loads.end());
    const std::vector<double> unit(loads.size(), 1.0);
    const std::vector<double> p = reference_basic_li(
        as_double, unit, context.basic_li_expected_arrivals());
    const DiscreteSampler sampler{std::span<const double>(p)};
    ASSERT_EQ(got, sampler.sample(reference_rng)) << "step " << step;
  }
  EXPECT_GT(version_bumps, 1000);
  EXPECT_GT(k_moves, 500);
}

}  // namespace
}  // namespace stale::core
