// Tests of the live client's open-loop schedule math (src/schedule.h).
#include "schedule.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace {

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  EXPECT_EQ(perfbench::poisson_schedule(320.0, 2.0, 7),
            perfbench::poisson_schedule(320.0, 2.0, 7));
  EXPECT_NE(perfbench::poisson_schedule(320.0, 2.0, 7),
            perfbench::poisson_schedule(320.0, 2.0, 8));
}

TEST(PoissonScheduleTest, TimesAreAbsoluteSortedAndInsideTheWindow) {
  const std::vector<double> intended =
      perfbench::poisson_schedule(1000.0, 5.0, 3);
  ASSERT_FALSE(intended.empty());
  EXPECT_GE(intended.front(), 0.0);
  EXPECT_LT(intended.back(), 5.0);
  for (std::size_t i = 1; i < intended.size(); ++i) {
    EXPECT_GE(intended[i], intended[i - 1]);
  }
}

TEST(PoissonScheduleTest, CountIsTheOfferedRateTimesTheWindow) {
  EXPECT_EQ(perfbench::poisson_schedule(320.0, 10.0, 11).size(), 3200u);
  EXPECT_EQ(perfbench::poisson_schedule(1280.0, 5.0, 12).size(), 6400u);
  EXPECT_EQ(perfbench::poisson_schedule(0.4, 1.0, 13).size(), 0u);
}

TEST(PoissonScheduleTest, GapsAreExponentialWithTheOfferedMean) {
  // Conditioned on the count, the gaps of a Poisson stream are exponential
  // with mean 1/rate; P(gap > mean) = e^-1. With 100000 gaps both sample
  // statistics sit within 1% of their expectation except with probability
  // far below 1e-6.
  const std::vector<double> intended =
      perfbench::poisson_schedule(10000.0, 10.0, 5);
  double previous = 0.0;
  std::size_t long_gaps = 0;
  for (double t : intended) {
    long_gaps += (t - previous) > 1e-4 ? 1 : 0;
    previous = t;
  }
  EXPECT_NEAR(intended.back() / static_cast<double>(intended.size()), 1e-4,
              1e-6);
  EXPECT_NEAR(static_cast<double>(long_gaps) / intended.size(), 0.3679,
              0.01);
}

TEST(PoissonScheduleTest, RejectsNonPositiveRateOrWindow) {
  EXPECT_THROW(perfbench::poisson_schedule(0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(perfbench::poisson_schedule(1.0, -1.0, 1),
               std::invalid_argument);
}

TEST(DueUntilTest, OnTimeClientSendsOneJobAtATime) {
  const std::vector<double> intended = {0.1, 0.2, 0.3};
  EXPECT_EQ(perfbench::due_until(intended, 0, 0.05), 0u);
  EXPECT_EQ(perfbench::due_until(intended, 0, 0.1), 1u);
  EXPECT_EQ(perfbench::due_until(intended, 1, 0.15), 1u);
  EXPECT_EQ(perfbench::due_until(intended, 1, 0.2), 2u);
}

TEST(DueUntilTest, LateClientCatchesUpInOneBurstWithoutShiftingTheSchedule) {
  const std::vector<double> intended = {0.1, 0.2, 0.3, 0.4};
  // Woken at 0.35 after a stall: every job due by then goes out at once, and
  // the next job keeps its intended time 0.4 instead of 0.35 + gap.
  EXPECT_EQ(perfbench::due_until(intended, 0, 0.35), 3u);
  EXPECT_EQ(perfbench::due_until(intended, 3, 0.39), 3u);
  EXPECT_EQ(perfbench::due_until(intended, 3, 0.4), 4u);
  EXPECT_EQ(perfbench::due_until(intended, 4, 99.0), 4u);
}

}  // namespace
