// Tests for the trace-v2 replay format (src/workload/replay.h): manifest and
// loads round-trips, forward compatibility with unknown keys, ReplayProcess
// gap/wrap/reset semantics, and load_replay_trace's cross-checks. Directory
// loading uses gtest's TempDir — the format code itself only sees streams.
#include "workload/replay.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/rng.h"

namespace stale::workload {
namespace {

ReplayManifest sample_manifest() {
  ReplayManifest manifest;
  manifest.backends = 4;
  manifest.update_period = 0.5;
  manifest.schedule = "periodic";
  manifest.policy = "basic_li";
  manifest.seed = 12345;
  manifest.duration = 9.75;
  manifest.arrivals = 3;
  return manifest;
}

TEST(ReplayManifestTest, RoundTripsEveryField) {
  std::stringstream stream;
  write_manifest(stream, sample_manifest());
  const ReplayManifest parsed = parse_manifest(stream);
  EXPECT_EQ(parsed.version, 2);
  EXPECT_EQ(parsed.backends, 4);
  EXPECT_DOUBLE_EQ(parsed.update_period, 0.5);
  EXPECT_EQ(parsed.schedule, "periodic");
  EXPECT_EQ(parsed.policy, "basic_li");
  EXPECT_EQ(parsed.seed, 12345u);
  EXPECT_DOUBLE_EQ(parsed.duration, 9.75);
  EXPECT_EQ(parsed.arrivals, 3u);
}

TEST(ReplayManifestTest, SkipsUnknownKeysForForwardCompatibility) {
  std::stringstream stream;
  stream << "staleload-trace v2\n"
         << "backends 2\n"
         << "update_period 1\n"
         << "some_v3_field hello world\n"
         << "# a comment\n"
         << "\n"
         << "schedule periodic\n";
  const ReplayManifest parsed = parse_manifest(stream);
  EXPECT_EQ(parsed.backends, 2);
  EXPECT_EQ(parsed.schedule, "periodic");
}

TEST(ReplayManifestTest, RejectsBadMagicVersionAndValues) {
  const char* cases[] = {
      "",                                        // empty
      "not-a-trace v2\nbackends 2\n",            // magic
      "staleload-trace v1\nbackends 2\n",        // version
      "staleload-trace v2\nbackends nope\n",     // bad value
      "staleload-trace v2\nupdate_period 1\n",   // backends missing (<= 0)
      "staleload-trace v2\nbackends 2\nupdate_period 0\n",
  };
  for (const char* text : cases) {
    std::istringstream stream{std::string(text)};
    EXPECT_THROW(parse_manifest(stream), std::invalid_argument) << text;
  }
}

TEST(ReplayLoadsTest, RoundTripsWithHeader) {
  const std::vector<LoadEvent> events = {
      {0.0, 0, 3}, {0.25, 2, 0}, {1.5, 1, 7}};
  std::stringstream stream;
  write_loads(stream, events);
  const std::vector<LoadEvent> parsed = parse_loads(stream);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed[i].time, events[i].time);
    EXPECT_EQ(parsed[i].server, events[i].server);
    EXPECT_EQ(parsed[i].queue_len, events[i].queue_len);
  }
}

TEST(ReplayLoadsTest, RejectsMalformedRows) {
  for (const char* text :
       {"1.0,2\n", "1.0 2 3\n", "1.0,-1,3\n", "1.0,2,-3\n"}) {
    std::istringstream stream{std::string(text)};
    EXPECT_THROW(parse_loads(stream), std::invalid_argument) << text;
  }
}

TEST(ReplayProcessTest, EmitsRecordedGapsIncludingTheFirstOffset) {
  // Records at t = 0.5, 1.0, 2.5: gaps 0.5 (offset of the first arrival),
  // 0.5, 1.5 — |records| gaps so one pass delivers the full job count.
  const std::vector<TraceRecord> records = {{0.5, 1.0}, {1.0, 2.0},
                                            {2.5, 0.5}};
  ReplayProcess process(records);
  sim::Rng rng(1);
  EXPECT_DOUBLE_EQ(process.next_gap(rng), 0.5);
  EXPECT_DOUBLE_EQ(process.next_gap(rng), 0.5);
  EXPECT_DOUBLE_EQ(process.next_gap(rng), 1.5);
  EXPECT_EQ(process.wraps(), 0u);
}

TEST(ReplayProcessTest, WrapCountsLazilyAndResetClears) {
  const std::vector<TraceRecord> records = {{0.0, 1.0}, {1.0, 1.0}};
  ReplayProcess process(records);
  sim::Rng rng(1);
  process.next_gap(rng);
  process.next_gap(rng);
  // Exactly one full pass: no recycled gap emitted yet, so no wrap.
  EXPECT_EQ(process.wraps(), 0u);
  process.next_gap(rng);
  EXPECT_EQ(process.wraps(), 1u);
  process.reset();
  EXPECT_EQ(process.wraps(), 0u);
  EXPECT_DOUBLE_EQ(process.next_gap(rng), 0.0);  // back to the first gap
}

TEST(ReplayProcessTest, RejectsDegenerateTraces) {
  EXPECT_THROW(ReplayProcess({}), std::invalid_argument);
  EXPECT_THROW(ReplayProcess({{0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(ReplayProcess({{1.0, 1.0}, {0.5, 1.0}}),
               std::invalid_argument);
}

TEST(ReplayTraceTest, EmpiricalRateSpansTheArrivals) {
  ReplayTrace trace;
  trace.arrivals = {{0.0, 1.0}, {1.0, 1.0}, {4.0, 1.0}};
  // 2 inter-arrival gaps over 4 seconds.
  EXPECT_DOUBLE_EQ(trace.empirical_rate(), 0.5);
  trace.arrivals.resize(1);
  EXPECT_DOUBLE_EQ(trace.empirical_rate(), 0.0);
}

class ReplayDirTest : public ::testing::Test {
 protected:
  // TempDir() is shared by every test process on the host, and ctest -j runs
  // these tests concurrently: each test writes its own directory, named by
  // test and process.
  std::string dir_ =
      ::testing::TempDir() + "staleload_replay_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid());

  void SetUp() override {
    std::filesystem::create_directories(dir_);
    write_file(kManifestFile, [](std::ostream& out) {
      ReplayManifest manifest;
      manifest.backends = 2;
      manifest.update_period = 1.0;
      manifest.arrivals = 3;
      write_manifest(out, manifest);
    });
    write_file(kArrivalsFile, [](std::ostream& out) {
      write_arrivals(out, {{0.0, 0.5}, {1.0, 0.25}, {2.0, 1.0}});
    });
    write_file(kLoadsFile, [](std::ostream& out) {
      write_loads(out, {{0.5, 0, 1}, {0.5, 1, 0}});
    });
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  template <typename Writer>
  void write_file(const char* name, Writer writer) {
    std::ofstream out(dir_ + "/" + name);
    ASSERT_TRUE(out.good());
    writer(out);
  }
};

TEST_F(ReplayDirTest, LoadsAConsistentDirectory) {
  const ReplayTrace trace = load_replay_trace(dir_);
  EXPECT_EQ(trace.manifest.backends, 2);
  ASSERT_EQ(trace.arrivals.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.arrivals[1].size, 0.25);
  ASSERT_EQ(trace.loads.size(), 2u);
  EXPECT_EQ(trace.loads[1].server, 1);
}

TEST_F(ReplayDirTest, RejectsArrivalCountMismatch) {
  write_file(kArrivalsFile, [](std::ostream& out) {
    write_arrivals(out, {{0.0, 0.5}, {1.0, 0.25}});  // manifest promises 3
  });
  EXPECT_THROW(load_replay_trace(dir_), std::invalid_argument);
}

TEST_F(ReplayDirTest, MissingFilesAreRuntimeErrors) {
  EXPECT_THROW(load_replay_trace(dir_ + "-nonexistent"), std::runtime_error);
}

}  // namespace
}  // namespace stale::workload
