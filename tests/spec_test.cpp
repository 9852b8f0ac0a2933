// The one spec and flag grammar (src/sim/spec.h): the shared field helpers,
// a mutation fuzz over every grammar built on them, and a regression row
// for each input the old hand-rolled parsers accepted.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dispatch/jiq.h"
#include "driver/cli.h"
#include "driver/trial_workload.h"
#include "fault/fault_spec.h"
#include "health/churn_spec.h"
#include "net/socket.h"
#include "policy/policy_factory.h"
#include "sim/distributions.h"
#include "sim/rng.h"
#include "sim/spec.h"
#include "workload/arrival_spec.h"
#include "workload/job_size.h"
#include "workload/rate_estimator.h"

namespace stale {
namespace {

// Asserts `run` throws std::invalid_argument whose message contains every
// one of `needles`.
void expect_rejected(const std::function<void()>& run,
                     const std::vector<std::string>& needles,
                     const std::string& label) {
  try {
    run();
    ADD_FAILURE() << label << " was accepted";
  } catch (const std::invalid_argument& error) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << label << ": '" << error.what() << "' lacks '" << needle << "'";
    }
  }
}

// Parses `line` (space-separated) as argv after a program name.
sim::FlagParser parse_line(const std::string& line,
                           const sim::FlagTable& table) {
  std::vector<std::string> args = {table.program};
  std::istringstream in(line);
  for (std::string arg; in >> arg;) args.push_back(arg);
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return sim::FlagParser(static_cast<int>(argv.size()), argv.data(), table);
}

const sim::FlagTable kToolTable = {
    "tool",
    "a test tool",
    {
        {"n", "N", "servers"},
        {"lambda", "L", "load"},
        {"tcp-port", "P", "port"},
        {"backends", "N", "backends"},
        {"max-jobs", "N", "job cap"},
        {"max-regress", "PCT", "gate"},
        {"json", "", "json output"},
    },
    /*positionals=*/{},
};

TEST(SpecFieldTest, NumbersParseInFullAndFinite) {
  EXPECT_EQ(sim::parse_number("0.5", "o", "f"), 0.5);
  EXPECT_EQ(sim::parse_number("-2e3", "o", "f"), -2000.0);
  for (const char* bad : {"", "nan", "inf", "-inf", "1e400", "0.5x", " 1",
                          "1 ", "0x10", "--1"}) {
    expect_rejected([&] { (void)sim::parse_number(bad, "owner", "F"); },
                    {"owner: bad F '" + std::string(bad) + "'"}, bad);
  }
}

TEST(SpecFieldTest, IntegersFitTheTargetType) {
  EXPECT_EQ(sim::parse_integer<int>("-7", "o", "f"), -7);
  EXPECT_EQ(sim::parse_integer<std::uint16_t>("65535", "o", "f"), 65535);
  expect_rejected([] { (void)sim::parse_integer<int>("4294967297", "", "k"); },
                  {"k '4294967297' is out of range"}, "int overflow");
  expect_rejected(
      [] { (void)sim::parse_integer<std::uint16_t>("70000", "", "port"); },
      {"port '70000' is out of range [0, 65535]"}, "port overflow");
  expect_rejected(
      [] { (void)sim::parse_integer<std::uint64_t>("-1", "", "cap"); },
      {"cap '-1' is out of range"}, "negative unsigned");
  for (const char* bad : {"", "1.5", "2x", "x2", "+"}) {
    expect_rejected([&] { (void)sim::parse_integer<int>(bad, "", "k"); },
                    {"bad k '" + std::string(bad) + "'"}, bad);
  }
}

TEST(SpecFieldTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(sim::split_fields("", ':'), std::vector<std::string>{""});
  EXPECT_EQ(sim::split_fields("a:b:", ':'),
            (std::vector<std::string>{"a", "b", ""}));
  EXPECT_EQ(sim::split_fields("::", ':'),
            (std::vector<std::string>{"", "", ""}));
}

TEST(SpecFieldTest, KeyValuesRejectDuplicatesAndEmptyItems) {
  const auto items = sim::parse_key_values("a=1,b=", "S");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[1].first, "b");
  EXPECT_EQ(items[1].second, "");
  EXPECT_TRUE(sim::parse_key_values("", "S").empty());
  expect_rejected([] { (void)sim::parse_key_values("a=1,a=2", "S"); },
                  {"S: duplicate key 'a'"}, "duplicate");
  expect_rejected([] { (void)sim::parse_key_values("a=1,", "S"); },
                  {"S: expected key=value, got ''"}, "trailing comma");
  expect_rejected([] { (void)sim::parse_key_values("a=1,,b=2", "S"); },
                  {"S: expected key=value"}, "empty item");
}

TEST(SpecFieldTest, SpansAndNumbersRoundTrip) {
  const sim::Span span = sim::parse_span("2.5T", "", "cutoff");
  EXPECT_EQ(span.value, 2.5);
  EXPECT_TRUE(span.in_intervals);
  EXPECT_FALSE(sim::parse_span("5", "", "cutoff").in_intervals);
  EXPECT_EQ(sim::format_span(2.5, true), "2.5T");
  // The old 6-digit spelling wherever it was already exact...
  EXPECT_EQ(sim::format_number(0.01), "0.01");
  EXPECT_EQ(sim::format_number(100000.0), "100000");
  EXPECT_EQ(sim::format_number(1e-9), "1e-09");
  // ...and just enough extra digits where it was not.
  EXPECT_EQ(sim::format_number(0.0123456789), "0.0123456789");
  EXPECT_EQ(sim::format_number(1234567.0), "1234567");
  for (const double value : {0.1, 1.0 / 3.0, 2.0 / 3.0, 1e300, 5e-324}) {
    EXPECT_EQ(sim::parse_number(sim::format_number(value), "", "v"), value);
  }
}

TEST(FlagParserTest, AcceptsBothValueFormsAndGeneratesHelp) {
  const sim::FlagParser flags =
      parse_line("--n 4 --lambda=0.5 --json", kToolTable);
  EXPECT_EQ(flags.integer<int>("n", 0), 4);
  EXPECT_EQ(flags.number("lambda", 0.0), 0.5);
  EXPECT_TRUE(flags.has("json"));
  EXPECT_FALSE(flags.has("tcp-port"));
  EXPECT_FALSE(flags.help_requested());

  const sim::FlagParser help = parse_line("--n 4 --help", kToolTable);
  EXPECT_TRUE(help.help_requested());
  std::ostringstream out;
  help.print_help(out);
  EXPECT_EQ(out.str().rfind("usage: tool [flags]", 0), 0u);
  for (const sim::Flag& flag : kToolTable.flags) {
    EXPECT_NE(out.str().find("--" + flag.name), std::string::npos);
    EXPECT_NE(out.str().find(flag.help), std::string::npos);
  }
  EXPECT_THROW((void)flags.has("undeclared"), std::logic_error);
}

TEST(FlagParserTest, RejectsMalformedCommandLinesNamingTheFlag) {
  const struct {
    const char* line;
    const char* message;
  } rows[] = {{"--bogus 1", "unknown flag '--bogus'"},
              {"-n 4", "unknown flag '-n'"},
              {"--n", "flag '--n' expects a value"},
              {"--json=1", "switch '--json' does not take a value"},
              {"--n 1 --n 2", "flag '--n' given twice"},
              {"stray", "unexpected positional argument 'stray'"}};
  for (const auto& row : rows) {
    expect_rejected([&] { (void)parse_line(row.line, kToolTable); },
                    {row.message}, row.line);
  }

  const sim::FlagTable two = {"pair", "", {}, {{"A", "", ""}, {"B", "", ""}}};
  EXPECT_EQ(parse_line("a b", two).positionals(),
            (std::vector<std::string>{"a", "b"}));
  expect_rejected([&] { (void)parse_line("a", two); },
                  {"expected 2 positional argument(s), got 1"}, "one of two");
}

// Inputs a lenient parser silently misreads (each comment names the
// misreading); every one must fail with an error that names the flag or
// field.
TEST(StrictInputTest, RejectsSilentMisreads) {
  const auto flag = [](const std::string& line, const char* name,
                       auto read) {
    return [line, name, read] { read(parse_line(line, kToolTable), name); };
  };
  const auto as_int = [](const sim::FlagParser& f, const char* name) {
    (void)f.integer<int>(name, 0);
  };
  const auto as_port = [](const sim::FlagParser& f, const char* name) {
    (void)f.integer<std::uint16_t>(name, 0);
  };
  const auto as_count = [](const sim::FlagParser& f, const char* name) {
    (void)f.integer<std::uint64_t>(name, 0);
  };
  const auto as_number = [](const sim::FlagParser& f, const char* name) {
    (void)f.number(name, 0.0);
  };
  workload::RateEstimatorContext live;
  live.update_interval = 1.0;

  // staleload_sim --n: 2^32 + 1 narrowed to int is n = 1.
  expect_rejected(flag("--n 4294967297", "n", as_int),
                  {"--n '4294967297' is out of range"}, "--n 2^32+1");
  // The same through the simulator's own command line.
  const char* sim_argv[] = {"staleload_sim", "--trials", "4294967297"};
  expect_rejected(
      [&] {
        driver::ExperimentConfig config;
        driver::Cli(3, sim_argv).apply_run_scale(config);
      },
      {"--trials '4294967297' is out of range"}, "--trials 2^32+1");
  // --fault-spec retries: 2^32 + 1 narrowed to int is 1.
  expect_rejected(
      [] { (void)fault::FaultSpec::parse("crash=0.01,retries=4294967297"); },
      {"FaultSpec", "retries '4294967297' is out of range"}, "retries");
  // staleload_sim --lambda nan: a NaN load runs and prints nan.
  expect_rejected(flag("--lambda nan", "lambda", as_number),
                  {"bad --lambda 'nan'"}, "--lambda nan");
  // A trailing separator: dropping the empty field hides the typo.
  expect_rejected([] { (void)workload::make_job_size("exp:1:"); },
                  {"distribution 'exp:1:'", "exp takes 1 parameter"},
                  "exp:1:");
  expect_rejected([] { (void)policy::make_policy("k_subset:2:"); },
                  {"policy 'k_subset:2:'", "wrong parameter count"},
                  "k_subset:2:");
  // --job-size exp:abc: a bare "stod" names neither spec nor field.
  expect_rejected([] { (void)workload::make_job_size("exp:abc"); },
                  {"distribution 'exp:abc'", "bad MEAN 'abc'"}, "exp:abc");
  // staleload_lb --tcp-port: 80x reads as 80; 70000 wraps to 4464.
  expect_rejected(flag("--tcp-port 80x", "tcp-port", as_port),
                  {"bad --tcp-port '80x'"}, "--tcp-port 80x");
  expect_rejected(flag("--tcp-port 70000", "tcp-port", as_port),
                  {"--tcp-port '70000' is out of range"}, "--tcp-port 70000");
  // staleload_lb --backends 2x reads as 2.
  expect_rejected(flag("--backends 2x", "backends", as_int),
                  {"bad --backends '2x'"}, "--backends 2x");
  // staleload_lb --estimator: a NaN window or infinite rate.
  expect_rejected(
      [&] { (void)workload::make_rate_estimator("windowed:nan", live); },
      {"rate_estimator 'windowed:nan'", "bad W 'nan'"}, "windowed:nan");
  expect_rejected(
      [&] { (void)workload::make_rate_estimator("fixed:inf", live); },
      {"rate_estimator 'fixed:inf'", "bad RATE 'inf'"}, "fixed:inf");
  // staleload_loadgen --max-jobs -1 wraps to 2^64 - 1.
  expect_rejected(flag("--max-jobs -1", "max-jobs", as_count),
                  {"--max-jobs '-1' is out of range"}, "--max-jobs -1");
  // bench_diff --max-regress 10x reads as 10.
  expect_rejected(flag("--max-regress 10x", "max-regress", as_number),
                  {"bad --max-regress '10x'"}, "--max-regress 10x");
}

TEST(EndpointListTest, ParsesEveryEntryOrNamesTheBadOne) {
  const std::vector<net::Endpoint> endpoints =
      net::parse_endpoint_list("a:1,b:2");
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0].to_string(), "a:1");
  EXPECT_EQ(endpoints[1].host, "b");
  EXPECT_EQ(endpoints[1].port, 2);
  expect_rejected([] { (void)net::parse_endpoint_list("a:1,"); },
                  {"endpoint must be host:port, got ''"}, "trailing comma");
  expect_rejected([] { (void)net::parse_endpoint_list(""); },
                  {"endpoint must be host:port, got ''"}, "empty list");
  expect_rejected([] { (void)net::parse_endpoint_list("a:1,b:80x"); },
                  {"endpoint 'b:80x'", "bad port '80x'"}, "bad port");
}

// One grammar under fuzz: `parse` builds from a spec and returns its
// canonical text ("" when the grammar has no printer); `tag` must appear in
// every error the grammar raises.
struct Grammar {
  const char* name;
  const char* tag;
  std::vector<std::string> seeds;
  std::function<std::string(const std::string&)> parse;
  bool reparsable;  // canonical text is itself a valid spec
};

std::vector<Grammar> grammars() {
  workload::RateEstimatorContext sim_context =
      driver::rate_estimator_context(driver::ExperimentConfig{});
  return {
      {"policy", "policy '",
       {"random", "k_subset:2", "threshold:all:1", "threshold:3:2",
        "basic_li", "aggressive_li", "hybrid_li", "basic_li_k:3"},
       [](const std::string& spec) {
         return policy::make_policy(spec)->name();
       },
       false},
      {"jiq", "parse_jiq_spec",
       {"jiq", "jiq:sq", "jiq:sq:3"},
       [](const std::string& spec) {
         return dispatch::parse_jiq_spec(spec).to_string();
       },
       true},
      {"fault", "FaultSpec",
       {"crash=0.01,down=5,semantics=requeue,loss=0.2,cutoff=2T",
        "delay=0.25,estdrop=0.05,cutoff=4,fallback=random,retries=5,"
        "backoff=0.2",
        ""},
       [](const std::string& spec) {
         return fault::FaultSpec::parse(spec).to_string();
       },
       true},
      {"churn", "ChurnSpec",
       {"restart=5,restartdown=0.5,leave=0.01,rejoin=2,slow=2,"
        "slowfactor=0.25,semantics=lost,suspect=2.5T,evict=5T,probation=3,"
        "probe=0.25,probemax=4,coverage=0.5,fallback=random,retries=4,"
        "backoff=0.2",
        "leave=0.1,rejoin=0.5"},
       [](const std::string& spec) {
         return health::ChurnSpec::parse(spec).to_string();
       },
       true},
      {"arrival", "arrival spec '",
       {"poisson", "mmpp:0.5:1.5:20:20", "ramp:50:0.5", "flash:100:2:10:50:10"},
       [](const std::string& spec) {
         return workload::make_arrival_process(spec, 9.0)->describe();
       },
       false},
      {"estimator", "rate_estimator",
       {"told", "fixed", "fixed:2", "conservative", "ewma:50", "windowed",
        "windowed:8", "cema", "cema:0.2", "cema:0.2:0.5"},
       [sim_context](const std::string& spec) {
         const auto estimator =
             workload::make_rate_estimator(spec, sim_context);
         return estimator == nullptr ? std::string() : estimator->describe();
       },
       false},
      {"distribution", "distribution '",
       {"det:2.5", "exp:1.5", "uniform:1:3", "bp:1.5:0.3:100",
        "bpmean:1.1:1:1000", "hyper:0.5:1:3"},
       [](const std::string& spec) {
         return sim::parse_distribution(spec)->describe();
       },
       true},
      {"endpoint", "endpoint",
       {"127.0.0.1:9000", "localhost:1"},
       [](const std::string& spec) {
         return net::parse_endpoint(spec).to_string();
       },
       true},
      {"flags", "--",
       {"--n 4 --lambda 0.5 --json", "--tcp-port=80 --backends 2",
        "--max-jobs 10 --max-regress 5"},
       [](const std::string& line) {
         const sim::FlagParser flags = parse_line(line, kToolTable);
         std::string canonical;
         for (const sim::Flag& flag : kToolTable.flags) {
           if (!flags.has(flag.name)) continue;
           canonical += " --" + flag.name;
           if (!flag.value.empty()) canonical += "=" + flags.get(flag.name, "");
         }
         (void)flags.integer<int>("n", 0);
         (void)flags.number("lambda", 0.0);
         (void)flags.integer<std::uint16_t>("tcp-port", 0);
         (void)flags.integer<std::uint64_t>("max-jobs", 0);
         return canonical;
       },
       true},
  };
}

// Applies one random mutation: truncate, append junk, empty or duplicated
// separator, or swap a number for a hostile one.
void mutate(std::string& text, sim::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
  };
  static const std::vector<std::string> kJunk = {"x", ":", ",", "=", ":1",
                                                 ",a=1", "T", " --n", "="};
  static const std::vector<std::string> kNumbers = {
      "nan", "inf", "1e400", "-1", "4294967297", "", "0"};
  static const std::string kSeparators = ":,= ";
  switch (rng.next_below(5)) {
    case 0:  // truncate
      text.resize(pick(text.size() + 1));
      break;
    case 1:  // append junk
      text += kJunk[pick(kJunk.size())];
      break;
    case 2: {  // insert a separator (an empty field or key)
      text.insert(pick(text.size() + 1), 1, kSeparators[pick(4)]);
      break;
    }
    case 3: {  // duplicate an existing separator
      std::vector<std::size_t> at;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (kSeparators.find(text[i]) != std::string::npos) at.push_back(i);
      }
      if (!at.empty()) {
        const std::size_t i = at[pick(at.size())];
        text.insert(i, 1, text[i]);
      }
      break;
    }
    default: {  // swap one number for a hostile spelling
      std::vector<std::pair<std::size_t, std::size_t>> numbers;
      for (std::size_t i = 0; i < text.size();) {
        if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
          ++i;
          continue;
        }
        std::size_t end = i;
        while (end < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
                text[end] == '.' || text[end] == 'e')) {
          ++end;
        }
        numbers.emplace_back(i, end - i);
        i = end;
      }
      if (!numbers.empty()) {
        const auto [start, length] = numbers[pick(numbers.size())];
        text.replace(start, length, kNumbers[pick(kNumbers.size())]);
      }
      break;
    }
  }
}

TEST(SpecGrammarFuzzTest, MutationsParseAndRoundTripOrNameTheGrammar) {
  const std::vector<Grammar> table = grammars();
  // Every seed is valid, and a reparsable grammar's seeds round-trip.
  for (const Grammar& grammar : table) {
    for (const std::string& seed : grammar.seeds) {
      std::string canonical;
      ASSERT_NO_THROW(canonical = grammar.parse(seed))
          << grammar.name << " seed '" << seed << "'";
      if (grammar.reparsable) {
        EXPECT_EQ(grammar.parse(canonical), canonical)
            << grammar.name << " seed '" << seed << "'";
      }
    }
  }

  sim::Rng rng(2024);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 20'000; ++iter) {
    const Grammar& grammar = table[static_cast<std::size_t>(iter) %
                                   table.size()];
    std::string spec = grammar.seeds[static_cast<std::size_t>(rng.next_below(
        static_cast<std::uint64_t>(grammar.seeds.size())))];
    const int mutations = 1 + static_cast<int>(rng.next_below(2));
    for (int m = 0; m < mutations; ++m) mutate(spec, rng);

    std::string canonical;
    try {
      canonical = grammar.parse(spec);
    } catch (const std::invalid_argument& error) {
      ++rejected;
      EXPECT_NE(std::string(error.what()).find(grammar.tag),
                std::string::npos)
          << grammar.name << " '" << spec << "': " << error.what();
      continue;
    } catch (const std::exception& error) {
      ADD_FAILURE() << grammar.name << " '" << spec
                    << "' threw a non-invalid_argument: " << error.what();
      continue;
    }
    ++accepted;
    // What parses, round-trips: the canonical text parses back to itself,
    // and parsing is deterministic either way.
    EXPECT_EQ(grammar.parse(spec), canonical) << grammar.name << " '" << spec
                                              << "'";
    if (grammar.reparsable) {
      std::string again;
      EXPECT_NO_THROW(again = grammar.parse(canonical))
          << grammar.name << " '" << spec << "' -> '" << canonical << "'";
      EXPECT_EQ(again, canonical) << grammar.name << " '" << spec << "'";
    }
  }
  // Both outcomes are exercised, so the fuzz is neither all-noise nor a
  // no-op.
  EXPECT_GT(accepted, 1'000);
  EXPECT_GT(rejected, 1'000);
}

}  // namespace
}  // namespace stale
