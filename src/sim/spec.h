// The one strict grammar every spec string and every binary's command line
// goes through: numbers and integers that parse in full (finite, no silent
// narrowing), field splitting that keeps empty fields, key=value lists
// without duplicate keys, the shared "2T" span form, shortest round-trip
// number formatting, and the declared-flag argv parser behind every tool.
//
// Every error is a std::invalid_argument naming the owner (grammar or flag)
// and the bad field, e.g.
//   rate_estimator 'cema:0.1x': bad ALPHA '0.1x'
//   --n '4294967297' is out of range [-2147483648, 2147483647]
#pragma once

#include <charconv>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace stale::sim {

namespace spec_detail {
// Throws "OWNER: bad FIELD 'TEXT'", or with a `range`, "OWNER: FIELD 'TEXT'
// is out of range RANGE"; no "OWNER: " when `owner` is empty.
[[noreturn]] void fail_field(std::string_view owner, std::string_view field,
                             std::string_view text, const std::string& range);
}  // namespace spec_detail

// A finite double spelled out in full; anything else ("", "0.5x", "nan",
// "inf", "1e400") throws "OWNER: bad FIELD 'TEXT'" (no "OWNER: " when
// `owner` is empty).
double parse_number(std::string_view text, std::string_view owner,
                    std::string_view field);

// An integer spelled out in full that fits Int. Overflow, or a negative
// value for an unsigned Int, throws "OWNER: FIELD 'TEXT' is out of range
// [LO, HI]"; other malformed text throws like parse_number.
template <typename Int>
Int parse_integer(std::string_view text, std::string_view owner,
                  std::string_view field) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
  const char* const last = text.data() + text.size();
  Int value{};
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error == std::errc::result_out_of_range ||
      (std::is_unsigned_v<Int> && !text.empty() && text.front() == '-')) {
    spec_detail::fail_field(
        owner, field, text,
        "[" + std::to_string(std::numeric_limits<Int>::min()) + ", " +
            std::to_string(std::numeric_limits<Int>::max()) + "]");
  }
  if (error != std::errc{} || end != last) {
    spec_detail::fail_field(owner, field, text, "");
  }
  return value;
}

// Splits on `sep`, keeping empty fields ("a:" -> {"a", ""}), so a stray
// separator is an error in the grammar, never silently dropped.
std::vector<std::string> split_fields(std::string_view text, char sep);

// "key=value,key=value" in order; "" is an empty list. An item without '='
// (an empty item included) or a repeated key throws naming `owner`: a
// repeat is always a typo that last-wins would hide.
std::vector<std::pair<std::string, std::string>> parse_key_values(
    std::string_view text, std::string_view owner);

// A duration that is absolute ("5.0") or a multiple of the update interval
// T ("2T").
struct Span {
  double value = 0.0;
  bool in_intervals = false;
};
Span parse_span(std::string_view text, std::string_view owner,
                std::string_view field);
std::string format_span(double value, bool in_intervals);

// The shortest %g text that parses back to exactly `value`, starting from
// the stream default of 6 significant digits: values that default printed
// exactly keep their spelling ("0.01", "100000"); others gain just enough
// digits ("0.0123456789", not "0.0123457").
std::string format_number(double value);

// Runs `build`, prefixing any std::invalid_argument it throws (the
// grammar's own or a constructor's range check) with "OWNER 'SPEC': ", so
// every failure of one grammar names it and the input.
template <typename Build>
auto with_spec_context(std::string_view owner, std::string_view spec,
                       Build&& build) -> decltype(build()) {
  try {
    return build();
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(std::string(owner) + " '" + std::string(spec) +
                                "': " + error.what());
  }
}

// One declared flag: `value` names its argument in help ("N", "SPEC"); an
// empty `value` makes it a switch. Positionals reuse it, `name` being the
// placeholder.
struct Flag {
  std::string name;  // without the leading "--"
  std::string value;
  std::string help;  // one line
};

// Everything a tool accepts, and everything its --help prints.
struct FlagTable {
  std::string program;
  std::string summary;
  std::vector<Flag> flags;
  std::vector<Flag> positionals;  // all required, in order
};

// A command line parsed against a FlagTable: "--flag value", "--flag=value"
// and switches, in any order with the positionals. An unknown or repeated
// flag, a switch given a value, a missing value, or a wrong positional
// count throws std::invalid_argument naming the flag. "--help" (or "-h")
// stops parsing and sets help_requested().
class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv, FlagTable table);

  bool help_requested() const { return help_requested_; }
  void print_help(std::ostream& out) const;

  // Lookups throw std::logic_error for a flag the table never declared.
  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  // parse_number / parse_integer of the flag's value; fallback if absent.
  double number(const std::string& name, double fallback) const;
  template <typename Int>
  Int integer(const std::string& name, Int fallback) const {
    const std::string* text = find(name);
    return text == nullptr ? fallback
                           : parse_integer<Int>(*text, "", "--" + name);
  }
  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  const std::string* find(const std::string& name) const;  // null if absent

  FlagTable table_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  bool help_requested_ = false;
};

// "usage: PROGRAM [flags] POSITIONALS... (--help lists the flags)".
std::string usage(const FlagTable& table);

// A tool's main(): parses argv against `table` and runs `body`. --help
// prints the help on stdout and returns 0. A parse error, or a
// std::invalid_argument from `body`, prints "PROGRAM: message" and the usage
// line on stderr and returns 2; any other exception prints the message and
// returns `error_exit`.
int run_tool(int argc, const char* const* argv, const FlagTable& table,
             const std::function<int(const FlagParser&)>& body,
             int error_exit = 1);

}  // namespace stale::sim
