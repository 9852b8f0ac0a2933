#include "sim/spec.h"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>

namespace stale::sim {

namespace spec_detail {

void fail_field(std::string_view owner, std::string_view field,
                std::string_view text, const std::string& range) {
  const std::string quoted = std::string(field) + " '" + std::string(text) +
                             "'";
  const std::string message =
      range.empty() ? "bad " + quoted : quoted + " is out of range " + range;
  throw std::invalid_argument(
      owner.empty() ? message : std::string(owner) + ": " + message);
}

}  // namespace spec_detail

double parse_number(std::string_view text, std::string_view owner,
                    std::string_view field) {
  const char* const last = text.data() + text.size();
  double value = 0.0;
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc{} || end != last || !std::isfinite(value)) {
    spec_detail::fail_field(owner, field, text, "");
  }
  return value;
}

std::vector<std::string> split_fields(std::string_view text, char sep) {
  std::vector<std::string> fields;
  for (std::size_t start = 0;;) {
    const std::size_t at = text.find(sep, start);
    fields.emplace_back(text.substr(start, at - start));
    if (at == std::string_view::npos) return fields;
    start = at + 1;
  }
}

std::vector<std::pair<std::string, std::string>> parse_key_values(
    std::string_view text, std::string_view owner) {
  std::vector<std::pair<std::string, std::string>> items;
  if (text.empty()) return items;
  std::set<std::string> seen;
  for (const std::string& item : split_fields(text, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(std::string(owner) +
                                  ": expected key=value, got '" + item + "'");
    }
    std::string key = item.substr(0, eq);
    if (!seen.insert(key).second) {
      throw std::invalid_argument(std::string(owner) + ": duplicate key '" +
                                  key + "'");
    }
    items.emplace_back(std::move(key), item.substr(eq + 1));
  }
  return items;
}

Span parse_span(std::string_view text, std::string_view owner,
                std::string_view field) {
  Span span;
  if (!text.empty() && (text.back() == 'T' || text.back() == 't')) {
    span.in_intervals = true;
    text.remove_suffix(1);
  }
  span.value = parse_number(text, owner, field);
  return span;
}

std::string format_span(double value, bool in_intervals) {
  return format_number(value) + (in_intervals ? "T" : "");
}

std::string format_number(double value) {
  char buffer[32];
  for (int digits = 6;; ++digits) {
    const int length =
        std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
    double back = 0.0;
    std::from_chars(buffer, buffer + length, back);
    if (back == value || !std::isfinite(value) ||
        digits == std::numeric_limits<double>::max_digits10) {
      return buffer;
    }
  }
}

FlagParser::FlagParser(int argc, const char* const* argv, FlagTable table)
    : table_(std::move(table)) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return;
    }
    if (arg.size() < 2 || arg[0] != '-') {
      positionals_.push_back(arg);
      continue;
    }
    if (arg[1] != '-') {
      throw std::invalid_argument("unknown flag '" + arg +
                                  "' (flags are spelled --name)");
    }
    arg.erase(0, 2);
    std::string value;
    const std::size_t eq = arg.find('=');
    const bool inline_value = eq != std::string::npos;
    if (inline_value) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
    }
    const Flag* flag = nullptr;
    for (const Flag& declared : table_.flags) {
      if (declared.name == arg) flag = &declared;
    }
    if (flag == nullptr) {
      throw std::invalid_argument("unknown flag '--" + arg + "'");
    }
    if (flag->value.empty() && inline_value) {
      throw std::invalid_argument("switch '--" + arg +
                                  "' does not take a value");
    }
    if (!flag->value.empty() && !inline_value) {
      if (i + 1 >= argc) {
        throw std::invalid_argument("flag '--" + arg + "' expects a value (" +
                                    flag->value + ")");
      }
      value = argv[++i];
    }
    if (!values_.emplace(arg, value).second) {
      throw std::invalid_argument("flag '--" + arg + "' given twice");
    }
  }
  if (table_.positionals.empty() && !positionals_.empty()) {
    throw std::invalid_argument("unexpected positional argument '" +
                                positionals_.front() +
                                "' (flags are spelled --name)");
  }
  if (positionals_.size() != table_.positionals.size()) {
    throw std::invalid_argument(
        "expected " + std::to_string(table_.positionals.size()) +
        " positional argument(s), got " + std::to_string(positionals_.size()));
  }
}

void FlagParser::print_help(std::ostream& out) const {
  const std::string line = usage(table_);
  out << line.substr(0, line.find(" (--help")) << "\n"
      << table_.summary << "\n";
  const auto row = [&out](const std::string& left, const std::string& help) {
    constexpr std::size_t kColumn = 26;
    out << "  " << left
        << (left.size() < kColumn ? std::string(kColumn - left.size(), ' ')
                                  : "\n" + std::string(kColumn + 2, ' '))
        << help << "\n";
  };
  if (!table_.positionals.empty()) out << "\narguments:\n";
  for (const Flag& positional : table_.positionals) {
    row(positional.name, positional.help);
  }
  out << "\nflags:\n";
  for (const Flag& flag : table_.flags) {
    row("--" + flag.name + (flag.value.empty() ? "" : " " + flag.value),
        flag.help);
  }
  row("--help", "print this help and exit");
}

const std::string* FlagParser::find(const std::string& name) const {
  bool declared = false;
  for (const Flag& flag : table_.flags) declared |= flag.name == name;
  if (!declared) {
    throw std::logic_error("FlagParser: '--" + name + "' is not declared");
  }
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool FlagParser::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string FlagParser::get(const std::string& name,
                            const std::string& fallback) const {
  const std::string* text = find(name);
  return text == nullptr ? fallback : *text;
}

double FlagParser::number(const std::string& name, double fallback) const {
  const std::string* text = find(name);
  return text == nullptr ? fallback : parse_number(*text, "", "--" + name);
}

std::string usage(const FlagTable& table) {
  std::string line = "usage: " + table.program + " [flags]";
  for (const Flag& positional : table.positionals) {
    line += " " + positional.name;
  }
  return line + " (--help lists the flags)";
}

int run_tool(int argc, const char* const* argv, const FlagTable& table,
             const std::function<int(const FlagParser&)>& body,
             int error_exit) {
  try {
    const FlagParser flags(argc, argv, table);
    if (flags.help_requested()) {
      flags.print_help(std::cout);
      return 0;
    }
    return body(flags);
  } catch (const std::invalid_argument& error) {
    std::cerr << table.program << ": " << error.what() << "\n"
              << usage(table) << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << table.program << ": " << error.what() << "\n";
    return error_exit;
  }
}

}  // namespace stale::sim
