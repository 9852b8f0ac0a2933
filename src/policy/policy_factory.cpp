#include "policy/policy_factory.h"

#include <stdexcept>

#include "policy/aggressive_li_policy.h"
#include "policy/basic_li_policy.h"
#include "policy/hybrid_li_policy.h"
#include "policy/k_subset_policy.h"
#include "policy/li_subset_policy.h"
#include "policy/random_policy.h"
#include "policy/threshold_policy.h"
#include "sim/spec.h"

namespace stale::policy {

PolicyPtr make_policy(const std::string& spec) {
  // Every error, the constructors' range checks included, comes out as
  // "policy 'SPEC': ...".
  return sim::with_spec_context("policy", spec, [&]() -> PolicyPtr {
    const std::vector<std::string> parts = sim::split_fields(spec, ':');
    const std::string& kind = parts[0];
    const auto expect_arity = [&](std::size_t arity) {
      if (parts.size() != arity) {
        throw std::invalid_argument("wrong parameter count for '" + kind +
                                    "'");
      }
    };
    const auto integer = [&](std::size_t i, const char* field) {
      return sim::parse_integer<int>(parts[i], "", field);
    };

    if (kind == "random") {
      expect_arity(1);
      return std::make_unique<RandomPolicy>();
    }
    if (kind == "k_subset") {
      expect_arity(2);
      return std::make_unique<KSubsetPolicy>(integer(1, "k"));
    }
    if (kind == "threshold") {
      expect_arity(3);
      const int k = parts[1] == "all" ? SelectionPolicy::kAllServers
                                      : integer(1, "k");
      return std::make_unique<ThresholdPolicy>(k, integer(2, "threshold"));
    }
    if (kind == "basic_li") {
      expect_arity(1);
      return std::make_unique<BasicLiPolicy>();
    }
    if (kind == "aggressive_li") {
      expect_arity(1);
      return std::make_unique<AggressiveLiPolicy>();
    }
    if (kind == "hybrid_li") {
      expect_arity(1);
      return std::make_unique<HybridLiPolicy>();
    }
    if (kind == "basic_li_k") {
      expect_arity(2);
      return std::make_unique<LiSubsetPolicy>(integer(1, "k"));
    }
    throw std::invalid_argument("unknown policy '" + kind + "'");
  });
}

std::vector<std::string> known_policy_specs() {
  return {"random",        "k_subset:K",     "threshold:K:T", "basic_li",
          "aggressive_li", "hybrid_li",      "basic_li_k:K"};
}

BoardRepr parse_board_repr(const std::string& spec) {
  if (spec == "auto") return BoardRepr::kAuto;
  if (spec == "vector") return BoardRepr::kVector;
  if (spec == "bucketed") return BoardRepr::kBucketed;
  throw std::invalid_argument(
      "parse_board_repr: expected auto|vector|bucketed, got '" + spec + "'");
}

const char* board_repr_name(BoardRepr repr) {
  switch (repr) {
    case BoardRepr::kAuto:
      return "auto";
    case BoardRepr::kVector:
      return "vector";
    case BoardRepr::kBucketed:
      return "bucketed";
  }
  throw std::logic_error("board_repr_name: bad enum");
}

}  // namespace stale::policy
