#include "dispatch/jiq.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "check/contracts.h"
#include "sim/spec.h"

namespace stale::dispatch {

std::string JiqSpec::to_string() const {
  if (insertion == JiqInsertion::kRandom) return "jiq";
  return "jiq:sq:" + std::to_string(sq_sample);
}

bool is_jiq_spec(const std::string& policy_spec) {
  return policy_spec == "jiq" || policy_spec.rfind("jiq:", 0) == 0;
}

JiqSpec parse_jiq_spec(const std::string& policy_spec) {
  const std::vector<std::string> parts = sim::split_fields(policy_spec, ':');
  JiqSpec spec;
  if (parts[0] == "jiq" && parts.size() == 1) return spec;
  if (parts[0] == "jiq" && parts[1] == "sq" && parts.size() <= 3) {
    spec.insertion = JiqInsertion::kShortestQueue;
    if (parts.size() == 3) {
      spec.sq_sample =
          sim::parse_integer<int>(parts[2], "parse_jiq_spec", "sample count");
      if (spec.sq_sample < 1) {
        throw std::invalid_argument("parse_jiq_spec: sample count in '" +
                                    policy_spec + "' must be >= 1");
      }
    }
    return spec;
  }
  throw std::invalid_argument("parse_jiq_spec: unknown JIQ spec '" +
                              policy_spec +
                              "' (known: jiq, jiq:sq, jiq:sq:K)");
}

TokenDirectory::TokenDirectory(int num_servers, int num_dispatchers,
                               int token_budget)
    : budget_(token_budget) {
  if (num_servers < 1) {
    throw std::invalid_argument("TokenDirectory: need at least one server");
  }
  if (num_dispatchers < 1) {
    throw std::invalid_argument(
        "TokenDirectory: need at least one dispatcher");
  }
  if (token_budget < 0) {
    throw std::invalid_argument("TokenDirectory: token budget must be >= 0");
  }
  queues_.resize(static_cast<std::size_t>(num_dispatchers));
  holder_.assign(static_cast<std::size_t>(num_servers), -1);
  epoch_.assign(static_cast<std::size_t>(num_servers), 0);
  valid_count_.assign(static_cast<std::size_t>(num_dispatchers), 0);
}

int TokenDirectory::offer(int server, const JiqSpec& spec, sim::Rng& rng) {
  STALE_DCHECK(server >= 0 && server < num_servers());
  const auto s = static_cast<std::size_t>(server);
  if (holder_[s] >= 0) return -1;  // at most one token per server
  const int num_d = num_dispatchers();
  int target;
  if (spec.insertion == JiqInsertion::kRandom || num_d == 1) {
    target = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(num_d)));
  } else {
    // JIQ-SQ(d): sample sq_sample distinct dispatchers, join the shortest
    // I-queue. The winner is chosen by (count, index), not sample order, so
    // the pick is deterministic even though sample_distinct's output order
    // is unspecified.
    const int k = std::min(spec.sq_sample, num_d);
    int sampled[64];
    std::vector<int> big;
    std::span<int> out;
    if (k <= 64) {
      out = std::span<int>(sampled, static_cast<std::size_t>(k));
    } else {
      big.resize(static_cast<std::size_t>(k));
      out = big;
    }
    policy::sample_distinct(num_d, k, rng, out);
    target = out[0];
    for (int i = 1; i < k; ++i) {
      const int d = out[static_cast<std::size_t>(i)];
      if (valid_count_[static_cast<std::size_t>(d)] <
              valid_count_[static_cast<std::size_t>(target)] ||
          (valid_count_[static_cast<std::size_t>(d)] ==
               valid_count_[static_cast<std::size_t>(target)] &&
           d < target)) {
        target = d;
      }
    }
  }
  const auto td = static_cast<std::size_t>(target);
  if (budget_ > 0 && valid_count_[td] >= budget_) {
    ++dropped_;  // message-rate budget spent; the server stays tokenless
    return -1;
  }
  ++offered_;
  ++epoch_[s];
  queues_[td].push_back({server, epoch_[s]});
  holder_[s] = target;
  ++valid_count_[td];
  return target;
}

int TokenDirectory::claim(int dispatcher) {
  STALE_DCHECK(dispatcher >= 0 && dispatcher < num_dispatchers());
  std::deque<Entry>& queue = queues_[static_cast<std::size_t>(dispatcher)];
  while (!queue.empty()) {
    const Entry entry = queue.front();
    queue.pop_front();
    const auto s = static_cast<std::size_t>(entry.server);
    // Stale entries (invalidated, or superseded by a newer offer) are
    // recognized by holder/epoch mismatch and skipped.
    if (holder_[s] != dispatcher || epoch_[s] != entry.epoch) continue;
    holder_[s] = -1;
    --valid_count_[static_cast<std::size_t>(dispatcher)];
    ++claimed_;
    return entry.server;
  }
  return -1;
}

void TokenDirectory::invalidate(int server) {
  STALE_DCHECK(server >= 0 && server < num_servers());
  const auto s = static_cast<std::size_t>(server);
  if (holder_[s] < 0) return;
  --valid_count_[static_cast<std::size_t>(holder_[s])];
  holder_[s] = -1;  // the queued entry goes stale; claim() will skip it
  ++invalidated_;
}

int TokenDirectory::total_queued() const {
  int total = 0;
  for (int count : valid_count_) total += count;
  return total;
}

void TokenDirectory::audit(const char* where) const {
  // Recount live entries per dispatcher from scratch and cross-check every
  // cached structure against the scan.
  std::vector<int> recount(valid_count_.size(), 0);
  std::vector<int> per_server(holder_.size(), 0);
  for (std::size_t d = 0; d < queues_.size(); ++d) {
    for (const Entry& entry : queues_[d]) {
      const auto s = static_cast<std::size_t>(entry.server);
      if (holder_[s] == static_cast<int>(d) && epoch_[s] == entry.epoch) {
        ++recount[d];
        ++per_server[s];
      }
    }
  }
  for (std::size_t d = 0; d < valid_count_.size(); ++d) {
    STALE_ASSERT(recount[d] == valid_count_[d],
                 "TokenDirectory::audit: cached valid count diverged from "
                 "queue scan");
    STALE_ASSERT(budget_ == 0 || valid_count_[d] <= budget_,
                 "TokenDirectory::audit: token budget exceeded");
  }
  for (std::size_t s = 0; s < holder_.size(); ++s) {
    STALE_ASSERT(per_server[s] == (holder_[s] >= 0 ? 1 : 0),
                 "TokenDirectory::audit: a held token must have exactly one "
                 "live queue entry (and an unheld server none)");
  }
  STALE_ASSERT(offered_ == claimed_ + invalidated_ +
                               static_cast<std::uint64_t>(total_queued()),
               "TokenDirectory::audit: token conservation violated "
               "(offered != claimed + invalidated + queued)");
  (void)where;
}

JiqPolicy::JiqPolicy(TokenDirectory* directory, int dispatcher, JiqSpec spec)
    : directory_(directory), dispatcher_(dispatcher), spec_(spec) {
  if (directory == nullptr) {
    throw std::invalid_argument("JiqPolicy: null token directory");
  }
  if (dispatcher < 0 || dispatcher >= directory->num_dispatchers()) {
    throw std::invalid_argument("JiqPolicy: dispatcher index out of range");
  }
}

int JiqPolicy::select(const policy::DispatchContext& context, sim::Rng& rng) {
  int server;
  while ((server = directory_->claim(dispatcher_)) >= 0) {
    // A token can outlive the dispatcher's belief in its server (quarantine
    // raced the invalidation sweep); discard rather than dispatch into a
    // known-dead queue.
    if (!context.known_dead(server)) return server;
    context.count_sanitize_event();
  }
  // Empty I-queue: JIQ's information-free fallback. Uniform over the
  // candidate set keeps the fallback immune to stale boards — the property
  // the herd-amplification battery measures.
  return policy::pick_uniform_alive(context.alive, context.loads.size(), rng);
}

std::string JiqPolicy::name() const { return spec_.to_string(); }

}  // namespace stale::dispatch
