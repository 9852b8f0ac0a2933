// Join-Idle-Queue (Lu et al.; analyzed for the multi-dispatcher regime by
// Mitzenmacher and by Goren/Vargaftik/Moses — see PAPERS.md): instead of
// dispatchers reading a (stale) load board, idle servers push a token into
// one dispatcher's I-queue. A dispatcher with a queued token sends the next
// arrival there — guaranteed idle at token time, no load information read —
// and falls back to a uniform pick when its I-queue is empty. Because the
// token is created by the server at the moment it idles, JIQ has no staleness
// window to misinterpret: the herd amplification that greedy-on-stale suffers
// as the dispatcher count D grows simply has no channel to act through.
//
// The TokenDirectory is the shared token state for one simulated trial: at
// most one token per server, FIFO I-queues per dispatcher, lazy invalidation
// (a stale deque entry is recognized by an epoch mismatch and skipped at
// claim time), and an optional per-dispatcher token budget so JIQ can be
// compared against LI at a matched message rate (a budget-dropped token is a
// heartbeat the server was not allowed to send).
//
// Thread-confinement contract matches the rest of the simulation: one
// directory per trial, owned by the trial's worker thread, no locks.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "policy/policy.h"
#include "sim/rng.h"

namespace stale::dispatch {

// How an idling server picks the dispatcher whose I-queue gets its token.
//   kRandom        — uniform over the D dispatchers (JIQ-Random).
//   kShortestQueue — sample sq_sample dispatchers, join the one with the
//                    fewest queued tokens (JIQ-SQ(d)).
enum class JiqInsertion { kRandom, kShortestQueue };

struct JiqSpec {
  JiqInsertion insertion = JiqInsertion::kRandom;
  int sq_sample = 2;  // the d in JIQ-SQ(d); >= 1
  std::string to_string() const;
};

// True for the JIQ policy family ("jiq", "jiq:sq", "jiq:sq:K"). These specs
// are owned by the dispatch layer, not policy_factory: a JIQ policy is a view
// onto shared token state only the board-trial engine can provide.
bool is_jiq_spec(const std::string& policy_spec);

// Parses a JIQ spec; throws std::invalid_argument naming the offender.
JiqSpec parse_jiq_spec(const std::string& policy_spec);

// Shared idle-token state across the D dispatchers of one trial.
class TokenDirectory {
 public:
  // `token_budget` caps the valid tokens queued per dispatcher; 0 = no cap.
  TokenDirectory(int num_servers, int num_dispatchers, int token_budget = 0);

  // Server `server` went idle: queues its token per `spec` (drawing the
  // dispatcher choice from `rng`). Returns the accepting dispatcher, or -1
  // when the token was dropped (budget) or the server already holds one.
  int offer(int server, const JiqSpec& spec, sim::Rng& rng);

  // Pops dispatcher `d`'s oldest valid token; -1 when its I-queue is empty.
  int claim(int dispatcher);

  // Retires `server`'s token wherever it is queued. Called when the server
  // receives a job (tokens mean "idle"), crashes, or is quarantined by the
  // health layer — the "never dangle" half of token conservation.
  void invalidate(int server);

  bool has_token(int server) const {
    return holder_[static_cast<std::size_t>(server)] >= 0;
  }
  // Dispatcher holding `server`'s token, or -1.
  int holder(int server) const {
    return holder_[static_cast<std::size_t>(server)];
  }
  int queued(int dispatcher) const {
    return valid_count_[static_cast<std::size_t>(dispatcher)];
  }
  int total_queued() const;

  int num_servers() const { return static_cast<int>(holder_.size()); }
  int num_dispatchers() const { return static_cast<int>(queues_.size()); }
  int token_budget() const { return budget_; }

  // Lifecycle counters. Conservation invariant (audited):
  //   offered == claimed + invalidated + total_queued().
  std::uint64_t offered() const { return offered_; }
  std::uint64_t claimed() const { return claimed_; }
  std::uint64_t invalidated() const { return invalidated_; }
  std::uint64_t dropped() const { return dropped_; }

  // Full-state invariant check (wrap in STALE_AUDIT): per-dispatcher valid
  // counts match a queue scan, every held token has exactly one live entry,
  // the budget is respected, and the lifecycle counters conserve.
  void audit(const char* where) const;

 private:
  struct Entry {
    int server;
    std::uint64_t epoch;  // live iff it matches epoch_[server] while held
  };

  std::vector<std::deque<Entry>> queues_;  // per dispatcher, FIFO
  std::vector<int> holder_;                // per server; -1 = no token
  std::vector<std::uint64_t> epoch_;       // bumped per offer
  std::vector<int> valid_count_;           // per dispatcher
  int budget_;
  std::uint64_t offered_ = 0;
  std::uint64_t claimed_ = 0;
  std::uint64_t invalidated_ = 0;
  std::uint64_t dropped_ = 0;
};

// One dispatcher's view of the shared directory, shaped as a SelectionPolicy
// so the trial engines and the live dispatcher drive JIQ exactly like the LI
// family. select() claims a token (skipping any server the context's alive
// mask marks dead) and falls back to uniform-over-alive on an empty I-queue.
// info_demand() is 0: JIQ reads no load values at all.
class JiqPolicy : public policy::SelectionPolicy {
 public:
  JiqPolicy(TokenDirectory* directory, int dispatcher, JiqSpec spec);

  int select(const policy::DispatchContext& context, sim::Rng& rng) override;
  std::string name() const override;
  int info_demand() const override { return 0; }

  const JiqSpec& spec() const { return spec_; }

 private:
  TokenDirectory* directory_;  // not owned; shared across dispatchers
  int dispatcher_;
  JiqSpec spec_;
};

}  // namespace stale::dispatch
