// The live dispatcher: a single-threaded event-loop TCP load balancer that
// drives the repo's policy:: implementations with a *real* stale bulletin
// board (net/net_board.h).
//
// Data path: clients connect over TCP and send `JOB <id>` lines; per job the
// dispatcher assembles a policy::DispatchContext from the NetBoard (stale
// loads + information age + a windowed arrival-rate estimate), asks the
// configured SelectionPolicy for a backend, and forwards the job over a
// persistent TCP connection to that backend. The backend's `DONE` reply is
// routed back to the originating client.
//
// Control path: backends register and report load over UDP (HELLO/LOAD, see
// net/protocol.h). The optional fault spec injects report loss and extra
// report delay on this path — the live analogue of the simulator's
// RefreshFaults — so the "stale + lossy information" experiments run against
// physical packets.
//
// Health path (optional, DispatcherOptions::health): the same
// health::Membership state machine the simulator's churn trials use, here
// fed by physical report recency. Silent backends are quarantined and then
// evicted, evicted ones are probed with exponential backoff and readmitted
// through probation on a fresh HELLO, timed-out or orphaned jobs are
// re-dispatched to a different backend, and when candidate coverage drops
// below the configured threshold the dispatcher degrades to a fallback
// policy until the cluster recovers.
//
// Observability: with a TraceSink attached, the dispatcher emits the same
// on_decision / on_dispatch / on_departure / on_board_refresh /
// on_refresh_fault events as the simulator's driver, timestamped with
// net::mono_now(). A recorded live trace therefore drops straight into
// obs/probe.h and obs/herd.h — that is how the loopback CI test shows the
// paper's herd effect on real sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "check/sync.h"
#include "check/thread_annotations.h"
#include "core/rate_estimator.h"
#include "fault/fault_spec.h"
#include "health/health_config.h"
#include "health/membership.h"
#include "net/buffer.h"
#include "net/event_loop.h"
#include "net/net_board.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/trace_sink.h"
#include "policy/policy_factory.h"
#include "sim/rng.h"

namespace stale::net {

class TraceV2Recorder;

struct DispatcherOptions {
  std::string host = "127.0.0.1";
  std::uint16_t tcp_port = 0;  // client-facing; 0 = ephemeral
  std::uint16_t udp_port = 0;  // backend control plane; 0 = ephemeral

  int num_backends = 0;  // registrations to wait for before READY

  std::string policy_spec = "basic_li";
  UpdateSchedule schedule = UpdateSchedule::kPeriodic;
  double update_period = 1.0;  // T (phase length LI interprets against)

  // Which lambda-hat feeds DispatchContext::lambda_total for the LI
  // policies (--estimator), in the grammar the simulator shares
  // (workload::make_rate_estimator):
  //   windowed[:W]          sliding-window count/W (the default;
  //                         W = 4 * max(update_period, 0.25))
  //   ewma:TAU              exponential moving average, time constant TAU
  //   cema[:ALPHA[:BUCKET]] bias-corrected bucketed CEMA (defaults 0.1 and
  //                         max(update_period, 0.05) / 2)
  //   fixed:RATE            a constant — the paper's "operator tells the
  //                         dispatcher lambda" baseline, blind to load shifts
  // A bare "fixed", "told" and "conservative" fail: live there is no
  // configured lambda and no known service capacity to stand on.
  std::string estimator_spec = "windowed";

  double duration = 0.0;  // seconds; <= 0 = run until stopped
  std::uint64_t seed = 1;

  // Fault injection on the UDP report path: update_loss drops each incoming
  // LOAD report, update_extra_delay holds surviving reports back by an
  // exponential extra delay before they reach the board. Parsed with
  // fault::FaultSpec so the CLI flag is shared with the simulator.
  fault::FaultSpec faults;

  // Dynamic membership (src/health/): when health.enabled() the dispatcher
  // runs a per-backend liveness state machine fed by HELLO/LOAD/DONE recency.
  // Backends silent past suspect_timeout are quarantined out of the policy's
  // candidate set; past evict_timeout they are evicted (connection torn down,
  // in-flight jobs re-dispatched) and probed with exponential backoff until a
  // fresh HELLO re-registers them through probation. While candidate coverage
  // sits below health.coverage_threshold the dispatcher selects with
  // health.fallback_policy instead of policy_spec (degraded mode).
  health::HealthConfig health;

  // Data-path failure detection (requires health.enabled()): a dispatched job
  // unanswered for dispatch_timeout seconds marks its backend failed and is
  // re-dispatched to a different backend — at most max_redispatch re-sends
  // per job (timeouts and connection losses combined) before the client gets
  // an ERR. <= 0 disables the per-job timer; connection-loss re-dispatch
  // stays active whenever health is enabled.
  double dispatch_timeout = 0.0;
  int max_redispatch = 2;

  // Status lines ("LISTENING", "READY") for humans and harnesses; nullable.
  std::ostream* status_out = nullptr;

  obs::TraceSink* trace = nullptr;

  // Trace-v2 recording (--record): arrival/LOAD/DONE events flow into the
  // recorder during the run; the owner writes the directory afterwards.
  TraceV2Recorder* record = nullptr;
};

struct DispatcherStats {
  std::uint64_t jobs_received = 0;
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_rejected = 0;  // no registered backend to send to
  std::uint64_t jobs_orphaned = 0;  // backend connection died mid-job
  std::uint64_t reports_received = 0;
  std::uint64_t reports_dropped = 0;  // injected loss
  std::uint64_t reports_delayed = 0;  // injected delay
  std::uint64_t hellos_received = 0;
  // Health-subsystem counters (all zero when health is disabled).
  std::uint64_t dispatch_timeouts = 0;   // per-job timers that fired
  std::uint64_t jobs_redispatched = 0;   // re-sent after timeout/conn loss
  std::uint64_t backend_evictions = 0;   // membership transitions to dead
  std::uint64_t backend_rejoins = 0;     // probation completed back to alive
  std::uint64_t degraded_entries = 0;    // coverage dropped below threshold
  std::vector<std::uint64_t> per_backend_dispatched;
  double started_at = 0.0;
  double stopped_at = 0.0;
};

class Dispatcher {
 public:
  // Binds both sockets and resolves the policy; throws on bad configuration.
  explicit Dispatcher(const DispatcherOptions& options);

  std::uint16_t tcp_port() const { return tcp_port_; }
  std::uint16_t udp_port() const { return udp_port_; }

  // Serves until the duration elapses or `stop_flag` goes true.
  void run(const std::atomic<bool>* stop_flag = nullptr);

  // Read-side accessors for the owning thread (before run() starts or after
  // it returns); asserting the serial capability documents that contract.
  const DispatcherStats& stats() const {
    loop_serial_.assert_held();
    return stats_;
  }
  int registered_backends() const {
    loop_serial_.assert_held();
    return registered_;
  }

 private:
  struct BackendConn {
    bool registered = false;
    Endpoint endpoint;  // data-plane address learned from HELLO
    Fd fd;
    LineBuffer in;
    WriteBuffer out;
  };

  struct ClientConn {
    Fd fd;
    LineBuffer in;
    WriteBuffer out;
  };

  struct InFlightJob {
    int client_fd = -1;  // -1 after the client hung up
    std::uint64_t client_id = 0;
    int backend = 0;
    int attempts = 0;                 // re-dispatches already consumed
    std::uint64_t timeout_timer = 0;  // 0 = no per-job timer armed
  };

  // An in-flight liveness probe of a dead backend: a bare TCP connect to its
  // last-known data endpoint, watched for the connect outcome.
  struct ProbeConn {
    int index = -1;
    Fd fd;
  };

  void on_udp_readable() STALE_REQUIRES(loop_serial_);
  void handle_datagram(const std::string& payload, const std::string& from) STALE_REQUIRES(loop_serial_);
  void register_backend(const HelloMsg& hello, const std::string& from_host) STALE_REQUIRES(loop_serial_);
  void accept_clients() STALE_REQUIRES(loop_serial_);
  void on_client_readable(int fd) STALE_REQUIRES(loop_serial_);
  void on_backend_readable(int index) STALE_REQUIRES(loop_serial_);
  void handle_client_line(int fd, const std::string& line) STALE_REQUIRES(loop_serial_);
  void handle_backend_line(int index, const std::string& line) STALE_REQUIRES(loop_serial_);
  void dispatch_job(int client_fd, std::uint64_t client_id) STALE_REQUIRES(loop_serial_);
  // One (re-)send of a job: attempt 0 is the original dispatch, later
  // attempts re-route around `avoid` (the backend that just failed it).
  void dispatch_attempt(int client_fd, std::uint64_t client_id, int attempts,
                        int avoid) STALE_REQUIRES(loop_serial_);
  void on_job_timeout(std::uint64_t gid) STALE_REQUIRES(loop_serial_);
  void health_tick() STALE_REQUIRES(loop_serial_);
  void probe_backend(int index) STALE_REQUIRES(loop_serial_);
  void on_probe_event(int fd, std::uint32_t events) STALE_REQUIRES(loop_serial_);
  void build_live_mask() STALE_REQUIRES(loop_serial_);
  void apply_report(const LoadMsg& msg) STALE_REQUIRES(loop_serial_);
  void drop_client(int fd) STALE_REQUIRES(loop_serial_);
  // `observed_failure` feeds the membership state machine; re-registration
  // replaces a connection without declaring the backend dead.
  void drop_backend(int index, bool observed_failure = true) STALE_REQUIRES(loop_serial_);
  void send_to_client(int fd, const std::string& bytes) STALE_REQUIRES(loop_serial_);
  void send_to_backend(int index, const std::string& bytes) STALE_REQUIRES(loop_serial_);
  void flush_conn(int fd, WriteBuffer* out, bool want_read) STALE_REQUIRES(loop_serial_);
  void status(const std::string& line);

  // Configuration and sockets: written in the constructor, immutable after
  // (the event loop reads them, nothing races). They sit above the serial
  // capability per the T2 convention: unguarded members before the lock.
  DispatcherOptions options_;
  EventLoop loop_;
  Fd listen_fd_;
  Fd udp_fd_;
  std::uint16_t tcp_port_ = 0;
  std::uint16_t udp_port_ = 0;
  double health_tick_period_ = 0.0;

  // The dispatcher is single-threaded by contract, not by locking: every
  // member below is touched only from the event-loop thread (the one that
  // constructed the dispatcher and calls run()). loop_serial_ is the
  // thread-confinement pseudo-capability making that contract checkable —
  // each handler requires it, each event-loop callback asserts it, and
  // clang's -Wthread-safety verifies no unannotated path touches the state.
  check::Serial loop_serial_;

  policy::PolicyPtr policy_ STALE_PT_GUARDED_BY(loop_serial_);
  // Degraded mode; null if health off.
  policy::PolicyPtr fallback_policy_ STALE_PT_GUARDED_BY(loop_serial_);
  NetBoard board_ STALE_GUARDED_BY(loop_serial_);
  // rng_: policy tie-breaks / subset sampling. fault_rng_: report loss and
  // delay draws. Both are split streams of the configured seed.
  sim::Rng rng_ STALE_GUARDED_BY(loop_serial_);
  sim::Rng fault_rng_ STALE_GUARDED_BY(loop_serial_);
  core::RateEstimatorPtr rate_ STALE_PT_GUARDED_BY(loop_serial_);

  std::vector<BackendConn> backends_ STALE_GUARDED_BY(loop_serial_);
  int registered_ STALE_GUARDED_BY(loop_serial_) = 0;
  // Clients by fd; jobs by dispatcher-global id; outstanding_ is the
  // LB-side per-backend queue depth.
  std::map<int, ClientConn> clients_ STALE_GUARDED_BY(loop_serial_);
  std::map<std::uint64_t, InFlightJob> jobs_ STALE_GUARDED_BY(loop_serial_);
  std::vector<int> outstanding_ STALE_GUARDED_BY(loop_serial_);
  std::uint64_t next_gid_ STALE_GUARDED_BY(loop_serial_) = 1;

  // Health subsystem (null/empty when options_.health is disabled).
  // Probes are keyed by probe socket fd; live_mask_ is candidates AND
  // registered.
  std::unique_ptr<health::Membership> membership_
      STALE_PT_GUARDED_BY(loop_serial_);
  std::map<int, ProbeConn> probes_ STALE_GUARDED_BY(loop_serial_);
  std::vector<std::uint8_t> live_mask_ STALE_GUARDED_BY(loop_serial_);
  bool was_degraded_ STALE_GUARDED_BY(loop_serial_) = false;

  DispatcherStats stats_ STALE_GUARDED_BY(loop_serial_);
};

}  // namespace stale::net
