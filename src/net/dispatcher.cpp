#include "net/dispatcher.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "net/record.h"
#include "sim/distributions.h"
#include "workload/rate_estimator.h"

namespace stale::net {

namespace {

// The live loop reuses the simulator's RNG split convention: one base seed,
// decorrelated streams per consumer.
sim::Rng split_stream(std::uint64_t seed, int stream) {
  sim::Rng rng(seed);
  for (int i = 0; i < stream; ++i) rng.long_jump();
  return rng;
}

}  // namespace

Dispatcher::Dispatcher(const DispatcherOptions& options)
    : options_(options),
      policy_(policy::make_policy(options.policy_spec)),
      board_(options.num_backends, options.schedule, options.update_period,
             /*start_time=*/0.0),
      rng_(split_stream(options.seed, 0)),
      fault_rng_(split_stream(options.seed, 1)),
      backends_(static_cast<std::size_t>(options.num_backends)),
      outstanding_(static_cast<std::size_t>(options.num_backends), 0) {
  // Construction happens on the (future) loop thread; the serial capability
  // is born held here.
  loop_serial_.assert_held();
  if (options.num_backends <= 0) {
    throw std::invalid_argument("Dispatcher needs --backends >= 1");
  }
  options_.faults.validate();
  options_.health.validate();
  if (options_.dispatch_timeout > 0.0 && !options_.health.enabled()) {
    throw std::invalid_argument(
        "Dispatcher: dispatch_timeout needs the health subsystem "
        "(a suspect/evict spec) to act on the failures it detects");
  }
  if (options_.max_redispatch < 0) {
    throw std::invalid_argument("Dispatcher: max_redispatch must be >= 0");
  }
  if (options_.health.enabled()) {
    fallback_policy_ = policy::make_policy(options_.health.fallback_policy);
    membership_ = std::make_unique<health::Membership>(
        options_.num_backends, options_.health, loop_.now(), options_.trace);
    // Check deadlines a few times per suspect window so quarantine lag stays
    // a fraction of the timeout it enforces.
    health_tick_period_ =
        std::max(0.05, options_.health.suspect_timeout / 4.0);
  }
  // Live, only T is known: no configured lambda and no service capacity.
  // The near-zero initial rate makes LI read the board as fresh (K = 0)
  // until arrivals accumulate.
  workload::RateEstimatorContext estimator_context;
  estimator_context.update_interval = options_.update_period;
  estimator_context.initial_rate = 1e-9;
  rate_ = workload::make_rate_estimator(options_.estimator_spec,
                                        estimator_context);

  listen_fd_ = tcp_listen(options.host, options.tcp_port, &tcp_port_);
  udp_fd_ = udp_bind(options.host, options.udp_port, &udp_port_);
  stats_.per_backend_dispatched.assign(
      static_cast<std::size_t>(options.num_backends), 0);
  status("LB LISTENING tcp=" + std::to_string(tcp_port_) +
         " udp=" + std::to_string(udp_port_));
}

void Dispatcher::status(const std::string& line) {
  if (options_.status_out == nullptr) return;
  *options_.status_out << line << std::endl;
}

void Dispatcher::run(const std::atomic<bool>* stop_flag) {
  loop_serial_.assert_held();
  stats_.started_at = loop_.now();
  loop_.watch(listen_fd_.get(), /*want_read=*/true, /*want_write=*/false,
              [this](std::uint32_t) {
                loop_serial_.assert_held();
                accept_clients();
              });
  loop_.watch(udp_fd_.get(), /*want_read=*/true, /*want_write=*/false,
              [this](std::uint32_t) {
                loop_serial_.assert_held();
                on_udp_readable();
              });
  if (options_.duration > 0.0) {
    loop_.add_timer(options_.duration, [this] { loop_.stop(); });
  }
  if (membership_ != nullptr) {
    loop_.add_timer(health_tick_period_, [this] {
      loop_serial_.assert_held();
      health_tick();
    });
  }
  loop_.run(stop_flag);
  stats_.stopped_at = loop_.now();
  if (membership_ != nullptr) {
    stats_.backend_evictions = membership_->evictions();
    stats_.backend_rejoins = membership_->rejoins();
    stats_.degraded_entries = membership_->degraded_entries();
  }
}

// --- health subsystem ------------------------------------------------------

void Dispatcher::health_tick() {
  const double now = loop_.now();
  membership_->advance(now);
  for (int i = 0; i < options_.num_backends; ++i) {
    if (membership_->state(i) != health::MemberState::kDead) continue;
    BackendConn& backend = backends_[static_cast<std::size_t>(i)];
    if (backend.registered) {
      // Evicted while the TCP connection still looked healthy (its reports
      // stopped): tear the connection down so its in-flight jobs take the
      // re-dispatch path, and stop offering it jobs.
      status("LB EVICT " + std::to_string(i));
      drop_backend(i);
    } else if (backend.endpoint.port != 0 && membership_->probe_due(i, now)) {
      probe_backend(i);
    }
  }
  if (membership_->degraded() != was_degraded_) {
    was_degraded_ = membership_->degraded();
    status(std::string(was_degraded_ ? "LB DEGRADED" : "LB RECOVERED") +
           " coverage=" + std::to_string(membership_->coverage()));
  }
  loop_.add_timer(health_tick_period_, [this] {
      loop_serial_.assert_held();
      health_tick();
    });
}

void Dispatcher::probe_backend(int index) {
  membership_->note_probe(index, loop_.now());
  BackendConn& backend = backends_[static_cast<std::size_t>(index)];
  Fd probe;
  try {
    probe = tcp_connect(backend.endpoint);
  } catch (const std::exception&) {
    return;  // immediate refusal counts as a failed probe; backoff doubled
  }
  const int fd = probe.get();
  probes_[fd] = ProbeConn{index, std::move(probe)};
  loop_.watch(fd, /*want_read=*/false, /*want_write=*/true,
              [this, fd](std::uint32_t events) {
                loop_serial_.assert_held();
                on_probe_event(fd, events);
              });
  status("LB PROBE " + std::to_string(index));
}

void Dispatcher::on_probe_event(int fd, std::uint32_t events) {
  const auto it = probes_.find(fd);
  if (it == probes_.end()) return;
  const int index = it->second.index;
  loop_.forget(fd);
  if ((events & EventLoop::kError) == 0) {
    // The connect completed: the backend's data port accepts again. That is
    // liveness evidence (dead -> probation); full re-registration still
    // arrives with its next HELLO, which carries the current data port.
    membership_->note_report(index, loop_.now());
    status("LB PROBE-OK " + std::to_string(index));
  }
  probes_.erase(it);  // closes the probe socket either way
}

void Dispatcher::build_live_mask() {
  const auto candidates = membership_->candidates();
  live_mask_.assign(static_cast<std::size_t>(options_.num_backends), 0);
  for (int i = 0; i < options_.num_backends; ++i) {
    const auto s = static_cast<std::size_t>(i);
    live_mask_[s] = (candidates[s] != 0 && backends_[s].registered) ? 1 : 0;
  }
}

// --- control plane (UDP) ---------------------------------------------------

void Dispatcher::on_udp_readable() {
  char buffer[2048];
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const ssize_t n =
        recvfrom(udp_fd_.get(), buffer, sizeof(buffer) - 1, 0,
                 reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    std::string payload(buffer, static_cast<std::size_t>(n));
    while (!payload.empty() &&
           (payload.back() == '\n' || payload.back() == '\r')) {
      payload.pop_back();
    }
    char host[32] = "127.0.0.1";
    inet_ntop(AF_INET, &from.sin_addr, host, sizeof(host));
    handle_datagram(payload, host);
  }
}

void Dispatcher::handle_datagram(const std::string& payload,
                                 const std::string& from) {
  if (const auto hello = parse_hello(payload)) {
    ++stats_.hellos_received;
    register_backend(*hello, from);
    return;
  }
  if (const auto load = parse_load(payload)) {
    ++stats_.reports_received;
    const double now = loop_.now();
    // Injected degradation of the report path — the live analogue of
    // loadinfo's RefreshFaults.
    if (options_.faults.update_loss > 0.0 &&
        fault_rng_.next_double() < options_.faults.update_loss) {
      ++stats_.reports_dropped;
      if (options_.trace != nullptr) {
        options_.trace->on_refresh_fault(
            now, obs::FaultTraceEvent::kRefreshLost, load->index);
      }
      return;
    }
    if (options_.faults.update_extra_delay > 0.0) {
      ++stats_.reports_delayed;
      if (options_.trace != nullptr) {
        options_.trace->on_refresh_fault(
            now, obs::FaultTraceEvent::kRefreshDelayed, load->index);
      }
      const double delay = sim::Exponential(options_.faults.update_extra_delay)
                               .sample(fault_rng_);
      const LoadMsg delayed = *load;
      loop_.add_timer(delay, [this, delayed] {
        loop_serial_.assert_held();
        apply_report(delayed);
      });
      return;
    }
    apply_report(*load);
  }
  // Unknown datagrams are dropped silently, like the network would.
}

void Dispatcher::apply_report(const LoadMsg& msg) {
  const double now = loop_.now();
  if (membership_ != nullptr && msg.index >= 0 &&
      msg.index < options_.num_backends) {
    // Liveness follows the report's visibility: an injected-lost report never
    // reaches this point (the network ate it), a delayed one lands here at
    // its delivery time — the health layer sees exactly what the board sees.
    membership_->note_report(msg.index, now);
  }
  board_.apply_report(msg.index, msg.queue_len, now);
  if (options_.record != nullptr) {
    options_.record->note_load(now, msg.index, msg.queue_len);
  }
  if (options_.trace != nullptr) {
    options_.trace->on_board_refresh(now, now, board_.version(),
                                     board_.loads());
  }
}

void Dispatcher::register_backend(const HelloMsg& hello,
                                  const std::string& from_host) {
  if (hello.index < 0 || hello.index >= options_.num_backends) return;
  BackendConn& backend = backends_[static_cast<std::size_t>(hello.index)];
  if (membership_ != nullptr) {
    // A HELLO is a liveness heartbeat; for a dead backend it opens probation.
    membership_->note_report(hello.index, loop_.now());
  }
  if (backend.registered) {
    if (backend.endpoint.host == from_host &&
        backend.endpoint.port == hello.tcp_port) {
      return;  // duplicate HELLO heartbeat
    }
    // Same index, new data endpoint: the backend restarted. Replace the
    // stale connection without declaring it dead — the HELLO above already
    // vouched for it; its in-flight jobs take the re-dispatch path.
    drop_backend(hello.index, /*observed_failure=*/false);
  }
  backend.endpoint = Endpoint{from_host, hello.tcp_port};
  backend.fd = tcp_connect(backend.endpoint);
  backend.in = LineBuffer();
  backend.out = WriteBuffer();
  backend.registered = true;
  ++registered_;
  const int index = hello.index;
  loop_.watch(backend.fd.get(), /*want_read=*/true, /*want_write=*/false,
              [this, index](std::uint32_t events) {
                loop_serial_.assert_held();
                if (events & EventLoop::kError) {
                  drop_backend(index);
                  return;
                }
                if (events & EventLoop::kWritable) {
                  BackendConn& b = backends_[static_cast<std::size_t>(index)];
                  flush_conn(b.fd.get(), &b.out, /*want_read=*/true);
                }
                if (events & EventLoop::kReadable) on_backend_readable(index);
              });
  status("LB BACKEND " + std::to_string(index) + " " +
         backend.endpoint.to_string());
  if (registered_ == options_.num_backends) {
    status("LB READY backends=" + std::to_string(registered_));
  }
}

// --- client data plane -----------------------------------------------------

void Dispatcher::accept_clients() {
  for (;;) {
    Fd conn = tcp_accept(listen_fd_.get());
    if (!conn.valid()) return;
    const int fd = conn.get();
    ClientConn& client = clients_[fd];
    client.fd = std::move(conn);
    loop_.watch(fd, /*want_read=*/true, /*want_write=*/false,
                [this, fd](std::uint32_t events) {
                  loop_serial_.assert_held();
                  if (events & EventLoop::kError) {
                    drop_client(fd);
                    return;
                  }
                  if (events & EventLoop::kWritable) {
                    const auto it = clients_.find(fd);
                    if (it != clients_.end()) {
                      flush_conn(fd, &it->second.out, /*want_read=*/true);
                    }
                  }
                  if (events & EventLoop::kReadable) on_client_readable(fd);
                });
  }
}

void Dispatcher::on_client_readable(int fd) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  char buffer[4096];
  for (;;) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      it->second.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    drop_client(fd);  // orderly close or hard error
    return;
  }
  if (it->second.in.poisoned()) {
    drop_client(fd);
    return;
  }
  std::string line;
  while (clients_.count(fd) != 0 && it->second.in.next_line(&line)) {
    handle_client_line(fd, line);
  }
}

void Dispatcher::handle_client_line(int fd, const std::string& line) {
  const auto job = parse_job(line);
  if (!job) return;  // garbage line; ignore
  ++stats_.jobs_received;
  dispatch_job(fd, job->id);
}

void Dispatcher::dispatch_job(int client_fd, std::uint64_t client_id) {
  rate_->on_arrival(loop_.now());  // one arrival, however many re-sends
  dispatch_attempt(client_fd, client_id, /*attempts=*/0, /*avoid=*/-1);
}

void Dispatcher::dispatch_attempt(int client_fd, std::uint64_t client_id,
                                  int attempts, int avoid) {
  if (registered_ == 0) {
    ++stats_.jobs_rejected;
    send_to_client(client_fd, format_client_err(client_id, "no-backends"));
    return;
  }
  const double now = loop_.now();

  policy::DispatchContext context;
  context.loads = board_.loads();
  context.age = options_.schedule == UpdateSchedule::kPeriodic
                    ? board_.phase_elapsed(now)
                    : board_.age(now);
  context.lambda_total = rate_->rate();
  context.phase_length = board_.phase_length();
  context.phase_elapsed = board_.phase_elapsed(now);
  context.info_version = board_.version();
  context.trace = options_.trace;

  bool degraded = false;
  if (membership_ != nullptr) {
    membership_->advance(now);
    build_live_mask();
    context.alive = live_mask_;
    // Fold membership changes into the cache version so cached probability
    // vectors are rebuilt whenever the candidate picture moves.
    context.info_version ^= membership_->transition_count() << 32;
    degraded = membership_->degraded();
  }

  policy::SelectionPolicy& chooser =
      degraded ? *fallback_policy_ : *policy_;
  int backend = chooser.select(context, rng_);

  const auto usable = [&](int b) {
    loop_serial_.assert_held();
    return b >= 0 && b < options_.num_backends && b != avoid &&
           backends_[static_cast<std::size_t>(b)].registered;
  };
  if (!usable(backend)) {
    // Policy picked an unregistered/invalid backend (possible briefly after
    // a backend connection dies) or the one this job just failed on: fall
    // back to a registered candidate, then any registered backend, then —
    // with nowhere else to go — the avoided one.
    backend = -1;
    for (int pass = 0; pass < 2 && backend < 0; ++pass) {
      for (int i = 0; i < options_.num_backends; ++i) {
        const auto s = static_cast<std::size_t>(i);
        if (!usable(i)) continue;
        if (pass == 0 && membership_ != nullptr && live_mask_[s] == 0) {
          continue;
        }
        backend = i;
        break;
      }
    }
    if (backend < 0 && avoid >= 0 &&
        backends_[static_cast<std::size_t>(avoid)].registered) {
      backend = avoid;
    }
    if (backend < 0) {
      ++stats_.jobs_rejected;
      send_to_client(client_fd, format_client_err(client_id, "no-backends"));
      return;
    }
  }

  const std::uint64_t gid = next_gid_++;
  if (options_.record != nullptr && attempts == 0) {
    // Re-dispatches keep the arrival pinned to the original gid; the retry's
    // gid never completes in the recorder and is dropped at write time.
    options_.record->note_arrival(gid, now);
  }
  InFlightJob job{client_fd, client_id, backend, attempts, 0};
  if (options_.dispatch_timeout > 0.0) {
    job.timeout_timer = loop_.add_timer(
        options_.dispatch_timeout, [this, gid] {
          loop_serial_.assert_held();
          on_job_timeout(gid);
        });
  }
  jobs_[gid] = job;
  ++outstanding_[static_cast<std::size_t>(backend)];
  ++stats_.jobs_dispatched;
  if (attempts > 0) ++stats_.jobs_redispatched;
  ++stats_.per_backend_dispatched[static_cast<std::size_t>(backend)];
  board_.note_dispatch(backend, now);
  send_to_backend(backend, format_job(JobMsg{gid}));

  if (options_.trace != nullptr) {
    options_.trace->on_decision(now, backend, context.age);
    // Job sizes are drawn backend-side, so the dispatch event carries size 0
    // and no departure prediction; queue_len_after is the LB's in-flight
    // count, its live proxy for the backend queue.
    options_.trace->on_dispatch(
        now, backend, /*job_size=*/0.0,
        outstanding_[static_cast<std::size_t>(backend)], /*departure=*/0.0);
  }
}

void Dispatcher::on_job_timeout(std::uint64_t gid) {
  const auto it = jobs_.find(gid);
  if (it == jobs_.end()) return;  // completed while the timer was in flight
  const InFlightJob job = it->second;
  jobs_.erase(it);
  ++stats_.dispatch_timeouts;
  if (outstanding_[static_cast<std::size_t>(job.backend)] > 0) {
    --outstanding_[static_cast<std::size_t>(job.backend)];
  }
  // A straggler DONE for this gid later is ignored by handle_backend_line
  // (unknown id), so a slow-but-alive backend costs a duplicate execution,
  // never a wrong reply.
  membership_->note_failure(job.backend, loop_.now());
  status("LB TIMEOUT backend=" + std::to_string(job.backend) +
         " gid=" + std::to_string(gid));
  if (job.attempts < options_.max_redispatch) {
    dispatch_attempt(job.client_fd, job.client_id, job.attempts + 1,
                     /*avoid=*/job.backend);
  } else {
    ++stats_.jobs_rejected;
    send_to_client(job.client_fd, format_client_err(job.client_id, "timeout"));
  }
}

// --- backend data plane ----------------------------------------------------

void Dispatcher::on_backend_readable(int index) {
  BackendConn& backend = backends_[static_cast<std::size_t>(index)];
  if (!backend.registered) return;
  char buffer[4096];
  for (;;) {
    const ssize_t n = recv(backend.fd.get(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      backend.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    drop_backend(index);
    return;
  }
  std::string line;
  while (backend.registered && backend.in.next_line(&line)) {
    handle_backend_line(index, line);
  }
}

void Dispatcher::handle_backend_line(int index, const std::string& line) {
  const auto done = parse_done(line);
  if (!done) return;
  const double now = loop_.now();
  if (membership_ != nullptr) {
    // A DONE is the strongest liveness signal there is: the backend just
    // served a job end to end.
    membership_->note_report(index, now);
  }
  const auto it = jobs_.find(done->id);
  if (it == jobs_.end()) return;  // duplicate/unknown/timed-out completion
  const InFlightJob job = it->second;
  jobs_.erase(it);
  if (job.timeout_timer != 0) loop_.cancel_timer(job.timeout_timer);
  if (outstanding_[static_cast<std::size_t>(index)] > 0) {
    --outstanding_[static_cast<std::size_t>(index)];
  }
  ++stats_.jobs_completed;
  if (options_.record != nullptr) {
    options_.record->note_done(done->id, now, done->service);
  }
  if (options_.trace != nullptr) {
    options_.trace->on_departure(now, index, done->queue_len);
  }
  if (options_.schedule == UpdateSchedule::kPiggyback) {
    // The update-on-access path: the DONE reply is the access that refreshes
    // the dispatcher's entry for this backend.
    board_.apply_report(index, done->queue_len, now);
    if (options_.trace != nullptr) {
      options_.trace->on_board_refresh(now, now, board_.version(),
                                       board_.loads());
    }
  }
  if (job.client_fd >= 0 && clients_.count(job.client_fd) != 0) {
    send_to_client(job.client_fd,
                   format_client_done(ClientDoneMsg{job.client_id, index}));
  }
}

// --- connection plumbing ---------------------------------------------------

void Dispatcher::send_to_client(int fd, const std::string& bytes) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  it->second.out.append(bytes);
  flush_conn(fd, &it->second.out, /*want_read=*/true);
}

void Dispatcher::send_to_backend(int index, const std::string& bytes) {
  BackendConn& backend = backends_[static_cast<std::size_t>(index)];
  if (!backend.registered) return;
  backend.out.append(bytes);
  flush_conn(backend.fd.get(), &backend.out, /*want_read=*/true);
}

void Dispatcher::flush_conn(int fd, WriteBuffer* out, bool want_read) {
  out->flush(fd);
  loop_.set_interest(fd, want_read, out->wants_write());
}

void Dispatcher::drop_client(int fd) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  loop_.forget(fd);
  clients_.erase(it);
  // In-flight jobs from this client still complete at their backend (the
  // queue is real); only the reply is undeliverable.
  for (auto& [gid, job] : jobs_) {
    if (job.client_fd == fd) job.client_fd = -1;
  }
}

void Dispatcher::drop_backend(int index, bool observed_failure) {
  BackendConn& backend = backends_[static_cast<std::size_t>(index)];
  if (!backend.registered) return;
  loop_.forget(backend.fd.get());
  backend.fd.reset();
  backend.registered = false;
  --registered_;
  outstanding_[static_cast<std::size_t>(index)] = 0;
  if (membership_ != nullptr && observed_failure) {
    membership_->note_failure(index, loop_.now());
  }
  // Collect the in-flight jobs first: re-dispatching mutates jobs_.
  std::vector<InFlightJob> orphans;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->second.backend == index) {
      if (it->second.timeout_timer != 0) {
        loop_.cancel_timer(it->second.timeout_timer);
      }
      orphans.push_back(it->second);
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  status("LB BACKEND-LOST " + std::to_string(index));
  for (const InFlightJob& job : orphans) {
    if (membership_ != nullptr && job.attempts < options_.max_redispatch &&
        registered_ > 0) {
      dispatch_attempt(job.client_fd, job.client_id, job.attempts + 1,
                       /*avoid=*/index);
      continue;
    }
    ++stats_.jobs_orphaned;
    if (job.client_fd >= 0) {
      send_to_client(job.client_fd,
                     format_client_err(job.client_id, "backend-died"));
    }
  }
}

}  // namespace stale::net
