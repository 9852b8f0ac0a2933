// perfbench_net: the live half of the repository benchmark.
//
//   perfbench_net gen --target HOST:PORT --rate R --seconds S --drain D
//                     --seed N --out FILE --watch-pid PID --window W
//       Single-threaded, single-connection open-loop Poisson client. Sends
//       `JOB <id>` lines on the absolute schedule of schedule.h, reads
//       `DONE`/`ERR` replies, and writes one line per job to FILE:
//       "<id> <intended_ns> <sent_ns> <reply_ns> <D|E|L>" (times from the
//       start of the run; reply -1 and status L when no reply came before the
//       drain ended). Every W seconds of the send window it also reads PID's
//       on-CPU ns from /proc/PID/schedstat, so the dispatcher's CPU per job
//       can be taken per window. Prints a JSON summary line with the windows
//       as [cpu_ns, jobs sent, replies].
//
//   perfbench_net backend --index I --report-to HOST:PORT --update-period T
//                         --mean-service S --seed N
//       Runs one net::Backend, the class behind staleload_backend, with the
//       same options, and on SIGTERM prints its BackendStats as JSON.
//       staleload_backend's own exit line omits reports_sent, which the
//       benchmark needs for report loss.
//
//   perfbench_net replay --dir DIR --backends N --update-period T
//                        --policy SPEC --seed N --passes K
//       Replays a `staleload_lb --record DIR` recording through the live
//       dispatcher's layer calls, in recorded time order, timing each:
//         ingest    parse_load + NetBoard::apply_report      (per LOAD)
//         decision  rate estimate + context + policy select  (per arrival)
//         forward   format_job + NetBoard::note_dispatch     (per arrival)
//         relay     parse_done + format_client_done          (per arrival)
//       Prints the median over K passes of ns per event as JSON.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rate_estimator.h"
#include "net/backend.h"
#include "net/net_board.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "policy/policy.h"
#include "policy/policy_factory.h"
#include "schedule.h"
#include "sim/rng.h"
#include "workload/replay.h"

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench_net: " << error << "\n"
            << "usage: perfbench_net gen|backend|replay --flag value ...\n"
               "  (see the comment at the top of "
               "perfbench/src/net_bench.cpp)\n";
  std::exit(2);
}

// --flag value pairs after the mode word.
std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage("expected --flag value, got '" + flag + "'");
    }
    flags[flag.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) usage("--" + key + " is required");
  return it->second;
}

// ---------------------------------------------------------------- gen ----

// On-CPU ns of a process: the first field of /proc/PID/schedstat.
std::int64_t read_cpu_ns(const std::string& schedstat) {
  std::ifstream in(schedstat);
  std::int64_t ns = -1;
  if (!(in >> ns)) throw std::runtime_error("cannot read " + schedstat);
  return ns;
}

int run_gen(const std::map<std::string, std::string>& flags) {
  const stale::net::Endpoint target =
      stale::net::parse_endpoint(need(flags, "target"));
  const double rate = std::stod(need(flags, "rate"));
  const double seconds = std::stod(need(flags, "seconds"));
  const double drain = std::stod(need(flags, "drain"));
  const std::uint64_t seed = std::stoull(need(flags, "seed"));
  const std::string out_path = need(flags, "out");
  const std::string schedstat =
      "/proc/" + need(flags, "watch-pid") + "/schedstat";
  const auto window_ns =
      static_cast<std::int64_t>(std::stod(need(flags, "window")) * 1e9);
  if (window_ns <= 0) usage("--window must be > 0");

  const std::vector<double> intended =
      perfbench::poisson_schedule(rate, seconds, seed);
  const std::size_t jobs = intended.size();
  std::vector<std::int64_t> sent_ns(jobs, -1);
  std::vector<std::int64_t> reply_ns(jobs, -1);
  std::vector<char> status(jobs, 'L');

  stale::net::Fd fd = stale::net::tcp_connect(target);
  pollfd connecting{fd.get(), POLLOUT, 0};
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (poll(&connecting, 1, 5000) != 1 ||
      getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    throw std::runtime_error("cannot connect to " + target.to_string());
  }

  const Clock::time_point start = Clock::now();
  const auto elapsed_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
        .count();
  };
  const auto send_end_ns = static_cast<std::int64_t>(seconds * 1e9);
  const auto end_ns = static_cast<std::int64_t>((seconds + drain) * 1e9);

  std::string out;
  std::string in;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  // Whole windows of the send phase: watched process's CPU ns, sends and
  // replies. `sampling` turns off once the next window would pass its end.
  struct Window {
    std::int64_t cpu_ns = 0;
    std::size_t sent = 0;
    std::size_t replies = 0;
  };
  std::vector<Window> windows(1);
  std::int64_t window_end = window_ns;
  std::int64_t window_cpu = read_cpu_ns(schedstat);
  bool sampling = window_end <= send_end_ns;
  bool conn_lost = false;
  char buffer[65536];
  while (true) {
    const std::int64_t now = elapsed_ns();
    if (sampling && now >= window_end) {
      const std::int64_t cpu = read_cpu_ns(schedstat);
      windows.back().cpu_ns = cpu - window_cpu;
      window_cpu = cpu;
      window_end += window_ns;
      sampling = window_end <= send_end_ns;
      if (sampling) windows.emplace_back();
    }
    const std::size_t due = perfbench::due_until(intended, next, 1e-9 * now);
    for (; next < due; ++next) {
      out += "JOB " + std::to_string(next + 1) + "\n";
      sent_ns[next] = now;
      ++outstanding;
      if (sampling) ++windows.back().sent;
    }
    while (!out.empty()) {
      const ssize_t wrote = ::send(fd.get(), out.data(), out.size(),
                                   MSG_NOSIGNAL);
      if (wrote > 0) {
        out.erase(0, static_cast<std::size_t>(wrote));
      } else {
        if (wrote < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR) {
          conn_lost = true;
        }
        break;
      }
    }
    if (conn_lost) break;
    if (next == jobs && outstanding == 0) break;
    if (now >= end_ns) break;

    std::int64_t wake_ns =
        next < jobs ? static_cast<std::int64_t>(intended[next] * 1e9) : end_ns;
    if (sampling) wake_ns = std::min(wake_ns, window_end);
    const std::int64_t wait_ns = std::max<std::int64_t>(0, wake_ns - now);
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd watch{fd.get(),
                 static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    if (ppoll(&watch, 1, &timeout, nullptr) <= 0) continue;
    if ((watch.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    while (true) {
      const ssize_t got = ::recv(fd.get(), buffer, sizeof(buffer), 0);
      if (got > 0) {
        in.append(buffer, static_cast<std::size_t>(got));
        continue;
      }
      if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
        conn_lost = true;
      }
      break;
    }
    const std::int64_t read_at = elapsed_ns();
    std::size_t line_start = 0;
    for (std::size_t nl; (nl = in.find('\n', line_start)) != std::string::npos;
         line_start = nl + 1) {
      const std::string line = in.substr(line_start, nl - line_start);
      std::uint64_t id = 0;
      char kind = 0;
      if (const auto done = stale::net::parse_client_done(line)) {
        id = done->id;
        kind = 'D';
      } else if (line.rfind("ERR ", 0) == 0) {
        id = std::strtoull(line.c_str() + 4, nullptr, 10);
        kind = 'E';
      }
      if (id == 0 || id > jobs || status[id - 1] != 'L' ||
          sent_ns[id - 1] < 0) {
        continue;  // unknown or duplicate reply
      }
      status[id - 1] = kind;
      reply_ns[id - 1] = read_at;
      --outstanding;
      if (sampling) ++windows.back().replies;
    }
    in.erase(0, line_start);
    if (conn_lost) break;
  }

  std::ofstream file(out_path);
  if (!file) throw std::runtime_error("cannot write " + out_path);
  std::size_t done = 0, errors = 0, lost = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    file << i + 1 << ' ' << static_cast<std::int64_t>(intended[i] * 1e9) << ' '
         << sent_ns[i] << ' ' << reply_ns[i] << ' ' << status[i] << '\n';
    done += status[i] == 'D' ? 1 : 0;
    errors += status[i] == 'E' ? 1 : 0;
    lost += status[i] == 'L' ? 1 : 0;
  }
  file.close();
  if (!file) throw std::runtime_error("cannot write " + out_path);
  std::cout << "{\"scheduled\": " << jobs << ", \"sent\": " << next
            << ", \"done\": " << done << ", \"errors\": " << errors
            << ", \"lost\": " << lost
            << ", \"conn_lost\": " << (conn_lost ? "true" : "false")
            << ", \"windows\": [";
  if (sampling) windows.pop_back();  // still open when the run ended
  for (std::size_t i = 0; i < windows.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "[" << windows[i].cpu_ns << ", "
              << windows[i].sent << ", " << windows[i].replies << "]";
  }
  std::cout << "]}" << std::endl;
  return 0;
}

// ------------------------------------------------------------ backend ----

int run_backend(const std::map<std::string, std::string>& flags) {
  stale::net::BackendOptions options;
  options.index = std::stoi(need(flags, "index"));
  options.report_to = {stale::net::parse_endpoint(need(flags, "report-to"))};
  options.update_period = std::stod(need(flags, "update-period"));
  options.mean_service = std::stod(need(flags, "mean-service"));
  options.seed = std::stoull(need(flags, "seed"));
  options.status_out = &std::cout;
  install_signal_handlers();
  stale::net::Backend backend(options);
  backend.run(&g_stop);
  const stale::net::BackendStats& stats = backend.stats();
  std::cout << "{\"index\": " << options.index
            << ", \"jobs_accepted\": " << stats.jobs_accepted
            << ", \"jobs_served\": " << stats.jobs_served
            << ", \"reports_sent\": " << stats.reports_sent << "}"
            << std::endl;
  return 0;
}

// ------------------------------------------------------------- replay ----

struct Event {
  double time = 0.0;
  bool arrival = false;
  std::size_t index = 0;  // into loads or arrivals
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int run_replay(const std::map<std::string, std::string>& flags) {
  const std::string dir = need(flags, "dir");
  const int backends = std::stoi(need(flags, "backends"));
  const double period = std::stod(need(flags, "update-period"));
  const std::string policy_spec = need(flags, "policy");
  const std::uint64_t seed = std::stoull(need(flags, "seed"));
  const int passes = std::stoi(need(flags, "passes"));
  if (passes < 1) usage("--passes must be >= 1");

  const stale::workload::ReplayTrace trace =
      stale::workload::load_replay_trace(dir);
  if (trace.arrivals.empty() || trace.loads.empty()) {
    throw std::runtime_error("replay: recording has no arrivals or loads");
  }

  // The wire lines, formatted once outside the timed region.
  std::vector<std::string> load_lines;
  std::vector<std::string> done_lines;
  std::vector<Event> events;
  for (std::size_t i = 0; i < trace.loads.size(); ++i) {
    const stale::workload::LoadEvent& load = trace.loads[i];
    load_lines.push_back(stale::net::format_load(
        {load.server, load.queue_len, static_cast<std::uint64_t>(i + 1)}));
    events.push_back({load.time, false, i});
  }
  for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
    done_lines.push_back(stale::net::format_done(
        {static_cast<std::uint64_t>(i + 1), 0, trace.arrivals[i].size}));
    events.push_back({trace.arrivals[i].arrival, true, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.time < b.time;
                   });

  // The dispatcher's default windowed estimator (src/net/dispatcher.cpp).
  const double rate_window = 4.0 * std::max(period, 0.25);
  std::vector<double> ingest, decision, forward, relay;
  std::uint64_t checksum = 0;
  for (int pass = 0; pass < passes; ++pass) {
    stale::net::NetBoard board(backends, stale::net::UpdateSchedule::kPeriodic,
                               period, /*start_time=*/events.front().time);
    const auto policy = stale::policy::make_policy(policy_spec);
    stale::core::WindowedRateEstimator rate(rate_window, 1e-9);
    stale::sim::Rng rng(seed);
    std::int64_t ns[4] = {0, 0, 0, 0};
    Clock::time_point last = Clock::now();
    const auto lap = [&](std::int64_t* into) {
      const Clock::time_point now = Clock::now();
      if (into != nullptr) {
        *into += std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                      last)
                     .count();
      }
      last = now;
    };
    for (const Event& event : events) {
      lap(nullptr);
      if (!event.arrival) {
        const auto load = stale::net::parse_load(load_lines[event.index]);
        if (load) board.apply_report(load->index, load->queue_len, event.time);
        lap(&ns[0]);
        continue;
      }
      const double now = event.time;
      rate.on_arrival(now);
      stale::policy::DispatchContext context;
      context.loads = board.loads();
      context.age = board.phase_elapsed(now);
      context.lambda_total = rate.rate();
      context.phase_length = board.phase_length();
      context.phase_elapsed = board.phase_elapsed(now);
      context.info_version = board.version();
      const int backend = policy->select(context, rng);
      lap(&ns[1]);
      const std::string job =
          stale::net::format_job({static_cast<std::uint64_t>(event.index + 1)});
      board.note_dispatch(backend, now);
      lap(&ns[2]);
      const auto done = stale::net::parse_done(done_lines[event.index]);
      const std::string reply = stale::net::format_client_done(
          {done ? done->id : 0, backend});
      lap(&ns[3]);
      checksum += job.size() + reply.size() +
                  static_cast<std::uint64_t>(backend);
    }
    const auto loads = static_cast<double>(load_lines.size());
    const auto arrivals = static_cast<double>(done_lines.size());
    ingest.push_back(static_cast<double>(ns[0]) / loads);
    decision.push_back(static_cast<double>(ns[1]) / arrivals);
    forward.push_back(static_cast<double>(ns[2]) / arrivals);
    relay.push_back(static_cast<double>(ns[3]) / arrivals);
  }
  std::cout.precision(std::numeric_limits<double>::max_digits10);
  std::cout << "{\"loads\": " << load_lines.size()
            << ", \"arrivals\": " << done_lines.size()
            << ", \"ingest_ns\": " << median(ingest)
            << ", \"decision_ns\": " << median(decision)
            << ", \"forward_ns\": " << median(forward)
            << ", \"relay_ns\": " << median(relay)
            << ", \"checksum\": " << checksum << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) usage("missing mode");
    const std::string mode = argv[1];
    const auto flags = parse_flags(argc, argv);
    if (mode == "gen") return run_gen(flags);
    if (mode == "backend") return run_backend(flags);
    if (mode == "replay") return run_replay(flags);
    usage("unknown mode '" + mode + "'");
  } catch (const std::exception& error) {
    std::cerr << "perfbench_net: " << error.what() << "\n";
    return 1;
  }
}
