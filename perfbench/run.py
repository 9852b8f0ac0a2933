#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --calibrate

Run from the root of a checkout. The first run configures and builds the
staleload libraries, staleload_lb and the benchmark's own programs into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild incrementally. Workloads, metrics and the traced run are described in
perfbench/README.md.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records the
host provenance, sample counts and output checks of the run. --calibrate
measures the reference values the output checks compare against and rewrites
perfbench/reference.json.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

SIM_WORKLOADS = ("sim_periodic_n100", "sim_individual_n1000", "sim_scale_d4")
LIVE_WORKLOAD = "live_loopback"

# Simulated time is in units of the mean service time; the end-to-end
# response percentiles express it in ms at the live backends' mean service.
MEAN_SERVICE_MS = 10.0

# The live topology: staleload_lb with a periodic board (T = 0.1 s) in front
# of 16 backends with 10 ms mean exponential service, offered 0.5 of their
# capacity by one open-loop Poisson client. perfbench/README.md gives the
# measurements behind 16 backends and 0.5 load.
BACKENDS = 16
UPDATE_PERIOD_S = 0.1
MEAN_SERVICE_S = MEAN_SERVICE_MS / 1000.0
OFFERED_RATE = 0.5 * BACKENDS / MEAN_SERVICE_S
DRAIN_S = 2.0
LIVE_SETUPS = 5           # stack start-ups per run; setup_s is their median
MIN_ACHIEVED_SHARE = 0.95 # of the offered rate, or the run is not correct
REPLAY_PASSES = 20
# staleload_lb's CPU per job is taken per window of the send phase, so one
# noisy stretch of a shared host cannot set a run's figure (see
# benchlib.nine_in_ten_rate).
CPU_WINDOW_S = 0.5

CALIBRATION_SEED = 0xCA1B
CALIBRATION_SIM_TRIALS = 32
CALIBRATION_LIVE_RUNS = 12
# Live response times carry host scheduling noise that one calibration
# session understates: 12 back-to-back runs gave a 1.1% deviation of the mean
# response, while ten seeds at another hour spread 4.5% (IQR over median).
LIVE_MIN_REL_SD = 0.03


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; False on failure."""
    commands = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    commands.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                     "perfbench_sim", "perfbench_net", "staleload_lb"])
    # The compiler's temporary files stay inside the checkout too.
    tmpdir = os.path.abspath(os.path.join(bdir, "tmp"))
    os.makedirs(tmpdir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmpdir)
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(command))
            return False
    return True


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in output")


# ------------------------------------------------------------- simulator --

def run_sim_binary(bdir, workload, seed, seconds=None, trials=None, trace=False):
    command = [os.path.join(bdir, "perfbench_sim"), "--workload", workload,
               "--seed", str(seed), "--trace", "1" if trace else "0"]
    command += ["--trials", str(trials)] if trials else ["--seconds", str(seconds)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode:
        raise RuntimeError(f"perfbench_sim failed: {done.stderr.strip()}")
    return last_json_line(done.stdout)


def check_sim_trials(data, reference):
    """Failed-trial count and check notes for one sim run."""
    failed = 0
    notes = []
    expected = data["num_jobs"] - data["warmup_jobs"]
    for k, mean in enumerate(data["mean_response"]):
        problems = []
        if reference is None:
            problems.append("no reference")
        else:
            if not benchlib.within_reference(mean, reference["mean_response"]):
                problems.append(f"mean_response {mean}")
            stddev = data["queue_stddev"][k]
            if not benchlib.within_reference(stddev, reference["queue_stddev"]):
                problems.append(f"queue_stddev {stddev}")
        if data["measured_jobs"][k] != expected:
            problems.append(f"measured {data['measured_jobs'][k]} jobs")
        if benchlib.samples_beyond(expected, 0.99) < benchlib.MIN_SAMPLES_BEYOND:
            problems.append("too few samples for p99")
        if not 0 < data["p50_response"][k] <= data["p99_response"][k]:
            problems.append("percentiles out of order")
        if "identical" in data and not data["identical"][k]:
            problems.append("traced loop differs from run_trial")
        if problems:
            failed += 1
            notes.append(f"trial {k}: " + ", ".join(problems))
    return failed, notes


def sim_result(bdir, workload, seed, seconds, trace, reference):
    data = run_sim_binary(bdir, workload, seed, seconds=seconds, trace=trace)
    trials = len(data["wall_s"])
    failed, notes = check_sim_trials(data, reference)
    jobs = data["num_jobs"]
    info = {"trials": trials, "arrivals_per_trial": jobs,
            "response_samples_per_trial": jobs - data["warmup_jobs"]}
    if not trace:
        values = {
            "jobs_per_s":
                benchlib.nine_in_ten_rate(jobs / w for w in data["wall_s"]),
            "setup_s": benchlib.nine_in_ten_time(data["setup_s"]),
            "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
            "mean_response": statistics.fmean(data["mean_response"]),
            "response_p50_ms":
                statistics.median(data["p50_response"]) * MEAN_SERVICE_MS,
            "response_p99_ms":
                statistics.median(data["p99_response"]) * MEAN_SERVICE_MS,
            "lb_jobs_per_cpu_s":
                benchlib.nine_in_ten_rate(jobs / c for c in data["cpu_s"]),
        }
        info["setup_repeats"] = len(data["setup_s"])
        return values, trials, failed, notes, info

    spans = data["spans_ns"]
    arrivals = data["arrivals"]
    values = {
        "workload.draw_ns": spans["draw"] / arrivals,
        "loadinfo.sync_ns": spans["sync"] / arrivals,
        "loadinfo.context_ns": spans["context"] / arrivals,
        "loadinfo.versions_per_karrival": 1000.0 * data["versions"] / arrivals,
        "dispatch.split_ns": spans["split"] / arrivals,
        "policy.select_ns": spans["select"] / arrivals,
        "queueing.advance_ns": spans["advance"] / arrivals,
        "queueing.assign_ns": spans["assign"] / arrivals,
        "queueing.imbalance_ns": spans["imbalance"] / arrivals,
        "queueing.metrics_ns": spans["metrics"] / arrivals,
        "driver.loop_ns": spans["loop"] / arrivals,
        "trace.overhead_pct":
            100.0 * (sum(data["traced_wall_s"]) / sum(data["wall_s"]) - 1.0),
    }
    info["traced_setup_ns_per_trial"] = spans["setup"] / trials
    return values, trials, failed, notes, info


# ------------------------------------------------------------------ live --

class Child:
    """A started process whose stdout is read line by line with timeouts."""

    running = []

    def __init__(self, command):
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=sys.stderr, stdin=subprocess.DEVNULL)
        Child.running.append(self)
        self.pending = b""
        self.lines = []

    def wait_line(self, prefix, timeout=10.0):
        deadline = time.monotonic() + timeout
        while True:
            for k, line in enumerate(self.lines):
                if line.startswith(prefix):
                    del self.lines[:k + 1]
                    return line
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None and not self._read(0):
                raise RuntimeError(f"no '{prefix}' line from {self.proc.args[0]}")
            self._read(remaining)

    def _read(self, timeout):
        fd = self.proc.stdout.fileno()
        if not select.select([fd], [], [], timeout)[0]:
            return False
        chunk = os.read(fd, 65536)
        if not chunk:
            return False
        self.pending += chunk
        *complete, self.pending = self.pending.split(b"\n")
        self.lines += [line.decode() for line in complete]
        return True

    def cpu_ns(self):
        with open(f"/proc/{self.proc.pid}/schedstat") as handle:
            return int(handle.read().split()[0])

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM")

    def stop(self, timeout=10.0):
        """SIGTERM, wait, and return everything it printed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        rest, _ = self.proc.communicate(timeout=timeout)
        Child.running.remove(self)
        text = "\n".join(self.lines) + "\n" + (self.pending + rest).decode()
        if self.proc.returncode:
            raise RuntimeError(f"{self.proc.args[0]} exited {self.proc.returncode}")
        return text

    @classmethod
    def kill_all(cls):
        for child in list(cls.running):
            if child.proc.poll() is None:
                child.proc.kill()
            child.proc.wait()
        cls.running.clear()


class Stack:
    """staleload_lb plus BACKENDS backend hosts, started and registered.

    The seed sets the lb's RNG; the client's schedule takes its own. Each
    backend's service-time stream is fixed by its index, so the k-th job a
    backend serves needs the same work in every run: runs differ in when jobs
    arrive and where they are sent, not in how much work they carry. Over ten
    seeds this halved the run-to-run spread of response_p99_ms (12.9% to 5.5%
    of the median, 10 s runs).
    """

    def __init__(self, bdir, seed, record_dir=None):
        started = time.monotonic()
        command = [os.path.join(bdir, "staleload_lb"),
                   "--backends", str(BACKENDS), "--policy", "basic_li",
                   "--schedule", "periodic",
                   "--update-period", str(UPDATE_PERIOD_S), "--seed", str(seed)]
        if record_dir:
            command += ["--record", record_dir]
        self.lb = Child(command)
        fields = dict(part.split("=") for part in
                      self.lb.wait_line("LB LISTENING").split()[2:])
        self.tcp_port = int(fields["tcp"])
        self.backends = [
            Child([os.path.join(bdir, "perfbench_net"), "backend",
                   "--index", str(i), "--report-to", f"127.0.0.1:{fields['udp']}",
                   "--update-period", str(UPDATE_PERIOD_S),
                   "--mean-service", str(MEAN_SERVICE_S),
                   "--seed", str(i + 1)])
            for i in range(BACKENDS)]
        self.lb.wait_line("LB READY")
        for backend in self.backends:
            backend.wait_line("BACKEND CONNECTED")
        self.setup_s = time.monotonic() - started

    def backend_cpu_ns(self):
        return sum(backend.cpu_ns() for backend in self.backends)

    def stop(self):
        """Stops backends first, so the lb has received every report they
        sent, then the lb. Returns (lb stats, backend stats list)."""
        backend_stats = [last_json_line(b.stop()) for b in self.backends]
        time.sleep(0.05)
        lb_stats = last_json_line(self.lb.stop())["result"]
        return lb_stats, backend_stats


def read_jobs(path):
    jobs = []
    with open(path) as handle:
        for line in handle:
            job_id, intended, sent, reply, status = line.split()
            jobs.append((int(job_id), int(intended), int(sent), int(reply), status))
    return jobs


def drive(bdir, stack, seed, seconds):
    """Runs the open-loop client against `stack`; returns measurements."""
    jobs_path = os.path.join(bdir, "live-jobs.txt")
    backend_cpu0 = stack.backend_cpu_ns()
    gen = subprocess.run(
        [os.path.join(bdir, "perfbench_net"), "gen",
         "--target", f"127.0.0.1:{stack.tcp_port}", "--rate", str(OFFERED_RATE),
         "--seconds", str(seconds), "--drain", str(DRAIN_S),
         "--seed", str(seed), "--out", jobs_path,
         "--watch-pid", str(stack.lb.proc.pid), "--window", str(CPU_WINDOW_S)],
        capture_output=True, text=True, timeout=seconds + DRAIN_S + 30)
    if gen.returncode:
        raise RuntimeError(f"client failed: {gen.stderr.strip()}")
    backend_cpu = stack.backend_cpu_ns() - backend_cpu0
    peak_rss_kb = stack.lb.peak_rss_kb()
    lb, backends = stack.stop()
    jobs = read_jobs(jobs_path)
    done = [job for job in jobs if job[4] == "D"]
    errors = sum(1 for job in jobs if job[4] == "E")
    lost = sum(1 for job in jobs if job[4] == "L")
    last_reply_s = max((job[3] for job in done), default=0) / 1e9
    summary = last_json_line(gen.stdout)
    lb_rates = [(sent + replies) / 2 / (cpu_ns / 1e9)
                for cpu_ns, sent, replies in summary["windows"] if cpu_ns > 0]
    return {
        "jobs": jobs, "done": done, "errors": errors, "lost": lost,
        "summary": summary, "lb": lb, "backends": backends,
        "lb_jobs_per_cpu_s": benchlib.nine_in_ten_rate(lb_rates),
        "cpu_windows": len(lb_rates), "backend_cpu_s": backend_cpu / 1e9,
        "peak_rss_kb": peak_rss_kb,
        "offered": len(jobs) / seconds,
        "achieved": len(done) / last_reply_s if last_reply_s > 0 else 0.0,
        "responses_s": [(job[3] - job[1]) / 1e9 for job in done],
    }


def check_live(run, reference):
    """Failed-job count and check notes for one driven stack."""
    notes = []
    lb = run["lb"]
    failed = run["errors"] + run["lost"]
    if run["summary"]["conn_lost"]:
        notes.append("client connection lost")
    if lb["jobs_rejected"] != run["errors"]:
        notes.append(f"lb rejected {lb['jobs_rejected']}, client saw "
                     f"{run['errors']} ERR")
    if lb["jobs_orphaned"] != 0:
        notes.append(f"lb orphaned {lb['jobs_orphaned']} jobs")
    if lb["jobs_received"] != run["summary"]["sent"]:
        notes.append(f"lb received {lb['jobs_received']} of "
                     f"{run['summary']['sent']} sent")
    if lb["jobs_completed"] != len(run["done"]):
        notes.append(f"lb completed {lb['jobs_completed']}, client saw "
                     f"{len(run['done'])} DONE")
    if run["achieved"] < MIN_ACHIEVED_SHARE * run["offered"]:
        notes.append(f"achieved {run['achieved']:.1f}/s below "
                     f"{MIN_ACHIEVED_SHARE:.0%} of offered {run['offered']:.1f}/s")
    if reference is None:
        notes.append("no reference")
    elif run["responses_s"] and not benchlib.within_reference(
            statistics.fmean(run["responses_s"]) / MEAN_SERVICE_S,
            reference["mean_response"]):
        notes.append("mean_response outside the reference tolerance")
    if failed:
        notes.append(f"{failed} jobs failed")
    return failed, notes


def recorded_services(record_dir):
    services = []
    with open(os.path.join(record_dir, "arrivals.trace")) as handle:
        for line in handle:
            fields = line.split()
            if len(fields) == 2 and not line.startswith("#"):
                services.append(float(fields[1]))
    return services


def live_result(bdir, seed, seconds, trace, reference):
    if not trace:
        setups = []
        for _ in range(LIVE_SETUPS - 1):
            stack = Stack(bdir, seed)
            setups.append(stack.setup_s)
            stack.stop()
        stack = Stack(bdir, seed)
        setups.append(stack.setup_s)
        run = drive(bdir, stack, seed, seconds)
        failed, notes = check_live(run, reference)
        responses = run["responses_s"]
        values = {
            "jobs_per_s": run["achieved"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
            "mean_response": statistics.fmean(responses) / MEAN_SERVICE_S,
            "response_p50_ms": 1e3 * benchlib.tail_percentile(responses, 0.50),
            "response_p99_ms": 1e3 * benchlib.tail_percentile(responses, 0.99),
            "lb_jobs_per_cpu_s": run["lb_jobs_per_cpu_s"],
        }
        info = {"response_samples": len(responses), "setup_repeats": len(setups),
                "lb_cpu_windows": run["cpu_windows"],
                "offered_per_s": run["offered"], "achieved_per_s": run["achieved"]}
        return values, len(run["jobs"]), failed, notes, info

    # Traced: half the time untraced, half with --record, whose recording is
    # then replayed through the dispatcher's layer calls.
    half = seconds / 2.0
    plain = drive(bdir, Stack(bdir, seed), seed, half)
    record_dir = os.path.join(bdir, "live-record")
    shutil.rmtree(record_dir, ignore_errors=True)
    recorded = drive(bdir, Stack(bdir, seed, record_dir), seed + 1, half)
    failed = 0
    notes = []
    for run in (plain, recorded):
        run_failed, run_notes = check_live(run, reference)
        failed += run_failed
        notes += run_notes

    services = recorded_services(record_dir)
    if len(services) != len(recorded["done"]) or recorded["errors"] \
            or recorded["lost"]:
        raise RuntimeError("recording does not match the client's jobs")
    waits = [r - s for r, s in zip(recorded["responses_s"], services)]
    replay = subprocess.run(
        [os.path.join(bdir, "perfbench_net"), "replay", "--dir", record_dir,
         "--backends", str(BACKENDS), "--update-period", str(UPDATE_PERIOD_S),
         "--policy", "basic_li", "--seed", str(seed),
         "--passes", str(REPLAY_PASSES)],
        capture_output=True, text=True, timeout=120)
    if replay.returncode:
        raise RuntimeError(f"replay failed: {replay.stderr.strip()}")
    replayed = last_json_line(replay.stdout)
    shutil.rmtree(record_dir, ignore_errors=True)

    jobs = plain["lb"]["jobs_dispatched"]
    reports_sent = sum(b["reports_sent"] for b in plain["backends"])
    lateness = [(job[2] - job[1]) / 1e3 for job in plain["jobs"]]
    values = {
        "trace.overhead_pct": 100.0 * (plain["lb_jobs_per_cpu_s"]
                                       / recorded["lb_jobs_per_cpu_s"] - 1.0),
        "net.lb_cpu_us_per_job": 1e6 / plain["lb_jobs_per_cpu_s"],
        "net.backend_cpu_us_per_job": 1e6 * plain["backend_cpu_s"] / jobs,
        "net.reports_per_s":
            plain["lb"]["reports_received"] / plain["lb"]["elapsed"],
        "net.report_loss": 1.0 - plain["lb"]["reports_received"] / reports_sent,
        "net.dispatch_share_tv":
            benchlib.tv_distance(plain["lb"]["per_backend_dispatched"]),
        "net.queue_wait_p50_ms": 1e3 * benchlib.tail_percentile(waits, 0.50),
        "net.report_ingest_ns": replayed["ingest_ns"],
        "net.decision_ns": replayed["decision_ns"],
        "net.forward_ns": replayed["forward_ns"],
        "net.relay_ns": replayed["relay_ns"],
        "loadgen.late_p99_us": benchlib.tail_percentile(lateness, 0.99),
        "loadgen.offered_per_s": plain["offered"],
        "loadgen.achieved_per_s": plain["achieved"],
    }
    info = {"jobs": [len(plain["jobs"]), len(recorded["jobs"])],
            "replayed_loads": replayed["loads"],
            "replayed_arrivals": replayed["arrivals"]}
    return values, len(plain["jobs"]) + len(recorded["jobs"]), failed, notes, info


# ------------------------------------------------------------------ main --

def load_benchmark():
    return benchlib.load_json(os.path.join(ROOT, "BENCHMARK.json"))


def load_reference(workload):
    try:
        return benchlib.load_json(REFERENCE)["workloads"].get(workload)
    except (OSError, ValueError, KeyError):
        return None


def calibrate(bdir):
    """Measures the reference statistics the output checks compare against."""
    workloads = {}
    for workload in SIM_WORKLOADS:
        log(f"calibrating {workload}: {CALIBRATION_SIM_TRIALS} trials")
        data = run_sim_binary(bdir, workload, CALIBRATION_SEED,
                              trials=CALIBRATION_SIM_TRIALS)
        workloads[workload] = {
            "mean_response": benchlib.summarize_reference(data["mean_response"]),
            "queue_stddev": benchlib.summarize_reference(data["queue_stddev"]),
        }
    seconds = load_benchmark()["run_seconds"]
    means = []
    for k in range(CALIBRATION_LIVE_RUNS):
        log(f"calibrating {LIVE_WORKLOAD}: run {k + 1}/{CALIBRATION_LIVE_RUNS}")
        run = drive(bdir, Stack(bdir, CALIBRATION_SEED + k),
                    CALIBRATION_SEED + k, seconds)
        means.append(statistics.fmean(run["responses_s"]) / MEAN_SERVICE_S)
    workloads[LIVE_WORKLOAD] = {
        "mean_response": benchlib.summarize_reference(means, LIVE_MIN_REL_SD)}
    reference = {
        "calibration_seed": CALIBRATION_SEED,
        "sim_trials": CALIBRATION_SIM_TRIALS,
        "live_runs": CALIBRATION_LIVE_RUNS,
        "live_seconds": seconds,
        "tolerance_sd": benchlib.TOLERANCE_SD,
        "host": benchlib.host_provenance(bdir),
        "workloads": workloads,
    }
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=2)
        handle.write("\n")
    log(f"wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()

    benchmark = load_benchmark()
    benchlib.validate_benchmark(benchmark)
    names = [w["name"] for w in benchmark["workloads"]]
    if not args.calibrate:
        if args.workload not in names:
            parser.error(f"--workload must be one of {', '.join(names)}")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
    seconds = args.seconds or benchmark["run_seconds"]

    bdir = build_dir()
    if not build(bdir):
        return 1
    try:
        if args.calibrate:
            calibrate(bdir)
            return 0
        reference = load_reference(args.workload)
        if args.workload == LIVE_WORKLOAD:
            values, attempted, failed, notes, info = live_result(
                bdir, args.seed, seconds, args.trace == 1, reference)
        else:
            values, attempted, failed, notes, info = sim_result(
                bdir, args.workload, args.seed, seconds, args.trace == 1,
                reference)
    finally:
        Child.kill_all()

    trace = args.trace == 1
    if trace:
        # A layer the workload does not run reads 0.
        values = {name: 0.0 for name in benchlib.metric_specs(benchmark, True)} \
            | values
    result = benchlib.make_result(benchmark, trace, values, attempted, failed,
                                  correct=not notes and failed == 0)
    benchlib.validate_result(result, benchmark, trace)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": seconds, "trace": args.trace,
                      "provenance": benchlib.host_provenance(bdir),
                      "samples": info, "checks": notes or ["all passed"]}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
