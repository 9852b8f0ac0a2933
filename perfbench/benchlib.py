"""Statistics, output checks and result schema shared by perfbench/run.py.

Kept free of process and build handling so perfbench/test_benchlib.py can
test it directly.
"""

import json
import math
import os
import platform
import re
import statistics

# Each end-to-end percentile is reported only when at least this many samples
# lie beyond it, so one outlier cannot set it.
MIN_SAMPLES_BEYOND = 10

# A statistic passes its output check when it lies within this many standard
# deviations of the reference mean. The reference mean and standard deviation
# are those of the per-trial (sim) or per-run (live) value over the
# calibration seeds in reference.json. Trials are independent, so under a
# normal approximation a correct program fails a check with probability
# below 2e-9; a policy or queueing bug moves these statistics by far more.
TOLERANCE_SD = 6.0


def samples_beyond(count, q):
    """Samples strictly above the nearest-rank q-quantile of `count` values."""
    if count <= 0:
        return 0
    rank = max(1, math.ceil(q * count))
    return count - rank


def tail_percentile(values, q):
    """Nearest-rank q-quantile of `values`.

    Raises ValueError when fewer than MIN_SAMPLES_BEYOND samples lie beyond
    it: the caller must report a lower percentile or measure more.
    """
    count = len(values)
    beyond = samples_beyond(count, q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {count} samples has only {beyond} beyond it "
            f"(need {MIN_SAMPLES_BEYOND})")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * count)) - 1]


def tv_distance(counts):
    """Total-variation distance of the shares in `counts` from uniform."""
    total = sum(counts)
    if total <= 0 or not counts:
        raise ValueError("tv_distance needs a positive total")
    uniform = 1.0 / len(counts)
    return 0.5 * sum(abs(c / total - uniform) for c in counts)


# On a shared host a run's speed moves between a contended level, which
# almost every stretch of a run reaches, and faster stretches that come and
# go with the neighbours' load. Timings are therefore reported at the level
# nine samples in ten reach: the 10th percentile of a rate, the 90th of a
# time. On a 4-vCPU host, 15 s stretches of sim_periodic_n100 trials spread
# 14.5% (interquartile range over median) by their median trial rate but
# 4.7% by their 10th percentile.
def nine_in_ten_rate(rates):
    """10th percentile of per-sample rates (higher is better)."""
    rates = list(rates)
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=10, method="inclusive")[0]


def nine_in_ten_time(times):
    """90th percentile of per-sample times (lower is better)."""
    times = list(times)
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread the benchmark is judged on."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def within_reference(value, reference):
    """True when `value` lies within TOLERANCE_SD reference deviations."""
    return abs(value - reference["mean"]) <= TOLERANCE_SD * reference["sd"]


def summarize_reference(values, min_rel_sd=0.0):
    """Mean and standard deviation of calibration values.

    The deviation is raised to at least `min_rel_sd` of the mean when one
    calibration session cannot show all of a statistic's variation.
    """
    mean = statistics.fmean(values)
    return {"mean": mean,
            "sd": max(statistics.stdev(values), min_rel_sd * abs(mean)),
            "n": len(values)}


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def metric_specs(benchmark, trace):
    """{name: unit} of the metrics a run with this trace flag must print."""
    section = benchmark["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def make_result(benchmark, trace, values, attempted, failed, correct):
    """The result object: every metric of the section, with its unit."""
    specs = metric_specs(benchmark, trace)
    missing = set(specs) - set(values)
    extra = set(values) - set(specs)
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {sorted(missing)}, "
                         f"unexpected {sorted(extra)}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in specs.items()},
    }


def validate_result(result, benchmark, trace):
    """Raises ValueError unless `result` is a well-formed result object."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} must be an integer")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("need attempted >= 1 and 0 <= failed <= attempted")
    specs = metric_specs(benchmark, trace)
    if set(result["metrics"]) != set(specs):
        raise ValueError("metric names differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or metric["unit"] != specs[name]:
            raise ValueError(f"metric {name}: {metric}")
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise ValueError(f"metric {name}: value {value!r}")


def validate_benchmark(benchmark):
    """Raises ValueError unless BENCHMARK.json follows the benchmark schema."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(benchmark) != keys:
        raise ValueError(f"BENCHMARK.json keys {sorted(benchmark)}")
    names = set()

    def fresh(name):
        if not NAME_RE.match(name) or name in names:
            raise ValueError(f"bad or repeated name {name!r}")
        names.add(name)

    if not 2 <= len(benchmark["workloads"]) <= 8:
        raise ValueError("need 2 to 8 workloads")
    for workload in benchmark["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 \
                or "\n" in workload["why"]:
            raise ValueError(f"workload {workload}")
        fresh(workload["name"])
    setup = None
    for metric in benchmark["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"}:
            raise ValueError(f"end_to_end metric {metric}")
        if not 0 < metric["bound"] <= 0.25:
            raise ValueError(f"bound of {metric['name']}")
        if metric["name"] == "setup_s":
            setup = metric
    if setup is None or setup["unit"] != "s" or setup["better"] != "lower":
        raise ValueError("setup_s must be an end-to-end metric in s, lower")
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        fresh(metric["name"])
        if not UNIT_RE.match(metric["unit"]) \
                or metric["better"] not in ("lower", "higher"):
            raise ValueError(f"metric {metric}")
    for metric in benchmark["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            raise ValueError(f"per_layer metric {metric}")
    if not isinstance(benchmark["run_seconds"], int) \
            or not 1 <= benchmark["run_seconds"] <= 60:
        raise ValueError("run_seconds must be a whole number from 1 to 60")


def host_provenance(build_dir):
    """Where a result came from, so results of different hosts never mix."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as handle:
            for line in handle:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        with open(os.path.join(build_dir, "compiler.txt")) as handle:
            compiler = handle.read().strip()
    except OSError:
        compiler = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "build_type": build_type,
        "compiler": compiler,
        "traffic": "loopback only",
    }


def load_json(path):
    with open(path) as handle:
        return json.load(handle)
