"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Every measurement happens in fresh worker processes (perfbench/worker.py),
run one at a time:

* --trace 0: PROCESSES workers, each given S / PROCESSES seconds.  Each
  times a fixed pure-Python kernel (its calibration), sets up, runs one cold
  pass and then warm passes.  setup_s and cold_pass_s are medians over the
  workers, warm_pass_s the median over all warm passes, peak_rss_mib the
  median over the workers.
* --trace 1: TRACE_PROCESSES workers, each given S / TRACE_PROCESSES
  seconds.  Each records spans over set-up and the cold pass; the per-layer
  metrics are medians over the workers.  Each then times pairs of warm
  passes with and without the span wrappers; the tracing overhead is the
  median over all pairs of traced minus untraced, and it is reported as
  unresolved unless its quartiles lie on the same side of zero.

Times are scaled to a fixed host speed.  Each worker times a fixed
pure-Python kernel before it imports the library, and again (more briefly)
before and after each pass; set-up is multiplied by
REFERENCE_CALIBRATION_S / the first time, each pass (and the per-layer ms
of the traced cold pass) by REFERENCE_CALIBRATION_S / the mean time of the
two probes around it.  On a shared host the kernel's time drifts by up to
half over minutes, and unscaled medians drift with it from one run to the
next; a change to the library moves its times but not the kernel's.
Probing around each pass tracks that drift far better than one probe per
worker: on a 2-vCPU virtual machine, seven runs of each workload spread
(interquartile range over median) 15-17% unscaled and 5-8% scaled per
pass.  The unscaled medians stay in the record and are printed next to the
scaled ones.

Every value every pass computes is checked.  The lines before the last give
the machine, each check's verdict and the metrics with their units.  The
last line is the JSON result, whose traced metrics leave out
spans.SAMPLING_ONLY:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402
import spans  # noqa: E402

PROCESSES = 8
TRACE_PROCESSES = 3
RUN_LIMIT_S = 170.0      # a run must end within 180 s
# Calibration time that scaled times refer to: about what the kernel takes
# on a 2-vCPU Intel Xeon virtual machine with Python 3.11.
REFERENCE_CALIBRATION_S = 0.010
WORKER = os.path.join(common.BENCH_DIR, "worker.py")
WORKLOADS = ("expansion", "vehicle-suite", "vehicle-moments", "long-horizon", "monte-carlo")

END_TO_END = (
    ("setup_s", "s"),
    ("cold_pass_s", "s"),
    ("warm_pass_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version()}


def _worker(name, seed, threads, budget, traced, deadline):
    cmd = [sys.executable, WORKER, name, str(seed), str(threads), f"{budget:.3f}",
           "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _times(workers, scaled):
    """setup_s and cold_pass_s as medians over the workers, warm_pass_s over
    all warm passes.  Scaled, set-up is multiplied by the scale of the
    worker's first probe and each pass by that of the two probes around it."""
    def k(probe_s):
        return REFERENCE_CALIBRATION_S / probe_s if scaled else 1.0

    def passes(w):
        return [p * k((before + after) / 2)
                for p, before, after in zip(w["passes_s"], w["probes_s"], w["probes_s"][1:])]

    return {
        "setup_s": statistics.median(w["setup_s"] * k(w["calibration_s"]) for w in workers),
        "cold_pass_s": statistics.median(passes(w)[0] for w in workers),
        "warm_pass_s": statistics.median(p for w in workers for p in passes(w)[1:]),
    }


def trace_overhead(workers, scale):
    """Traced minus untraced warm pass time over every pair the workers
    timed: median and quartiles of the relative difference, median of the
    scaled difference in ms.  Resolved only if the quartiles agree in sign."""
    diffs_ms = [1e3 * (t - u) * k for w, k in zip(workers, scale)
                for u, t in w["overhead_pairs_s"]]
    fracs = [(t - u) / u for w in workers for u, t in w["overhead_pairs_s"]]
    q1, frac, q3 = common.quartiles(fracs)
    return {"ms": statistics.median(diffs_ms), "frac": frac, "frac_q1": q1, "frac_q3": q3,
            "pairs": len(fracs), "resolved": q1 > 0 or q3 < 0}


def merge_verdicts(verdict_sets):
    """Add up per-check pass counts; keep a failing value where there is one."""
    merged = {}
    for verdicts in verdict_sets:
        for label, v in verdicts.items():
            m = merged.setdefault(label, dict(v, passed=0, runs=0))
            m["passed"] += v["passed"]
            m["runs"] += v["runs"]
            if v["passed"] < v["runs"]:
                m["value"] = v["value"]
    return merged


def run_workload(name, seed, seconds, traced):
    """Measure one workload; returns the full record (result, verdicts, raw
    samples, machine)."""
    common.use_checkout_src()  # fail fast, before any worker starts
    deadline = time.monotonic() + RUN_LIMIT_S
    threads = min(4, nproc())
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "machine": dict(machine(), simulate_threads=threads)}
    count = TRACE_PROCESSES if traced else PROCESSES
    workers = [_worker(name, seed, threads, seconds / count, traced, deadline)
               for _ in range(count)]
    if traced:
        # spans cover set-up and the cold pass; scale them by the cold pass's probes
        scale = [2 * REFERENCE_CALIBRATION_S / (w["probes_s"][0] + w["probes_s"][1])
                 for w in workers]
        values = spans.median_metrics([
            {k: v * (factor if k.endswith(".ms") else 1.0) for k, v in w["layers"].items()}
            for w, factor in zip(workers, scale)])
        record["trace_overhead"] = trace_overhead(workers, scale)
        units = dict(spans.PER_LAYER)
    else:
        values = {**_times(workers, True),
                  "peak_rss_mib": statistics.median(w["peak_rss_mib"] for w in workers)}
        record["raw"] = {**_times(workers, False),
                         "calibration_s": statistics.median(w["calibration_s"] for w in workers)}
        units = dict(END_TO_END)
    verdicts = merge_verdicts(w["verdicts"] for w in workers)
    attempted = sum(v["runs"] for v in verdicts.values())
    failed = sum(v["runs"] - v["passed"] for v in verdicts.values())
    record["machine"]["numpy"] = workers[0]["numpy"]
    record["verdicts"] = verdicts
    record["samples"] = {
        "setup_s": [w["setup_s"] for w in workers],
        "passes_s": [w["passes_s"] for w in workers],
        "peak_rss_mib": [w["peak_rss_mib"] for w in workers],
        "calibration_s": [w["calibration_s"] for w in workers],
        "probes_s": [w["probes_s"] for w in workers],
    }
    record["ops_failed_frac"] = failed / attempted
    record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: m for k, m in record["metrics"].items() if k not in spans.SAMPLING_ONLY},
    }
    return record


def describe(record):
    """Human-readable lines for one record (everything but the JSON line)."""
    lines = [f"machine: {json.dumps(record['machine'])}",
             f"workload {record['workload']}, seed {record['seed']}, "
             f"{len(record['samples']['setup_s'])} processes, "
             f"{sum(map(len, record['samples']['passes_s']))} passes"
             + (", traced" if record["trace"] else "")]
    for label, v in record["verdicts"].items():
        verdict = "PASS" if v["passed"] == v["runs"] else "FAIL"
        lines.append(f"check {verdict} {label}: {v['value']:.10g} vs {v['reference']:.10g} "
                     f"+- {v['allowed']:.3g} ({v['passed']}/{v['runs']} passed)")
    raw = record.get("raw", {})
    for k, m in record["metrics"].items():
        lines.append(f"{k} = {m['value']:.6g} {m['unit']}"
                     + (f"  (unscaled {raw[k]:.6g} {m['unit']})" if k in raw else ""))
    if raw:
        lines.append(f"calibration = {1e3 * raw['calibration_s']:.4g} ms "
                     f"(reference {1e3 * REFERENCE_CALIBRATION_S:g} ms)")
    if "trace_overhead" in record:
        lines.append(describe_overhead(record["trace_overhead"]))
    res = record["result"]
    lines.append(f"ops_failed_frac = {record['ops_failed_frac']:.6g} "
                 f"({res['failed']}/{res['attempted']})")
    return lines


def describe_overhead(o):
    measured = (f"{o['ms']:+.4g} ms, {100 * o['frac']:+.2f}% "
                f"[q1 {100 * o['frac_q1']:+.2f}%, q3 {100 * o['frac_q3']:+.2f}%] "
                f"over {o['pairs']} pass pairs")
    if o["resolved"]:
        return f"trace overhead = {measured}"
    return f"trace overhead unresolved: within the spread of the pairs ({measured})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (common.CheckoutError, RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    print("\n".join(describe(record)))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
