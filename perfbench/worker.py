"""One benchmark process: set up one workload, run passes, print one JSON line.

Started by run.py in a fresh interpreter, so that set-up time, the first
(cold) pass and peak memory are real per-process numbers:

    python3 perfbench/worker.py WORKLOAD SEED THREADS BUDGET_S TRACE

Untraced, it runs the cold pass and then warm passes until BUDGET_S seconds
have gone since it started (at least one warm pass).  Traced, it records
spans over set-up and the cold pass, and then times pairs of warm passes,
one with the span wrappers installed and one without, for the tracing
overhead.

The host's speed is probed with a fixed pure-Python kernel once before the
library is imported (for set-up), and again before and after each
untraced pass and the cold pass: probes_s[i] and probes_s[i + 1] bracket
passes_s[i].
"""

import time


def calibrate(reps=15):
    """Median time of a fixed pure-Python kernel, as a measure of how fast
    the host runs at the moment."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t)
    return sorted(times)[reps // 2]


CALIBRATION_S = calibrate()
PROBE_REPS = 5
T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402


def _verdicts(checks, into):
    for c in checks:
        v = into.setdefault(c.label, {"reference": c.reference, "allowed": c.allowed,
                                      "value": c.value, "passed": 0, "runs": 0})
        v["runs"] += 1
        v["passed"] += c.ok
        if not c.ok:
            v["value"] = c.value


def main(argv):
    name, seed, threads, budget, traced = argv
    seed, threads, budget, traced = int(seed), int(threads), float(budget), traced == "1"
    pce_loops = common.use_checkout_src()
    import numpy

    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    ref = workloads.load_references()
    ctx = {"seed": seed, "threads": threads, "ref": ref}
    verdicts = {}
    with spans.Recorder(pce_loops) if traced else contextlib.nullcontext() as recorder:
        state = wl.setup(ctx)
        setup_s = time.perf_counter() - T0
        ops = wl.ops(state, ref)
        probes = [calibrate(PROBE_REPS)]
        seconds, results = workloads.run_pass(ops)
    probes.append(calibrate(PROBE_REPS))
    passes = [seconds]
    _verdicts(workloads.check_pass(ops, results), verdicts)

    def warm_pass(traced_pass):
        with spans.Recorder(pce_loops) if traced_pass else contextlib.nullcontext():
            seconds, results = workloads.run_pass(ops)
        _verdicts(workloads.check_pass(ops, results), verdicts)
        return seconds

    overhead_pairs = []  # (untraced, traced) warm pass seconds
    if traced:
        # blocks of untraced, traced, traced, untraced, so that neither kind
        # always runs first
        while not overhead_pairs or time.perf_counter() - T0 + 4 * passes[0] <= budget:
            without, with_spans = warm_pass(False), warm_pass(True)
            with_spans_2, without_2 = warm_pass(True), warm_pass(False)
            overhead_pairs += [(without, with_spans), (without_2, with_spans_2)]
    else:
        while len(passes) < 2 or time.perf_counter() - T0 + passes[-1] <= budget:
            passes.append(warm_pass(False))
            probes.append(calibrate(PROBE_REPS))

    out = {
        "setup_s": setup_s,
        "calibration_s": CALIBRATION_S,
        "probes_s": probes,
        "passes_s": passes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdicts": verdicts,
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        out["layers"] = recorder.metrics()
        out["overhead_pairs_s"] = overhead_pairs
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except common.CheckoutError as error:
        print(f"worker: {error}", file=sys.stderr)
        sys.exit(2)
