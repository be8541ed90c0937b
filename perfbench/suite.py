"""Run every workload and write one result file.

    python3 perfbench/suite.py [--out FILE]

For each workload it makes RUNS untraced runs (seeds 1..RUNS, each as
run.py --trace 0 would) and one traced run (seed 1), each measuring for
BENCHMARK.json's run_seconds.  It prints every end-to-end metric of every
workload with its median and quartiles over the runs, every check verdict,
the per-layer metrics of the traced run and the tracing overhead, and
writes all of it, raw samples and the machine record included, to FILE
(default bench-results/latest.json).  Compare two such files with
perfbench/diff.py.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402
import run  # noqa: E402

RUNS = 3


def summarize(records, traced):
    everything = records + [traced]
    result = {"summary": {}, "records": everything}
    for metric, unit in run.END_TO_END:
        values = [r["result"]["metrics"][metric]["value"] for r in records]
        q1, med, q3 = common.quartiles(values)
        result["summary"][metric] = {"median": med, "q1": q1, "q3": q3, "unit": unit,
                                     "values": values}
    attempted = sum(r["result"]["attempted"] for r in everything)
    failed = sum(r["result"]["failed"] for r in everything)
    result.update(attempted=attempted, failed=failed, ops_failed_frac=failed / attempted,
                  verdicts=run.merge_verdicts(r["verdicts"] for r in everything),
                  per_layer=traced["metrics"], trace_overhead=traced["trace_overhead"])
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join("bench-results", "latest.json"))
    args = ap.parse_args()
    try:
        common.use_checkout_src()
    except common.CheckoutError as error:
        print(f"suite.py: {error}", file=sys.stderr)
        return 2
    import workloads

    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {"machine": run.machine(), "runs": RUNS, "seconds": seconds, "workloads": {}}
    for name in run.WORKLOADS:
        records = [run.run_workload(name, seed, seconds, False)
                   for seed in range(1, RUNS + 1)]
        traced = run.run_workload(name, 1, seconds, True)
        report["machine"] = traced["machine"]
        report["workloads"][name] = summarize(records, traced)
        print(f"== {name}: {workloads.WORKLOADS[name].why}")
        print_workload(report["workloads"][name])

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"machine: {json.dumps(report['machine'])}")
    print(f"wrote {args.out}")
    return 0


def print_workload(w):
    for metric, s in w["summary"].items():
        print(f"  {metric:<14} {s['median']:>12.6g} {s['unit']:<4} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={len(s['values'])}]")
    print(f"  {'ops_failed_frac':<14} {w['ops_failed_frac']:>12.6g} "
          f"({w['failed']}/{w['attempted']})")
    for label, v in w["verdicts"].items():
        verdict = "PASS" if v["passed"] == v["runs"] else "FAIL"
        print(f"  check {verdict} {label}: {v['value']:.10g} vs {v['reference']:.10g} "
              f"+- {v['allowed']:.3g} ({v['passed']}/{v['runs']})")
    print("  per layer (traced run):")
    for metric, m in w["per_layer"].items():
        print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {run.describe_overhead(w['trace_overhead'])}")


if __name__ == "__main__":
    sys.exit(main())
