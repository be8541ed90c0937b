"""Compare two result files written by perfbench/suite.py.

    python3 perfbench/diff.py BASE.json NEW.json

For each (workload, end-to-end metric) pair it prints both medians with
their quartiles and the change of the median; then ops_failed_frac; then
each per-layer metric of the traced runs with its delta, and both tracing
overheads.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def _change(base, new):
    if base == 0:
        return "" if new == 0 else "new"
    return f"{100.0 * (new - base) / abs(base):+.1f}%"


def diff(base, new):
    lines = []
    for name in [w for w in base["workloads"] if w in new["workloads"]]:
        b, n = base["workloads"][name], new["workloads"][name]
        lines.append(f"== {name}")
        for metric, bs in b["summary"].items():
            ns = n["summary"][metric]
            lines.append(
                f"  {metric:<16} {bs['median']:>11.5g} [{bs['q1']:.5g}, {bs['q3']:.5g}]"
                f"  ->  {ns['median']:>11.5g} [{ns['q1']:.5g}, {ns['q3']:.5g}] {bs['unit']:<4}"
                f" {_change(bs['median'], ns['median'])}")
        lines.append(f"  {'ops_failed_frac':<16} {b['ops_failed_frac']:>11.5g}  ->  "
                     f"{n['ops_failed_frac']:>11.5g}")
        for metric, bm in b["per_layer"].items():
            nm = n["per_layer"].get(metric)
            if nm is None:
                continue
            lines.append(f"  {metric:<36} {bm['value']:>12.5g} -> {nm['value']:>12.5g} "
                         f"{bm['unit']:<6} delta {nm['value'] - bm['value']:+.5g} "
                         f"{_change(bm['value'], nm['value'])}")
        lines.append(f"  base {run.describe_overhead(b['trace_overhead'])}")
        lines.append(f"  new  {run.describe_overhead(n['trace_overhead'])}")
    only = sorted(set(base["workloads"]) ^ set(new["workloads"]))
    if only:
        lines.append(f"in one file only: {', '.join(only)}")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    print("\n".join(diff(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
