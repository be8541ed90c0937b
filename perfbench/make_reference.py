"""Write the seeded Monte Carlo references the benchmark checks against.

Run once from the root of a checkout:

    python3 perfbench/make_reference.py

It calls ``simulate`` on the same .ppl files the moment queries propagate and
stores, for each target, the estimate and its standard error together with
the seed and sample count, in perfbench/reference_mc.json.  Benchmark runs
only read that file.  Rerunning with the same library reproduces it exactly,
since simulate is deterministic for a fixed seed at any thread count.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

SEED = 2205
SAMPLES = 2_000_000
REFERENCES = {
    # higher moments of the vehicle-moments workload
    "turning-n20": {"program": "turning.ppl", "iterations": 20,
                    "targets": ["x^2", "x^4", "x^2*y^2"]},
    # the long-horizon workload
    "turning-n2000": {"program": "turning.ppl", "iterations": 2000,
                      "targets": ["x^2", "y^2"]},
}
OUT = os.path.join(common.BENCH_DIR, "reference_mc.json")


def main():
    pce_loops = common.use_checkout_src()
    import numpy as np

    out = {}
    for key, spec in REFERENCES.items():
        prog = pce_loops.parse_file(common.program_file(spec["program"]))
        t0 = time.perf_counter()
        table = pce_loops.simulate(prog, spec["iterations"], samples=SAMPLES, seed=SEED,
                                   targets=spec["targets"], threads=2)
        n = spec["iterations"]
        out[key] = {
            **spec,
            "seed": SEED,
            "samples": SAMPLES,
            "values": {t: {"value": table.value(n, t), "se": table.value_stderr(n, t)}
                       for t in spec["targets"]},
            "generated_with": {"pce_loops": pce_loops.__version__, "numpy": np.__version__},
        }
        print(f"{key}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
