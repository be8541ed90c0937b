"""Paths and reference data shared by the benchmark's scripts.

The benchmark always measures the library in the checkout it sits in
(``<root>/src/pce_loops``), never an installed copy, so every entry point
calls :func:`use_checkout_src` before importing ``pce_loops``.
"""

import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "pce_loops")
PACKAGE_PROGRAMS = os.path.join(PACKAGE, "programs")
BENCH_PROGRAMS = os.path.join(BENCH_DIR, "programs")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")


class CheckoutError(RuntimeError):
    """The checkout does not hold the library sources the benchmark needs."""


def use_checkout_src():
    """Put the checkout's src/ first on sys.path and check pce_loops is there."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise CheckoutError(f"no pce_loops sources under {SRC}; run from a full checkout")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import pce_loops

    if os.path.dirname(os.path.abspath(pce_loops.__file__)) != PACKAGE:
        raise CheckoutError(f"pce_loops imported from {pce_loops.__file__}, not {PACKAGE}")
    return pce_loops


def program_file(name):
    """Path of a .ppl program: the package's bundled set first, then the
    benchmark's own copies of loops that only exist inside demo scripts."""
    for folder in (PACKAGE_PROGRAMS, BENCH_PROGRAMS):
        path = os.path.join(folder, name)
        if os.path.isfile(path):
            return path
    raise FileNotFoundError(f"program {name!r} is neither bundled nor in {BENCH_PROGRAMS}")


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
