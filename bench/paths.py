"""Where the benchmark finds the program and writes its artifacts."""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def add_src() -> None:
    """Put ``src/`` on ``sys.path``; exit 2 when the program is not there.

    The benchmark measures the checkout it sits in and never an installed
    copy, so a directory holding only ``bench/`` must fail loudly instead
    of importing some other ``repro``.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"bench: no program to measure: {SRC}/repro is missing "
            f"(run from a full checkout)\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
