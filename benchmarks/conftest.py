"""Pytest configuration for the benchmark suite.

The benchmarks are thin declarations over the experiment registry in
:mod:`repro.experiments` — every ``bench_*.py`` file binds one
registered experiment via
:func:`repro.experiments.bench.experiment_bench`, and a test fails
when any of the experiment's checks fails.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/ -q -s

(``-s`` shows the regenerated tables).  The same experiments are available
outside pytest through ``python -m repro bench <name>``.

This conftest makes ``src/`` importable so the suite also works from a
plain checkout without an installed package.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
