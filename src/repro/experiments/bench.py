"""pytest glue: run registered experiments as tests.

``benchmarks/bench_*.py`` files declare exactly one line each::

    test_table1 = experiment_bench("table1")

which expands into a test parameterized over the experiment's
sections.  Every section runs through the shared
:class:`~repro.experiments.runner.Runner`, prints its rendered table
(visible with ``pytest -s``), and fails if any of the section's
registered checks — the paper's shape claims — fail.  The paper's
metric is synchronous rounds, not wall-clock, so nothing here is
timed; speed is measured by ``perfbench/``.
"""

from __future__ import annotations

from ..analysis import render_section_result
from .registry import get_experiment
from .runner import Runner


def experiment_bench(name: str):
    """Build a pytest test function covering every section of ``name``."""

    import pytest

    spec = get_experiment(name)

    @pytest.mark.parametrize(
        "section", [section.name for section in spec.sections]
    )
    def bench(section):
        record = Runner(spec).run_section(section)
        print()
        print(render_section_result(record))
        failed = [
            f"{check['name']}: {check['detail']}"
            for check in record["checks"] if not check["passed"]
        ]
        assert not failed, "\n".join(failed)

    bench.__name__ = f"test_{name}"
    bench.__doc__ = spec.description
    return bench
