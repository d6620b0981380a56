"""Declarative experiment specifications.

An :class:`ExperimentSpec` names one of the paper's evaluation
artifacts (a Table 1 row sweep, a figure, an ablation) and decomposes
it into :class:`Section` objects.  A section is declarative: it names a
registered *measurement* (an algorithm adapter), a *grid* of parameter
cells (each cell optionally carries a graph-family spec under the
``"graph"`` key), and a *seed sweep*.  The :class:`~.runner.Runner`
executes ``len(grid) * len(seeds)`` trials per section, reduces the
trial records to table rows, and evaluates the section's
:class:`Check` predicates — the paper's shape claims — against those
rows.

Everything in a spec is data except ``reduce`` and the check
functions, which are small named pure functions over the collected
rows; the execution itself (graph construction, seeding, metric
accounting) is owned entirely by the runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Check:
    """A named shape claim evaluated against a section's reduced rows.

    ``fn`` receives the list of row dicts and raises ``AssertionError``
    (with a human-readable message) when the claim does not hold.  The
    runner records the outcome — it never lets a failed claim abort the
    rest of the experiment.
    """

    name: str
    fn: Callable[[List[dict]], None]
    description: str = ""


@dataclass(frozen=True)
class Section:
    """One table/figure of an experiment.

    Parameters
    ----------
    name, title:
        Identifier (stable, used in artifacts and ``--section``) and
        display title for the rendered table.
    measurement:
        Name of a registered measurement adapter (see
        :mod:`~repro.experiments.measurements`).
    grid:
        Tuple of parameter cells.  Each cell is a mapping; the optional
        ``"graph"`` entry is a graph-family spec dict handled by
        :func:`~repro.experiments.registry.build_graph`, every other
        entry is passed to the measurement as a keyword parameter.
    seeds:
        Algorithm seeds; the runner executes every cell once per seed.
    reduce:
        Optional ``trials -> rows`` reduction (e.g. mean over seeds).
        The default emits one row per trial: ``params + seed +
        measures``.
    checks:
        Shape claims over the reduced rows.
    render:
        ``"table"`` (default) or ``"series"``; ``render_params`` may
        name the x/y row keys for series rendering.
    """

    name: str
    title: str
    measurement: str
    grid: Tuple[Mapping, ...]
    seeds: Tuple[int, ...] = (0,)
    reduce: Optional[Callable[[List[dict]], List[dict]]] = None
    checks: Tuple[Check, ...] = ()
    render: str = "table"
    render_params: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, registered experiment: metadata plus its sections."""

    name: str
    title: str
    description: str = ""
    sections: Tuple[Section, ...] = ()
    tags: Tuple[str, ...] = ()

    def section(self, name: str) -> Section:
        for sec in self.sections:
            if sec.name == name:
                return sec
        known = ", ".join(s.name for s in self.sections)
        raise KeyError(
            f"experiment {self.name!r} has no section {name!r} "
            f"(sections: {known})"
        )

    def describe(self) -> Dict[str, object]:
        """A JSON-able summary used by ``bench --list`` and artifacts."""

        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
            "sections": [
                {
                    "name": sec.name,
                    "title": sec.title,
                    "measurement": sec.measurement,
                    "cells": len(sec.grid),
                    "seeds": list(sec.seeds),
                    "checks": [c.name for c in sec.checks],
                }
                for sec in self.sections
            ],
        }
