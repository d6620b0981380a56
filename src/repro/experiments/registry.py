"""Registries for experiments, measurements and graph families.

Three flat name → object tables back the subsystem:

* **experiments** — :class:`~repro.experiments.spec.ExperimentSpec`
  instances, registered by :mod:`~repro.experiments.catalog` at import
  time and looked up by the CLI and the benchmark suite;
* **measurements** — algorithm adapters with the uniform signature
  ``fn(graph, seed, **params) -> (measures, metrics)`` where
  ``measures`` is a JSON-able dict and ``metrics`` is an optional
  :class:`~repro.congest.network.NetworkMetrics`;
* **graph families** — builders that turn a declarative graph spec
  dict into a weighted ``networkx`` graph.

A graph spec dict looks like::

    {"family": "gnp", "args": {"n": 96, "p": 0.05, "seed": 1},
     "node_weights": {"max": 64, "scheme": "log-uniform", "seed": 2}}

``node_weights`` / ``edge_weights`` are optional and are applied with
:func:`repro.graphs.assign_node_weights` /
:func:`repro.graphs.assign_edge_weights` after the family builder runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping

from ..errors import ReproError
from .spec import ExperimentSpec


class UnknownExperiment(ReproError, KeyError):
    """Lookup of an experiment/measurement/family name that is not registered."""


_EXPERIMENTS: Dict[str, ExperimentSpec] = {}
_MEASUREMENTS: Dict[str, Callable] = {}
_GRAPH_FAMILIES: Dict[str, Callable] = {}


def _lookup(table: Mapping, kind: str, name: str):
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table)) or "<none>"
        raise UnknownExperiment(
            f"unknown {kind} {name!r} (registered: {known})"
        ) from None


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.name in _EXPERIMENTS:
        raise ValueError(f"experiment {spec.name!r} already registered")
    _EXPERIMENTS[spec.name] = spec
    return spec


def get_experiment(name: str) -> ExperimentSpec:
    _ensure_catalog()
    return _lookup(_EXPERIMENTS, "experiment", name)


def list_experiments() -> List[ExperimentSpec]:
    _ensure_catalog()
    return [_EXPERIMENTS[name] for name in sorted(_EXPERIMENTS)]


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------
def register_measurement(name: str) -> Callable[[Callable], Callable]:
    """Decorator: ``@register_measurement("maxis_layers")``."""

    def deco(fn: Callable) -> Callable:
        if name in _MEASUREMENTS:
            raise ValueError(f"measurement {name!r} already registered")
        _MEASUREMENTS[name] = fn
        return fn

    return deco


def get_measurement(name: str) -> Callable:
    _ensure_catalog()
    return _lookup(_MEASUREMENTS, "measurement", name)


# ----------------------------------------------------------------------
# graph families
# ----------------------------------------------------------------------
def register_graph_family(name: str) -> Callable[[Callable], Callable]:
    def deco(fn: Callable) -> Callable:
        if name in _GRAPH_FAMILIES:
            raise ValueError(f"graph family {name!r} already registered")
        _GRAPH_FAMILIES[name] = fn
        return fn

    return deco


def build_graph(spec: Mapping):
    """Materialize a graph spec dict into a weighted networkx graph."""

    from ..graphs import assign_edge_weights, assign_node_weights

    _ensure_catalog()
    builder = _lookup(_GRAPH_FAMILIES, "graph family", spec["family"])
    graph = builder(**dict(spec.get("args", {})))
    node_weights = spec.get("node_weights")
    if node_weights is not None:
        graph = assign_node_weights(graph, **dict(node_weights))
    edge_weights = spec.get("edge_weights")
    if edge_weights is not None:
        graph = assign_edge_weights(graph, **dict(edge_weights))
    return graph


# ----------------------------------------------------------------------
# catalog bootstrap
# ----------------------------------------------------------------------
_CATALOG_LOADED = False


def _ensure_catalog() -> None:
    """Import the catalog lazily so registry/catalog imports don't cycle."""

    global _CATALOG_LOADED
    if not _CATALOG_LOADED:
        _CATALOG_LOADED = True
        from . import catalog  # noqa: F401  (registers on import)
