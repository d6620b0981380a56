"""Golden pins for the deterministic (Δ+1)-coloring.

Algorithm 3 consumes :func:`~repro.mis.coloring.delta_plus_one_coloring`
as a black box, and its colors decide every local-ratio sweep, so the
colors themselves are behaviour: any change to them moves Algorithm 3's
outputs, rounds and bits.  This suite pins, per case, a SHA-256 of the
colors (listed in graph node order) plus ``palette``, ``linial_rounds``
and ``reduction_rounds``.

The cases cover every ``FAMILIES`` generator at two seeds, a line
graph, int / str / tuple node ids, ids whose ``repr`` collide (ties in
the ``repr`` order keep graph insertion order), and the n=1.5·10⁴
sparse benchmark graph.  Every case runs on both coloring paths: the
numpy path, and the pure-Python path with numpy hidden.

Beyond the pins, both paths must return the same
:class:`~repro.mis.coloring.ColoringResult` with its colors dict in
the same key order, and both must reject a self-loop.

The golden file is ``coloring_pins.json`` next to this module.
Re-record it with ``PYTHONPATH=src python tests/mis/test_coloring_pins.py``,
and only for a deliberate behaviour change — never to make a test pass.
"""

import hashlib
import json
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.congest import line_graph
from repro.errors import AlgorithmContractViolation
from repro.graphs import FAMILIES, sparse_gnp_graph
from repro.mis import coloring

GOLDEN = Path(__file__).with_name("coloring_pins.json")
FAMILY_SIZE = 48
FAMILY_SEEDS = (0, 1)


class Tag:
    """A node id whose ``repr`` is chosen freely (so it can collide)."""

    def __init__(self, key, label):
        self.key = key
        self.label = label

    def __repr__(self):
        return self.label

    def __eq__(self, other):
        return isinstance(other, Tag) and other.key == self.key

    def __hash__(self):
        return hash(("Tag", self.key))


def _relabelled(mapping):
    base = sparse_gnp_graph(2000, 3.0 / 2000, seed=11)
    return nx.relabel_nodes(base, {v: mapping(v) for v in base.nodes})


def _cases():
    cases = {}
    for family in sorted(FAMILIES):
        for seed in FAMILY_SEEDS:
            cases[f"{family}-{seed}"] = (
                lambda f=family, s=seed: FAMILIES[f](FAMILY_SIZE, s))
    cases["line-graph"] = lambda: line_graph(
        sparse_gnp_graph(1500, 2.5 / 1500, seed=5))
    cases["int-ids"] = lambda: _relabelled(lambda v: 7 * v + 3)
    cases["str-ids"] = lambda: _relabelled(lambda v: f"n{v:02d}")
    cases["tuple-ids"] = lambda: _relabelled(lambda v: (v % 5, str(v)))
    # Three ids per repr: the tie order is graph insertion order.
    cases["colliding-reprs"] = lambda: _relabelled(
        lambda v: Tag(v, f"tag{v // 3}"))
    cases["benchmark-15000"] = lambda: sparse_gnp_graph(
        15_000, 6.0 / 15_000, seed=1)
    return cases


CASES = _cases()


def pin(graph) -> dict:
    result = coloring.delta_plus_one_coloring(graph)
    colors = [result.colors[v] for v in graph.nodes]
    digest = hashlib.sha256(json.dumps(colors).encode()).hexdigest()
    return {
        "colors": digest,
        "palette": result.palette,
        "linial_rounds": result.linial_rounds,
        "reduction_rounds": result.reduction_rounds,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(params=["numpy", "python"])
def path(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setattr(coloring, "np", None, raising=False)
    elif getattr(coloring, "np", None) is None:
        pytest.skip("numpy is not installed")
    return request.param


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_coloring_matches_golden_pin(case, path, golden):
    assert pin(CASES[case]()) == golden[case]


@pytest.mark.parametrize("case", [
    "path-0",           # a Linial step: the dict is in graph order
    "gnp-sparse-1",     # no Linial step: the dict is in repr order
    "colliding-reprs",
    "tuple-ids",
])
def test_both_paths_return_the_same_result(case, monkeypatch):
    if getattr(coloring, "np", None) is None:
        pytest.skip("numpy is not installed")
    graph = CASES[case]()
    fast = coloring.delta_plus_one_coloring(graph)
    monkeypatch.setattr(coloring, "np", None)
    reference = coloring.delta_plus_one_coloring(graph)
    assert fast == reference
    assert list(fast.colors.items()) == list(reference.colors.items())


def test_self_loops_violate_the_contract_on_both_paths(path):
    graph = nx.path_graph(5)
    graph.add_edge(2, 2)
    with pytest.raises(AlgorithmContractViolation, match="share color"):
        coloring.delta_plus_one_coloring(graph)


def record() -> None:  # pragma: no cover - run by hand
    pins = {case: pin(build()) for case, build in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(pins)} pins to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    record()
