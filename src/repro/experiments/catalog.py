"""The experiment catalog: every benchmark as a declarative spec.

This module is the single source of truth for the paper's evaluation
artifacts.  Each ``benchmarks/bench_*.py`` file used to carry its own
copy of the workload construction, seed sweeps and shape assertions;
those now live here as :class:`~repro.experiments.spec.ExperimentSpec`
declarations executed by the shared
:class:`~repro.experiments.runner.Runner`.  The pytest benchmark suite
and the ``python -m repro bench`` CLI both run the specs registered
below.

The ``smoke`` experiment at the bottom is the CI gate: a tiny grid
(seconds, not minutes) whose checks pin recorded approximation-ratio
bounds and exact simulator counters, so a regression in either fails
the pipeline.
"""

from __future__ import annotations

from ..analysis import growth_exponent, pearson
from ..graphs import (
    bipartite_regular_graph,
    complete_graph,
    gnp_graph,
    grid_graph,
    layered_graph,
    power_law_graph,
    random_bipartite_graph,
    random_regular_graph,
    sparse_gnp_graph,
    star_graph,
)
from ..mis import delta_plus_one_coloring
from .registry import register_experiment, register_graph_family
from .spec import Check, ExperimentSpec, Section

from . import measurements  # noqa: F401  (registers adapters on import)

# ----------------------------------------------------------------------
# graph families
# ----------------------------------------------------------------------
register_graph_family("gnp")(gnp_graph)
register_graph_family("random_regular")(random_regular_graph)
register_graph_family("complete")(complete_graph)
register_graph_family("star")(star_graph)
register_graph_family("grid")(grid_graph)
register_graph_family("power_law")(power_law_graph)
register_graph_family("layered")(layered_graph)
register_graph_family("random_bipartite")(random_bipartite_graph)
register_graph_family("bipartite_regular")(bipartite_regular_graph)
register_graph_family("sparse_gnp")(sparse_gnp_graph)


@register_graph_family("layered_geometric")
def _layered_geometric(layers: int, width: int = 6, seed: int = 1,
                       p: float = 1.0):
    """Layered chain with weight ``2^layer`` — the serializing workload
    that realizes Algorithm 2's log W staircase.  ``p < 1`` keeps the
    inter-layer bipartite edges sparse for large instances."""

    g = layered_graph(layers, width, seed=seed, p=p)
    for v, data in g.nodes(data=True):
        g.nodes[v]["weight"] = 2 ** data["layer"]
    return g


@register_graph_family("serializing_clique")
def _serializing_clique(degree: int):
    """A (Δ+1)-clique whose weights descend with the greedy coloring,
    forcing Algorithm 3 through exactly Δ+1 removal sweeps."""

    g = complete_graph(degree + 1)
    coloring = delta_plus_one_coloring(g)
    for v in g.nodes:
        g.nodes[v]["weight"] = 2 ** (coloring.palette - coloring.colors[v])
    return g


@register_graph_family("figure1")
def _figure1_instance():
    """The curated Figure 1 instance: a layered bipartite graph with a
    partial matching and multiple overlapping length-3 augmenting
    paths.  The matching ships in ``g.graph["matching"]``."""

    import networkx as nx

    g = nx.Graph()
    a_nodes = [f"a{i}" for i in range(5)]
    b_nodes = [f"b{i}" for i in range(5)]
    for a in a_nodes:
        g.add_node(a, side="A")
    for b in b_nodes:
        g.add_node(b, side="B")
    g.add_edges_from([
        # free A-nodes a0, a4 fan into the matched middle
        ("a0", "b0"), ("a0", "b1"), ("a4", "b1"), ("a4", "b2"),
        # matched pairs: (a1, b0), (a2, b1), (a3, b2)
        ("a1", "b0"), ("a2", "b1"), ("a3", "b2"),
        # matched A-nodes fan out to the free B-nodes b3, b4
        ("a1", "b3"), ("a1", "b4"), ("a2", "b3"), ("a3", "b4"),
    ])
    g.graph["matching"] = [("a1", "b0"), ("a2", "b1"), ("a3", "b2")]
    return g


# ----------------------------------------------------------------------
# grid/reduce/check helpers
# ----------------------------------------------------------------------
def _gnp(n, p, seed, node_w=None, edge_w=None):
    spec = {"family": "gnp", "args": {"n": n, "p": p, "seed": seed}}
    if node_w:
        spec["node_weights"] = node_w
    if edge_w:
        spec["edge_weights"] = edge_w
    return spec


def _sparse_gnp(n, p, seed, node_w=None):
    """Large sparse G(n, p) via the O(n + m) geometric sampler."""

    spec = {"family": "sparse_gnp", "args": {"n": n, "p": p, "seed": seed}}
    if node_w:
        spec["node_weights"] = node_w
    return spec


def _group_by_cell(trials):
    """Group trial records by grid cell, preserving first-seen order."""

    order, by_cell = [], {}
    for trial in trials:
        if trial["cell"] not in by_cell:
            order.append(trial["cell"])
            by_cell[trial["cell"]] = []
        by_cell[trial["cell"]].append(trial)
    return [by_cell[cell] for cell in order]


def _mean_over_seeds(*value_keys):
    """Reduce: one row per grid cell, averaging ``value_keys`` over the
    seed sweep and keeping the cell's params as identifying columns."""

    def reduce(trials):
        rows = []
        for group in _group_by_cell(trials):
            row = dict(group[0]["params"])
            for key in value_keys:
                values = [t["measures"][key] for t in group]
                row[key] = sum(values) / len(values)
            rows.append(row)
        return rows

    return reduce


def _rows_check(name, fn, description=""):
    return Check(name=name, fn=fn, description=description)


def _per_row(name, predicate, message, description=""):
    """Check factory: ``predicate(row)`` must hold for every row."""

    def fn(rows):
        for row in rows:
            assert predicate(row), message.format(**row)

    return Check(name=name, fn=fn, description=description)


def _growth_check(name, x_key, y_key, below, description=""):
    def fn(rows):
        exponent = growth_exponent([r[x_key] for r in rows],
                                   [r[y_key] for r in rows])
        assert exponent < below, (
            f"{y_key} grows like {x_key}^{exponent:.2f} "
            f"(allowed < {below})"
        )

    return Check(name=name, fn=fn, description=description)


def _pearson_check(name, x_key, y_key, above, description=""):
    def fn(rows):
        correlation = pearson([r[x_key] for r in rows],
                              [r[y_key] for r in rows])
        assert correlation > above, (
            f"corr({x_key}, {y_key}) = {correlation:.3f} "
            f"(required > {above})"
        )

    return Check(name=name, fn=fn, description=description)


def _series_rows(x_name, y_name, offset=0):
    """Reduce: expand the single trial's ``series`` measure to rows."""

    def reduce(trials):
        series = trials[0]["measures"].get("series")
        if series is None:
            series = trials[0]["measures"]["top_layer_series"]
        return [
            {x_name: i + offset, y_name: value}
            for i, value in enumerate(series)
        ]

    return reduce


def _series_values(rows, y_key):
    return [row[y_key] for row in rows]


# ======================================================================
# T1 — Table 1 (the paper's results table)
# ======================================================================
def _t1_1b_check(rows):
    rounds = [r["rounds"] for r in rows]
    assert max(rounds) <= 4 * max(1, rounds[0]), (
        f"rounds {rounds} not flat in W on the typical sparse workload"
    )


def _t1_4b_reduce(trials):
    order, by_delta = [], {}
    for trial in trials:
        delta = trial["params"]["delta"]
        if delta not in by_delta:
            order.append(delta)
            by_delta[delta] = {}
        by_delta[delta][f"rounds_k{trial['params']['k']}"] = (
            trial["measures"]["rounds"]
        )
    return [{"delta": d, **by_delta[d]} for d in order]


def _t1_4b_check(rows):
    for k in (2, 3, 4):
        exponent = growth_exponent([r["delta"] for r in rows],
                                   [r[f"rounds_k{k}"] for r in rows])
        assert exponent < 0.8, f"K={k}: rounds grow like Δ^{exponent:.2f}"


def _one_eps_guarantee(rows):
    for row in rows:
        effective = row["found"] + row["deactivated"]
        assert (1 + row["eps"]) * effective >= row["opt"], (
            f"(1+ε) guarantee violated: found={row['found']} "
            f"deactivated={row['deactivated']} opt={row['opt']}"
        )


def _t1_summary_reduce(trials):
    rows = []
    for trial in trials:
        measures = trial["measures"]
        label = trial["params"]
        if "ratio" in measures:
            ratio = measures["ratio"]
        else:  # the (1+ε) row: effective cardinality vs optimum
            effective = measures["found"] + measures["deactivated"]
            ratio = measures["opt"] / max(1, effective)
        bound = label["bound"]
        if bound == "delta":
            bound = measures["delta"]
        rounds = measures.get("rounds", measures.get("accounted"))
        rows.append({"row": label["row"], "bound": bound,
                     "measured_ratio": ratio, "rounds": rounds})
    return rows


_T1_SUMMARY_NODE_G = _gnp(18, 0.25, 1, node_w={"max_weight": 64, "seed": 2})
_T1_SUMMARY_EDGE_G = _gnp(18, 0.25, 1, edge_w={"max_weight": 64, "seed": 2})

TABLE1 = register_experiment(ExperimentSpec(
    name="table1",
    title="Table 1 (regenerated): bounds vs measured",
    description=(
        "Each row of the paper's Table 1 is an algorithm with an "
        "approximation factor and a round complexity; every section "
        "measures one row's approximation and round scaling on "
        "concrete workloads, serializing (worst-case shape) and "
        "typical."
    ),
    tags=("table1", "paper"),
    sections=(
        Section(
            name="t1_1a",
            title="T1.1a: Algorithm 2 rounds vs W (serializing layered "
                  "chain)",
            measurement="maxis_layers",
            grid=tuple(
                {"graph": {"family": "layered_geometric",
                           "args": {"layers": layers, "width": 6,
                                    "seed": 1}},
                 "label": {"W": 2 ** (layers - 1), "log2W": layers - 1}}
                for layers in (2, 4, 8, 12, 16)
            ),
            seeds=(0, 1, 2),
            reduce=_mean_over_seeds("rounds"),
            checks=(
                _pearson_check("rounds_track_log_w", "log2W", "rounds",
                               0.95, "rounds must track log W"),
                _growth_check("rounds_sublinear_in_w", "W", "rounds",
                              0.4, "rounds must be far sublinear in W"),
                _rows_check(
                    "rounds_grow",
                    lambda rows: _assert(
                        rows[-1]["rounds"] > rows[0]["rounds"],
                        "largest W must use more rounds than smallest"),
                ),
            ),
        ),
        Section(
            name="t1_1b",
            title="T1.1b: Algorithm 2 rounds vs W (typical sparse "
                  "G(n,p))",
            measurement="maxis_layers",
            grid=tuple(
                {"graph": _gnp(96, 0.05, 1,
                               node_w={"max_weight": w,
                                       "scheme": "log-uniform",
                                       "seed": 2}),
                 "label": {"W": w}}
                for w in (1, 16, 256, 4096)
            ),
            seeds=(0, 1, 2),
            reduce=_mean_over_seeds("rounds"),
            checks=(_rows_check("rounds_flat_in_w", _t1_1b_check),),
        ),
        Section(
            name="t1_1c",
            title="T1.1c: Algorithm 2 rounds vs n (W=64, sparse G(n,p))",
            measurement="maxis_layers",
            grid=tuple(
                {"graph": _gnp(n, min(0.9, 6.0 / n), 3,
                               node_w={"max_weight": 64,
                                       "scheme": "log-uniform",
                                       "seed": 4}),
                 "label": {"n": n}}
                for n in (32, 64, 128, 256, 512)
            ),
            seeds=(0, 1, 2),
            reduce=_mean_over_seeds("rounds"),
            checks=(
                _growth_check("rounds_logarithmic_in_n", "n", "rounds",
                              0.5, "rounds should grow ~logarithmically"),
            ),
        ),
        Section(
            name="t1_1d",
            title="T1.1d: Algorithm 2 approximation ratio vs exact MWIS "
                  "(bound: Δ)",
            measurement="maxis_layers",
            grid=tuple(
                {"graph": _gnp(18, 0.25, seed,
                               node_w={"max_weight": 64, "seed": seed}),
                 "oracle": True,
                 "seeds": (seed,)}
                for seed in range(6)
            ),
            checks=(
                _per_row("delta_approximation",
                         lambda r: r["ratio"] <= r["delta"],
                         "ratio {ratio} exceeds the Δ={delta} bound"),
            ),
        ),
        Section(
            name="t1_2a",
            title="T1.2a: Algorithm 3 rounds vs Δ (serializing clique "
                  "workload)",
            measurement="maxis_coloring",
            grid=tuple(
                {"graph": {"family": "serializing_clique",
                           "args": {"degree": degree}}}
                for degree in (3, 5, 8, 12, 16)
            ),
            checks=(
                _pearson_check("rounds_track_delta", "delta", "lr_rounds",
                               0.95, "removal rounds must track Δ"),
                _per_row("sweeps_bounded",
                         lambda r: r["lr_rounds"] <= 2 * (r["delta"] + 1),
                         "clique uses {lr_rounds} rounds for Δ={delta}"),
            ),
        ),
        Section(
            name="t1_2b",
            title="T1.2b: Algorithm 3 rounds vs Δ (typical random "
                  "regular)",
            measurement="maxis_coloring",
            grid=tuple(
                {"graph": {"family": "random_regular",
                           "args": {"degree": degree, "n": 60, "seed": 5},
                           "node_weights": {"max_weight": 32, "seed": 6}}}
                for degree in (3, 5, 8, 12, 16)
            ),
            checks=(
                _per_row("accounting_dominates",
                         lambda r: r["lr_rounds"] <= r["accounted"],
                         "lr_rounds {lr_rounds} > accounted {accounted}"),
            ),
        ),
        Section(
            name="t1_2c",
            title="T1.2c: Algorithm 3 determinism + ratio (bound: Δ)",
            measurement="maxis_coloring",
            grid=tuple(
                {"graph": _gnp(16, 0.3, seed,
                               node_w={"max_weight": 32,
                                       "seed": seed + 1}),
                 "oracle": True, "check_deterministic": True}
                for seed in range(5)
            ),
            checks=(
                _per_row("deterministic", lambda r: r["deterministic"],
                         "two runs disagreed on the independent set"),
                _per_row("delta_approximation",
                         lambda r: r["ratio"] <= r["delta"],
                         "ratio {ratio} exceeds the Δ={delta} bound"),
            ),
        ),
        Section(
            name="t1_3",
            title="T1.3: MWM 2-approx on L(G) (bound: 2)",
            measurement="matching_lines",
            grid=tuple(
                {"graph": _gnp(24, 0.15, seed,
                               edge_w={"max_weight": 64,
                                       "seed": seed + 1}),
                 "method": method, "oracle": True, "seeds": (seed,)}
                for method in ("layers", "coloring")
                for seed in range(4)
            ),
            checks=(
                _per_row("two_approximation",
                         lambda r: r["ratio"] <= 2.0,
                         "MWM ratio {ratio} exceeds 2"),
            ),
        ),
        Section(
            name="t1_4a",
            title="T1.4a: (2+ε) MWM, ε=0.5 (bound: 2.5)",
            measurement="fast2eps_weighted",
            grid=tuple(
                {"graph": _gnp(22, 0.2, seed,
                               edge_w={"max_weight": 32,
                                       "seed": seed + 1}),
                 "eps": 0.5, "oracle": True, "seeds": (seed,)}
                for seed in range(4)
            ),
            checks=(
                _per_row("two_plus_eps",
                         lambda r: r["ratio"] <= 2.5,
                         "weighted ratio {ratio} exceeds 2+ε=2.5"),
            ),
        ),
        Section(
            name="t1_4b",
            title="T1.4b: (2+ε) MCM rounds vs Δ for update factors K",
            measurement="fast2eps",
            grid=tuple(
                {"graph": {"family": "random_regular",
                           "args": {"degree": degree, "n": 72, "seed": 7}},
                 "eps": 0.5, "k": k, "label": {"delta": degree}}
                for degree in (4, 8, 16, 24)
                for k in (2, 3, 4)
            ),
            seeds=(8,),
            reduce=_t1_4b_reduce,
            checks=(_rows_check("rounds_flatten_with_k", _t1_4b_check),),
        ),
        Section(
            name="t1_5a",
            title="T1.5a: (1+ε) MCM LOCAL, ε=0.5",
            measurement="oneeps_local",
            grid=tuple(
                {"graph": _gnp(26, 0.18, seed), "eps": 0.5,
                 "oracle": True, "seeds": (seed,)}
                for seed in range(4)
            ),
            checks=(_rows_check("one_eps_guarantee",
                                _one_eps_guarantee),),
        ),
        Section(
            name="t1_5b",
            title="T1.5b: (1+ε) MCM CONGEST, ε=0.5",
            measurement="oneeps_congest",
            grid=tuple(
                {"graph": _gnp(20, 0.2, seed), "eps": 0.5,
                 "oracle": True, "seeds": (seed,)}
                for seed in range(3)
            ),
            checks=(_rows_check("one_eps_guarantee",
                                _one_eps_guarantee),),
        ),
        Section(
            name="t1_summary",
            title="Table 1 (regenerated, n=18 workload): bound vs "
                  "measured",
            measurement="maxis_layers",
            grid=(
                {"graph": _T1_SUMMARY_NODE_G, "oracle": True,
                 "label": {"row": "MaxIS Δ rand (Alg.2)",
                           "bound": "delta"}},
                {"graph": _T1_SUMMARY_NODE_G, "oracle": True,
                 "measurement": "maxis_coloring",
                 "label": {"row": "MaxIS Δ det (Alg.3)",
                           "bound": "delta"}},
                {"graph": _T1_SUMMARY_EDGE_G, "oracle": True,
                 "measurement": "matching_lines", "method": "layers",
                 "label": {"row": "MWM 2 (line graph)", "bound": 2}},
                {"graph": _T1_SUMMARY_EDGE_G, "oracle": True,
                 "measurement": "fast2eps_weighted", "eps": 0.5,
                 "label": {"row": "MWM 2+eps (Thm 3.2/B.1)",
                           "bound": 2.5}},
                {"graph": _T1_SUMMARY_EDGE_G, "oracle": True,
                 "measurement": "oneeps_local", "eps": 0.5,
                 "label": {"row": "MCM 1+eps (Thm B.4)", "bound": 1.5}},
            ),
            seeds=(3,),
            reduce=_t1_summary_reduce,
            checks=(
                _per_row("bound_respected",
                         lambda r: r["measured_ratio"]
                         <= r["bound"] + 1e-9,
                         "{row}: measured {measured_ratio} exceeds "
                         "bound {bound}"),
            ),
        ),
    ),
))


def _assert(condition, message):
    assert condition, message


# ======================================================================
# FLA1 — Lemma A.1 layer-emptying dynamics
# ======================================================================
def _staircase_checks(max_phases=None, min_drop_fraction=False):
    def fn(rows):
        series = _series_values(rows, "top_layer")
        assert all(b <= a for a, b in zip(series, series[1:])), (
            "top layer must never climb"
        )
        if min_drop_fraction:
            assert series[0] == max(series)
            drops = sum(1 for a, b in zip(series, series[1:]) if b < a)
            assert drops >= len(series) // 2 - 1, (
                f"staircase too shallow: {drops} drops over "
                f"{len(series)} phases"
            )
        if max_phases is not None:
            assert len(series) <= max_phases, (
                f"typical case used {len(series)} phases "
                f"(expected <= {max_phases})"
            )

    return fn


def _layer_drops_reduce(trials):
    rows = []
    for trial in trials:
        measures = trial["measures"]
        rows.append({
            **trial["params"],
            "initial_top": measures["initial_top"],
            "layer_drops": measures["layer_drops"],
            "phases": measures["phases"],
        })
    return rows


def _layer_drops_check(rows):
    for row in rows:
        assert row["layer_drops"] <= row["log2W"] + 1, (
            f"Lemma A.1 budget exceeded: {row['layer_drops']} drops "
            f"for log2W={row['log2W']}"
        )
    drops = [r["layer_drops"] for r in rows]
    assert drops == sorted(drops), "drops must increase with W"
    assert drops[-1] > drops[0], "the budget must actually be used"


LAYERS = register_experiment(ExperimentSpec(
    name="layers",
    title="FLA1: Lemma A.1 layer-emptying dynamics",
    description=(
        "After one MIS phase on the locally-top layer every node of "
        "the top layer has its weight at least halved, so the top "
        "layer empties: a staircase on serializing chains, a collapse "
        "on sparse random graphs."
    ),
    tags=("lemma-a1", "figure"),
    sections=(
        Section(
            name="staircase",
            title="FLA1a: topmost occupied layer per selection phase "
                  "(layered chain, W=1024)",
            measurement="maxis_layers",
            grid=(
                {"graph": {"family": "layered_geometric",
                           "args": {"layers": 11, "width": 5, "seed": 1}},
                 "trace": True},
            ),
            seeds=(3,),
            reduce=_series_rows("phase", "top_layer"),
            render="series",
            render_params={"x": "phase", "y": "top_layer"},
            checks=(
                _rows_check("staircase_descends",
                            _staircase_checks(min_drop_fraction=True)),
            ),
        ),
        Section(
            name="drop_scaling",
            title="FLA1b: layer drops vs log W (layered chain)",
            measurement="maxis_layers",
            grid=tuple(
                {"graph": {"family": "layered_geometric",
                           "args": {"layers": layers, "width": 5,
                                    "seed": 1}},
                 "trace": True,
                 "label": {"W": 2 ** (layers - 1), "log2W": layers - 1}}
                for layers in (3, 7, 11)
            ),
            seeds=(6,),
            reduce=_layer_drops_reduce,
            checks=(_rows_check("lemma_a1_budget", _layer_drops_check),),
        ),
        Section(
            name="typical_collapse",
            title="FLA1c: typical case (sparse G(n,p), W=1024)",
            measurement="maxis_layers",
            grid=(
                {"graph": _gnp(80, 0.06, 1,
                               node_w={"max_weight": 1024,
                                       "scheme": "log-uniform",
                                       "seed": 2}),
                 "trace": True},
            ),
            seeds=(3,),
            reduce=_series_rows("phase", "top_layer"),
            render="series",
            render_params={"x": "phase", "y": "top_layer"},
            checks=(
                _rows_check("layers_collapse",
                            _staircase_checks(max_phases=11)),
            ),
        ),
    ),
))


# ======================================================================
# FT28 — Theorem 2.8 congestion separation
# ======================================================================
def _naive_grows_check(rows):
    exponent = growth_exponent([r["delta"] for r in rows],
                               [r["naive_max"] for r in rows])
    assert exponent > 0.7, (
        f"naive load must grow ~linearly in Δ, got Δ^{exponent:.2f}"
    )


def _audit_monotone_check(rows):
    loads = [r["naive_max"] for r in rows]
    assert loads == sorted(loads), "naive load must grow with Δ"
    assert all(r["aggregated_max"] == 2 for r in rows), (
        "aggregation must keep every physical edge at 2 messages"
    )


CONGESTION = register_experiment(ExperimentSpec(
    name="congestion",
    title="FT28: Theorem 2.8's congestion separation",
    description=(
        "A naive line-graph simulation loads the busiest physical "
        "edge with Θ(Δ) messages per round; the aggregation mechanism "
        "keeps every edge at 2."
    ),
    tags=("theorem-2.8", "congest"),
    sections=(
        Section(
            name="star_cost",
            title="FT28a: per-edge load of one line-graph round on "
                  "stars",
            measurement="t28_cost",
            grid=tuple(
                {"graph": {"family": "star", "args": {"leaves": degree}}}
                for degree in (4, 8, 16, 32, 64)
            ),
            checks=(
                _rows_check("naive_load_linear_in_delta",
                            _naive_grows_check),
                _per_row("aggregated_constant",
                         lambda r: r["aggregated_max"] == 2,
                         "aggregated load {aggregated_max} != 2"),
            ),
        ),
        Section(
            name="regular_cost",
            title="FT28b: per-edge load on random regular graphs",
            measurement="t28_cost",
            grid=tuple(
                {"graph": {"family": "random_regular",
                           "args": {"degree": degree, "n": 48,
                                    "seed": 1}}}
                for degree in (4, 8, 12)
            ),
            checks=(
                _per_row("separation",
                         lambda r: r["naive_max"] > r["aggregated_max"],
                         "no separation at Δ={delta}"),
            ),
        ),
        Section(
            name="full_audit",
            title="FT28c: measured audit over a full "
                  "Algorithm-2-on-L(G) run",
            measurement="matching_lines",
            grid=tuple(
                {"graph": {"family": "star",
                           "args": {"leaves": leaves},
                           "edge_weights": {"max_weight": 16, "seed": 2}},
                 "audit": True, "label": {"delta": leaves}}
                for leaves in (6, 12, 18)
            ),
            seeds=(3,),
            checks=(_rows_check("audit_separation",
                                _audit_monotone_check),),
        ),
    ),
))


# ======================================================================
# F1 — Figure 1 traversal counts (Claims B.5/B.6)
# ======================================================================
def _figure1_reduce(trials):
    return list(trials[0]["measures"]["node_rows"])


def _figure1_exact_check(rows):
    for row in rows:
        assert abs(row["through_b6"] - row["brute_force"]) < 1e-9, (
            f"node {row['node']}: backward share {row['through_b6']} "
            f"!= brute force {row['brute_force']}"
        )


def _figure1_summary_check(rows):
    for row in rows:
        assert row["paths"] >= 4, "instance must have overlapping paths"
        assert row["forward_err"] == 0, (
            f"forward counts off by {row['forward_err']}"
        )
        assert row["through_err"] < 1e-9, (
            f"backward shares off by {row['through_err']}"
        )


FIGURE1 = register_experiment(ExperimentSpec(
    name="figure1",
    title="F1: Figure 1 augmenting-path counts",
    description=(
        "Forward (Claim B.5) and backward (Claim B.6) traversal "
        "counts on the Figure 1 instance and on random bipartite "
        "graphs, validated against brute-force path enumeration."
    ),
    tags=("figure1", "claims-b5-b6"),
    sections=(
        Section(
            name="curated_counts",
            title="Figure 1 (reproduced): augmenting-path counts via "
                  "forward/backward traversal vs brute force",
            measurement="figure1_counts",
            grid=({"graph": {"family": "figure1"}},),
            reduce=_figure1_reduce,
            checks=(_rows_check("traversal_exact",
                                _figure1_exact_check),),
        ),
        Section(
            name="figure1_summary",
            title="F1b: traversal error summary (curated instance)",
            measurement="figure1_counts",
            grid=({"graph": {"family": "figure1"}},),
            checks=(_rows_check("counts_match_brute_force",
                                _figure1_summary_check),),
        ),
        Section(
            name="random_instances",
            title="F1c: Claims B.5/B.6 on random bipartite instances",
            measurement="figure1_counts",
            grid=tuple(
                {"graph": {"family": "random_bipartite",
                           "args": {"left": 6, "right": 6, "p": 0.4,
                                    "seed": seed}},
                 "greedy_matching": True, "seeds": (seed,)}
                for seed in range(5)
            ),
            reduce=lambda trials: [
                {"seed": t["seed"], "paths": t["measures"]["paths"],
                 "through_err": t["measures"]["through_err"]}
                for t in trials
            ],
            checks=(
                _per_row("traversal_exact",
                         lambda r: r["through_err"] < 1e-9,
                         "seed {seed}: traversal error {through_err}"),
            ),
        ),
    ),
))


# ======================================================================
# FT31 — Theorem 3.1 residual decay
# ======================================================================
def _decay_curve_check(rows):
    series = _series_values(rows, "residual")
    assert series[0] > series[-1], "residual mass must decay"
    assert series[-1] <= 0.05, f"tail residual {series[-1]} > 0.05"
    midpoint = series[len(series) // 2]
    assert midpoint <= series[0], "decay must not climb by midpoint"


def _k_sweep_reduce(trials):
    rows = []
    for trial in trials:
        series = trial["measures"]["series"]
        rows.append({
            "K": trial["params"]["k"],
            "resid@3": series[2],
            "resid@6": series[5],
            "resid@10": series[9],
        })
    return rows


NMIS_DECAY = register_experiment(ExperimentSpec(
    name="nmis_decay",
    title="FT31: Theorem 3.1 residual decay",
    description=(
        "The undecided-node fraction decays geometrically in the "
        "iteration budget; larger update factors K reach low residual "
        "mass faster on the log Δ/log K leg."
    ),
    tags=("theorem-3.1", "nmis"),
    sections=(
        Section(
            name="decay_curve",
            title="FT31a: undecided fraction vs budget (K=2, Δ=8, "
                  "n=120)",
            measurement="residual_decay",
            grid=(
                {"graph": {"family": "random_regular",
                           "args": {"degree": 8, "n": 120, "seed": 1}},
                 "k": 2, "max_iterations": 14, "num_seeds": 4},
            ),
            reduce=_series_rows("iters", "residual", offset=1),
            render="series",
            render_params={"x": "iters", "y": "residual"},
            checks=(_rows_check("geometric_decay",
                                _decay_curve_check),),
        ),
        Section(
            name="k_sweep",
            title="FT31b: residual fraction by update factor K",
            measurement="residual_decay",
            grid=tuple(
                {"graph": {"family": "random_regular",
                           "args": {"degree": 8, "n": 120, "seed": 2}},
                 "k": k, "max_iterations": 10, "num_seeds": 3}
                for k in (2, 3, 4)
            ),
            reduce=_k_sweep_reduce,
            checks=(
                _per_row("budget_helps",
                         lambda r: r["resid@10"] <= r["resid@3"] + 1e-9,
                         "K={K}: residual grew with budget"),
            ),
        ),
        Section(
            name="golden_rounds",
            title="FT31d: golden-round occurrence (Lemma B.1/B.2)",
            measurement="golden_rounds",
            grid=(
                {"graph": _gnp(120, 0.06, 5), "iterations": 25, "k": 2},
            ),
            seeds=(6,),
            checks=(
                _per_row("golden_rounds_occur",
                         lambda r: r["type1_total"] + r["type2_total"]
                         > 0,
                         "no golden rounds at all"),
                _per_row("type1_occurs",
                         lambda r: r["type1_nodes"] > 0,
                         "no type-1 golden rounds"),
            ),
        ),
        Section(
            name="budget_suffices",
            title="FT31c: Theorem 3.1 budget leaves ≈ δ residuals",
            measurement="nmis_budget_residual",
            grid=(
                {"graph": {"family": "random_regular",
                           "args": {"degree": 6, "n": 100, "seed": 3}},
                 "delta": 6, "k": 2.0, "failure_delta": 0.05,
                 "num_seeds": 5},
            ),
            checks=(
                _per_row("residual_rate_bounded",
                         lambda r: r["rate"] <= 2 * r["failure_delta"],
                         "residual rate {rate} exceeds 2δ"),
            ),
        ),
    ),
))


# ======================================================================
# FB13/FB14 — the Appendix B.4 proposal algorithm
# ======================================================================
def _unlucky_reduce(trials):
    rows = []
    for group in _group_by_cell(trials):
        unlucky = sum(t["measures"]["unlucky_left"] for t in group)
        total = sum(t["measures"]["left_size"] for t in group)
        rows.append({"phases": group[0]["params"]["phases"],
                     "unlucky_rate": unlucky / total})
    return rows


def _unlucky_check(rows):
    rates = [r["unlucky_rate"] for r in rows]
    assert rates[-1] <= rates[0], "more phases must not hurt"
    assert rates[-1] <= 0.05, f"tail unlucky rate {rates[-1]} > 0.05"


def _b14_check(rows):
    good = sum(1 for r in rows if r["ok"])
    assert good >= 3, f"only {good}/4 runs met the (2+ε) bound"


PROPOSAL = register_experiment(ExperimentSpec(
    name="proposal",
    title="FB13/FB14: the Appendix B.4 proposal algorithm",
    description=(
        "Lemma B.13: after O(K log 1/ε + log Δ/log K) phases each "
        "left node is matched or isolated except with probability "
        "≤ ε/2; Lemma B.14 lifts this to general graphs."
    ),
    tags=("appendix-b4", "proposal"),
    sections=(
        Section(
            name="unlucky_rate",
            title="FB13a: unlucky left-node rate vs phase budget (Δ=5)",
            measurement="proposal_bipartite",
            grid=tuple(
                {"graph": {"family": "bipartite_regular",
                           "args": {"side_size": 40, "degree": 5,
                                    "seed": 1}},
                 "phases": phases}
                for phases in (1, 2, 4, 8, 16)
            ),
            seeds=(0, 1, 2, 3),
            reduce=_unlucky_reduce,
            checks=(_rows_check("unlucky_rate_decays",
                                _unlucky_check),),
        ),
        Section(
            name="k_tradeoff",
            title="FB13b: analytic phase budget, K=2 vs optimized K",
            measurement="proposal_budget",
            grid=tuple(
                {"delta": delta, "eps": 0.25}
                for delta in (8, 64, 1024, 2 ** 15)
            ),
            checks=(
                _per_row("optimized_k_wins",
                         lambda r: r["budget_kstar"] <= r["budget_k2"],
                         "Δ={delta}: optimized K loses to K=2"),
            ),
        ),
        Section(
            name="lemma_b14",
            title="FB14: general proposal matching, ε=0.5 (bound 2+ε)",
            measurement="proposal_general",
            grid=tuple(
                {"graph": _gnp(60, 0.08, seed), "eps": 0.5,
                 "oracle": True, "seeds": (seed,)}
                for seed in range(4)
            ),
            checks=(_rows_check("mostly_within_bound", _b14_check),),
        ),
    ),
))


# ======================================================================
# ABL — design-choice ablations
# ======================================================================
def _eps_tradeoff_check(rows):
    found = [r["found"] for r in rows]
    assert found == sorted(found), "tighter ε must not lose quality"
    for row in rows:
        assert (1 + row["eps"]) * row["found"] >= row["opt"], (
            f"ε={row['eps']}: guarantee violated"
        )


ABLATION = register_experiment(ExperimentSpec(
    name="ablation",
    title="ABL: ablations over the paper's design choices",
    description=(
        "The MIS black box (Luby vs NMIS+Luby), the matching "
        "formulation (L(G) vs weight groups), the big-bucket base β, "
        "and the ε knob of the (1+ε) algorithm."
    ),
    tags=("ablation",),
    sections=(
        Section(
            name="mis_engines",
            title="ABL-a: MIS black box rounds (n=96 regular)",
            measurement="mis_engines",
            grid=tuple(
                {"graph": {"family": "random_regular",
                           "args": {"degree": degree, "n": 96,
                                    "seed": 1}},
                 "label": {"delta": degree}}
                for degree in (4, 8, 16)
            ),
            seeds=(0, 1, 2),
            reduce=_mean_over_seeds("luby_rounds", "composite_rounds"),
            checks=(
                _per_row("both_far_below_n",
                         lambda r: r["luby_rounds"] < 96
                         and r["composite_rounds"] < 96,
                         "an MIS engine used ≥ n rounds at Δ={delta}"),
            ),
        ),
        Section(
            name="formulations",
            title="ABL-b: L(G) formulation vs footnote-5 weight groups",
            measurement="lines_vs_groups",
            grid=tuple(
                {"graph": _gnp(22, 0.2, seed,
                               edge_w={"max_weight": 64,
                                       "seed": seed + 1}),
                 "seeds": (seed,)}
                for seed in range(4)
            ),
            checks=(
                _per_row("both_two_approx",
                         lambda r: r["lines_ratio"] <= 2.0
                         and r["groups_ratio"] <= 2.0,
                         "a formulation exceeded the 2-approx bound"),
            ),
        ),
        Section(
            name="bucket_base",
            title="ABL-c: big-bucket base β in the Appendix B.1 "
                  "pipeline",
            measurement="fast2eps_weighted",
            grid=tuple(
                {"graph": _gnp(22, 0.2, 5,
                               edge_w={"max_weight": 256, "seed": 6}),
                 "eps": 0.5, "beta_bucket": beta, "oracle": True}
                for beta in (4, 16, 64)
            ),
            seeds=(7,),
            checks=(
                _per_row("two_plus_eps",
                         lambda r: r["ratio"] <= 2.5,
                         "β={beta_bucket}: ratio {ratio} exceeds 2.5"),
            ),
        ),
        Section(
            name="eps_tradeoff",
            title="ABL-d: ε vs quality/rounds for the (1+ε) algorithm",
            measurement="oneeps_local",
            grid=tuple(
                {"graph": _gnp(26, 0.18, 8), "eps": eps, "oracle": True}
                for eps in (1.0, 0.5, 0.34)
            ),
            seeds=(9,),
            checks=(_rows_check("eps_tradeoff", _eps_tradeoff_check),),
        ),
    ),
))


# ======================================================================
# CMP — ours vs prior-art baselines
# ======================================================================
def _cmp_weighted_check(rows):
    for row in rows:
        assert row["lr2_ratio"] <= 2.0, (
            f"{row['family']}: local-ratio exceeded 2"
        )
        assert row["fast2eps_ratio"] <= 2.5, (
            f"{row['family']}: fast (2+ε) exceeded 2.5"
        )
    bimodal = next(r for r in rows if r["family"] == "bimodal")
    assert bimodal["maximal_ratio"] > bimodal["lr2_ratio"], (
        "weight-oblivious maximal matching must lose on bimodal weights"
    )


def _cmp_rounds_check(rows):
    exponent = growth_exponent([r["n"] for r in rows],
                               [r["fast_rounds"] for r in rows])
    assert exponent < 0.3, f"rounds grow like n^{exponent:.2f}"
    for row in rows:
        assert row["fast_ratio"] <= 2.5, (
            f"n={row['n']}: fast ratio exceeded 2.5"
        )


_CMP_FAMILIES = (
    ("gnp", _gnp(40, 0.1, 1, edge_w={"max_weight": 64,
                                     "scheme": "uniform", "seed": 2})),
    ("regular6", {"family": "random_regular",
                  "args": {"degree": 6, "n": 40, "seed": 3},
                  "edge_weights": {"max_weight": 64, "scheme": "uniform",
                                   "seed": 4}}),
    ("grid", {"family": "grid", "args": {"rows": 6, "cols": 6},
              "edge_weights": {"max_weight": 64, "scheme": "uniform",
                               "seed": 5}}),
    ("powerlaw", {"family": "power_law", "args": {"n": 40, "seed": 6},
                  "edge_weights": {"max_weight": 64, "scheme": "uniform",
                                   "seed": 7}}),
    ("bimodal", _gnp(40, 0.1, 8, edge_w={"max_weight": 512,
                                         "scheme": "bimodal",
                                         "seed": 9})),
)

COMPARISON = register_experiment(ExperimentSpec(
    name="comparison",
    title="CMP: ours vs prior-art baselines (the §1.3 landscape)",
    description=(
        "Weight-oblivious maximal matching can lose a factor W on "
        "weighted instances while local-ratio holds 2; the fast "
        "algorithms trade approximation for round scaling in Δ."
    ),
    tags=("comparison", "baselines"),
    sections=(
        Section(
            name="weighted_ratios",
            title="CMP-a: weighted approximation ratios (lower is "
                  "better)",
            measurement="weighted_matchers",
            grid=tuple(
                {"graph": spec, "eps": 0.5, "label": {"family": name}}
                for name, spec in _CMP_FAMILIES
            ),
            seeds=(1,),
            checks=(_rows_check("weighted_landscape",
                                _cmp_weighted_check),),
        ),
        Section(
            name="round_scaling",
            title="CMP-b: rounds vs n at fixed Δ=4 (Δ, not n, governs "
                  "the fast algorithms)",
            measurement="fast_vs_maximal_rounds",
            grid=tuple(
                {"graph": {"family": "random_regular",
                           "args": {"degree": 4, "n": n, "seed": 10}},
                 "eps": 0.5, "num_seeds": 3, "label": {"n": n}}
                for n in (32, 64, 128, 256)
            ),
            seeds=(11,),
            checks=(_rows_check("rounds_flat_in_n", _cmp_rounds_check),),
        ),
    ),
))


# ======================================================================
# BUD — anytime budget sweeps (quality-vs-round curves)
# ======================================================================
def _anytime_contract_check(rows):
    """The anytime protocol's contract, per (algorithm, ε,
    bandwidth_factor) curve: truncated runs fit their budget, quality
    never decreases with more budget, the unbounded run completes, and
    every completed run matches the unbounded objective
    (prefix-of-the-same-run determinism at a fixed seed)."""

    order, groups = [], {}
    for row in rows:
        key = (row["algorithm"], row.get("eps"),
               row.get("bandwidth_factor"))
        if key not in groups:
            order.append(key)
            groups[key] = []
        groups[key].append(row)
    for key in order:
        group = groups[key]
        objectives = [r["objective"] for r in group]
        assert objectives == sorted(objectives), (
            f"{key}: quality decreased with budget: {objectives}"
        )
        final = group[-1]
        assert final["status"] == "complete", (
            f"{key}: unbounded run did not complete"
        )
        for row in group:
            if row["budget"] is not None:
                assert row["rounds"] <= row["budget"], (
                    f"{key}: consumed {row['rounds']} rounds on a "
                    f"budget of {row['budget']}"
                )
            if row["status"] == "complete":
                assert row["objective"] == final["objective"], (
                    f"{key}: a completed budgeted run diverged from "
                    "the unbounded run"
                )

    return None


def _curve_moves_check(rows):
    """The sweep must actually exercise truncation: a zero budget
    yields the empty solution, and some budget improves on it."""

    for row in rows:
        if row["budget"] == 0:
            assert row["objective"] == 0, (
                "a zero-round budget returned a non-empty solution"
            )
            assert row["status"] == "truncated", (
                "a zero-round budget did not truncate"
            )
    objectives = [r["objective"] for r in rows]
    assert max(objectives) > min(objectives), (
        "the budget sweep never changed the objective"
    )


def _bandwidth_axis_check(rows):
    """The bandwidth_factor axis is observational metering, not a
    different algorithm: at every round budget the execution is
    invariant along the axis (identical objective, rounds and status
    at every word width), recorded violations are monotone
    non-increasing as the per-edge word widens, the narrowest width
    actually triggers violations (the axis is exercised), and the
    simulator default records none."""

    by_budget = {}
    for row in rows:
        by_budget.setdefault(row["budget"], []).append(row)
    for budget, group in by_budget.items():
        group = sorted(group, key=lambda r: r["bandwidth_factor"])
        reference = group[0]
        for row in group[1:]:
            for key in ("objective", "rounds", "status"):
                assert row[key] == reference[key], (
                    f"budget={budget}: {key} varied along the "
                    f"bandwidth axis ({row[key]} vs {reference[key]})"
                )
        violations = [row["violations"] for row in group]
        assert violations == sorted(violations, reverse=True), (
            f"budget={budget}: violations not monotone in bandwidth: "
            f"{violations}"
        )
        assert violations[0] > 0, (
            f"budget={budget}: the narrowest bandwidth recorded no "
            "violations — the sweep never exercised the axis"
        )
        assert violations[-1] == 0, (
            f"budget={budget}: the default bandwidth recorded "
            f"{violations[-1]} violations"
        )


_BUDGETS_MAXIS_G = _gnp(40, 0.1, 1, node_w={"max_weight": 64, "seed": 2})
_BUDGETS_ONEEPS_G = _gnp(24, 0.18, 4)
_BUDGETS_CONGEST_G = _gnp(20, 0.2, 6)
_BUDGETS_COARSE_G = _gnp(20, 0.2, 8)

BUDGETS = register_experiment(ExperimentSpec(
    name="budgets",
    title="BUD: anytime budget sweeps (max_rounds × ε)",
    description=(
        "The paper's guarantees are round-for-quality trade-offs; "
        "this experiment records the empirical curves.  Each section "
        "sweeps Instance.max_rounds over one algorithm (crossed with "
        "ε for the (1+ε) matcher) through the anytime solve protocol: "
        "a truncated run returns the best valid partial solution "
        "within the budget instead of raising."
    ),
    tags=("anytime", "budgets"),
    sections=(
        Section(
            name="maxis_curve",
            title="BUD-a: Algorithm 2 weight vs round budget "
                  "(phase-grain truncation)",
            measurement="budget_curve",
            grid=tuple(
                {"graph": _BUDGETS_MAXIS_G, "algorithm": "maxis-layers",
                 "budget": budget}
                for budget in (0, 2, 4, 6, 8, None)
            ),
            seeds=(3,),
            checks=(
                _rows_check("anytime_contract", _anytime_contract_check),
                _rows_check("curve_moves", _curve_moves_check),
            ),
        ),
        Section(
            name="oneeps_curve",
            title="BUD-b: (1+ε) LOCAL matcher, ε × budget "
                  "(Hopcroft–Karp phase grain)",
            measurement="budget_curve",
            grid=tuple(
                {"graph": _BUDGETS_ONEEPS_G,
                 "algorithm": "matching-oneeps", "eps": eps,
                 "budget": budget}
                for eps in (1.0, 0.5)
                for budget in (0, 15, 19, None)
            ),
            seeds=(5,),
            checks=(
                _rows_check("anytime_contract", _anytime_contract_check),
                _rows_check("curve_moves", _curve_moves_check),
            ),
        ),
        Section(
            name="congest_stage_curve",
            title="BUD-c: (1+ε) CONGEST matcher vs budget (stage grain)",
            measurement="budget_curve",
            grid=tuple(
                {"graph": _BUDGETS_CONGEST_G,
                 "algorithm": "matching-oneeps-congest", "eps": 0.5,
                 "budget": budget}
                for budget in (0, 60, 150, None)
            ),
            seeds=(7,),
            checks=(
                _rows_check("anytime_contract", _anytime_contract_check),
                _rows_check("curve_moves", _curve_moves_check),
            ),
        ),
        Section(
            name="coarse_truncation",
            title="BUD-d: coarse begin/end adapter (every registered "
                  "algorithm is interruptible)",
            measurement="budget_curve",
            grid=tuple(
                {"graph": _BUDGETS_COARSE_G,
                 "algorithm": "matching-fast2eps", "eps": 0.5,
                 "budget": budget}
                for budget in (0, None)
            ),
            seeds=(9,),
            checks=(
                _rows_check("anytime_contract", _anytime_contract_check),
                _rows_check("curve_moves", _curve_moves_check),
            ),
        ),
        Section(
            name="bandwidth_curve",
            title="BUD-e: bandwidth-budget sweep (bandwidth_factor × "
                  "round budget; ROADMAP open item)",
            measurement="budget_curve",
            grid=tuple(
                {"graph": _BUDGETS_MAXIS_G, "algorithm": "maxis-layers",
                 "bandwidth_factor": bandwidth_factor, "budget": budget}
                for bandwidth_factor in (1, 2, 8)
                for budget in (4, None)
            ),
            seeds=(3,),
            checks=(
                _rows_check("anytime_contract", _anytime_contract_check),
                _rows_check("bandwidth_axis", _bandwidth_axis_check),
            ),
        ),
    ),
))


# ======================================================================
# smoke — the CI gate (tiny grid, recorded bounds, pinned counters)
# ======================================================================
#: Recorded regression bounds for the smoke workloads.  These are NOT
#: the paper's guarantees (those are looser); they are the measured
#: behaviour of this codebase with comfortable headroom, so CI fails
#: when a change makes approximation *worse* than it has ever been
#: while still allowing benign cross-version jitter.
SMOKE_BOUNDS = {
    "maxis_ratio": 1.5,          # measured 1.035 on the pinned workload
    "matching_effective": 1.5,   # the (1+ε) guarantee at ε=0.5
}

#: Exact simulator counters for the pinned n=300 CONGEST protocol run.
#: Any change to message delivery or metric accounting shows up here.
SMOKE_SIM_EXPECTED = {
    "rounds": 13,
    "messages": 11369,
    "bits": 138650,
    "violations": 0,
}


def _smoke_maxis_check(rows):
    for row in rows:
        assert row["ratio"] <= row["delta"], "Δ-approximation violated"
        assert row["ratio"] <= SMOKE_BOUNDS["maxis_ratio"], (
            f"MaxIS ratio {row['ratio']} regressed past the recorded "
            f"bound {SMOKE_BOUNDS['maxis_ratio']}"
        )


def _smoke_matching_check(rows):
    for row in rows:
        effective = row["found"] + row["deactivated"]
        bound = SMOKE_BOUNDS["matching_effective"]
        assert bound * effective >= row["opt"], (
            f"(1+ε) matching regressed: {effective} effective vs "
            f"optimum {row['opt']} (recorded bound {bound})"
        )


def _smoke_sim_check(rows):
    for row in rows:
        for key, expected in SMOKE_SIM_EXPECTED.items():
            assert row[key] == expected, (
                f"simulator fingerprint changed: {key}={row[key]}, "
                f"recorded {expected}"
            )


SMOKE = register_experiment(ExperimentSpec(
    name="smoke",
    title="smoke: the CI regression gate",
    description=(
        "A tiny deterministic grid (< 30 s) that exercises Algorithm "
        "2, the (1+ε) matching and a full n=300 CONGEST protocol run "
        "through the simulator.  Checks pin recorded approximation "
        "bounds and exact simulator counters."
    ),
    tags=("ci", "smoke"),
    sections=(
        Section(
            name="maxis_ratio",
            title="smoke-a: Algorithm 2 ratio on the pinned workload",
            measurement="maxis_layers",
            grid=(
                {"graph": _gnp(18, 0.25, 1,
                               node_w={"max_weight": 64, "seed": 2}),
                 "oracle": True},
            ),
            seeds=(3,),
            checks=(_rows_check("ratio_within_recorded_bound",
                                _smoke_maxis_check),),
        ),
        Section(
            name="matching_ratio",
            title="smoke-b: (1+ε) matching on the pinned workload",
            measurement="oneeps_local",
            grid=(
                {"graph": _gnp(20, 0.2, 0), "eps": 0.5, "oracle": True},
            ),
            seeds=(1,),
            checks=(_rows_check("effective_within_recorded_bound",
                                _smoke_matching_check),),
        ),
        Section(
            name="sim_microbench",
            title="smoke-c: full n=300 G(n,p) CONGEST protocol run "
                  "(simulator fingerprint)",
            measurement="simulator_microbench",
            grid=(
                {"graph": _gnp(300, 0.05, 1,
                               node_w={"max_weight": 4096,
                                       "scheme": "log-uniform",
                                       "seed": 2})},
            ),
            seeds=(0,),
            checks=(_rows_check("simulator_fingerprint",
                                _smoke_sim_check),),
        ),
    ),
))


# ======================================================================
# faults — deterministic chaos drills against the solver service
# ======================================================================
# Every measure here is a counter, flag or objective total — no
# wall-clock — so the artifact is byte-deterministic at a fixed seed and CI `cmp`-gates the committed BENCH_faults.json.
def _faults_retry_check(rows):
    """Transient faults must be absorbed, never corrupt results, and
    retries must grow with the injection rate from a zero baseline."""

    for row in rows:
        assert row["terminal"] == row["jobs"], (
            f"{row['jobs'] - row['terminal']} jobs lost at "
            f"rate {row['rate']}"
        )
        assert row["objective_total"] == row["direct_objective_total"], (
            f"retried jobs diverged from the fault-free solve at "
            f"rate {row['rate']} ({row['objective_total']} vs "
            f"{row['direct_objective_total']})"
        )
    by_rate = sorted(rows, key=lambda row: row["rate"])
    retries = [row["retries"] for row in by_rate]
    assert retries == sorted(retries), (
        f"retries must not fall as the fault rate grows: {retries}"
    )
    assert by_rate[0]["rate"] == 0.0 and by_rate[0]["retries"] == 0, (
        "the fault-free cell must be retry-free "
        f"(got {by_rate[0]['retries']})"
    )
    assert by_rate[0]["failed"] == 0, (
        "the fault-free cell must not fail jobs"
    )
    assert by_rate[-1]["retries"] > 0, (
        "the faulted cells never triggered a retry — injection is dead"
    )


def _faults_journal_check(rows):
    """Journal faults degrade persistence loudly, never the solves;
    recovery sweeps/skips garbage and finishes every durable job."""

    for row in rows:
        assert row["first_complete"] == row["jobs"], (
            f"journal faults killed "
            f"{row['jobs'] - row['first_complete']} jobs"
        )
        assert row["objective_total"] == row["direct_objective_total"], (
            "journal faults corrupted results "
            f"({row['objective_total']} vs "
            f"{row['direct_objective_total']})"
        )
        assert row["journal_errors"] > 0, (
            f"no journal faults fired at rate {row['rate']}"
        )
        assert row["skipped"] == 2, (
            f"recovery should skip the 2 planted garbage files, "
            f"skipped {row['skipped']}"
        )
        assert row["swept_tmp"] >= 1, (
            "recovery never swept the planted stale temp file"
        )
        assert row["recovered_terminal"], (
            "a recovered job never reached a terminal state"
        )
        assert (row["recovered_objective_total"]
                == row["recovered_direct_total"]), (
            "recovered jobs diverged from their fault-free solves"
        )
        if row["rate"] >= 1.0:
            assert row["degraded"], (
                "persistent journal failure must flip health degraded"
            )
            assert row["restored"] + row["requeued"] == 0, (
                "no record can be durable when every write fails"
            )


def _faults_drain_check(rows):
    """A graceful drain parks every in-flight job with a journaled
    resume point, and a restart finishes them bit-equal to
    never-interrupted runs."""

    for row in rows:
        assert row["parked"] == row["jobs"], (
            f"drain parked {row['parked']} of {row['jobs']} jobs "
            "(a job finished before the drain hit — raise the phase "
            "delay)"
        )
        assert row["terminal_before_drain"] == 0, (
            "the drain scenario expects every job mid-flight"
        )
        assert row["drain_clean"], "drain missed its budget"
        assert row["requeued"] == row["jobs"], (
            f"restart requeued {row['requeued']} of {row['jobs']} "
            "drained jobs"
        )
        assert row["objective_total"] == row["direct_objective_total"], (
            "drained-and-resumed jobs diverged from never-stopped runs "
            f"({row['objective_total']} vs "
            f"{row['direct_objective_total']})"
        )


def _faults_dispatcher_check(rows):
    """Dispatcher death latches degraded health; queued jobs survive
    in the journal and a restart finishes all of them."""

    for row in rows:
        assert row["dispatcher_dead"] and row["degraded"], (
            "dispatcher death must latch the health breaker"
        )
        assert row["executed_before_death"] == 0, (
            f"{row['executed_before_death']} jobs ran under a dead "
            "dispatcher"
        )
        assert row["requeued"] == row["jobs"], (
            f"restart recovered {row['requeued']} of {row['jobs']} "
            "journaled jobs"
        )
        assert row["complete_after_restart"] == row["jobs"], (
            "a recovered job failed to complete after restart"
        )
        assert row["objective_total"] == row["direct_objective_total"], (
            "recovered jobs diverged from the fault-free solves"
        )


FAULTS = register_experiment(ExperimentSpec(
    name="faults",
    title="FAULTS: seeded chaos drills and recovery guarantees",
    description=(
        "Runs the solver service under the deterministic fault-"
        "injection plane (repro.faults): a worker.transient rate "
        "sweep exercises the bounded-retry path, journal.write/"
        "journal.tmp faults exercise the degraded-health breaker and "
        "garbage-tolerant recovery, a mid-solve graceful drain "
        "exercises the SIGTERM path, and a dispatcher.death drill "
        "exercises the latched breaker.  Every measure is a counter "
        "or flag (never wall-clock), so the artifact is byte-"
        "deterministic and CI cmp-gates the committed "
        "BENCH_faults.json."
    ),
    tags=("serve", "faults", "chaos"),
    sections=(
        Section(
            name="retry",
            title="FAULTS-a: transient-fault rate sweep vs bounded "
                  "retries (6 jobs, n=32, max 4 attempts)",
            measurement="fault_recovery",
            grid=(
                {"scenario": "retry", "rate": 0.0, "jobs": 6},
                {"scenario": "retry", "rate": 0.3, "jobs": 6},
                {"scenario": "retry", "rate": 0.6, "jobs": 6},
            ),
            seeds=(0,),
            checks=(
                _rows_check("retries_absorb_transients",
                            _faults_retry_check),
            ),
        ),
        Section(
            name="journal",
            title="FAULTS-b: journal I/O faults, degraded health and "
                  "garbage-tolerant recovery (4 jobs, n=32)",
            measurement="fault_recovery",
            grid=(
                {"scenario": "journal", "rate": 0.4, "tmp_rate": 0.3,
                 "jobs": 4},
                {"scenario": "journal", "rate": 1.0, "tmp_rate": 0.0,
                 "jobs": 4},
            ),
            seeds=(0,),
            checks=(
                _rows_check("journal_faults_stay_loud_not_fatal",
                            _faults_journal_check),
            ),
        ),
        Section(
            name="drain",
            title="FAULTS-c: graceful drain mid-solve, restart "
                  "resumes bit-equal (3 jobs, n=32)",
            measurement="fault_recovery",
            grid=(
                {"scenario": "drain", "jobs": 3},
            ),
            seeds=(0,),
            checks=(
                _rows_check("drain_parks_and_resumes",
                            _faults_drain_check),
            ),
        ),
        Section(
            name="dispatcher",
            title="FAULTS-d: dispatcher death latches degraded "
                  "health, restart recovers (3 jobs, n=32)",
            measurement="fault_recovery",
            grid=(
                {"scenario": "dispatcher", "jobs": 3},
            ),
            seeds=(0,),
            checks=(
                _rows_check("dispatcher_death_is_loud_and_recoverable",
                            _faults_dispatcher_check),
            ),
        ),
    ),
))


# ----------------------------------------------------------------------
# MPC: sublinear-memory machines and per-machine load curves
# ----------------------------------------------------------------------
def _mpc_parity_check(rows):
    """Every MPC configuration reproduces its solve() twin exactly and
    stays under the per-machine sublinear budget."""

    for row in rows:
        assert row["parity"] and row["solution_parity"], (
            f"MPC run of {row['algorithm']} diverged from solve(): "
            f"{row['objective']} vs {row['baseline_objective']}"
        )
        assert row["sublinear_ok"], (
            f"machine load {row['max_machine_load']} exceeds the "
            f"capacity {row['capacity']}"
        )


def _mpc_dense_check(rows):
    """The dense configurations pass the sublinearity check *only*
    because adaptive sparsification engaged."""

    _mpc_parity_check(rows)
    engaged = [r for r in rows if r["sparsify_triggers"] > 0
               and r["would_violate_without"]]
    assert engaged, (
        "no dense configuration needed sparsification — the grid no "
        "longer exercises the adaptive dropper"
    )
    for row in engaged:
        assert row["dropped_messages"] > 0, (
            "sparsification triggered without dropping anything"
        )


MPC_SCALING = register_experiment(ExperimentSpec(
    name="mpc_scaling",
    title="MPC: machines × δ sweeps, sublinearity and sparsification",
    description=(
        "Runs the two MPC-ported algorithms (matching-proposal and "
        "maxis-greedy) across machine counts, memory exponents δ and "
        "graph families, recording per-machine peak loads, shuffle "
        "traffic and sparsification counters next to an exact "
        "objective/solution parity check against the default-model "
        "solve().  The dense section drives a complete graph through "
        "the greedy peeler, whose exclusion broadcast round is Θ(n²) "
        "outcome-neutral traffic — the configuration that passes the "
        "per-machine O(n^δ) budget only because the peak-hold "
        "estimator engages the adaptive dropper.  Every measure is a "
        "counter or flag, so the artifact is byte-deterministic and "
        "CI cmp-gates the committed BENCH_mpc.json."
    ),
    tags=("mpc", "models"),
    sections=(
        Section(
            name="machines",
            title="MPC-a: matching-proposal load vs machine count "
                  "(G(48, 0.12), δ=0.5)",
            measurement="mpc_scaling",
            grid=tuple(
                {"graph": _gnp(48, 0.12, 3),
                 "algorithm": "matching-proposal",
                 "machines": m, "delta": 0.5}
                for m in (2, 4, 8, 16)
            ),
            seeds=(0,),
            checks=(
                _rows_check("mpc_parity_and_sublinearity",
                            _mpc_parity_check),
                _rows_check(
                    "load_spreads_with_machines",
                    lambda rows: _assert(
                        rows[-1]["max_machine_load"]
                        <= rows[0]["max_machine_load"],
                        "peak machine load must not grow as the "
                        "fleet spreads out"),
                ),
            ),
        ),
        Section(
            name="delta",
            title="MPC-b: maxis-greedy load vs memory exponent δ "
                  "(G(48, 0.15), default fleet)",
            measurement="mpc_scaling",
            grid=tuple(
                {"graph": _gnp(48, 0.15, 5,
                               node_w={"max_weight": 8, "seed": 2}),
                 "algorithm": "maxis-greedy", "delta": d}
                for d in (0.4, 0.5, 0.75)
            ),
            seeds=(0,),
            checks=(
                _rows_check("mpc_parity_and_sublinearity",
                            _mpc_parity_check),
            ),
        ),
        Section(
            name="dense",
            title="MPC-c: greedy peeling on complete graphs — "
                  "sparsification keeps the shuffle sublinear",
            measurement="mpc_scaling",
            grid=tuple(
                {"graph": {"family": "complete", "args": {"n": n}},
                 "algorithm": "maxis-greedy"}
                for n in (32, 48)
            ),
            seeds=(0,),
            checks=(
                _rows_check("dense_needs_sparsification",
                            _mpc_dense_check),
            ),
        ),
    ),
))


# ----------------------------------------------------------------------
# churn — dynamic graphs: incremental re-solve vs from-scratch
# ----------------------------------------------------------------------
def _churn_sound(rows):
    """Every incremental solution is certified feasible on its mutated
    graph and matches the from-scratch objective within the
    algorithm's guarantee — and never costs more rounds than scratch."""

    for row in rows:
        _assert(row["feasible"],
                f"incremental step not certified at bs={row['batch_size']}")
        _assert(row["parity_ok"],
                f"objective parity broken at bs={row['batch_size']}")
        _assert(row["speedup_rounds"] >= 1.0,
                f"incremental costlier than scratch at "
                f"bs={row['batch_size']}: {row['speedup_rounds']}x")


def _churn_small_batches_win(rows):
    """Small mutation batches must beat from-scratch clearly, and the
    advantage must shrink as batches grow (locality of repair)."""

    small = [r["speedup_rounds"] for r in rows if r["batch_size"] <= 2]
    _assert(small and min(small) >= 1.2,
            f"small-batch speedups {small} below the 1.2x gate")
    _assert(rows[0]["speedup_rounds"] >= rows[-1]["speedup_rounds"],
            "repair advantage should shrink as the batch grows")


def _churn_backend_parity(rows):
    """Object and array backends must agree on every counter."""

    keys = ("repair_rounds", "scratch_rounds", "final_objective",
            "speedup_rounds", "region_nodes")
    _assert(len(rows) == 2, "expected one object + one array row")
    for key in keys:
        _assert(rows[0][key] == rows[1][key],
                f"backend mismatch on {key}: "
                f"{rows[0][key]} != {rows[1][key]}")


CHURN = register_experiment(ExperimentSpec(
    name="churn",
    title="Dynamic graphs: incremental warm-started re-solve under churn",
    description=(
        "Streams deterministic mutation batches (edge insert/delete, "
        "node-weight bumps) over a base graph and re-solves every "
        "version warm-started from the previous run's resume state "
        "via resume(..., allow=MutationCompat(batch)), repairing only "
        "the mutation's influence region.  Rows compare the repair "
        "cost (cumulative-round delta) against solving each version "
        "from scratch, and gate that every incremental solution is "
        "certified feasible on its mutated graph with objectives "
        "matching scratch within the algorithm's guarantee.  All "
        "measures are round counters and flags — never wall-clock — "
        "so BENCH_churn.json is byte-deterministic and CI cmp-gates "
        "the committed artifact."
    ),
    tags=("dynamic", "churn", "resume"),
    sections=(
        Section(
            name="maxis_repair",
            title="churn-a: Algorithm 2 repair cost vs batch size "
                  "(G(80, 0.06), weights ≤ 64)",
            measurement="churn",
            grid=tuple(
                {"graph": _sparse_gnp(80, 0.06, 3,
                                      node_w={"max_weight": 64,
                                              "seed": 2}),
                 "algorithm": "maxis-layers",
                 "batches": 3, "batch_size": bs}
                for bs in (1, 2, 4, 8)
            ),
            seeds=(0,),
            checks=(
                _rows_check("incremental_sound", _churn_sound),
                _rows_check("small_batches_win", _churn_small_batches_win),
            ),
        ),
        Section(
            name="matching_repair",
            title="churn-b: proposal matcher repair cost vs batch size "
                  "(G(120, 0.04))",
            measurement="churn",
            grid=tuple(
                {"graph": _sparse_gnp(120, 0.04, 5),
                 "algorithm": "matching-proposal", "eps": 0.5,
                 "batches": 3, "batch_size": bs}
                for bs in (1, 4)
            ),
            seeds=(0,),
            checks=(
                _rows_check("incremental_sound", _churn_sound),
                _rows_check(
                    "small_batch_beats_scratch",
                    lambda rows: _assert(
                        rows[0]["speedup_rounds"] >= 1.2,
                        f"bs=1 speedup {rows[0]['speedup_rounds']}x "
                        "below the 1.2x gate"),
                ),
            ),
        ),
        Section(
            name="backend",
            title="churn-c: object vs array backend — identical "
                  "incremental repair, counter for counter",
            measurement="churn",
            grid=tuple(
                {"graph": _sparse_gnp(80, 0.06, 3,
                                      node_w={"max_weight": 64,
                                              "seed": 2}),
                 "algorithm": "maxis-layers",
                 "batches": 3, "batch_size": 2, "backend": backend}
                for backend in (None, "array")
            ),
            seeds=(0,),
            checks=(
                _rows_check("backend_parity", _churn_backend_parity),
            ),
        ),
    ),
))
