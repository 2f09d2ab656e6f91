"""Composition of scalar functions along a DAG, with error propagation.

Each node v of the graph owns a constituent function f_v.  A source node
reads a point of R^{in_dim} supplied by the caller; an internal node reads
the tuple of its children's outputs, passed through the node's pooling map,
and the single sink's output is the value of the composite.  Children are
ordered; evaluation memoizes per node id, so any topological order yields
the identical result.

When every constituent f_v is replaced by an approximation g_v with
per-node sup gap <= eps, the sink gap obeys the recursion

    bound(v) = eps                                   (source)
    bound(v) = eps + c(v) * L * sum_k bound(u_k)     (internal)

where L is the largest Lipschitz bound among internal constituents and
c(v) is the pooling contract constant: the pooling must satisfy
|pool(a) - pool(b)| <= c(v) * sum_k |a_k - b_k| on its inputs.

``build_deep_approx`` replaces every constituent by a one-shot kernel
estimate from per-node training data: ``estimator.ratio_reconstruction``,
the two-pass form (value pass over a unit-value pass), so sampling density
never biases the node scale; where the unit pass vanishes the estimator
module's zero-mass policy applies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .estimator import Dataset, EstimatorConfig, ratio_reconstruction

__all__ = [
    "make_pooling",
    "DagNode",
    "Dag",
    "read_dag_json",
    "dag_from_doc",
    "write_dag_json",
    "eval_gfunction",
    "estimate_lipschitz",
    "PropagationReport",
    "propagation_gap",
    "build_deep_approx",
]


def make_pooling(name: str, params: Mapping) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve a pooling map by name.

    identity            -- passes the child vector through
    clip(lo, hi)        -- componentwise clamp to the box [lo, hi]
    radial(radius)      -- projects onto the sphere of the given radius;
                           the origin maps to radius * e_1
    """
    if name == "identity":
        return lambda v: v
    if name == "clip":
        lo = float(params.get("lo", -1.0))
        hi = float(params.get("hi", 1.0))
        if not lo < hi:
            raise ValueError("clip pooling requires lo < hi")
        return lambda v: np.clip(v, lo, hi)
    if name == "radial":
        radius = float(params.get("radius", 1.0))
        if radius <= 0:
            raise ValueError("radial pooling requires a positive radius")

        def _radial(v: np.ndarray) -> np.ndarray:
            nrm = float(np.linalg.norm(v))
            if nrm == 0.0:
                out = np.zeros_like(v)
                out[0] = radius
                return out
            return (radius / nrm) * v

        return _radial
    raise ValueError(f"unknown pooling {name!r}")


@dataclass(frozen=True)
class DagNode:
    """One vertex: identity, role, fan-in, ordered children, pooling, bounds."""

    id: str
    kind: str  # "source" | "internal"
    in_dim: int
    children: tuple = ()
    pooling_name: str = "identity"
    pooling_params: dict = field(default_factory=dict)
    pooling_c: float = 1.0
    lipschitz: float | None = None
    constituent: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("source", "internal"):
            raise ValueError(f"node {self.id}: kind must be source or internal")
        if self.in_dim < 1:
            raise ValueError(f"node {self.id}: in_dim must be >= 1")
        if self.kind == "source" and self.children:
            raise ValueError(f"node {self.id}: source nodes take no children")
        if self.kind == "internal":
            if not self.children:
                raise ValueError(f"node {self.id}: internal nodes need children")
            if len(self.children) != self.in_dim:
                raise ValueError(
                    f"node {self.id}: in_dim {self.in_dim} != fan-in {len(self.children)}"
                )
        if self.pooling_c <= 0:
            raise ValueError(f"node {self.id}: pooling_c must be positive")

    @property
    def pooling(self) -> Callable[[np.ndarray], np.ndarray]:
        return make_pooling(self.pooling_name, self.pooling_params)


@dataclass(frozen=True)
class Dag:
    """Validated DAG with ordered children and exactly one sink."""

    nodes: dict
    sink: str

    def __post_init__(self) -> None:
        ids = set(self.nodes)
        if self.sink not in ids:
            raise ValueError(f"sink {self.sink!r} is not a node")
        referenced = set()
        for node in self.nodes.values():
            for child in node.children:
                if child not in ids:
                    raise ValueError(f"node {node.id}: unknown child {child!r}")
                referenced.add(child)
        unreferenced = ids - referenced
        if unreferenced != {self.sink}:
            raise ValueError(
                f"graph must have exactly one sink; unreferenced nodes: {sorted(unreferenced)}"
            )
        self.topological_order()  # raises on cycles

    def topological_order(self) -> list:
        """Children-first order via iterative Kahn's algorithm; cycle-checked."""
        indeg = {i: 0 for i in self.nodes}
        parents: dict = {i: [] for i in self.nodes}
        for node in self.nodes.values():
            indeg[node.id] = len(node.children)
            for child in node.children:
                parents[child].append(node.id)
        ready = sorted(i for i, dgr in indeg.items() if dgr == 0)
        order: list = []
        while ready:
            cur = ready.pop()
            order.append(cur)
            for parent in parents[cur]:
                indeg[parent] -= 1
                if indeg[parent] == 0:
                    ready.append(parent)
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a cycle")
        return order

    def levels(self) -> dict:
        """Longest source-to-node path length per node (sources at 0)."""
        out: dict = {}
        for nid in self.topological_order():
            node = self.nodes[nid]
            if node.kind == "source":
                out[nid] = 0
            else:
                out[nid] = 1 + max(out[c] for c in node.children)
        return out

    def sources(self) -> list:
        return sorted(i for i, n in self.nodes.items() if n.kind == "source")

    def with_constituents(self, constituents: Mapping) -> "Dag":
        nodes = {}
        for nid, node in self.nodes.items():
            fn = constituents.get(nid, node.constituent)
            nodes[nid] = DagNode(
                id=node.id,
                kind=node.kind,
                in_dim=node.in_dim,
                children=node.children,
                pooling_name=node.pooling_name,
                pooling_params=dict(node.pooling_params),
                pooling_c=node.pooling_c,
                lipschitz=node.lipschitz,
                constituent=fn,
            )
        return Dag(nodes=nodes, sink=self.sink)


def read_dag_json(path: str) -> Dag:
    """Load graph structure from JSON; constituents are attached in code."""
    with open(path, "r", encoding="utf-8") as fh:
        return dag_from_doc(json.load(fh), path)


def dag_from_doc(doc, path: str) -> Dag:
    """Graph structure from a parsed DAG JSON document read from ``path``.

    ``path`` only names the source in error messages.
    """
    if "nodes" not in doc or "sink" not in doc:
        raise ValueError(f"{path}: document needs 'nodes' and 'sink'")
    nodes = {}
    for row in doc["nodes"]:
        for key in ("id", "kind", "in_dim"):
            if key not in row:
                raise ValueError(f"{path}: node missing field {key!r}")
        pooling = row.get("pooling", {"name": "identity"})
        params = {k: v for k, v in pooling.items() if k not in ("name", "c")}
        node = DagNode(
            id=str(row["id"]),
            kind=str(row["kind"]),
            in_dim=int(row["in_dim"]),
            children=tuple(row.get("children", [])),
            pooling_name=str(pooling.get("name", "identity")),
            pooling_params=params,
            pooling_c=float(pooling.get("c", 1.0)),
            lipschitz=None if row.get("lipschitz") is None else float(row["lipschitz"]),
        )
        make_pooling(node.pooling_name, node.pooling_params)  # validate name/params early
        if node.id in nodes:
            raise ValueError(f"{path}: duplicate node id {node.id!r}")
        nodes[node.id] = node
    return Dag(nodes=nodes, sink=str(doc["sink"]))


def write_dag_json(dag: Dag, path: str) -> None:
    rows = []
    for nid in sorted(dag.nodes):
        node = dag.nodes[nid]
        pooling = {"name": node.pooling_name, **node.pooling_params}
        if node.pooling_c != 1.0:
            pooling["c"] = node.pooling_c
        rows.append(
            {
                "id": node.id,
                "kind": node.kind,
                "in_dim": node.in_dim,
                "children": list(node.children),
                "pooling": pooling,
                "lipschitz": node.lipschitz,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"nodes": rows, "sink": dag.sink}, fh, indent=1)
        fh.write("\n")


def eval_gfunction(
    dag: Dag,
    inputs: Mapping,
    constituents: Mapping | None = None,
    order: list | None = None,
) -> float:
    """Evaluate the composite at one assignment of source inputs.

    ``inputs`` maps each source id to its point (array of length in_dim).
    ``constituents`` optionally overrides the functions stored on the nodes.
    ``order`` may supply any valid topological order; the memoized result is
    identical for all of them.
    """
    funcs = {}
    for nid, node in dag.nodes.items():
        fn = (constituents or {}).get(nid, node.constituent)
        if fn is None:
            raise ValueError(f"node {nid}: no constituent attached")
        funcs[nid] = fn
    for sid in dag.sources():
        if sid not in inputs:
            raise ValueError(f"missing input for source {sid!r}")

    if order is None:
        order = dag.topological_order()
    else:
        seen = set()
        for nid in order:
            node = dag.nodes[nid]
            if any(c not in seen for c in node.children):
                raise ValueError("order is not topological")
            seen.add(nid)
        if seen != set(dag.nodes):
            raise ValueError("order must cover every node exactly once")

    memo: dict = {}
    for nid in order:
        node = dag.nodes[nid]
        if node.kind == "source":
            x = np.asarray(inputs[nid], dtype=float).reshape(-1)
            if x.size != node.in_dim:
                raise ValueError(f"source {nid}: expected {node.in_dim} coordinates")
            memo[nid] = float(funcs[nid](x))
        else:
            vec = np.array([memo[c] for c in node.children], dtype=float)
            memo[nid] = float(funcs[nid](node.pooling(vec)))
    return memo[dag.sink]


def estimate_lipschitz(fn: Callable, dim: int, rng: np.random.Generator,
                       box: float = 1.0, trials: int = 200) -> float:
    """Sampled difference-quotient bound; an estimate, not a certificate."""
    best = 0.0
    for _ in range(trials):
        a = rng.uniform(-box, box, dim)
        b = a + rng.normal(0.0, 0.1 * box, dim)
        denom = float(np.linalg.norm(a - b))
        if denom == 0.0:
            continue
        best = max(best, abs(float(fn(a)) - float(fn(b))) / denom)
    return best


@dataclass(frozen=True)
class PropagationReport:
    measured_gap: float
    predicted_bound: float
    node_eps: float


def propagation_gap(dag: Dag, f_set: Mapping, g_set: Mapping, probe_inputs) -> PropagationReport:
    """Measured sink gap between two constituent families vs the recursion bound.

    ``probe_inputs`` is a sequence of source-input assignments.  Per-node sup
    gaps are measured on the node inputs realized under both families; the
    predicted bound propagates them through the pooling constants and the
    largest internal Lipschitz bound.
    """
    for nid, node in dag.nodes.items():
        if node.kind == "internal" and node.lipschitz is None:
            raise ValueError(f"internal node {nid} is missing a Lipschitz bound")
        if nid not in f_set or nid not in g_set:
            raise ValueError(f"node {nid}: both constituent families must cover it")

    order = dag.topological_order()
    eps = 0.0
    measured = 0.0
    for inputs in probe_inputs:
        values: dict = {"f": {}, "g": {}}
        for label, funcs in (("f", f_set), ("g", g_set)):
            memo = values[label]
            for nid in order:
                node = dag.nodes[nid]
                if node.kind == "source":
                    z = np.asarray(inputs[nid], dtype=float).reshape(-1)
                else:
                    vec = np.array([memo[c] for c in node.children], dtype=float)
                    z = node.pooling(vec)
                memo[nid] = float(funcs[nid](z))
                # per-node sup gap, on inputs realized under either family
                gap = abs(float(f_set[nid](z)) - float(g_set[nid](z)))
                eps = max(eps, gap)
        measured = max(measured, abs(values["f"][dag.sink] - values["g"][dag.sink]))

    lips = [n.lipschitz for n in dag.nodes.values() if n.kind == "internal"]
    L = max(lips) if lips else 1.0
    bound: dict = {}
    for nid in order:
        node = dag.nodes[nid]
        if node.kind == "source":
            bound[nid] = eps
        else:
            bound[nid] = eps + node.pooling_c * L * sum(bound[c] for c in node.children)
    return PropagationReport(
        measured_gap=float(measured),
        predicted_bound=float(bound[dag.sink]),
        node_eps=float(eps),
    )


def build_deep_approx(dag: Dag, node_points: Mapping, node_configs: Mapping) -> Dag:
    """Replace every constituent by its one-shot kernel estimate.

    ``node_points`` maps node id -> sample points of that node's input set
    (shape (M, in_dim)); labels come from the node's true constituent.
    ``node_configs`` maps node id -> EstimatorConfig.  Each resulting g_v is
    ``ratio_reconstruction`` closed over its dataset, evaluated pointwise.
    """
    approx: dict = {}
    for nid, node in dag.nodes.items():
        if node.constituent is None:
            raise ValueError(f"node {nid}: no true constituent to sample")
        pts = np.asarray(node_points[nid], dtype=float)
        if pts.ndim != 2 or pts.shape[1] != node.in_dim:
            raise ValueError(f"node {nid}: points must have shape (M, {node.in_dim})")
        labels = np.array([float(node.constituent(p)) for p in pts])
        cfg: EstimatorConfig = node_configs[nid]
        ds = Dataset(pts, labels, cfg.table.q)

        def g(z, ds=ds, cfg=cfg):
            z = np.asarray(z, dtype=float).reshape(1, -1)
            return float(ratio_reconstruction(ds, cfg, z)[0])

        approx[nid] = g
    return dag.with_constituents(approx)
