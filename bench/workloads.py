"""The benchmark's workloads: inputs from a seed, set-up, main phase, checks.

Each workload is a frozen size record whose ``start(seed, out_dir)`` returns
a run object.  The runner in ``run.py`` drives every run object the same
way:

* ``setup()``                   one-off builds, timed on their own, repeated;
* ``iteration(i)``              one unit of the main phase, timed untraced;
* ``absorb(i, result, ledger)`` output checks for that unit, outside the timing;
* ``replay(tracer, out)``       the same pipeline once more, with stage spans;
* ``finish(ledger)``            end-of-run checks and outcome metrics;
* ``probe(tracer)``             per-layer probes through public signatures.

The library is driven only from outside, through public functions; nothing
in it is patched.  README.md gives the reason for every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from hermloc import cli
from hermloc.deep_net import (
    Dag,
    DagNode,
    build_deep_approx,
    eval_gfunction,
    propagation_gap,
)
from hermloc.estimator import (
    Dataset,
    EstimatorConfig,
    continuous_operator_on_curve,
    estimate_batch,
)
from hermloc.experiments import (
    ExperimentConfig,
    ExperimentReport,
    HelixSpec,
    TrialReport,
    gen_training,
    ratio_reconstruction,
    write_report,
)
from hermloc.gaussian_net import prefab_kernel_network
from hermloc.hermite import gauss_hermite_rule
from hermloc.kernels import compile_kernel, eval_kernel

ALPHA = 1.0
# prefab surrogate vs compiled kernel, on the scale of the library's own
# prefab test budgets
NET_KERNEL_TOL = 1e-9
# a test point whose unit pass has magnitude below LOW_MASS / arc length gets
# almost no training mass (ROADMAP defect D4)
LOW_MASS = 0.1
# helix interior window, as in the experiment reports
INTERIOR = (0.1, 0.9)
PROBE_REPEATS = 5
PAIRED_REPEATS = 3
SINGLE_POINT_CALLS = 20


class Ledger:
    """Attempted and failed operations; a failed check counts as a failed one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _guarded(fn, *args):
    """Call fn; a raised call is returned as its exception, never re-raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failed library call is counted, not fatal
        return exc


def _finite(value) -> bool:
    return not isinstance(value, Exception) and bool(np.all(np.isfinite(value)))


def _median_time(fn, repeats: int = PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_estimator(tracer, ds: Dataset, ecfg: EstimatorConfig, xs: np.ndarray) -> dict:
    """Size the estimator's layers on one value pass of ds at xs.

    The value pass and the kernel evaluation on its radii alternate
    PAIRED_REPEATS times, so both see the same machine state; the self time
    is the median of the paired differences.
    """
    lam = ecfg.n ** (1.0 - ecfg.alpha)
    radii = lam * np.sqrt(np.sum((xs[:, None, :] - ds.points[None, :, :]) ** 2, axis=2))
    batch, kernel = [], []
    for _ in range(PAIRED_REPEATS):
        with tracer.span("estimator.estimate_batch", "probe"):
            t0 = time.perf_counter()
            estimate_batch(ds, ecfg, xs)
            batch.append(time.perf_counter() - t0)
        with tracer.span("kernels.eval_kernel", "probe"):
            t0 = time.perf_counter()
            eval_kernel(ecfg.table, radii)
            kernel.append(time.perf_counter() - t0)
    kernel_s = statistics.median(kernel)
    with tracer.span("kernels.compile_kernel", "probe"):
        compile_s = _median_time(lambda: compile_kernel(ecfg.n, ds.q))
    rows = np.linspace(0, xs.shape[0] - 1, SINGLE_POINT_CALLS).round().astype(int)
    with tracer.span("estimator.estimate_batch.single_point", "probe"):
        single = []
        for j in rows:
            t0 = time.perf_counter()
            estimate_batch(ds, ecfg, xs[j : j + 1])
            single.append(time.perf_counter() - t0)
    table_len = int(ecfg.table.a.size)
    radius_terms = radii.size * table_len
    pairs = xs.shape[0] * ds.size
    return {
        "kernels.compile_kernel_s": compile_s,
        "kernels.eval_kernel_s": kernel_s,
        "kernels.table_len": table_len,
        "kernels.radius_terms": radius_terms,
        "kernels.ns_per_radius_term": kernel_s * 1e9 / radius_terms,
        "estimator.estimate_batch_s": statistics.median(batch),
        "estimator.self_s": statistics.median(b - k for b, k in zip(batch, kernel)),
        "estimator.pairs": pairs,
        # computed, not measured: the (T, M, Q) float64 difference array
        "estimator.diff_mb": pairs * ds.ambient_dim * 8 / 1e6,
        "estimator.single_point_ms": statistics.median(single) * 1e3,
    }


# ---------------------------------------------------------------- helix


@dataclass(frozen=True)
class HelixSize:
    """One `hermloc helix` CLI call per main-phase unit, plus the limit phase.

    ``pool`` distinct CLI seeds are cycled through; every one runs at least
    once, and the error metrics are taken over the whole pool, so they depend
    on the seed only.
    """

    m: int
    n: int
    noise: str
    test_points: int
    trials: int
    pool: int
    limit_points: int = 0

    @property
    def min_iterations(self) -> int:
        return self.pool

    def start(self, seed: int, out_dir: str) -> "HelixRun":
        return HelixRun(self, seed, out_dir)


def _ones(pts: np.ndarray) -> np.ndarray:
    return np.ones(len(pts))


def _trial_summary(errors: np.ndarray, interior: np.ndarray) -> dict:
    a = np.abs(errors)
    return {"max": float(a.max()), "interior_max": float(a[interior].max()),
            "mean": float(a.mean()), "median": float(np.median(a))}


def _histogram(errors: np.ndarray) -> np.ndarray:
    p = np.arange(101, dtype=float)
    return np.stack([p, np.percentile(np.abs(errors), p) / 0.3], axis=1)


class HelixRun:
    def __init__(self, size: HelixSize, seed: int, out_dir: str):
        self.size = size
        self.out_dir = out_dir
        self.spec = HelixSpec()
        self.curve = self.spec.curve()
        self.cli_seeds = [seed * size.pool + k for k in range(size.pool)]
        self.t_grid = np.linspace(self.spec.t_min, self.spec.t_max, size.test_points)
        width = self.spec.t_max - self.spec.t_min
        lo, hi = (self.spec.t_min + f * width for f in INTERIOR)
        self.interior = (self.t_grid >= lo) & (self.t_grid <= hi)
        inner = np.flatnonzero(self.interior)
        pick = np.linspace(0, inner.size - 1, size.limit_points).round().astype(int)
        self.limit_idx = inner[pick]
        self.limit_x = self.spec.point(self.t_grid[self.limit_idx])
        self.lam = size.n ** (1.0 - ALPHA)
        self.errors: dict[int, list] = {}  # pool slot -> per-trial error arrays
        self.summaries: dict[int, list] = {}
        self.limit = np.full(size.limit_points, np.nan)
        self.ecfg = None
        self.probe_ds = None

    def _report_dir(self, slot: int) -> str:
        return os.path.join(self.out_dir, f"report_{slot}")

    def setup(self) -> None:
        self.ecfg = EstimatorConfig.build(self.size.n, ALPHA, 1)

    def _limit_at(self, x: np.ndarray) -> float:
        num = continuous_operator_on_curve(self.curve, self.spec.target_ambient,
                                           self.size.n, self.lam, x)
        den = continuous_operator_on_curve(self.curve, _ones, self.size.n, self.lam, x)
        return num / den

    def iteration(self, i: int):
        s = self.size
        slot = i % s.pool
        argv = ["helix", "--m", str(s.m), "--n", str(s.n), "--noise", s.noise,
                "--test-points", str(s.test_points), "--trials", str(s.trials),
                "--seed", str(self.cli_seeds[slot]), "--out", self._report_dir(slot)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        limit = [_guarded(self._limit_at, x) for x in self.limit_x]
        return rc, limit

    def absorb(self, i: int, result, ledger: Ledger) -> None:
        rc, limit = result
        slot = i % self.size.pool
        what = f"helix call {i} (cli seed {self.cli_seeds[slot]})"
        if rc != 0:
            ledger.record(False, f"{what}: exit {rc}")
        else:
            report = _guarded(self._read_report, slot)
            ok = not isinstance(report, Exception)
            ledger.record(ok, what if ok else f"{what}: {report}")
            if ok and slot not in self.errors:
                self.errors[slot], self.summaries[slot] = report
        for j, v in enumerate(limit):
            ledger.record(_finite(v), f"limit point {j} of call {i}: {v}")
            if _finite(v):
                self.limit[j] = v

    def _read_report(self, slot: int):
        """Per-trial errors and summaries; raises if a file is missing or fhat is not finite."""
        out = self._report_dir(slot)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summaries = json.load(fh)["trial_summaries"]
        errors = []
        for k in range(self.size.trials):
            cols = np.loadtxt(os.path.join(out, f"trial_{k:03d}.csv"), delimiter=",",
                              skiprows=1, ndmin=2)
            if cols.shape != (self.size.test_points, 4) or not np.all(np.isfinite(cols[:, 2])):
                raise ValueError(f"trial {k}: fhat missing or not finite")
            errors.append(cols[:, 3])
        return errors, summaries

    def replay(self, tracer, report_dir: str):
        """One traced pass of the CLI's pipeline with trials run serially.

        Returns the index of the first main-phase span, the main phase's wall
        time and the per-layer figures read from the spans.
        """
        since = len(tracer.spans)
        cfg = ExperimentConfig(M=self.size.m, n=self.size.n, noise=self.size.noise,
                               trials=self.size.trials, test_points=self.size.test_points,
                               seed=self.cli_seeds[0])
        t0 = time.perf_counter()
        with tracer.span("estimator.EstimatorConfig.build"):
            ecfg = EstimatorConfig.build(cfg.n, cfg.alpha, 1)
        xs = self.spec.point(self.t_grid)
        f_true = self.spec.target(self.t_grid)
        trials = []
        for k in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, k])
            with tracer.span("experiments.gen_training"):
                ds = gen_training(self.spec, cfg.M, cfg.noise, sigma=cfg.sigma, rng=rng)
            with tracer.span("experiments.ratio_reconstruction"):
                fhat = ratio_reconstruction(ds, ecfg, xs)
            if k == 0:
                self.probe_ds = ds
            err = fhat - f_true
            trials.append(TrialReport(k, err, fhat, _trial_summary(err, self.interior),
                                      _histogram(err)))
        average = np.mean([tr.fhat for tr in trials], axis=0)
        report = ExperimentReport(
            config=replace(cfg, output=report_dir), t_grid=self.t_grid, f_true=f_true,
            trials=trials, average_fhat=average,
            average_summary=_trial_summary(average - f_true, self.interior),
            aggregate_histogram=_histogram(np.concatenate([tr.errors for tr in trials])),
        )
        with tracer.span("experiments.write_report"):
            write_report(report, report_dir)
        for x in self.limit_x:
            with tracer.span("estimator.continuous_operator_on_curve"):
                continuous_operator_on_curve(self.curve, self.spec.target_ambient,
                                             self.size.n, self.lam, x)
            with tracer.span("estimator.continuous_operator_on_curve"):
                continuous_operator_on_curve(self.curve, _ones, self.size.n, self.lam, x)
        wall = time.perf_counter() - t0
        op = tracer.durations("estimator.continuous_operator_on_curve")
        layer = {
            "experiments.gen_training_s": tracer.total("experiments.gen_training"),
            "experiments.ratio_reconstruction_s":
                tracer.total("experiments.ratio_reconstruction"),
            "experiments.write_report_s": tracer.total("experiments.write_report"),
            "experiments.report_bytes": sum(
                os.path.getsize(os.path.join(report_dir, f)) for f in os.listdir(report_dir)),
        }
        if op:
            # the first call in the process builds the kernel proxy
            layer["estimator.continuous_operator_cold_s"] = op[0]
            layer["estimator.continuous_operator_s"] = statistics.median(op[1:] or op)
        return since, wall, layer

    def finish(self, ledger: Ledger) -> dict:
        slots = sorted(self.errors)
        if not slots:
            return {}
        trials = [t for s in slots for t in self.summaries[s]]
        out = {
            "median_err": float(np.median([t["median"] for t in trials])),
            "interior_max_err": max(t["interior_max"] for t in trials),
        }
        if self.size.limit_points:
            # fhat = f + error at the limit points, for every trial in the pool
            f_lim = self.spec.target(self.t_grid[self.limit_idx])
            gaps = [np.abs(f_lim + e[self.limit_idx] - self.limit)
                    for s in slots for e in self.errors[s]]
            out["limit_gap"] = float(np.max(gaps))
        return out

    def probe(self, tracer) -> dict:
        xs = self.spec.point(self.t_grid)
        layer = probe_estimator(tracer, self.probe_ds, self.ecfg, xs)
        unit = estimate_batch(self.probe_ds.with_unit_values(), self.ecfg, xs)
        layer["experiments.low_mass_frac"] = float(
            np.mean(np.abs(unit) < LOW_MASS / self.spec.arc_length))
        return layer


# ---------------------------------------------------------------- net_dag


def _src_sin(z):
    return math.sin(1.5 * z[0])


def _src_cos(z):
    return math.cos(2.0 * z[0])


def _src_cube(z):
    return float(z[0]) ** 3


def _src_tanh(z):
    return math.tanh(2.0 * z[0])


def _sum_sin(z):
    return math.sin(z[0] + z[1])


def _product(z):
    return float(z[0] * z[1])


def _diff_cos(z):
    return math.cos(z[0] - z[1])


SOURCE_FNS = (_src_sin, _src_cos, _src_cube, _src_tanh)
# every internal constituent satisfies |f(a) - f(b)| <= |a1 - b1| + |a2 - b2|
# on the clip box, so its Lipschitz bound in the propagation recursion is 1
INTERNAL_LIPSCHITZ = 1.0
CLIP = {"lo": -1.0, "hi": 1.0}


def make_dag(sources: int) -> Dag:
    """Binary DAG over 1-d sources; internal nodes are 2-d with clip pooling.

    Four sources give the 7-node tree s1,s2 -> a; s3,s4 -> b; a,b -> sink.
    Two sources give the 3-node tree s1,s2 -> sink.
    """
    if sources not in (2, 4):
        raise ValueError("sources must be 2 or 4")
    nodes = {}
    for k in range(sources):
        sid = f"s{k + 1}"
        nodes[sid] = DagNode(id=sid, kind="source", in_dim=1, constituent=SOURCE_FNS[k])

    def internal(nid, children, fn):
        nodes[nid] = DagNode(id=nid, kind="internal", in_dim=2, children=children,
                             pooling_name="clip", pooling_params=dict(CLIP),
                             pooling_c=1.0, lipschitz=INTERNAL_LIPSCHITZ, constituent=fn)

    if sources == 2:
        internal("sink", ("s1", "s2"), _diff_cos)
    else:
        internal("a", ("s1", "s2"), _sum_sin)
        internal("b", ("s3", "s4"), _product)
        internal("sink", ("a", "b"), _diff_cos)
    return Dag(nodes=nodes, sink="sink")


@dataclass(frozen=True)
class DagSize:
    """One network evaluation plus ``block`` DAG evaluations per main-phase unit.

    The units walk through the pool of ``inputs`` source assignments, and
    every input is evaluated at least once, so the error metrics depend on
    the seed only.
    """

    net_n: int
    net_q: int
    net_dim: int
    check_points: int
    sources: int
    node_m: int
    node_n: int
    inputs: int
    block: int
    probes: int

    @property
    def min_iterations(self) -> int:
        return -(-self.inputs // self.block)

    def start(self, seed: int, out_dir: str) -> "DagRun":
        return DagRun(self, seed)


class DagRun:
    def __init__(self, size: DagSize, seed: int):
        self.size = size
        self.dag = make_dag(size.sources)
        rng = np.random.default_rng(seed)
        self.node_points = {
            nid: rng.uniform(-1.0, 1.0, (size.node_m, self.dag.nodes[nid].in_dim))
            for nid in sorted(self.dag.nodes)
        }
        self.inputs = [
            {sid: rng.uniform(-1.0, 1.0, 1) for sid in self.dag.sources()}
            for _ in range(size.inputs)
        ]
        self.batch_x = rng.uniform(-1.0, 1.0, (128, 2))
        self.radii = np.linspace(0.0, 3.0, size.check_points)
        self.check_pts = np.zeros((size.check_points, size.net_dim))
        self.check_pts[:, 0] = self.radii
        self.net = self.approx = None
        self.net_vals = None
        self.g = np.full(size.inputs, np.nan)
        self.latencies: list[float] = []

    def setup(self) -> None:
        s = self.size
        self.net = prefab_kernel_network(s.net_n, s.net_q, s.net_dim, ALPHA)
        configs = {nid: EstimatorConfig.build(s.node_n, ALPHA, node.in_dim)
                   for nid, node in self.dag.nodes.items()}
        self.approx = build_deep_approx(self.dag, self.node_points, configs)

    def _block(self, i: int) -> range:
        start = (i * self.size.block) % self.size.inputs
        return range(start, min(start + self.size.block, self.size.inputs))

    def iteration(self, i: int):
        vals = _guarded(self.net, self.check_pts)
        block = self._block(i)
        g = []
        lat = np.empty(len(block))
        for k, j in enumerate(block):
            t0 = time.perf_counter()
            g.append(_guarded(eval_gfunction, self.approx, self.inputs[j]))
            lat[k] = time.perf_counter() - t0
        return vals, g, lat

    def absorb(self, i: int, result, ledger: Ledger) -> None:
        vals, g, lat = result
        ledger.record(_finite(vals), f"network evaluation {i} not finite or raised")
        if _finite(vals):
            self.net_vals = vals
        for j, v in zip(self._block(i), g):
            ledger.record(_finite(v), f"eval_gfunction on input {j}, unit {i}: {v!r:.300}")
            if _finite(v):
                self.g[j] = v
        self.latencies.extend(lat.tolist())

    def replay(self, tracer, report_dir: str):
        s = self.size
        with tracer.span("gaussian_net.prefab_kernel_network"):
            net = prefab_kernel_network(s.net_n, s.net_q, s.net_dim, ALPHA)
        configs = {}
        for nid, node in self.dag.nodes.items():
            with tracer.span("estimator.EstimatorConfig.build"):
                configs[nid] = EstimatorConfig.build(s.node_n, ALPHA, node.in_dim)
        with tracer.span("deep_net.build_deep_approx"):
            approx = build_deep_approx(self.dag, self.node_points, configs)
        since = len(tracer.spans)
        t0 = time.perf_counter()
        with tracer.span("GaussianNetwork.__call__"):
            net(self.check_pts)
        for j in self._block(0):
            with tracer.span("deep_net.eval_gfunction"):
                eval_gfunction(approx, self.inputs[j])
        wall = time.perf_counter() - t0
        layer = {
            "gaussian_net.prefab_kernel_network_s":
                tracer.total("gaussian_net.prefab_kernel_network"),
            "deep_net.build_deep_approx_s": tracer.total("deep_net.build_deep_approx"),
            "gaussian_net.network_eval_s": tracer.total("GaussianNetwork.__call__", since),
            "deep_net.eval_gfunction_s": tracer.total("deep_net.eval_gfunction", since),
            "deep_net.node_evals": len(self._block(0)) * len(self.dag.nodes),
        }
        return since, wall, layer

    def finish(self, ledger: Ledger) -> dict:
        s = self.size
        truth = np.full(s.inputs, np.nan)
        for j, inp in enumerate(self.inputs):
            v = _guarded(eval_gfunction, self.dag, inp)
            if _finite(v):
                truth[j] = v
        bad = np.count_nonzero(np.isnan(truth))
        ledger.record(bad == 0, f"true DAG value not finite or raised on {bad} inputs")
        err = np.abs(self.g - truth)
        dag_max_err = float(np.max(err))  # NaN when any input failed
        if self.net_vals is None:
            dev = math.nan
            ledger.record(False, "net_kernel_dev: no network evaluation succeeded")
        else:
            table = EstimatorConfig.build(s.net_n, ALPHA, s.net_q).table
            lam = float(s.net_n) ** (1.0 - ALPHA)
            want = (float(s.net_n) ** (s.net_q * (1.0 - ALPHA))
                    * eval_kernel(table, lam * self.radii))
            dev = float(np.max(np.abs(self.net_vals - want)))
            ledger.record(dev <= NET_KERNEL_TOL, f"net_kernel_dev {dev:.3e} > {NET_KERNEL_TOL}")
        f_set = {nid: node.constituent for nid, node in self.dag.nodes.items()}
        g_set = {nid: node.constituent for nid, node in self.approx.nodes.items()}
        rep = _guarded(propagation_gap, self.dag, f_set, g_set, self.inputs[: s.probes])
        if isinstance(rep, Exception):
            ledger.record(False, f"propagation_gap raised: {rep!r:.300}")
        else:
            ledger.record(
                rep.measured_gap <= rep.predicted_bound and dag_max_err <= rep.predicted_bound,
                f"dag_max_err {dag_max_err:.3e} or probe gap {rep.measured_gap:.3e} "
                f"above the propagation bound {rep.predicted_bound:.3e}",
            )
        lat_ms = np.array(self.latencies) * 1e3
        return {
            "median_err": float(np.median(err)),
            "dag_max_err": dag_max_err,
            "net_kernel_dev": dev,
            "dag_eval_p50_ms": float(np.percentile(lat_ms, 50)),
            "dag_eval_p90_ms": float(np.percentile(lat_ms, 90)),
        }

    def probe(self, tracer) -> dict:
        s = self.size
        with tracer.span("hermite.gauss_hermite_rule", "probe"):
            rule_s = _median_time(lambda: gauss_hermite_rule(2 * s.net_n * s.net_n))
        sink = self.dag.nodes[self.dag.sink]
        pts = self.node_points[sink.id]
        ds = Dataset(pts, np.array([sink.constituent(p) for p in pts]), sink.in_dim)
        ecfg = EstimatorConfig.build(s.node_n, ALPHA, sink.in_dim)
        layer = probe_estimator(tracer, ds, ecfg, self.batch_x)
        coeffs = np.abs(self.net.coeffs)
        centers = int(coeffs.size)
        layer.update({
            "hermite.gauss_hermite_rule_s": rule_s,
            "gaussian_net.centers": centers,
            "gaussian_net.useful_center_frac":
                float(np.count_nonzero(coeffs > 1e-14 * coeffs.max())) / centers,
            "gaussian_net.center_point_pairs": centers * s.check_points,
        })
        return layer


WORKLOADS = {
    "helix_n64": HelixSize(m=256, n=64, noise="none", test_points=512, trials=1, pool=6),
    "helix_dense": HelixSize(m=16384, n=6, noise="additive", test_points=512, trials=2,
                             pool=2, limit_points=16),
    "net_dag": DagSize(net_n=6, net_q=2, net_dim=3, check_points=121, sources=4,
                       node_m=1024, node_n=8, inputs=1000, block=100, probes=100),
}
