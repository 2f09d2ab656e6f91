"""Helix reconstruction experiments, the heat-smoother baseline and the rate table.

The curve under study is t -> (cos(pi t), sin(pi t), pi t) on [0, 2*pi], a
constant-speed helix in R^3 (speed sqrt(2)*pi) carrying the arc-length
measure normalized to total mass one, so uniform draws of t are uniform in
arc length.  The target value at x(t) is

    f(x(t)) = cos(cos(pi t) - sin(pi t) - pi t / 2).

Reconstruction is ``estimator.ratio_reconstruction`` per trial: the value
pass over the unit-value pass.  The raw estimate converges to a
kernel-weighted local average against the sampling measure, so the unit
pass cancels the volume factor that a mass-one measure on a curve of length
sqrt(8)*pi^2 would otherwise leave in.  Where the unit pass vanishes the
estimator module's zero-mass policy applies.

Noise models for the observed values:

  none            F_j = f(y_j)
  additive        F_j = f(y_j) + N(0, sigma^2), default sigma = 0.3
  multiplicative  F_j = cos(u_j + N(0, 1.5^2)) * exp(1.125), where u_j is
                  the scalar argument of the target's cosine.  E cos(u+Z)
                  = cos(u) exp(-1.125) for Z ~ N(0, 1.5^2), so the factor
                  exp(1.125) makes the observation unbiased.  The scalar
                  perturbation is equivalent to iid N(0,1) noise on the
                  three ambient coordinates of the argument u = y1 - y2 -
                  y3/2: that induces argument noise of std
                  sqrt(1 + 1 + 1/4) = 1.5.

Reports use a fixed layout: one CSV per trial (t, f, fhat, error), an
average-reconstruction CSV, and a JSON summary with per-trial statistics
and cumulative error histograms as (p, y) pairs, where the absolute error
at the p-th percentile of test points equals 0.3*y.  Error summaries
report the full-range max and the interior max over t in
[0.1*2pi, 0.9*2pi]; reconstructions on a sampled curve segment degrade
near the endpoints, and the interior split keeps that effect visible
without letting it mask interior behavior.

``rate_table`` sets the kernel against the heat smoother at t = 1/n^2: in
the M -> infinity limit the kernel's doubling slope keeps growing on a
smooth target, while the heat smoother's saturates at 2.

Trials run in parallel worker threads; trial i owns the independent
generator seeded by (seed, i), and report assembly is single-threaded in
trial order, so results are identical to a serial run.  The estimator's
kernel evaluation and sums release the GIL, so the trial threads overlap:
two dense trials on two cores take about as long as one.
"""

from __future__ import annotations

import math
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Callable, ClassVar

import numpy as np

from .estimator import (
    Curve,
    Dataset,
    EstimatorConfig,
    _curve_limit,
    _squared_distances,
    _weighted_passes,
    _write_csv,
    _write_json,
    continuous_operator_on_curve,
    guarded_ratio,
    ratio_reconstruction,
)

__all__ = [
    "HelixSpec",
    "gen_training",
    "UNBIAS_FACTOR",
    "NOISE_MODELS",
    "ExperimentConfig",
    "TrialReport",
    "ExperimentReport",
    "run_experiment",
    "write_report",
    "heat_value_and_unit_passes",
    "rate_table",
]

_TWO_PI = 2.0 * math.pi

# exp(1.5^2 / 2), the unbiasing factor of the multiplicative model
UNBIAS_FACTOR = math.exp(1.125)

NOISE_MODELS = ("none", "additive", "multiplicative")

# interior window, as fractions of the parameter range
INTERIOR_LO = 0.1
INTERIOR_HI = 0.9


@dataclass(frozen=True)
class HelixSpec:
    """The helix t -> (cos(pi t), sin(pi t), pi t) on [0, 2 pi], with normalized arc measure."""

    t_min: ClassVar[float] = 0.0
    t_max: ClassVar[float] = _TWO_PI

    @property
    def speed(self) -> float:
        return math.sqrt(2.0) * math.pi

    @property
    def arc_length(self) -> float:
        return self.speed * (self.t_max - self.t_min)

    def point(self, t):
        """Ambient coordinates of the curve, shape (..., 3)."""
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(np.pi * t), np.sin(np.pi * t), np.pi * t], axis=-1)

    def argument(self, t):
        """Scalar argument u(t) of the target's cosine."""
        t = np.asarray(t, dtype=float)
        return np.cos(np.pi * t) - np.sin(np.pi * t) - np.pi * t / 2.0

    def target(self, t):
        """f(x(t)) = cos(u(t)); rejects t outside [t_min, t_max]."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < self.t_min) or np.any(arr > self.t_max):
            raise ValueError(f"t must lie in [{self.t_min}, {self.t_max}]")
        out = np.cos(self.argument(arr))
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def target_ambient(self, y):
        """f as a function of ambient coordinates: cos(y1 - y2 - y3/2)."""
        y = np.asarray(y, dtype=float)
        return np.cos(y[..., 0] - y[..., 1] - y[..., 2] / 2.0)

    def curve(self) -> Curve:
        return Curve(chart=self.point, t0=self.t_min, t1=self.t_max)

    def grid(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` equidistant parameters on [t_min, t_max] and their points."""
        t = np.linspace(self.t_min, self.t_max, count)
        return t, self.point(t)

    def interior(self, t) -> np.ndarray:
        """Mask of the t in [INTERIOR_LO, INTERIOR_HI] of the way along the range."""
        t = np.asarray(t, dtype=float)
        span = self.t_max - self.t_min
        lo = self.t_min + INTERIOR_LO * span
        hi = self.t_min + INTERIOR_HI * span
        return (t >= lo) & (t <= hi)


def gen_training(
    spec: HelixSpec,
    M: int,
    noise: str = "none",
    *,
    sigma: float = 0.3,
    rng: np.random.Generator,
) -> Dataset:
    """Draw M labeled samples from the helix under the given noise model.

    t_j are uniform on [t_min, t_max], which is uniform in arc length here
    because the speed is constant.  Noise is drawn once per sample.
    """
    if M < 1:
        raise ValueError("M must be positive")
    if noise not in NOISE_MODELS:
        raise ValueError(f"unknown noise model {noise!r}; choose from {NOISE_MODELS}")
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive")
    t = rng.uniform(spec.t_min, spec.t_max, M)
    points = spec.point(t)
    if noise == "none":
        values = spec.target(t)
    elif noise == "additive":
        values = spec.target(t) + rng.normal(0.0, sigma, M)
    else:
        z = rng.normal(0.0, 1.5, M)
        values = np.cos(spec.argument(t) + z) * UNBIAS_FACTOR
    return Dataset(points=points, values=values, q=1)


# accepted values per parameter type (its default's type); a bool is neither int nor float
_VALUE_TYPES = {int: (int, np.integer), float: (float, int, np.integer, np.floating), str: (str,)}


def _check_type(name: str, value, kind: type) -> None:
    """Raise ``ValueError`` unless ``value`` is accepted for a parameter of type ``kind``."""
    if isinstance(value, bool) or not isinstance(value, _VALUE_TYPES[kind]):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")


def _check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` can seed ``np.random.default_rng``."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ExperimentConfig:
    """Run parameters, checked on construction; mirrors the JSON config schema field for field."""

    M: int = 256
    n: int = 64
    alpha: float = 1.0
    noise: str = "none"
    sigma: float = 0.3
    trials: int = 1
    test_points: int = 2048
    seed: int = 0
    output: str | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # output=None runs without writing; the CLI always writes (its
            # default output is "helix_out"), so there a null output is an error
            if f.name != "output" or value is not None:
                _check_type(f.name, value, type(f.default) if f.default is not None else str)
        if self.M < 1 or self.trials < 1 or self.test_points < 3:
            raise ValueError("M, trials must be >= 1 and test_points >= 3")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.noise not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {self.noise!r}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive")
        _check_seed(self.seed)


@dataclass(frozen=True)
class TrialReport:
    trial: int
    errors: np.ndarray
    fhat: np.ndarray
    summary: dict
    histogram: np.ndarray  # (101, 2) rows (p, y) with |err| at pct p equal to 0.3*y


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    t_grid: np.ndarray
    f_true: np.ndarray
    trials: list
    average_fhat: np.ndarray
    average_summary: dict
    aggregate_histogram: np.ndarray


def _summary(errors: np.ndarray, interior: np.ndarray) -> dict:
    """Max, interior max, mean and median of |errors|; ``interior`` masks the interior points."""
    if not np.any(interior):  # an equidistant grid needs 3 points to reach inside
        raise ValueError(f"at least 3 test points are needed, got {interior.size}")
    abs_err = np.abs(errors)
    return {
        "max": float(abs_err.max()),
        "interior_max": float(abs_err[interior].max()),
        "mean": float(abs_err.mean()),
        "median": float(np.median(abs_err)),
    }


def _cumulative_histogram(errors: np.ndarray) -> np.ndarray:
    """(p, y) rows for p = 0..100: |err| at percentile p equals 0.3*y."""
    p = np.arange(101, dtype=float)
    y = np.percentile(np.abs(errors), p) / 0.3
    return np.stack([p, y], axis=1)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Reconstruct the helix target per trial and assemble the report.

    Writes CSV/JSON files when cfg.output is set; always returns the
    in-memory report.
    """
    spec = HelixSpec()
    t_grid, xs = spec.grid(cfg.test_points)
    f_true = spec.target(t_grid)
    interior = spec.interior(t_grid)
    ecfg = EstimatorConfig.build(cfg.n, cfg.alpha, q=1)

    def one_trial(i: int) -> TrialReport:
        rng = np.random.default_rng([cfg.seed, i])
        ds = gen_training(spec, cfg.M, cfg.noise, sigma=cfg.sigma, rng=rng)
        fhat = ratio_reconstruction(ds, ecfg, xs)
        errors = fhat - f_true
        return TrialReport(
            trial=i,
            errors=errors,
            fhat=fhat,
            summary=_summary(errors, interior),
            histogram=_cumulative_histogram(errors),
        )

    if cfg.trials == 1:
        trials = [one_trial(0)]
    else:
        # the CPUs this process may run on, where the platform can say
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(cfg.trials, cpus, 8)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(one_trial, range(cfg.trials)))

    average_fhat = np.mean([tr.fhat for tr in trials], axis=0)
    avg_errors = average_fhat - f_true
    all_errors = np.concatenate([tr.errors for tr in trials])
    report = ExperimentReport(
        config=cfg,
        t_grid=t_grid,
        f_true=f_true,
        trials=trials,
        average_fhat=average_fhat,
        average_summary=_summary(avg_errors, interior),
        aggregate_histogram=_cumulative_histogram(all_errors),
    )
    if cfg.output is not None:
        write_report(report, cfg.output)
    return report


def write_report(report: ExperimentReport, out_dir: str) -> None:
    """Emit trial_XXX.csv files, average.csv, and summary.json.

    When the one trial's curve is bitwise the average, as in every one-trial
    report of ``run_experiment`` (``np.mean`` of one array is the array),
    average.csv is a byte copy of the trial's file rather than the same rows
    formatted twice.
    """
    os.makedirs(out_dir, exist_ok=True)
    curves = [(f"trial_{tr.trial:03d}.csv", tr.fhat) for tr in report.trials]
    copy_one = len(curves) == 1 and curves[0][1].tobytes() == report.average_fhat.tobytes()
    if not copy_one:
        curves.append(("average.csv", report.average_fhat))
    for name, fhat in curves:
        _write_csv(os.path.join(out_dir, name), ["t", "f", "fhat", "error"],
                   [report.t_grid, report.f_true, fhat, fhat - report.f_true])
    if copy_one:
        shutil.copyfile(os.path.join(out_dir, curves[0][0]), os.path.join(out_dir, "average.csv"))
    cfg_doc = asdict(report.config)
    # the report's location is wherever these files sit; echoing the output
    # path would make otherwise-identical runs byte-differ
    cfg_doc.pop("output", None)
    doc = {
        "config": cfg_doc,
        "rng": "PCG64",
        "trial_summaries": [tr.summary for tr in report.trials],
        "trial_histograms": [tr.histogram.tolist() for tr in report.trials],
        "average_summary": report.average_summary,
        "aggregate_histogram": report.aggregate_histogram.tolist(),
    }
    _write_json(os.path.join(out_dir, "summary.json"), doc, sort_keys=True)


def heat_value_and_unit_passes(ds: Dataset, t: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """Heat smoother on the values and on a unit column, from one exp(-d^2/t) row per point.

    The value pass is the Monte-Carlo heat-kernel smoother
    (1/(M (4 pi t)^{q/2})) sum_j exp(-|x - y_j|^2/t) F_j, reported raw; the
    unit pass is the same sum with every F_j = 1, the denominator of the
    normalized form.  ``xs`` is a finite batch (N, Q).  ``_weighted_passes``
    sums them: memory flat in N and M, and bitwise alone or in any batch.
    """
    rows = _heat_rows(t)  # checks t first
    scale = 1.0 / (ds.size * (4.0 * math.pi * t) ** (ds.q / 2.0))
    return _weighted_passes(ds._stack, xs, rows, scale, unit_pass=True)


def _heat_rows(t: float) -> Callable:
    """The weight rows exp(-|x - y_j|^2 / t) of a chunk of points x, for ``_weighted_passes``."""
    if not 0 < t < math.inf:  # the one check on diffusion times; NaN fails it too
        raise ValueError(f"diffusion time t must be finite and positive, got {t!r}")

    def weights(chunk: np.ndarray, points_t: np.ndarray) -> np.ndarray:
        d2 = _squared_distances(chunk, points_t)
        d2 /= -t
        return np.exp(d2)

    return weights


def rate_table(n_list, M: int, seed: int, test_points: int) -> list[tuple]:
    """(method, regime, n, error, slope) rows of the kernel and the heat smoother.

    Both take alpha = 1, the heat smoother t = 1/n^2.  A limit row's error is
    the max |ratio - f| at t_min + (t_max - t_min) * linspace(0.2, 0.8, 6) of
    the value limit over the unit limit, each to tol 1e-12 from the kernel's
    first panel count; a sample row's is the interior max of the ratio on a
    ``test_points`` grid from one ``gen_training(spec, M, "none",
    rng=default_rng(seed))`` draw.  Rows sort by method, regime and n.
    ``slope`` is log2(err_prev / err) / log2(n / n_prev) within a (method,
    regime) group, None on its first row or where an error is 0.
    """
    if not (n_list and all(type(n) is int and n >= 2 for n in n_list)
            and all(a < b for a, b in zip(n_list, n_list[1:]))):
        raise ValueError(f"n_list must be strictly increasing integers >= 2, got {n_list!r}")
    _check_seed(seed)
    spec, curve = HelixSpec(), HelixSpec().curve()
    ds = gen_training(spec, M, "none", rng=np.random.default_rng(seed))
    t_grid, xs = spec.grid(test_points)
    t_six = spec.t_min + (spec.t_max - spec.t_min) * np.linspace(0.2, 0.8, 6)
    tol = 1e-12

    def sample_error(fhat):
        return _summary(fhat - spec.target(t_grid), spec.interior(t_grid))["interior_max"]

    def limit_error(limit):  # limit(g): the limit of samples valued g at the six points
        ratio = limit(spec.target_ambient) / limit(lambda pts: np.ones(pts.shape[0]))
        return float(np.max(np.abs(ratio - spec.target(t_six))))

    errors = {}
    for n in n_list:
        t = 1.0 / n**2
        errors["heat", "sample", n] = sample_error(
            guarded_ratio(*heat_value_and_unit_passes(ds, t, xs)))
        errors["kernel", "sample", n] = sample_error(
            ratio_reconstruction(ds, EstimatorConfig.build(n, 1.0, 1), xs))
        errors["heat", "limit", n] = limit_error(lambda g: _curve_limit(
            curve, g, spec.point(t_six), _heat_rows(t), (4.0 * math.pi * t) ** -0.5,
            math.sqrt(2.0) * n, tol))
        errors["kernel", "limit", n] = limit_error(lambda g: continuous_operator_on_curve(
            curve, g, n, 1.0, spec.point(t_six), tol=tol))
    rows = []
    for (method, regime, n), err in sorted(errors.items()):
        slope = None
        if rows and rows[-1][:2] == (method, regime) and rows[-1][3] > 0 < err:
            slope = math.log2(rows[-1][3] / err) / math.log2(n / rows[-1][2])
        rows.append((method, regime, n, err, slope))
    return rows
