"""Synthesis of Gaussian networks that emulate weighted Hermite polynomials.

A weighted polynomial P = sum_k b_k psi_k (multi-indexed, |k|_1 < m**2) is
converted into a single hidden layer of isotropic Gaussians

    G(P)(x) = sum_j c_j exp(-|x - z_j|**2)

on the fixed center grid z_j = (sqrt(3)/2) x_j, where x_j runs over the
tensor grid of the size-2m**2 Gauss-Hermite rule.  The construction comes
from the generating identity for Hermite functions at parameter 1/sqrt(3):

    psi_k(x) = (3/(2 pi))**(d/2) 3**(|k|/2) integral psi_k(u)
               exp(-|x - (sqrt(3)/2) u|**2) exp(-|u|**2/4) du,

discretized exactly enough by the quadrature rule; the synthesis error
decays like m**(d-2) 3**(-m**2/2).

Networks carry an input scale s and evaluate x -> base(s * x); nothing else
is trained or adapted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import binom as _binom

from .estimator import Dataset
from .hermite import gauss_hermite_rule, hermite_matrix, psi_at_zero
from .kernels import filter_h

__all__ = [
    "GaussianNetwork",
    "WeightedPolyCoeffs",
    "gaussian_basis_network",
    "poly_to_gaussian",
    "prefab_kernel_network",
    "shallow_net_estimate",
    "write_network_json",
    "read_network_json",
]

MAX_M = 6
MAX_DIM = 3


@dataclass(frozen=True)
class GaussianNetwork:
    """Shallow Gaussian network: x -> sum_j coeffs[j] exp(-|scale*x - centers[j]|**2)."""

    dim: int
    scale: float
    centers: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.centers, dtype=float)
        a = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[1] != self.dim:
            raise ValueError("centers must have shape (K, dim)")
        if a.shape != (c.shape[0],):
            raise ValueError("coeffs must have one entry per center")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValueError("scale must be a positive real")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "coeffs", a)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = np.atleast_2d(x) * self.scale
        if pts.shape[1] != self.dim:
            raise ValueError(f"points must have {self.dim} coordinates")
        out = np.zeros(pts.shape[0])
        # chunk the center axis so the (N, K) distance block stays small
        chunk = max(1, 16_000_000 // max(1, pts.shape[0]))
        pn = np.sum(pts * pts, axis=1)
        for start in range(0, self.centers.shape[0], chunk):
            cen = self.centers[start : start + chunk]
            r2 = pn[:, None] - 2.0 * pts @ cen.T + np.sum(cen * cen, axis=1)[None, :]
            np.maximum(r2, 0.0, out=r2)
            with np.errstate(under="ignore"):
                out += np.exp(-r2) @ self.coeffs[start : start + chunk]
        return float(out[0]) if scalar else out


def write_network_json(net: GaussianNetwork, path: str) -> None:
    """Serialize with shortest round-trip decimals; reload is bit exact."""
    doc = {
        "dim": net.dim,
        "scale": net.scale,
        "centers": [[float(v) for v in row] for row in net.centers],
        "coeffs": [float(v) for v in net.coeffs],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_network_json(path: str) -> GaussianNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("dim", "scale", "centers", "coeffs"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    return GaussianNetwork(
        dim=int(doc["dim"]),
        scale=float(doc["scale"]),
        centers=np.array(doc["centers"], dtype=float),
        coeffs=np.array(doc["coeffs"], dtype=float),
    )


@dataclass(frozen=True)
class WeightedPolyCoeffs:
    """Coefficients of sum_k entries[k] psi_k over multi-indices of Z_+^d."""

    d: int
    entries: dict

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError("d must be a positive integer")
        for k, v in self.entries.items():
            if len(k) != self.d or any(ki < 0 for ki in k):
                raise ValueError(f"bad multi-index {k}")
            if not np.isfinite(v):
                raise ValueError(f"coefficient at {k} must be finite")


def _grid_and_weights(m: int, d: int):
    """Shared center grid for parameters (m, d) and per-axis node weights."""
    rule = gauss_hermite_rule(2 * m * m)
    nodes = rule.nodes
    # lambda_j * exp(3|x_j|^2/4), formed per axis in log space
    logw = np.log(rule.weights) + 0.75 * nodes * nodes
    axis_w = np.exp(logw)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    grid = np.stack([g.ravel() for g in grids], axis=1)
    return rule, grid, axis_w


def poly_to_gaussian(P: WeightedPolyCoeffs, m: int) -> GaussianNetwork:
    """Convert a weighted polynomial (all |k|_1 < m**2) to a Gaussian network.

    Coefficients are linear in P: center z_j receives

        c_j = (3/(2 pi))**(d/2) * prod_axis [lambda exp(3 x**2/4)](x_j,axis)
              * sum_k b_k 3**(|k|/2) psi_k(x_j).

    The inner polynomial evaluation runs as per-axis mode products against a
    dense coefficient tensor, so the cost is O(d * (2m^2)^d * m^2).
    """
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_M:
        raise ValueError(f"m must be an integer in 1..{MAX_M}")
    d = P.d
    if d > MAX_DIM:
        raise ValueError(f"d must be <= {MAX_DIM}")
    kcap = m * m
    for k in P.entries:
        if sum(k) >= kcap:
            raise ValueError(f"multi-index {k} has |k|_1 >= m**2 = {kcap}")

    rule, grid, axis_w = _grid_and_weights(int(m), d)
    nn = rule.size

    B = np.zeros((kcap,) * d)
    for k, b in P.entries.items():
        B[tuple(k)] += b

    psi = hermite_matrix(kcap - 1, rule.nodes)  # (2m^2, m^2)
    psi_scaled = psi * np.power(3.0, 0.5 * np.arange(kcap))[None, :]

    # mode products: contract each leading k axis with the scaled node rows;
    # the node axis lands at the end, so after d rounds the axis order is
    # (n_1, .., n_d), matching the C-order raveled grid
    vals = B
    for _ in range(d):
        vals = np.tensordot(vals, psi_scaled, axes=([0], [1]))
    vals = vals.ravel()

    wgrid = axis_w
    for _ in range(d - 1):
        wgrid = np.multiply.outer(wgrid, axis_w)
    wgrid = wgrid.ravel()

    pref = (3.0 / (2.0 * math.pi)) ** (d / 2.0)
    coeffs = pref * wgrid * vals
    centers = (math.sqrt(3.0) / 2.0) * grid
    return GaussianNetwork(dim=d, scale=1.0, centers=centers, coeffs=coeffs)


def gaussian_basis_network(k, m: int, d: int) -> GaussianNetwork:
    """Network emulating a single Hermite function psi_k on R^d.

    Requires |k|_1 < m**2; the sup error over compacts decays like
    m**(d-2) 3**(-m**2/2) as m grows.
    """
    k = tuple(int(v) for v in np.atleast_1d(k))
    if len(k) != d:
        raise ValueError("k must have exactly d components")
    if any(v < 0 for v in k):
        raise ValueError("k components must be nonnegative")
    if sum(k) >= m * m:
        raise ValueError("need |k|_1 < m**2")
    return poly_to_gaussian(WeightedPolyCoeffs(d=int(d), entries={k: 1.0}), m)


def _even_multi_indices(d: int, total_below: int):
    """All multi-indices of Z_+^d with even coordinates and |k|_1 < total_below."""
    if d == 1:
        for a in range(0, total_below, 2):
            yield (a,)
        return
    for a in range(0, total_below, 2):
        for rest in _even_multi_indices(d - 1, total_below - a):
            yield (a,) + rest


def prefab_kernel_network(n: int, q: int, Q: int, alpha: float) -> GaussianNetwork:
    """Gaussian surrogate of the localized kernel, ready for shallow estimates.

    Builds G(P) for P(y) = Phi_{n,q,Q}(0, y) with synthesis parameter m = n,
    stores the input scale n**(1-alpha), and folds the estimator prefactor
    n**(q(1-alpha)) into the coefficients.  The psi_k coefficient of P is

        b_k = psi_k(0) * pi**((Q-q)/2) * sum_{m >= |k|, m = |k| mod 2}
              H(sqrt(m)/n) (-1)**((m-|k|)/2) binom((Q-q)/2, (m-|k|)/2),

    nonzero only for all-even k (psi_k(0) vanishes otherwise).
    """
    if not isinstance(n, (int, np.integer)) or not 2 <= n <= MAX_M:
        # the synthesis parameter m is n, capped by poly_to_gaussian
        raise ValueError(f"n must be an integer in 2..{MAX_M} at this synthesis scale")
    if not (isinstance(q, (int, np.integer)) and isinstance(Q, (int, np.integer))):
        raise ValueError("q and Q must be integers")
    if not 1 <= q <= Q <= MAX_DIM:
        raise ValueError(f"need 1 <= q <= Q <= {MAX_DIM}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")

    n2 = n * n
    half = (Q - q) / 2.0
    pref = math.pi ** half
    entries: dict[tuple, float] = {}
    for k in _even_multi_indices(int(Q), n2):
        kk = sum(k)
        acc = 0.0
        for mdeg in range(kk, n2, 2):
            h = filter_h(math.sqrt(mdeg) / n)
            if h == 0.0:
                continue
            ell = (mdeg - kk) // 2
            acc += h * (-1.0) ** ell * float(_binom(half, ell))
        psi0 = 1.0
        for ki in k:
            psi0 *= psi_at_zero(ki)
        b = psi0 * pref * acc
        if b != 0.0:
            entries[k] = b

    net = poly_to_gaussian(WeightedPolyCoeffs(d=int(Q), entries=entries), int(n))
    scale = float(n) ** (1.0 - alpha)
    factor = float(n) ** (q * (1.0 - alpha))
    return replace(net, scale=scale, coeffs=factor * net.coeffs)


def shallow_net_estimate(ds: Dataset, net: GaussianNetwork, x) -> float:
    """Network analogue of the kernel estimator: (1/M) sum_j F_j net(x - y_j)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != net.dim:
        raise ValueError("point dimension does not match the network")
    if ds.ambient_dim != net.dim:
        raise ValueError("dataset dimension does not match the network")
    vals = net(x[None, :] - ds.points)
    return math.fsum((vals * ds.values).tolist()) / ds.size
