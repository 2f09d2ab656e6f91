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

Because the centers form a tensor grid, a network is stored as its 1-D
axis centers (K = 2m**2 values) and a coefficient tensor of shape (K,)*d,
and it is evaluated in tensor-product form: exp(-|s x - z_j|**2) is the
product over the axes of exp(-(s x_a - z_{j_a})**2), so the network is a
d-way contraction of the coefficients with one (points x K) factor matrix
per axis.  That costs O(K**d) multiply-adds per point and no exponential
per (center, point) pair.  Points are contracted one at a time in chunks
whose intermediate holds at most ``_CHUNK_ENTRIES`` values, so memory is
flat in the number of points and a point's value never depends on the
batch it came in.

Rounding: the coefficients of a synthesized kernel cancel heavily, so an
evaluation is exact only to the scale u * sum_j |c_j| (u = 2**-53), far
above u times the output.  For ``prefab_kernel_network(6, 2, 3, 1.0)``,
sum_j |c_j| = 5.3e5 and u * sum_j |c_j| = 5.9e-11 against a peak output of
3.4.  The network's own evaluation order therefore sets the rounding noise
in any comparison of the network against its kernel (the benchmark's
``net_kernel_dev``): a dense sum over the K**d centers would carry noise
of the same scale, rounded differently, so it is no more exact.
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


# Entries of the (points x K**(dim-1)) intermediate of one chunk of points:
# 2**20 doubles (8 MB), whatever the number of points evaluated.
_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class GaussianNetwork:
    """Gaussian network on a tensor grid of centers.

    Evaluates

        x -> sum_j coeffs[j] exp(-|scale*x - z_j|**2),

    where j = (j_1, .., j_dim) runs over the tensor grid whose coordinates
    are the 1-D ``axis_centers`` (K,), z_j = (axis_centers[j_1], ..,
    axis_centers[j_dim]), and ``coeffs`` has shape (K,)*dim.  Since each
    Gaussian factors over the axes, the sum is a contraction of ``coeffs``
    with one (points x K) factor matrix exp(-(scale*x_a - axis_centers)**2)
    per axis a: no exponential is formed per (center, point) pair.

    Each point is contracted on its own, the last axis first: one
    matrix-vector product (K**(dim-1) x K) per point, then dim-1 smaller
    ones on the shrinking per-point vectors.  A point's value therefore
    depends only on that point, so a scalar call, a batch and any chunking
    agree bitwise.  Points are processed in chunks of at most
    ``_CHUNK_ENTRIES // K**(dim-1)``, so memory stays flat in the number
    of points.

    The rounding error of the sum is on the scale u * sum_j |coeffs[j]|
    (u = 2**-53), not of the output: the coefficients of a synthesized
    kernel cancel heavily (sum |c_j| = 5.3e5 against a peak output of 3.4
    for ``prefab_kernel_network(6, 2, 3, 1.0)``).
    """

    dim: int
    scale: float
    axis_centers: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        dim = self.dim
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError("dim must be a positive integer")
        z = np.asarray(self.axis_centers, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("axis_centers must be a non-empty 1-D array")
        if c.ndim != dim or c.shape != (z.size,) * c.ndim:
            raise ValueError(f"coeffs must have shape (K,)*dim with K = {z.size}, got {c.shape}")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValueError("scale must be a positive finite real")
        if not np.all(np.isfinite(z)):
            raise ValueError("axis_centers must be finite")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "axis_centers", z)
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = np.atleast_2d(x) * self.scale
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have {self.dim} coordinates")
        step = max(1, _CHUNK_ENTRIES // self.axis_centers.size ** (self.dim - 1))
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], step):
            out[start : start + step] = self._contract(pts[start : start + step])
        return float(out[0]) if scalar else out

    def _contract(self, pts: np.ndarray) -> np.ndarray:
        n, k = pts.shape[0], self.axis_centers.size
        with np.errstate(under="ignore"):
            # factors[p, a, i] = exp(-(pts[p, a] - axis_centers[i])**2)
            factors = np.exp(-((pts[:, :, None] - self.axis_centers) ** 2))
        # a stack of per-point matrix-vector products, one BLAS call each
        vals = self.coeffs.reshape(-1, k) @ factors[:, -1, :, None]
        for a in range(self.dim - 2, -1, -1):
            vals = vals.reshape(n, -1, k) @ factors[:, a, :, None]
        return vals.reshape(n)


def write_network_json(net: GaussianNetwork, path: str) -> None:
    """Serialize in tensor form with shortest round-trip decimals; reload is bit exact.

    The document holds ``dim``, ``scale``, ``axis_centers`` (K values) and
    ``coeffs`` as ``{"shape": [K, .., K], "values": [...]}`` in C order.
    """
    doc = {
        "dim": net.dim,
        "scale": net.scale,
        "axis_centers": [float(v) for v in net.axis_centers],
        "coeffs": {
            "shape": list(net.coeffs.shape),
            "values": [float(v) for v in net.coeffs.ravel()],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_network_json(path: str) -> GaussianNetwork:
    """Read the tensor form that ``write_network_json`` writes.

    Raises ValueError, naming the field, for the retired dense format
    (a ``centers`` list), a missing field, a coefficient count that does
    not match the stated shape, and non-finite values (``json`` reads
    NaN and Infinity).
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a network must be a JSON object")
    if "centers" in doc:
        raise ValueError(
            f"{path}: field 'centers' belongs to the dense network format, which is "
            "no longer read; write the network again in tensor form"
        )
    for key in ("dim", "scale", "axis_centers", "coeffs"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    scale, coeffs = doc["scale"], doc["coeffs"]
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise ValueError(f"{path}: field 'scale' must be a number")
    if not isinstance(coeffs, dict) or set(coeffs) != {"shape", "values"}:
        raise ValueError(f"{path}: field 'coeffs' must be an object with 'shape' and 'values'")
    shape = coeffs["shape"]
    if not isinstance(shape, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in shape
    ):
        raise ValueError(f"{path}: field 'coeffs' needs a shape of nonnegative integers")
    try:
        centers = np.array(doc["axis_centers"], dtype=float)
        values = np.array(coeffs["values"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: axis_centers and coeffs must hold numbers: {exc}") from exc
    if values.ndim != 1 or values.size != math.prod(shape):
        raise ValueError(
            f"{path}: field 'coeffs' holds {values.size} values for shape {tuple(shape)}"
        )
    try:
        return GaussianNetwork(
            dim=doc["dim"], scale=float(scale), axis_centers=centers, coeffs=values.reshape(shape)
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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


def poly_to_gaussian(P: WeightedPolyCoeffs, m: int) -> GaussianNetwork:
    """Convert a weighted polynomial (all |k|_1 < m**2) to a Gaussian network.

    The network's axis centers are (sqrt(3)/2) x_i over the nodes x_i of
    the size-2m**2 Gauss-Hermite rule.  Coefficients are linear in P:
    center z_j = (sqrt(3)/2) x_j, j = (j_1, .., j_d), receives

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

    rule = gauss_hermite_rule(2 * kcap)
    # lambda_i * exp(3 x_i^2/4), formed per axis in log space
    axis_w = np.exp(np.log(rule.weights) + 0.75 * rule.nodes * rule.nodes)

    B = np.zeros((kcap,) * d)
    for k, b in P.entries.items():
        B[tuple(k)] += b

    psi = hermite_matrix(kcap - 1, rule.nodes)  # (2m^2, m^2)
    psi_scaled = psi * np.power(3.0, 0.5 * np.arange(kcap))[None, :]

    # mode products: contract each leading k axis with the scaled node rows;
    # the node axis lands at the end, so after d rounds the axis order is
    # (n_1, .., n_d)
    vals = B
    for _ in range(d):
        vals = np.tensordot(vals, psi_scaled, axes=([0], [1]))

    wgrid = axis_w
    for _ in range(d - 1):
        wgrid = np.multiply.outer(wgrid, axis_w)

    pref = (3.0 / (2.0 * math.pi)) ** (d / 2.0)
    coeffs = pref * wgrid * vals
    axis_centers = (math.sqrt(3.0) / 2.0) * rule.nodes
    return GaussianNetwork(dim=d, scale=1.0, axis_centers=axis_centers, coeffs=coeffs)


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
    # the filter sum depends on k only through |k|_1; terms are added in the
    # order of increasing degree, skipping zero filter values
    h = filter_h(np.sqrt(np.arange(n2)) / n).tolist()
    binoms = [float(_binom(half, ell)) for ell in range(n2 // 2 + 1)]
    acc_by_total = {}
    for kk in range(0, n2, 2):
        acc = 0.0
        for mdeg in range(kk, n2, 2):
            if h[mdeg] == 0.0:
                continue
            ell = (mdeg - kk) // 2
            acc += h[mdeg] * (-1.0) ** ell * binoms[ell]
        acc_by_total[kk] = acc
    psi_tab = [psi_at_zero(ell) for ell in range(n2)]
    entries: dict[tuple, float] = {}
    for k in _even_multi_indices(int(Q), n2):
        psi0 = 1.0
        for ki in k:
            psi0 *= psi_tab[ki]
        b = psi0 * pref * acc_by_total[sum(k)]
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
