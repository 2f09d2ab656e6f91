"""Synthesis of Gaussian networks that emulate weighted Hermite polynomials.

A weighted polynomial P = sum_k b_k psi_k (multi-indexed, |k|_1 < m**2),
given as the dense coefficient tensor B[k] = b_k of shape (m**2,)*d, which
fixes m and d, is converted into a single hidden layer of isotropic Gaussians

    G(P)(x) = sum_j c_j exp(-|x - z_j|**2)

on the fixed center grid z_j = (sqrt(3)/2) x_j, where x_j runs over the
tensor grid of the size-2m**2 Gauss-Hermite rule.  The construction comes
from the generating identity for Hermite functions at parameter 1/sqrt(3):

    psi_k(x) = (3/(2 pi))**(d/2) 3**(|k|/2) integral psi_k(u)
               exp(-|x - (sqrt(3)/2) u|**2) exp(-|u|**2/4) du,

discretized exactly enough by the quadrature rule; the synthesis error
decays like m**(d-2) 3**(-m**2/2).

Networks carry an input scale s and evaluate x -> base(s * x) on a batch
(N, d) of points; nothing else is trained or adapted.

Because the centers form a tensor grid, a network is stored as its 1-D
axis centers (K = 2m**2 values) and a coefficient tensor of shape (K,)*d,
whose d axes give the input dimension, and it is evaluated in
tensor-product form: exp(-|s x - z_j|**2) is the product over the axes of
exp(-(s x_a - z_{j_a})**2), so the network is a d-way contraction of the
coefficients with one (points x K) factor matrix per axis.  That costs
O(K**d) multiply-adds per point and no exponential per (center, point)
pair.  Points are contracted one at a time in chunks whose intermediate
holds at most ``_CHUNK_ENTRIES`` values, so memory is flat in the number
of points and a point's value never depends on the batch it came in.

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

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimator import Dataset, _read_json, _weighted_passes, _write_json
from .hermite import gauss_hermite_rule, hermite_matrix, psi_zero_even
from .kernels import _filter_sums

__all__ = [
    "GaussianNetwork",
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

    A call takes an (N, dim) batch, a single point being a batch of one.
    Each point is contracted on its own, the last axis first: one
    matrix-vector product (K**(dim-1) x K) per point, then dim-1 smaller
    ones on the shrinking per-point vectors.  A point's value therefore
    depends only on that point, so any batch and any chunking agree
    bitwise.  Points are processed in chunks of at most
    ``_CHUNK_ENTRIES // K**(dim-1)``, so memory stays flat in the number
    of points.

    The rounding error of the sum is on the scale u * sum_j |coeffs[j]|
    (u = 2**-53), not of the output: the coefficients of a synthesized
    kernel cancel heavily (sum |c_j| = 5.3e5 against a peak output of 3.4
    for ``prefab_kernel_network(6, 2, 3, 1.0)``).
    """

    scale: float
    axis_centers: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.axis_centers, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("axis_centers must be a non-empty 1-D array")
        if c.ndim < 1 or c.shape != (z.size,) * c.ndim:
            raise ValueError(f"coeffs must have shape (K,)*dim with K = {z.size}, got {c.shape}")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValueError("scale must be a positive finite real")
        if not np.all(np.isfinite(z)):
            raise ValueError("axis_centers must be finite")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "axis_centers", z)
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        """The input dimension: the number of axes of ``coeffs``."""
        return self.coeffs.ndim

    def __call__(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must be a batch (N, {self.dim}), got shape {pts.shape}")
        pts = pts * self.scale
        step = max(1, _CHUNK_ENTRIES // self.axis_centers.size ** (self.dim - 1))
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], step):
            out[start : start + step] = self._contract(pts[start : start + step])
        return out

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
    _write_json(path, doc)


def read_network_json(path: str) -> GaussianNetwork:
    """Read the tensor form that ``write_network_json`` writes.

    Raises ValueError, naming the field, for the retired dense format
    (a ``centers`` list), a missing field, a ``dim`` that is not the
    integer number of coefficient axes, a coefficient count that does not
    match the stated shape, and non-finite values (``json`` reads NaN and
    Infinity).
    """
    doc = _read_json(path)
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
    dim = doc["dim"]
    if type(dim) is not int or dim != len(shape):
        raise ValueError(f"{path}: field 'dim' must be {len(shape)} (coeffs axes), got {dim!r}")
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
            scale=float(scale), axis_centers=centers, coeffs=values.reshape(shape)
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def poly_to_gaussian(B) -> GaussianNetwork:
    """Convert a weighted polynomial sum_k B[k] psi_k to a Gaussian network.

    ``B`` is the dense coefficient tensor of shape (m**2,)*d, indexed by the
    multi-index k; m is the square root of its axis length.  Raises
    ValueError for d outside 1..MAX_DIM, axes that are not all m**2 long
    with m in 1..MAX_M, a non-finite entry or a nonzero entry at
    |k|_1 >= m**2.

    The network's axis centers are (sqrt(3)/2) x_i over the nodes x_i of
    the size-2m**2 Gauss-Hermite rule.  Coefficients are linear in B:
    center z_j = (sqrt(3)/2) x_j, j = (j_1, .., j_d), receives

        c_j = (3/(2 pi))**(d/2) * prod_axis [lambda exp(3 x**2/4)](x_j,axis)
              * sum_k B[k] 3**(|k|/2) psi_k(x_j).

    The inner polynomial evaluation runs as per-axis mode products against
    B, so the cost is O(d * (2m^2)^d * m^2).
    """
    B = np.asarray(B, dtype=float)
    d = B.ndim
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"B must have 1..{MAX_DIM} axes, got {d}")
    kcap = B.shape[0]
    m = math.isqrt(kcap)
    if m * m != kcap or not 1 <= m <= MAX_M or B.shape != (kcap,) * d:
        raise ValueError(f"B must have shape (m**2,)*d, m in 1..{MAX_M}, got {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("B must be finite")
    if np.any(B[_total_degree(kcap, d) >= kcap]):
        raise ValueError(f"B has a nonzero entry at |k|_1 >= m**2 = {kcap}")

    nodes, weights = gauss_hermite_rule(2 * kcap)
    # lambda_i * exp(3 x_i^2/4), formed per axis in log space
    axis_w = np.exp(np.log(weights) + 0.75 * nodes * nodes)

    psi = hermite_matrix(kcap - 1, nodes)  # (2m^2, m^2)
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
    axis_centers = (math.sqrt(3.0) / 2.0) * nodes
    return GaussianNetwork(scale=1.0, axis_centers=axis_centers, coeffs=coeffs)


def _total_degree(size: int, d: int) -> np.ndarray:
    """|k|_1 for every multi-index k of the tensor (size,)*d."""
    return sum(np.ix_(*(np.arange(size),) * d))


def prefab_kernel_network(n: int, q: int, Q: int, alpha: float) -> GaussianNetwork:
    """Gaussian surrogate of the localized kernel, ready for shallow estimates.

    Builds G(P) for P(y) = Phi_{n,q,Q}(0, y) with synthesis parameter m = n,
    stores the input scale n**(1-alpha), and folds the estimator prefactor
    n**(q(1-alpha)) into the coefficients.  The psi_k coefficient of P is

        b_k = psi_k(0) * pi**s * F_s(|k|_1 / 2),   s = (Q-q)/2,

    with the filter sum F_s(l) = sum_j H(sqrt(2(l+j))/n) (-1)**j binom(s, j)
    of :func:`hermloc.kernels._filter_sums`, the same sum the kernel table
    takes at s = -(q-1)/2.  b_k is nonzero only for all-even k (psi_k(0)
    vanishes otherwise) with |k|_1 < n**2.  The dense tensor of the b_k is
    the Q-fold outer product of the psi_k(0) vector, times pi**s, times the
    filter sum looked up by |k|_1.  The center grid comes from
    :func:`hermloc.hermite.gauss_hermite_rule`, so a build needs numpy alone.
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
    # the filter sum depends on k only through |k|_1 = 2l; it stays 0 at odd
    # totals and at every total >= n**2
    sums, e = _filter_sums(n, half)
    acc_by_total = np.zeros(Q * (n2 - 1) + 1)
    acc_by_total[0:n2:2] = np.ldexp(sums[: (n2 + 1) // 2], e)
    psi0 = np.zeros(n2)
    psi0[0::2] = psi_zero_even((n2 + 1) // 2)
    B = psi0
    for _ in range(Q - 1):
        B = np.multiply.outer(B, psi0)
    B *= pref  # in place: no further tensor-sized temporaries
    B *= acc_by_total[_total_degree(n2, Q)]

    net = poly_to_gaussian(B)
    scale = float(n) ** (1.0 - alpha)
    factor = float(n) ** (q * (1.0 - alpha))
    return replace(net, scale=scale, coeffs=factor * net.coeffs)


def shallow_net_estimate(ds: Dataset, net: GaussianNetwork, xs) -> np.ndarray:
    """Network analogue of the kernel estimator: (1/M) sum_j F_j net(x - y_j).

    ``xs`` is a finite batch (N, Q); the (N,) sums go through
    ``estimator._weighted_passes``, bitwise the same alone or in any batch.
    """
    if ds.ambient_dim != net.dim:
        raise ValueError("dataset dimension does not match the network")

    def weights(chunk: np.ndarray, points_t: np.ndarray) -> np.ndarray:
        diffs = chunk[:, None, :] - np.moveaxis(points_t, 0, -1)
        return net(diffs.reshape(-1, net.dim)).reshape(chunk.shape[0], ds.size)

    return _weighted_passes(ds._stack, xs, weights, 1.0 / ds.size, unit_pass=False)[0]
