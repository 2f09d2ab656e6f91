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

The quadrature runs axis by axis, so the coefficients come in factored
(Tucker) form: c_j = sum_k core[k] prod_a factor[j_a, k_a], with one axis
factor (K, r) mapping r Hermite degrees to the K = 2m**2 axis centers and
a core of shape (r,)*d (Tucker 1966; Kolda and Bader, SIAM Rev. 51(3),
2009).  A network is stored and evaluated in that form and the (K,)*d
coefficients are never multiplied out.  Each Gaussian factors over the
axes, so a point x costs d*K*r multiply-adds for v_a = g_a @ factor, with
g_a[i] = exp(-(s x_a - z_i)**2) on each axis a, and r**d more to contract
the core against the v_a: 9.7e3 in all for the prefab kernel at n = 6,
Q = 3 (K = 72, r = 18), against K**d = 3.7e5 for the dense sum.  Points go
in chunks whose intermediates hold at most ``_CHUNK_ENTRIES`` values, so
memory is flat in the number of points, and every point makes the same
BLAS calls with the same shapes, so a point's value never depends on the
batch it came in.

Rounding: the terms cancel heavily in the axis products g_a @ factor, not
in the core, so an evaluation is exact only to the scale u * S (u =
2**-53), S = sum_k |core[k]| prod_a w[k_a] with w the column sums of
|factor|; S bounds sum_j |c_j| too.  For ``prefab_kernel_network(6, 2, 3,
1.0)``, S = 3.8e6 (u * S = 4.2e-10) and sum_j |c_j| = 5.3e5, against a peak
output of 3.4.  The network's own evaluation order therefore sets the
rounding noise in any comparison of the network against its kernel (the
benchmark's ``net_kernel_dev``, 1.3e-11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import Dataset, _check_type, _read_json, _weighted_passes, _write_json
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


# Values held per chunk of points by the intermediates of one evaluation,
# each point taking d*K + d*r + r**(d-1) of them: 2**20 doubles (8 MB),
# whatever the number of points evaluated.
_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class GaussianNetwork:
    """Gaussian network on a tensor grid of centers, in factored form.

    Evaluates

        x -> sum_j c_j exp(-|scale*x - z_j|**2),
        c_j = sum_k core[k] factor[j_1, k_1] .. factor[j_dim, k_dim],

    where j = (j_1, .., j_dim) runs over the tensor grid whose coordinates
    are the 1-D ``axis_centers`` (K,), z_j = (axis_centers[j_1], ..,
    axis_centers[j_dim]), ``factor`` has shape (K, r) and ``core`` shape
    (r,)*dim.  A dense network with coefficients C of shape (K,)*dim is the
    same class with factor = I_K and core = C.

    A call takes an (N, dim) batch, a single point being a batch of one.
    Each point is contracted on its own: one (dim, K) @ (K, r) product
    gives v_a = g_a @ factor for every axis a, where g_a[i] =
    exp(-(scale*x_a - axis_centers[i])**2), then the core, as (r**(dim-1),
    r) rows, takes the last v_a and dim-1 smaller products the others.
    That is dim*K*r + r**dim multiply-adds per point and no exponential
    per (center, point) pair.  The calls and their shapes do not depend on
    the batch, so any batch and any chunking agree bitwise.  Points go in
    chunks of at most ``_CHUNK_ENTRIES // (dim*K + dim*r + r**(dim-1))``,
    so memory stays flat in the number of points.  The rounding error is
    on the scale u * S of the module docstring, not of the output.
    """

    scale: float
    axis_centers: np.ndarray
    factor: np.ndarray
    core: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.axis_centers, dtype=float)
        u = np.asarray(self.factor, dtype=float)
        core = np.asarray(self.core, dtype=float)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("axis_centers must be a non-empty 1-D array")
        if core.ndim < 1 or core.size == 0 or core.shape != core.shape[:1] * core.ndim:
            raise ValueError(f"core must have shape (r,)*dim with r >= 1, got {core.shape}")
        if u.shape != (z.size, core.shape[0]):
            raise ValueError(f"factor must have shape (K, r) = {(z.size, core.shape[0])} "
                             f"(axis centers, core axis length), got {u.shape}")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValueError("scale must be a positive finite real")
        for name, arr in (("axis_centers", z), ("factor", u), ("core", core)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "axis_centers", z)
        object.__setattr__(self, "factor", u)
        object.__setattr__(self, "core", core)

    @property
    def dim(self) -> int:
        """The input dimension: the number of axes of ``core``."""
        return self.core.ndim

    @property
    def coeffs(self) -> np.ndarray:
        """The (K,)*dim coefficients c_j, multiplied out anew on each access.

        Evaluation never forms them; the tests' dense reference sums and the
        benchmark's center counts read them.
        """
        c = self.core
        for _ in range(self.dim):
            # the leading core axis becomes the last center axis
            c = np.moveaxis(c, 0, -1) @ self.factor.T
        return c

    def __call__(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must be a batch (N, {self.dim}), got shape {pts.shape}")
        pts = pts * self.scale
        (k, r), d = self.factor.shape, self.dim
        step = max(1, _CHUNK_ENTRIES // (d * k + d * r + r ** (d - 1)))
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], step):
            out[start : start + step] = self._contract(pts[start : start + step])
        return out

    def _contract(self, pts: np.ndarray) -> np.ndarray:
        n, r = pts.shape[0], self.core.shape[0]
        with np.errstate(under="ignore"):
            # g[p, a, i] = exp(-(pts[p, a] - axis_centers[i])**2)
            g = np.exp(-((pts[:, :, None] - self.axis_centers) ** 2))
        v = g @ self.factor
        vals = self.core.reshape(-1, r) @ v[:, -1, :, None]
        for a in range(self.dim - 2, -1, -1):
            vals = vals.reshape(n, -1, r) @ v[:, a, :, None]
        return vals.reshape(n)


def write_network_json(net: GaussianNetwork, path: str) -> None:
    """Serialize in factored form with shortest round-trip decimals; reload is bit exact.

    The document holds ``dim``, ``scale``, ``axis_centers`` (K values),
    ``factor`` and ``core``, each of the last two as ``{"shape": [...],
    "values": [...]}`` in C order: [K, r] and [r, .., r].
    """
    doc = {
        "dim": net.dim,
        "scale": net.scale,
        "axis_centers": net.axis_centers.tolist(),
        "factor": {"shape": list(net.factor.shape), "values": net.factor.ravel().tolist()},
        "core": {"shape": list(net.core.shape), "values": net.core.ravel().tolist()},
    }
    _write_json(path, doc)


def _floats(name: str, values) -> np.ndarray:
    """The list ``values`` of JSON numbers as a float array; ``name`` names it in errors."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    for value in values:
        _check_type(f"{name} entry", value, float)
    return np.array(values, dtype=float)


def _read_tensor(path: str, doc: dict, key: str) -> np.ndarray:
    """The tensor field ``key``, its value count checked against the stated shape."""
    field = doc[key]
    if not (isinstance(field, dict) and set(field) == {"shape", "values"}
            and isinstance(field["shape"], list)):
        raise ValueError(f"{path}: field {key!r} must be an object with a 'shape' list and "
                         "'values'")
    shape = field["shape"]
    for v in shape:
        _check_type(f"{path}: field {key!r} shape entry", v, int)
        if v < 0:
            raise ValueError(f"{path}: field {key!r} needs a shape of nonnegative integers")
    flat = _floats(f"{path}: field {key!r} values", field["values"])
    if flat.size != math.prod(shape):
        raise ValueError(f"{path}: field {key!r} holds {flat.size} values for shape {shape}")
    return flat.reshape(shape)


def read_network_json(path: str) -> GaussianNetwork:
    """Read the factored form that ``write_network_json`` writes.

    Raises ValueError, naming the field, for the retired formats (a dense
    ``centers`` list or a ``coeffs`` tensor), a missing field, a value of
    the wrong JSON type (``estimator._check_type``), a value count that
    does not match the stated shape, a ``dim`` that is not the number of
    core axes, a core that is not (r,)*dim, a factor that is not (K, r) and
    non-finite values (``json`` reads NaN and Infinity).
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a network must be a JSON object")
    for key, form in (("centers", "dense network"), ("coeffs", "unfactored tensor")):
        if key in doc:
            raise ValueError(
                f"{path}: field {key!r} belongs to the {form} format, which is no longer "
                "read; write the network again in factored form"
            )
    for key in ("dim", "scale", "axis_centers", "factor", "core"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    scale = doc["scale"]
    _check_type(f"{path}: field 'scale'", scale, float)
    factor, core = _read_tensor(path, doc, "factor"), _read_tensor(path, doc, "core")
    dim = doc["dim"]
    _check_type(f"{path}: field 'dim'", dim, int)
    if dim != core.ndim:
        raise ValueError(f"{path}: field 'dim' must be {core.ndim} (core axes), got {dim!r}")
    centers = _floats(f"{path}: field 'axis_centers'", doc["axis_centers"])
    try:
        return GaussianNetwork(float(scale), centers, factor, core)
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
    the size-2m**2 Gauss-Hermite rule, with weights lambda_i.  Its core is
    (3/(2 pi))**(d/2) B and its axis factor, of shape (2m**2, m**2),

        factor[i, k] = lambda_i exp(3 x_i**2/4) psi_k(x_i) 3**(k/2),

    so center z_j = (sqrt(3)/2) x_j, j = (j_1, .., j_d), has the
    coefficient c_j = sum_k core[k] prod_a factor[j_a, k_a], which is never
    formed.  A build costs O(m**4) for the factor and a copy of B.
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
    centers, factor = _axis_factor(m)
    return GaussianNetwork(1.0, centers, factor, (3.0 / (2.0 * math.pi)) ** (d / 2.0) * B)


def _axis_factor(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The axis centers (2m**2,) and the axis factor (2m**2, m**2) of ``poly_to_gaussian``."""
    nodes, weights = gauss_hermite_rule(2 * m * m)
    # lambda_i * exp(3 x_i^2/4), formed in log space
    axis_w = np.exp(np.log(weights) + 0.75 * nodes * nodes)
    psi = hermite_matrix(m * m - 1, nodes)
    factor = axis_w[:, None] * psi * np.power(3.0, 0.5 * np.arange(m * m))
    return (math.sqrt(3.0) / 2.0) * nodes, factor


def _total_degree(size: int, d: int) -> np.ndarray:
    """|k|_1 for every multi-index k of the tensor (size,)*d."""
    return sum(np.ix_(*(np.arange(size),) * d))


def prefab_kernel_network(n: int, q: int, Q: int, alpha: float) -> GaussianNetwork:
    """Gaussian surrogate of the localized kernel, ready for shallow estimates.

    Builds G(P) for P(y) = Phi_{n,q,Q}(0, y) with synthesis parameter m = n,
    stores the input scale n**(1-alpha), and folds the estimator prefactor
    n**(q(1-alpha)) into the core.  The psi_k coefficient of P is

        b_k = psi_k(0) * pi**s * F_s(|k|_1 / 2),   s = (Q-q)/2,

    with the filter sum F_s(l) = sum_j H(sqrt(2(l+j))/n) (-1)**j binom(s, j)
    of :func:`hermloc.kernels._filter_sums`, the same sum the kernel table
    takes at s = -(q-1)/2.  b_k is nonzero only for all-even k (psi_k(0)
    vanishes otherwise) with |k|_1 < n**2, so the network keeps only the
    even columns of the ``poly_to_gaussian`` factor and the even entries
    of B as its core: r = ceil(n**2/2) per axis, 18 at n = 6.  The core is
    the Q-fold outer product of the psi_{2l}(0), times the prefactors,
    times the filter sum looked up by |k|_1.  The center grid comes from
    :func:`hermloc.hermite.gauss_hermite_rule`, so a build needs numpy
    alone.  Raises ValueError for a bool or non-integer n, q or Q, a bool
    or non-real alpha, and values out of range.
    """
    for name, value in (("n", n), ("q", q), ("Q", Q)):
        _check_type(name, value, int)
    _check_type("alpha", alpha, float)
    if not 2 <= n <= MAX_M:
        # the synthesis parameter m is n, capped by poly_to_gaussian
        raise ValueError(f"n must be an integer in 2..{MAX_M} at this synthesis scale")
    if not 1 <= q <= Q <= MAX_DIM:
        raise ValueError(f"need 1 <= q <= Q <= {MAX_DIM}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")

    r = (n * n + 1) // 2
    half = (Q - q) / 2.0
    # the filter sum depends on k = 2l only through |l|_1; it is 0 at every
    # |k|_1 >= n**2, that is |l|_1 >= r
    sums, e = _filter_sums(n, half)
    acc_by_total = np.zeros(Q * (r - 1) + 1)
    acc_by_total[:r] = np.ldexp(sums[:r], e)
    psi0 = psi_zero_even(r)
    core = psi0
    for _ in range(Q - 1):
        core = np.multiply.outer(core, psi0)
    pref = (3.0 / (2.0 * math.pi)) ** (Q / 2.0) * math.pi**half * float(n) ** (q * (1.0 - alpha))
    core = pref * core * acc_by_total[_total_degree(r, Q)]
    centers, factor = _axis_factor(n)
    return GaussianNetwork(float(n) ** (1.0 - alpha), centers, factor[:, ::2].copy(), core)


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
