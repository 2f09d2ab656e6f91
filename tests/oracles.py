"""Test-only oracles for the localized kernel and its projections.

None of this is on a production path.  The degree-slice projections of the
Hermite-function frame appear here in three interchangeable forms:

* ``proj_tensor``        -- direct multi-index enumeration (oracle grade),
* ``proj_reduced``       -- two-coordinate reduction with the D-sequence,
* ``mehler_closed_form`` -- geometric generating function of the slices.

``proj_reduced(2m, q, Q, 0, x)`` equals ``P_{m,q}(|x|)`` (``p_coeffs``),
which ties the compiled kernel of :mod:`hermloc.kernels` to the projection
machinery; ``phi_localized`` is the d-dimensional filtered kernel built on
``proj_tensor``.

``dense_synthesis`` and ``dense_prefab_coeffs`` multiply a Gaussian network
out to its dense (K,)*d coefficient tensor the direct way (mode products
against B, then the outer-product weight grid), and ``dense_sum`` adds a
network's Gaussians center by center: the references for the factored
networks of :mod:`hermloc.gaussian_net`.

Three helpers the tests share sit here too: ``quad_integrate`` applies a
Gauss-Hermite rule, ``estimate_lipschitz`` samples difference quotients,
and ``write_csv_per_cell`` is the per-cell table writer that
``estimator._write_csv`` must match byte for byte.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import binom as _binom
from scipy.special import gammaln, gammasgn

from hermloc.hermite import gauss_hermite_rule, hermite_matrix, psi_zero_even
from hermloc.kernels import _filter_sums, filter_h

MAX_COMPOSITIONS = 2_000_000


@dataclass(frozen=True)
class PCoeffs:
    """Coefficients of P_{m,q} over even Hermite functions.

    ``coeffs[l]`` multiplies ``psi_{2l}``, l = 0 .. m.
    """

    m: int
    q: int
    coeffs: np.ndarray


def p_coeffs(m: int, q: int) -> PCoeffs:
    """Projection polynomial P_{m,q} expanded over psi_0, psi_2, .., psi_2m.

    For q = 1 the polynomial is a single term,

        P_{m,1} = psi_{2m}(0) * psi_{2m},

    and for q >= 2

        P_{m,q} = (pi**(-(2q-1)/4) / Gamma((q-1)/2))
                  * sum_l (-1)**l [Gamma((q-1)/2 + m - l) / (m-l)!]
                          [sqrt((2l)!) / (2**l l!)] psi_{2l}.

    All factorial ratios are formed in log space; the sign of coefficient l
    is (-1)**l.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError("q must be a positive integer")
    if q == 1:
        coeffs = np.zeros(m + 1)
        coeffs[m] = psi_zero_even(m + 1)[m]
        return PCoeffs(int(m), 1, coeffs)

    a = (q - 1.0) / 2.0
    ell = np.arange(m + 1)
    log_mag = (
        -(2.0 * q - 1.0) / 4.0 * math.log(math.pi)
        - gammaln(a)
        + gammaln(a + m - ell)
        - gammaln(m - ell + 1.0)
        + 0.5 * gammaln(2.0 * ell + 1.0)
        - ell * math.log(2.0)
        - gammaln(ell + 1.0)
    )
    signs = np.where(ell % 2 == 0, 1.0, -1.0)
    return PCoeffs(int(m), int(q), signs * np.exp(log_mag))


@dataclass(frozen=True)
class DSequence:
    """Taylor coefficients of pi**(-d/2) (1 - w**2)**(-d/2) in w.

    ``values[r]`` is D_{d;r}; odd entries vanish.  For d <= 0 the sequence
    terminates (the generating function is a polynomial for even d <= 0).
    """

    d: int
    values: np.ndarray


def d_sequence(d: int, rmax: int) -> DSequence:
    if not isinstance(d, (int, np.integer)):
        raise ValueError("d must be an integer")
    if not isinstance(rmax, (int, np.integer)) or rmax < 0:
        raise ValueError("rmax must be a nonnegative integer")
    values = np.zeros(rmax + 1)
    s = np.arange(rmax // 2 + 1)  # r = 2s
    pref = math.pi ** (-d / 2.0)
    if d >= 1:
        log_mag = gammaln(d / 2.0 + s) - gammaln(d / 2.0) - gammaln(s + 1.0)
        values[2 * s] = pref * np.exp(log_mag)
    else:
        top = 1.0 - d / 2.0
        arg = top - s
        # poles of Gamma at nonpositive integers zero the coefficient
        pole = (arg <= 0) & (np.abs(arg - np.round(arg)) < 1e-12)
        safe = np.where(pole, 1.0, arg)
        log_mag = gammaln(top) - gammaln(safe) - gammaln(s + 1.0)
        sign = np.where(s % 2 == 0, 1.0, -1.0) * gammasgn(top) * gammasgn(safe)
        vals = pref * sign * np.exp(log_mag)
        vals[pole] = 0.0
        values[2 * s] = vals
    return DSequence(int(d), values)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`.

    Iterative stars-and-bars enumeration (bar positions via combinations).
    """
    if parts == 1:
        yield (total,)
        return
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def proj_tensor(m: int, d: int, x, y) -> float:
    """Degree-slice projection sum_{|k|_1 = m} psi_k(x) psi_k(y), directly.

    Oracle-grade reference: enumerates multi-indices, no reductions.  The
    composition count C(m + d - 1, d - 1) is capped to keep this test-scale.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if not isinstance(d, (int, np.integer)) or not 1 <= d <= 4:
        raise ValueError("d must be an integer in 1..4")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != d or y.size != d:
        raise ValueError("x and y must have length d")
    if math.comb(m + d - 1, d - 1) > MAX_COMPOSITIONS:
        raise ValueError("composition count exceeds the test-scale cap")

    rows_x = hermite_matrix(m, x)
    rows_y = hermite_matrix(m, y)
    pair = rows_x * rows_y  # pair[i, k] = psi_k(x_i) psi_k(y_i)
    total = 0.0
    for k in _compositions(int(m), int(d)):
        prod = 1.0
        for axis, deg in enumerate(k):
            prod *= pair[axis, deg]
        total += prod
    return float(total)


def mehler_closed_form(d: int, x, y, w: float) -> float:
    """Closed form of sum_m w**m Proj_{m,d}(x, y) for |w| <= 0.95."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != d or y.size != d:
        raise ValueError("x and y must have length d")
    if not np.isfinite(w) or abs(w) > 0.95:
        raise ValueError("|w| must be <= 0.95")
    pref = (math.pi * (1.0 - w * w)) ** (-d / 2.0)
    xx = float(x @ x)
    yy = float(y @ y)
    xy = float(x @ y)
    return pref * math.exp(
        (4.0 * w * xy - (1.0 + w * w) * (xx + yy)) / (2.0 * (1.0 - w * w))
    )


def proj_reduced(m: int, q: int, Q: int, x, y) -> float:
    """Degree-slice projection via reduction to two coordinates.

    For points of R^Q treated as carrying q-dimensional structure,

        Proj_{m,q,Q}(x, y) = sum_j Proj_{j,2}((|x|,0), (|y| cos t, |y| sin t))
                             * D_{q-2; m-j}                      (q >= 2)
        Proj_{m,1,Q}(x, y) = psi_m(|x|) psi_m(|y| cos t)         (q = 1)

    with cos t = <x, y> / (|x| |y|).  When either norm vanishes the angle is
    immaterial (the two-coordinate slice is radial in its second argument);
    it is fixed to t = 0 so norms are preserved.  For q = 1 the two points
    must be collinear.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if not isinstance(q, (int, np.integer)) or not isinstance(Q, (int, np.integer)):
        raise ValueError("q and Q must be integers")
    if not 1 <= q <= Q:
        raise ValueError("need 1 <= q <= Q")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != Q or y.size != Q:
        raise ValueError("x and y must have length Q")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("points must be finite")

    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        cos_t, sin_t = 1.0, 0.0
    else:
        cos_t = float(np.clip((x @ y) / (nx * ny), -1.0, 1.0))
        sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))

    if q == 1:
        if nx > 0.0 and ny > 0.0 and abs(abs(cos_t) - 1.0) > 1e-10:
            raise ValueError("q = 1 requires collinear points")
        u, v = hermite_matrix(m, np.array([nx, ny * cos_t]))[:, m]
        return float(u * v)

    rows = hermite_matrix(m, np.array([nx, ny * cos_t, 0.0, ny * sin_t]))
    u = rows[0] * rows[1]  # psi_k(|x|) psi_k(|y| cos t)
    v = rows[2] * rows[3]  # psi_k(0)  psi_k(|y| sin t)
    conv = np.convolve(u, v)[: m + 1]  # conv[j] = Proj_{j,2}(x', y')
    dvals = d_sequence(q - 2, m).values
    return float(np.dot(conv, dvals[::-1]))


def proj_via_extension(m: int, q: int, Q: int, x, y) -> float:
    """Rebuild Proj_{m,Q}(x, y) from the reduced slices.

        Proj_{m,Q} = pi**((q-Q)/2) sum_l binom((Q-q)/2 + l - 1, l)
                     Proj_{m-2l, q, Q}

    Inverse of the reduction used by :func:`proj_reduced`; binomials with
    half-integer tops are generalized binomials.
    """
    total = 0.0
    for ell in range(m // 2 + 1):
        # ell = 0 is an empty product: binom(t, 0) = 1 even at t = -1,
        # where the Gamma form underlying scipy's binom is indeterminate
        b = 1.0 if ell == 0 else float(_binom((Q - q) / 2.0 + ell - 1.0, ell))
        if b != 0.0:
            total += b * proj_reduced(m - 2 * ell, q, Q, x, y)
    return math.pi ** ((q - Q) / 2.0) * total


def phi_localized(n: float, d: int, x, y) -> float:
    """Filtered projection kernel sum_{m < n**2} H(sqrt(m)/n) Proj_{m,d}(x, y).

    Builds on :func:`proj_tensor`, so it is test-scale only (d <= 3, n <= 12).
    The radial kernel relation Phi~_{n,q}(|x|) = Phi_{n,q,Q}(0, x) makes this
    the d-dimensional cross-check for compiled tables.
    """
    if not np.isfinite(n) or n < 1 or n > 12:
        raise ValueError("n must be a real in [1, 12] at this oracle scale")
    if not isinstance(d, (int, np.integer)) or not 1 <= d <= 3:
        raise ValueError("d must be an integer in 1..3")
    mmax = int(math.ceil(n * n)) - 1
    total = 0.0
    for m in range(mmax + 1):
        h = filter_h(math.sqrt(m) / n)
        if h == 0.0:
            continue
        total += h * proj_tensor(m, d, x, y)
    return float(total)


def dense_synthesis(B) -> np.ndarray:
    """Dense coefficients (K,)*d, K = 2m**2, of the network of sum_k B[k] psi_k.

    Center z_j = (sqrt(3)/2) x_j over the nodes of the size-2m**2
    Gauss-Hermite rule receives

        c_j = (3/(2 pi))**(d/2) * prod_axis [lambda exp(3 x**2/4)](x_j,axis)
              * sum_k B[k] 3**(|k|/2) psi_k(x_j),

    the polynomial evaluated by per-axis mode products against B.  ``B``
    must have shape (m**2,)*d; nothing else is checked.
    """
    B = np.asarray(B, dtype=float)
    d, kcap = B.ndim, B.shape[0]
    nodes, weights = gauss_hermite_rule(2 * kcap)
    axis_w = np.exp(np.log(weights) + 0.75 * nodes * nodes)
    psi_scaled = hermite_matrix(kcap - 1, nodes) * np.power(3.0, 0.5 * np.arange(kcap))[None, :]
    # each round contracts the leading k axis; the node axis lands at the end
    vals = B
    for _ in range(d):
        vals = np.tensordot(vals, psi_scaled, axes=([0], [1]))
    wgrid = axis_w
    for _ in range(d - 1):
        wgrid = np.multiply.outer(wgrid, axis_w)
    pref = (3.0 / (2.0 * math.pi)) ** (d / 2.0)
    return pref * wgrid * vals


def dense_prefab_coeffs(n: int, q: int, Q: int, alpha: float) -> np.ndarray:
    """Dense (2n**2,)*Q coefficients of ``prefab_kernel_network(n, q, Q, alpha)``.

    B[k] = psi_k(0) * pi**s * F_s(|k|_1 / 2), s = (Q-q)/2, over every
    multi-index k of (n**2,)*Q, is synthesized by ``dense_synthesis`` and
    scaled by n**(q(1-alpha)).
    """
    n2 = n * n
    half = (Q - q) / 2.0
    sums, e = _filter_sums(n, half)
    acc_by_total = np.zeros(Q * (n2 - 1) + 1)
    acc_by_total[0:n2:2] = np.ldexp(sums[: (n2 + 1) // 2], e)
    psi0 = np.zeros(n2)
    psi0[0::2] = psi_zero_even((n2 + 1) // 2)
    B = psi0
    for _ in range(Q - 1):
        B = np.multiply.outer(B, psi0)
    B *= math.pi**half
    B *= acc_by_total[sum(np.ix_(*(np.arange(n2),) * Q))]
    return float(n) ** (q * (1.0 - alpha)) * dense_synthesis(B)


def dense_sum(net, x) -> np.ndarray:
    """Reference sum_j c_j exp(-|s x - z_j|**2) over every center of the grid.

    Each term is formed from the squared distance itself (no expansion
    into |x|**2 - 2 x.z + |z|**2) and the terms are added by numpy's
    pairwise summation.
    """
    grids = np.meshgrid(*([net.axis_centers] * net.dim), indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=1)
    coeffs = net.coeffs.ravel()
    out = []
    for p in np.atleast_2d(x) * net.scale:
        r2 = np.sum((p - centers) ** 2, axis=1)
        with np.errstate(under="ignore"):
            out.append(np.sum(coeffs * np.exp(-r2)))
    return np.array(out)


def quad_integrate(
    rule: tuple[np.ndarray, np.ndarray],
    f: Callable[[np.ndarray], np.ndarray],
    weightless: bool = False,
) -> float:
    """Apply a quadrature rule ``(nodes, weights)`` to ``f``.

    With ``weightless=False`` this approximates ``integral f(x) exp(-x**2) dx``
    and is exact to rounding for polynomials of degree < 2m.  With
    ``weightless=True`` each weight is multiplied by ``exp(node**2)`` so the
    sum approximates the plain integral of ``f``; within the size cap the
    inflated weights stay inside double range.

    ``f`` is called once with the full node vector and must return a
    same-length array of finite values.
    """
    nodes, w = rule
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError("f must return one value per node")
    if not np.all(np.isfinite(vals)):
        raise ValueError("f returned non-finite values at quadrature nodes")
    if weightless:
        w = w * np.exp(nodes**2)
    return math.fsum((w * vals).tolist())


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


def write_csv_per_cell(path: str, header, columns) -> None:
    """The CSV table writer cell by cell: ``str`` of each entry, then two joins a block."""
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), 2048):
            cells = [map(str, col[start : start + 2048].tolist()) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
