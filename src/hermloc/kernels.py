"""Localized Hermite kernels.

This module builds the radial localized kernel

    Phi~_{n,q}(r) = sum_{m=0}^{floor(n^2/2)} H(sqrt(2m)/n) P_{m,q}(r)

where ``H`` is a smooth low-pass filter (1 on [0, 1/2], 0 on [1, inf)) and
``P_{m,q}`` is the radial projection polynomial of the degree-2m slice of the
q-dimensional Hermite-function frame.  The kernel is compiled once into a
coefficient table over even Hermite functions,

    a_l = psi_{2l}(0) pi**s F_s(l),   s = -(q-1)/2,
    F_s(l) = sum_{j >= 0} H(sqrt(2(l+j))/n) (-1)**j binom(s, j),

one filter sum for every q; the Gaussian network that emulates the kernel
(:func:`hermloc.gaussian_net.prefab_kernel_network`) takes the same sum at
s = (Q-q)/2.  The series over that table
costs O(n^2) per radius along the Hermite recurrence, so it is used only to
build and certify a piecewise-polynomial form of the kernel (see
:func:`kernel_form`).  Chebyshev interpolants are fitted on panels of width
1/4 over [0, rcut], rcut = sqrt(4L+1) + 6 past the last turning point, then
re-expanded on dyadic sub-panels (width 1/64 at n = 6 and 8, 1/256 at
n = 64), cut to the leading coefficients the certificate needs and turned
into monomials.  The form is built once per process on first use -- a few
milliseconds at n = 8 and about 0.2 s at n = 64 -- and then costs
one Horner sum of degree 6 to 8 per radius at every n from 2 to 96.

The module needs numpy alone.  The projection polynomials ``P_{m,q}`` and
the degree-slice projections they come from are test-only oracles, kept in
``tests/oracles.py`` with the checks that tie them to the compiled table.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly

from .hermite import psi_zero_even

__all__ = [
    "filter_h",
    "KernelTable",
    "compile_kernel",
    "KernelForm",
    "kernel_form",
    "eval_kernel",
]

MAX_TABLE_LEN = 10_000_000

# Chebyshev fit.  Panel width 1/4 keeps a degree of about
# 1.3 * sqrt(2) n / 4 + 12 enough for the highest local frequency sqrt(2) n,
# and is a power of two, so panel index and local variable are exact.
_PANEL_WIDTH = 0.25
# rcut lies this far past the last turning point sqrt(4L+1), where every
# psi_{2l} of the table has decayed monotonically
_CUTOFF_MARGIN = 6.0
# certificate budget relative to max(1, peak |K|); the tail beyond rcut is
# kept below 1% of the absolute part of it
_CERT_BUDGET = 1e-13
# Evaluated form.  Panels are halved until the highest local frequency over
# half a sub-panel, sqrt(2) n w / 2, is at most this, or until the next
# halving would leave a sub-panel without a point of the check grid.  The
# Chebyshev coefficients of a sub-panel then fall below the certificate's
# share after about seven terms (degree 6 to 8 from n = 2 to 96; 7 at
# n = 32 and 64, where the grid stops the halving), and their monomial
# form, whose rounding grows like (1 + sqrt(2))^k times the coefficient of
# T_k, stays at the noise level.
_SUB_FREQUENCY = 0.1
# The coefficients cut from each sub-panel sum to at most this share of the
# budget in absolute value, leaving the rest to rounding noise.
_TRUNCATION_SHARE = 1.0 / 16.0
# The check grid sees the rounding noise of the series and of the Horner
# sum only at its own points.  On 4e6 random radii per table (the ten
# tables of the tests, n = 2 to 64, 30% of the radii in [0, 1]) the
# deviation reached at most 2.5 times the grid maximum (n = 10, q = 2), so
# the certificate takes four times it.
_GRID_SAFETY = 4.0
# radii per evaluation block: keeps the Horner temporaries in cache and
# the memory of one call flat in the number of radii
_BLOCK = 32768
# sub-panel coefficients re-expanded at a time while a form is built
_EXPAND_BLOCK = 1 << 16
# the filter sums' binomials and partial sums are scaled down by this
# power of two whenever a binomial passes it, so no step overflows
_RESCALE_BITS = 512
_RESCALE = 2.0**_RESCALE_BITS


def filter_h(t):
    """Smooth low-pass filter: 1 on [0, 1/2], 0 on [1, inf), C-infinity.

    On (1/2, 1) the value is s(2 - 2t) / (s(2 - 2t) + s(2t - 1)) with
    s(u) = exp(-1/u) for u > 0, which glues the two plateaus smoothly and
    satisfies filter_h(3/4 - s) + filter_h(3/4 + s) = 1.  At t clipped to
    [1/2, 1] the same formula gives the plateaus exactly: s(0) = 0.

    Accepts a scalar or an array; negative arguments are rejected.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("filter argument must be finite")
    if np.any(arr < 0):
        raise ValueError("filter argument must be nonnegative")
    tm = np.clip(arr, 0.5, 1.0)
    with np.errstate(divide="ignore", under="ignore"):
        up = np.exp(-1.0 / (2.0 - 2.0 * tm))
        down = np.exp(-1.0 / (2.0 * tm - 1.0))
    out = up / (up + down)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class KernelTable:
    """Compiled radial kernel: value at r is sum_l a[l] * psi_{2l}(r)."""

    n: float
    q: int
    a: np.ndarray


def compile_kernel(n: float, q: int) -> KernelTable:
    """Fold the filter into the projection coefficients once.

    The table entry l is a_l = psi_{2l}(0) pi**s F_s(l) with s = -(q-1)/2
    and the filter sum F_s of :func:`_filter_sums`; entries with
    2l >= n**2 are exactly zero because the filter vanishes there.  At
    q = 1 (s = 0) the sum is the filter itself, a_l = H(sqrt(2l)/n)
    psi_{2l}(0).  A table whose factor pi**s or peak a_0 is not a normal
    double (pi**s from q = 1239 on, at any n) raises ``ValueError``.
    """
    if not np.isfinite(n) or n < 1:
        raise ValueError("n must be a finite real >= 1")
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError("q must be a positive integer")
    L = int(math.floor(n * n / 2.0))
    if L > MAX_TABLE_LEN:
        raise ValueError(f"table length {L} exceeds cap {MAX_TABLE_LEN}")

    s = -(q - 1) / 2.0
    sums, e = _filter_sums(n, s)
    # pi**s = m 2**(k - 1) with 1 <= m < 2: only the last step scales
    m, k = math.frexp(math.pi**s)
    a = psi_zero_even(L + 1) * sums
    a *= 2.0 * m
    # pi**s (k > -1022) and a_0, the peak (|psi_{2l}(0)| and F_s(l) fall
    # with l) that only the last step scales, must be normal doubles
    if not (k > -1022 and a[0] > 0.0 and -1022 < math.frexp(a[0])[1] + e + k - 1 <= 1024):
        raise ValueError(f"the kernel table at n = {n:g}, q = {q} leaves the double range")
    np.ldexp(a, e + k - 1, out=a)
    a[2 * np.arange(L + 1) >= n * n] = 0.0
    return KernelTable(float(n), int(q), a)


def _filter_sums(n: float, s: float) -> tuple[np.ndarray, int]:
    """Filter sums F_s(l) for l = 0 .. floor(n**2/2), as (F_s / 2**e, e).

        F_s(l) = sum_{j >= 0} H(sqrt(2(l + j))/n) (-1)**j binom(s, j)

    The kernel table takes s = -(q-1)/2, the prefab network s = (Q-q)/2.
    b_j = (-1)**j binom(s, j) is a running product of (j - 1 - s)/j, and
    the terms b_j H(...) are added in ascending j.  When |b_j| passes
    2**_RESCALE_BITS, b_j and the partial sums are scaled down by that
    power of two, exactly, and e counts it; partial sums that fall below
    2**-1074 on the way flush to 0 (at n = 64 only past q = 200, more than
    1e300 below the table's peak).  At a nonnegative integer s,
    b_{s+1} = 0 ends the sum: at s = 0 it is the filter itself.
    """
    L = int(math.floor(n * n / 2.0))
    h = filter_h(np.sqrt(2.0 * np.arange(L + 1)) / n)
    sums = h.copy()  # the j = 0 term: b_0 = 1
    b, e = -s, 0
    for j in range(1, L + 1):
        if b == 0.0:
            break
        sums[: L + 1 - j] += b * h[j:]
        b *= (j - s) / (j + 1)
        if abs(b) > _RESCALE:
            b /= _RESCALE
            sums /= _RESCALE
            e += _RESCALE_BITS
    return sums, e


def _eval_even_series(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_l a[l] * psi_{2l}(r) along the recurrence, no row storage.

    O(L) per radius: it builds and certifies :class:`KernelForm` and is the
    reference the tests compare the form against; nothing else calls it.

    The accumulation order over l is fixed and elementwise, so each entry
    of the result is bitwise reproducible regardless of batch shape.
    """
    r = np.asarray(r, dtype=float)
    x = r.ravel()
    psi_0 = (math.pi ** -0.25) * np.exp(-0.5 * x * x)
    out = a[0] * psi_0
    # past r ~ 38.6 psi_0 underflows to 0, and with it every psi_k: those
    # entries are final, and only the others run the recurrence
    live = np.flatnonzero(psi_0)
    if a.size == 1 or live.size == 0:
        return out.reshape(r.shape)
    x = x[live]
    psi_prev = psi_0[live]
    acc = out[live]
    psi_cur = x * psi_prev
    psi_cur *= math.sqrt(2.0)  # psi_1
    kmax = 2 * (a.size - 1)
    tmp = np.empty_like(x)
    for k in range(2, kmax + 1):
        c1 = math.sqrt(2.0 / k)
        c2 = math.sqrt((k - 1.0) / k)
        np.multiply(x, psi_cur, out=tmp)
        tmp *= c1
        psi_prev *= c2
        tmp -= psi_prev
        # rotate buffers: tmp now holds psi_k
        psi_prev, psi_cur, tmp = psi_cur, tmp, psi_prev
        if k % 2 == 0:
            coef = a[k // 2]
            if coef != 0.0:
                np.multiply(psi_cur, coef, out=tmp)
                acc += tmp
    out[live] = acc
    return out.reshape(r.shape)


@dataclass(frozen=True)
class KernelForm:
    """Piecewise-polynomial form of a compiled kernel on [0, rcut].

    Sub-panel i covers [i w, (i+1) w) with w = ``width``, a power of two;
    column i of ``coeffs`` holds the monomial coefficients of its
    polynomial in t^0 .. t^degree of the sub-panel variable t in [-1, 1].
    One more column, all zeros, guards [rcut, inf): every radius there
    evaluates to exactly 0.  The polynomials are the fitted Chebyshev
    interpolants re-expanded on the sub-panels and cut to the terms the
    certificate needs.  ``certificate`` bounds the deviation from the series
    sum_l a[l] psi_{2l}(r) at every r >= 0: ``_GRID_SAFETY`` times the
    largest deviation of this form on the check grid of the fit (a margin
    for rounding noise between grid points), plus the bound
    sum_l |a[l]| |psi_{2l}(rcut)| on the kernel beyond rcut.
    """

    coeffs: np.ndarray
    width: float
    certificate: float

    @property
    def panels(self) -> int:
        """Sub-panels on [0, rcut], not counting the zero guard column."""
        return self.coeffs.shape[1] - 1

    @property
    def rcut(self) -> float:
        """The cutoff radius, panels * width: exact, as the width is a power of two."""
        return self.panels * self.width

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, r) -> np.ndarray:
        """Kernel values at radii r >= 0 (not validated), any shape.

        Each entry depends only on its own radius, so results are bitwise
        the same whatever the shape or blocking of the input.
        """
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        out = np.empty_like(flat)
        for start in range(0, flat.size, _BLOCK):
            self._horner(flat[start : start + _BLOCK], out[start : start + _BLOCK])
        return out.reshape(r.shape)

    def _horner(self, x: np.ndarray, p: np.ndarray) -> None:
        """p = p t + c_k from k = degree down to 0 on one block, into ``p``.

        Each c_k is gathered from the sub-panel of its radius; radii at or
        past rcut fall on the all-zero guard column and give exactly 0.
        The width is a power of two, so x / w is exact, and
        t = 2 (x / w - i) - 1 maps sub-panel i onto [-1, 1] with one rounding.
        """
        coeffs = self.coeffs
        t = np.minimum(x, self.rcut)
        t *= 1.0 / self.width
        idx = t.astype(np.intp)
        t -= idx
        t *= 2.0
        t -= 1.0
        # every index is in range; "clip" skips the buffered bounds check
        coeffs[-1].take(idx, out=p, mode="clip")
        c_at = np.empty_like(p)
        for c in coeffs[-2::-1]:
            p *= t
            p += c.take(idx, out=c_at, mode="clip")


def _tail_bound(a: np.ndarray, rcut: float) -> float:
    """sum_l |a[l]| |psi_{2l}(rcut)|, a bound on |K(r)| for every r >= rcut.

    Valid when rcut lies past every turning point sqrt(4l+1): there each
    |psi_{2l}| decreases monotonically.  The recurrence is rescaled, so that
    values far below the underflow threshold still count.
    """
    L = a.size - 1
    log_psi = np.empty(L + 1)
    log_psi[0] = -0.25 * math.log(math.pi) - 0.5 * rcut * rcut
    prev, cur, shift = 1.0, math.sqrt(2.0) * rcut, 0.0
    for k in range(2, 2 * L + 1):
        prev, cur = cur, math.sqrt(2.0 / k) * rcut * cur - math.sqrt((k - 1.0) / k) * prev
        if abs(cur) > 1e200:
            prev, cur, shift = prev * 1e-200, cur * 1e-200, shift + 200.0 * math.log(10.0)
        if k % 2 == 0:
            log_psi[k // 2] = log_psi[0] + shift + math.log(abs(cur))
    with np.errstate(divide="ignore"):
        x = np.log(np.abs(a)) + log_psi
    # log-sum-exp shifted by the largest term; an all-zero table gives 0
    top = float(np.max(x))
    if not math.isfinite(top):
        return math.exp(top)
    return float(np.exp(np.log(np.sum(np.exp(x - top))) + top))


def _fit_panels(
    a: np.ndarray, panels: int, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Chebyshev coefficients per panel of width 1/4, a check grid, the series on it, peak |K|.

    The series is interpolated at the first-kind Chebyshev nodes
    t_j = cos(pi (j + 1/2) / N), N = degree + 1, by a DCT-II: the FFT of
    the mirrored node values, turned by exp(-i pi k / 2N).  Column i of the
    (N, panels) coefficient array belongs to panel i.  The check grid has
    twice as many points as there are nodes.
    """
    nodes = degree + 1
    k = np.arange(nodes)
    t = np.cos(math.pi * (k + 0.5) / nodes)
    left = _PANEL_WIDTH * np.arange(panels)[:, None]
    r_nodes = left + 0.5 * _PANEL_WIDTH * (t[None, :] + 1.0)
    grid = np.linspace(0.0, panels * _PANEL_WIDTH, 2 * panels * nodes + 1)[:-1]
    values = _eval_even_series(a, np.concatenate([r_nodes.ravel(), grid]))
    f = values[: r_nodes.size].reshape(panels, nodes)
    spectrum = np.fft.rfft(np.concatenate([f, f[:, ::-1]], axis=1), axis=1)[:, :nodes]
    coeffs = (np.exp(-0.5j * math.pi * k / nodes) * spectrum).real / nodes
    coeffs[:, 0] *= 0.5
    peak = float(np.max(np.abs(values)))
    return np.ascontiguousarray(coeffs.T), grid, values[r_nodes.size :], peak


def _sub_panel_maps(nodes: int, subs: int) -> np.ndarray:
    """Maps of Chebyshev coefficients onto ``subs`` equal sub-panels of [-1, 1].

    ``maps[s] @ c`` holds the coefficients, in the variable u of sub-panel s,
    of sum_k c_k T_k(t) restricted to t = m_s + u / subs, where m_s is the
    sub-panel's midpoint.  Column k of ``maps[s]`` holds T_k(m_s + u / subs)
    in T_0(u) .. T_k(u), built by the three-term recurrence with
    u T_j = (T_{j+1} + T_{|j-1|}) / 2, so each map is exactly upper
    triangular, and the identity when subs = 1.
    """
    mid = (2.0 * np.arange(subs) + 1.0) / subs - 1.0
    maps = np.zeros((subs, nodes, nodes))
    maps[:, 0, 0] = 1.0
    if nodes > 1:
        maps[:, 0, 1] = mid
        maps[:, 1, 1] = 1.0 / subs
    for k in range(1, nodes - 1):
        col = maps[:, :, k]
        u_col = np.zeros((subs, nodes))
        u_col[:, 1:] = 0.5 * col[:, :-1]
        u_col[:, :-1] += 0.5 * col[:, 1:]
        u_col[:, 1] += 0.5 * col[:, 0]
        maps[:, :, k + 1] = 2.0 * mid[:, None] * col + (2.0 / subs) * u_col - maps[:, :, k - 1]
    return maps


def _horner_coeffs(cheb: np.ndarray, subs: int, budget: float) -> np.ndarray:
    """Monomial coefficients on ``subs`` sub-panels per column of ``cheb``.

    Sub-panel s of panel i becomes column i * subs + s; one more column, of
    zeros, follows the last.  Only the leading Chebyshev coefficients are
    kept: the fewest for which the dropped ones sum in absolute value to at
    most ``_TRUNCATION_SHARE * budget`` on every sub-panel.  The kept ones
    go to monomials by the map of ``numpy.polynomial.chebyshev.cheb2poly``.
    The panels are re-expanded in chunks of about ``_EXPAND_BLOCK``
    coefficients, once to find the cut and once to keep what it leaves, so
    the memory of a build does not grow with the number of sub-panels.
    """
    nodes, panels = cheb.shape
    maps = _sub_panel_maps(nodes, subs)
    step = max(1, _EXPAND_BLOCK // (subs * nodes))
    dropped = np.zeros(nodes)
    for start in range(0, panels, step):
        sub = np.matmul(maps, cheb[:, start : start + step])  # (subs, nodes, panels)
        tails = np.cumsum(np.abs(sub[:, ::-1]), axis=1)[:, ::-1]
        np.maximum(dropped, tails.max(axis=(0, 2)), out=dropped)
    keep = max(1, int(np.count_nonzero(dropped > _TRUNCATION_SHARE * budget)))
    to_mono = np.zeros((keep, keep))
    for k in range(keep):
        col = cheb2poly(np.eye(keep)[k])
        to_mono[: col.size, k] = col
    to_sub_mono = np.matmul(to_mono, maps[:, :keep])
    coeffs = np.zeros((keep, panels * subs + 1))
    for start in range(0, panels, step):
        stop = min(start + step, panels)
        mono = np.matmul(to_sub_mono, cheb[:, start:stop])  # (subs, keep, panels)
        coeffs[:, start * subs : stop * subs] = mono.transpose(1, 2, 0).reshape(keep, -1)
    return coeffs


def _build_form(table: KernelTable) -> KernelForm:
    """Fit, certify and freeze the form of one table (see :class:`KernelForm`)."""
    a = table.a
    L = a.size - 1
    panels = math.ceil((math.sqrt(4.0 * L + 1.0) + _CUTOFF_MARGIN) / _PANEL_WIDTH)
    tail = _tail_bound(a, panels * _PANEL_WIDTH)
    while tail > 0.01 * _CERT_BUDGET:  # only very short tables (L = 0) get here
        panels += 1
        tail = _tail_bound(a, panels * _PANEL_WIDTH)
    degree = max(16, int(1.3 * math.sqrt(2.0) * table.n * _PANEL_WIDTH + 12.0))
    # the check grid has 2 (degree + 1) points per panel, at least one in
    # every sub-panel
    subs = 1
    while (math.sqrt(2.0) * table.n * _PANEL_WIDTH / subs / 2.0 > _SUB_FREQUENCY
           and subs <= degree + 1):
        subs *= 2
    cheb, grid, exact, peak = _fit_panels(a, panels, degree)
    budget = _CERT_BUDGET * max(1.0, peak)
    form = KernelForm(_horner_coeffs(cheb, subs, budget), _PANEL_WIDTH / subs, 0.0)
    certificate = _GRID_SAFETY * float(np.max(np.abs(form(grid) - exact))) + tail
    if certificate > budget:
        raise RuntimeError(
            f"kernel form for n={table.n}, q={table.q} misses its certificate budget: "
            f"{certificate:.3e} > {_CERT_BUDGET:.0e} * max(1, {peak:.3e}) at fit degree {degree}"
        )
    form.coeffs.flags.writeable = False
    return replace(form, certificate=certificate)


# Forms by (n, q, table bytes).  Trials evaluate from several threads; the
# lock makes a cold table build exactly once.
_FORMS: dict[tuple, KernelForm] = {}
_FORMS_LOCK = threading.Lock()


def kernel_form(table: KernelTable) -> KernelForm:
    """The certified piecewise-polynomial form of a table, built on first use.

    A form is built once per process and per table content and is shared
    by every later call.  Building one raises ``RuntimeError`` if its
    certificate exceeds 1e-13 * max(1, peak |K|); the form is fitted once,
    at one degree, and there is no fallback path.
    """
    key = (table.n, table.q, table.a.tobytes())
    form = _FORMS.get(key)
    if form is None:
        with _FORMS_LOCK:
            form = _FORMS.get(key)
            if form is None:
                form = _FORMS[key] = _build_form(table)
    return form


def eval_kernel(table: KernelTable, r):
    """Evaluate the compiled kernel at radial argument(s) r >= 0.

    Values come from the table's certified form (:func:`kernel_form`): each
    is within ``kernel_form(table).certificate`` -- at most
    1e-13 * max(1, peak |K|) -- of the series sum_l a[l] psi_{2l}(r), and
    radii r >= ``kernel_form(table).rcut`` give exactly 0.  Every entry
    depends only on its own radius, bitwise, whatever the input shape.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("radial argument must be finite")
    if np.any(arr < 0):
        raise ValueError("radial argument must be nonnegative")
    out = kernel_form(table)(arr)
    return float(out) if arr.ndim == 0 else out
