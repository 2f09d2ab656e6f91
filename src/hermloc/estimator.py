"""One-shot kernel estimation from labeled samples, plus its continuous limit.

The estimator is training-free: given samples (y_j, F_j) whose points lie on
(or near) a q-dimensional set inside R^Q, the value at x is

    Fhat_{n,alpha}(x) = (n**(q(1-alpha)) / M) * sum_j F_j
                        * Phi~_{n,q}(n**(1-alpha) * |x - y_j|)

with the compiled radial kernel from :mod:`hermloc.kernels`.  There is no
fitting step; accuracy is controlled by n, the localization exponent alpha,
and the sample budget M.

Every kernel value comes from the table's certified piecewise-polynomial
form (:func:`hermloc.kernels.kernel_form`).  ``ratio_reconstruction`` is the
two-pass estimate: the value pass over the unit pass (the same sum with all
values 1).  Both passes share one computation of the radii and the kernel
matrix.  Its zero-mass policy, applied by ``guarded_ratio`` alone, covers
every ratio of passes in the package.

Every weighted sum over the samples, factor * sum_j w(x, y_j) F_j, goes
through ``_weighted_passes``: the kernel estimator, the heat baseline and
the network estimate differ only in the weight rows w.  It reads the
samples as a ``_DatasetStack``: a Dataset is a one-row stack read by every
point, and the DAG's kernel channels stack one dataset per point.  It sums by
error-free extraction; ``_row_sums`` states its error bound, no weaker than
a compensated pairwise tree's up to M = 2**20 - 3, and a point's sum is
bitwise the same alone or in any batch.  Its numpy operations release the
GIL, so threads estimating separate batches run in parallel.  NaN and
overflow policy: datasets and test points must be finite, and an estimate
that overflows raises ``ValueError`` naming max |F| and M, so no NaN or
infinity comes out of finite input.

The dataset CSV (header y_1..y_Q,value) is written by ``_write_csv``, the one
table writer, and read by ``_read_csv``, which also reads ``--points`` files.
Every JSON input (configs, DAGs, networks, DAG inputs) is read by
``_read_json``, and every JSON output is written by ``_write_json``.  The
values read from those inputs take one exact-type rule, ``_check_type``: a
bool is neither an integer nor a number, and a string is not a number.

``continuous_operator_on_curve`` is the M -> infinity limit for data on a
constant-speed curve (q = 1), the oracle the Monte-Carlo estimator is checked
against: the pass engine on a composite Gauss-Legendre rule, whose nodes are
the samples and whose weights multiply the kernel rows.  Its panels double,
in ``_curve_limit``, until each point's value agrees over two doublings; the
heat smoother's limit runs on the same loop with its own weight rows.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import KernelForm, KernelTable, compile_kernel, kernel_form

__all__ = [
    "Dataset",
    "EstimatorConfig",
    "estimate_batch",
    "value_and_unit_passes",
    "ZERO_MASS",
    "guarded_ratio",
    "ratio_reconstruction",
    "write_dataset_csv",
    "read_dataset_csv",
    "Curve",
    "QuadratureConvergenceError",
    "continuous_operator_on_curve",
]


@dataclass(frozen=True)
class Dataset:
    """Sample cloud with its structural dimension q.

    ``points`` has shape (M, Q); ``values`` has shape (M,).  q is the
    dimension of the set the points are believed to lie on and is supplied
    by the caller, never inferred.  The first pass reads both arrays into
    ``_stack``, kept for the dataset's life, so they must not be changed
    in place.
    """

    points: np.ndarray
    values: np.ndarray
    q: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array (M, Q)")
        if vals.shape != (pts.shape[0],):
            raise ValueError("values must have one entry per point")
        if pts.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ValueError("dataset entries must be finite")
        _check_type("q", self.q, int)
        if not 1 <= self.q <= pts.shape[1]:
            raise ValueError("q must be an integer in 1..Q")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def with_unit_values(self) -> "Dataset":
        """Same points, all values 1 (the density pass of two-pass use)."""
        return Dataset(self.points, np.ones(self.size), self.q)

    @functools.cached_property
    def _stack(self) -> "_DatasetStack":
        """This dataset as a one-row stack, the layout every pass reads; built once."""
        return _DatasetStack.of([self])


@dataclass(frozen=True, eq=False)
class _DatasetStack:
    """R datasets of one shape (M, Q) and one q, in the layout of the pass engine.

    ``points_t`` (Q, R, M) holds each dataset's points transposed.
    ``values`` (R, M) holds its values scaled by 2**-shift, with ``shift``
    (R,) the least k >= 0 that brings max |F| below 2**512.  A pass over T
    points reads R = 1 rows, every point summing over the one dataset, or
    R = T rows, point i summing over dataset i; a row's passes are bitwise
    those of its dataset alone.
    """

    points_t: np.ndarray
    shift: np.ndarray
    values: np.ndarray
    q: int

    @classmethod
    def of(cls, datasets) -> "_DatasetStack":
        first = datasets[0]
        if any(ds.points.shape != first.points.shape or ds.q != first.q for ds in datasets):
            raise ValueError("stacked datasets must share their shape (M, Q) and q")
        values = np.array([ds.values for ds in datasets])
        shift = np.maximum(0, np.frexp(np.max(np.abs(values), axis=1))[1] - 512)
        if shift.any():
            values = np.ldexp(values, -shift[:, None])
        points_t = np.array([ds.points.T for ds in datasets]).transpose(1, 0, 2)
        return cls(points_t, shift, values, first.q)

    def take(self, rows) -> "_DatasetStack":
        """The stack of rows ``rows`` (a list of row indices), in that order."""
        if rows == list(range(len(self.shift))):
            return self
        return _DatasetStack(self.points_t[:, rows], self.shift[rows], self.values[rows], self.q)


# rows per block in `_write_csv` and `_read_csv` (about 0.5 MB of text): memory
# is flat in rows
_CSV_BLOCK_ROWS = 2048


def _write_csv(path: str, header, columns) -> None:
    """Write equal-length ``columns`` (arrays or lists) under ``header``.

    Each entry of a column's ``.tolist()`` is written with ``%s``, which is
    ``str``: for a float the shortest round-trip decimal, so ``float`` reads
    back every bit.  Nothing is quoted and lines end in "\\n".  Rows are
    formatted a block of ``_CSV_BLOCK_ROWS`` at a time, by one ``%`` on one
    template of the block's rows, with the cells in row-major order.
    """
    columns = [np.asarray(col) for col in columns]
    row = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [col[start : start + _CSV_BLOCK_ROWS].tolist() for col in columns]
            cells = tuple(itertools.chain.from_iterable(zip(*block)))
            fh.write(row * (len(cells) // len(columns)) % cells)


def _read_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a CSV whose header is y_1..y_Q, optionally followed by value.

    Returns the (N, Q) points and the (N,) values, or None without a value
    column.  Blank lines are skipped.  A missing header or data row, a row
    with the wrong field count and a field that is not a number raise
    ``ValueError`` naming the path (and the line).  Rows become floats a
    block of ``_CSV_BLOCK_ROWS`` at a time, so memory stays near the
    result's size.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lines = (row for row in reader if row)
        header = next(lines, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        dim, ncol = len(header) - (header[-1] == "value"), len(header)
        if dim < 1 or header[:dim] != [f"y_{i + 1}" for i in range(dim)]:
            raise ValueError(f"{path}: header must be y_1..y_Q or y_1..y_Q,value, got {header}")
        blocks, rows = [], []
        for row in lines:
            try:
                if len(row) != ncol:
                    raise ValueError(f"{len(row)} fields, expected {ncol}")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            if len(rows) == _CSV_BLOCK_ROWS:
                blocks.append(np.array(rows))
                rows = []
    if rows:
        blocks.append(np.array(rows))
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    table = np.concatenate(blocks)
    del blocks  # freed before the columns are copied out
    values = table[:, dim].copy() if dim < ncol else None
    return np.ascontiguousarray(table[:, :dim]), values


# accepted values per parameter type (its default's type); a bool is neither int nor float
_VALUE_TYPES = {int: (int, np.integer), float: (float, int, np.integer, np.floating), str: (str,)}


def _check_type(name: str, value, kind: type) -> None:
    """Raise ``ValueError`` unless ``value`` is accepted for a parameter of type ``kind``."""
    if isinstance(value, bool) or not isinstance(value, _VALUE_TYPES[kind]):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")


def _read_json(path: str):
    """Parse the JSON file at ``path``; a parse error raises ``ValueError`` naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _write_json(path: str, doc, sort_keys: bool = False) -> None:
    """Write ``doc`` to ``path`` as JSON indented by 1, with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def write_dataset_csv(ds: Dataset, path: str) -> None:
    """Write the dataset CSV, header y_1..y_Q,value, with :func:`_write_csv`."""
    header = [f"y_{i + 1}" for i in range(ds.ambient_dim)] + ["value"]
    _write_csv(path, header, [*ds.points.T, ds.values])


def read_dataset_csv(path: str, q: int) -> Dataset:
    """Read a dataset CSV, header y_1..y_Q,value, with :func:`_read_csv`."""
    points, values = _read_csv(path)
    if values is None:
        raise ValueError(f"{path}: a dataset CSV needs a last column named value")
    return Dataset(points, values, q)


@dataclass(frozen=True)
class EstimatorConfig:
    """Localization exponent alpha in (0, 1] and the compiled table of degree n."""

    alpha: float
    table: KernelTable

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def n(self) -> float:
        """The degree the table was compiled for."""
        return self.table.n

    @classmethod
    def build(cls, n: float, alpha: float, q: int) -> "EstimatorConfig":
        return cls(float(alpha), compile_kernel(n, q))


# the most (point, sample) pairs in a chunk of test points while a chunk holds
# more than one point; `_chunk_rows` takes about 2**14, at least 64 points, so
# a chunk's working set stays resident
_PAIRS_PER_CHUNK = 1 << 16


def _chunk_rows(size: int) -> int:
    """Test points per chunk of a pass over ``size`` samples.

    About 2**14 pairs, at least 64 points and at most ``_PAIRS_PER_CHUNK``
    pairs; only M < 1024 differs from 2**16 pairs.  A chunk's buffers (the
    distances, the weight rows and the (2t, M) summands) then fit in a 2 MB
    L2 and stay mapped from chunk to chunk and pass to pass.  Measured with
    ``ratio_reconstruction`` on the helix at n = 64 (n = 6 at M = 16384),
    2-core Xeon with 2 MB L2 a core, numpy 2.4.6; faults are ``ru_minflt``
    per pass over 20 passes after 6 warm-ups:

    - M = 256, 512 points: 736 faults a pass with 256-point chunks, whose
      ~3.5 MB go back to the OS after every pass, against 0 with 64-point
      chunks.
    - A plain 2**14-pair budget gives M = 16384 one-point chunks (512
      points): 24,640 faults a pass against 736 with 4-point chunks, and
      253-262 against 222-225 ms (min of 20, two processes a side).
    - A plain 64-point cap slows few samples: M = 16, 100,000 points takes
      195 ms against 107 ms with this rule and 118 ms with 2**16 pairs (min
      of 15 calls, the three rules alternated in one process).
    """
    return max(1, min(_PAIRS_PER_CHUNK // size, max(64, (1 << 14) // size)))


def _squared_distances(xs: np.ndarray, points_t: np.ndarray) -> np.ndarray:
    """|x_i - y_j|^2 in a (len(xs), M) array, from samples transposed to (Q, R, M).

    With R = 1 every x_i reads the one sample set; with R = len(xs), x_i
    reads row i.  The coordinates are added one at a time in their order,
    ((x_1 - y_1)^2 + (x_2 - y_2)^2) + ..., each a pass over the whole array,
    so no (T, M, Q) difference array is formed and every entry depends only
    on its own pair, bitwise.
    """
    d2 = np.subtract(xs[:, :1], points_t[0])
    d2 *= d2
    diff = np.empty_like(d2)
    for k in range(1, points_t.shape[0]):
        np.subtract(xs[:, k : k + 1], points_t[k], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Accurate sum of each row of a C-contiguous (R, M) array; spoils ``rows``.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008): with
    P = 2**ceil(log2(M + 2)) and sigma a power of two above P * max|x| of
    the row, hi = (x + sigma) - sigma and the remainder x - hi (at most
    u*sigma in size) are exact, and the hi add up exactly in any order.
    Each level repeats this on the remainders with sigma scaled by P*u: two
    levels while P <= 2**15 (M <= 32766), three above.  The last remainders
    are added by ``np.add.reduce`` and the partial sums joined by one TwoSum.
    All steps are element-wise or along the row, so a row's sum depends only
    on that row and on M.  With u = 2**-53 and exact sum S, the result s^ has

        |s^ - S| <= u*|S| + (u**2 + c) * sum|x|,
        c = 3*M**2*P**2*u**3 (two levels), 5*M*P**2*u**3 (three),

    within the tree bound u*|S| + gamma_k*gamma_{2k}*sum|x|, k = ceil(log2 M),
    for every M <= 2**20 - 3; a single term comes back exactly.  A non-finite
    term, or a sigma past the float range, raises ``ValueError``.
    """
    bits = (rows.shape[1] + 1).bit_length()
    top = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    # sigma = 2**(e + bits) with max|x| < 2**e is finite; false on inf or NaN
    if not top.max() < 2.0 ** (1023 - bits):
        raise ValueError(
            f"a sum of {rows.shape[1]} terms up to {top.max():.3g} in size "
            "overflows its extraction scale"
        )
    sigma = np.ldexp(1.0, np.frexp(top)[1] + bits)[:, None]
    hi = np.empty_like(rows)
    exact = []
    for _ in range(2 if bits <= 15 else 3):
        np.add(rows, sigma, out=hi)
        hi -= sigma
        rows -= hi
        exact.append(np.add.reduce(hi, axis=1))
        sigma *= 2.0 ** (bits - 53)
    a, b, *low = exact
    rest = np.add.reduce(rows, axis=1)
    for part in low:
        rest += part
    s = a + b
    z = s - a
    return s + (((a - (s - z)) + (b - z)) + rest)


def _weighted_passes(stack: _DatasetStack, xs, weights: Callable, factor: float,
                     unit_pass: bool):
    """factor * sum_j w(x, y_j) F_j at T points; with unit_pass, also with F_j = 1.

    ``stack`` holds one dataset (R = 1) that every point sums over, or T,
    one per point.  ``weights(chunk, points_t)`` returns the (t, M) weight
    rows of a chunk of ``_chunk_rows(M)`` points, so memory is flat in the
    number of points and the chunk's buffers stay resident from chunk to
    chunk and pass to pass: ``chunk`` is (t, Q), and ``points_t`` holds the
    samples it reads, (Q, 1, M) or (Q, t, M).  The rows times the values
    and, for the unit pass, a copy of the rows (bitwise a pass over unit
    values, as w * 1.0 == w) fill one C-contiguous buffer whose rows
    ``_row_sums`` sums, so a point's passes are bitwise the same in any
    batch, alone or in a stack, and with or without the unit pass.  The
    stack's power-of-two value shift is folded into the value pass's
    factor, so only an estimate that overflows raises.
    """
    dim, count, size = stack.points_t.shape
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dim or not np.isfinite(xs).all():
        raise ValueError(f"test points must be a batch (T, {dim}) of finite numbers")
    if count not in (1, xs.shape[0]):
        raise ValueError(f"a stack of {count} datasets needs as many test points")
    rows = _chunk_rows(size)
    passes = 2 if unit_pass else 1
    scale = np.array([[math.ldexp(factor, k) for k in stack.shift.tolist()],
                      [factor] * count])[:passes]
    sums = np.empty((passes, xs.shape[0]))
    for start in range(0, xs.shape[0], rows):
        chunk = slice(start, start + rows)
        own = chunk if count > 1 else slice(None)  # the stack rows this chunk reads
        w = weights(xs[chunk], stack.points_t[:, own])
        t = w.shape[0]
        terms = np.empty((passes * t, size))
        np.multiply(w, stack.values[own], out=terms[:t])
        if unit_pass:
            terms[t:] = w
        del w  # free before the sums and the next chunk
        try:
            with np.errstate(over="raise"):
                np.multiply(scale[:, own], _row_sums(terms).reshape(passes, t),
                            out=sums[:, chunk])
        except (ValueError, FloatingPointError) as err:
            big = np.max(np.ldexp(np.max(np.abs(stack.values), axis=1), stack.shift))
            raise ValueError(f"sample values up to |F| = {big:.3g}, M = {size}: {err}") from None
    return sums[0], (sums[1] if unit_pass else None)


def _kernel_rows(form: KernelForm, lam: float) -> Callable:
    """The weight rows K(lam |x - y_j|) of a chunk of points x, for ``_weighted_passes``."""

    def weights(chunk: np.ndarray, points_t: np.ndarray) -> np.ndarray:
        radii = _squared_distances(chunk, points_t)
        np.sqrt(radii, out=radii)
        radii *= lam
        return form(radii)

    return weights


def _kernel_passes(stack: _DatasetStack, cfg: EstimatorConfig, xs, unit_pass: bool):
    """Value pass and, if asked, unit pass of the estimator: kernel weight rows."""
    if cfg.table.q != stack.q:
        raise ValueError("kernel table q does not match dataset q")
    weights = _kernel_rows(kernel_form(cfg.table), cfg.n ** (1.0 - cfg.alpha))
    factor = cfg.n ** (stack.q * (1.0 - cfg.alpha)) / stack.points_t.shape[2]
    return _weighted_passes(stack, xs, weights, factor, unit_pass)


def estimate_batch(ds: Dataset, cfg: EstimatorConfig, xs) -> np.ndarray:
    """Evaluate the estimator at many points; one kernel pass per batch.

    Each output entry is the estimator sum for its point: the kernel value
    per sample times the sample value, summed by error-free extraction to
    within u*|S| + (u**2 + c)*sum|terms| of the exact sum S, with u = 2**-53
    and c <= 3*M**2*P**2*u**3, P = 2**ceil(log2(M + 2)) (see ``_row_sums``).
    Results per point are identical whether the point is evaluated alone
    or inside any batch.  Values that overflow the sums raise ``ValueError``.
    """
    return _kernel_passes(ds._stack, cfg, xs, unit_pass=False)[0]


def value_and_unit_passes(
    ds: Dataset, cfg: EstimatorConfig, xs
) -> tuple[np.ndarray, np.ndarray]:
    """Value pass and unit pass at many points, from one kernel matrix.

    They are bitwise equal to ``estimate_batch`` on ``ds`` and on
    ``ds.with_unit_values()``.
    """
    return _kernel_passes(ds._stack, cfg, xs, unit_pass=True)


ZERO_MASS = 1e-12


def guarded_ratio(num, den) -> np.ndarray:
    """``num / den``, and 0 wherever |den| < ``ZERO_MASS``."""
    den = np.asarray(den, dtype=float)
    return num / np.where(np.abs(den) < ZERO_MASS, np.inf, den)


def ratio_reconstruction(ds: Dataset, cfg: EstimatorConfig, xs) -> np.ndarray:
    """Two-pass kernel estimate at many points: value pass over unit pass.

    Both passes come from one kernel matrix; they are bitwise equal to
    ``estimate_batch`` on ``ds`` and on ``ds.with_unit_values()``.

    Zero-mass policy: where |unit pass| < ``ZERO_MASS`` no training mass
    reaches x at this scale, and the estimate is 0 there, not a blow-up.
    """
    return guarded_ratio(*value_and_unit_passes(ds, cfg, xs))


@dataclass(frozen=True)
class Curve:
    """Curve t in [t0, t1] -> R^Q at constant speed; ``chart`` maps (N,) parameters to (N, Q)."""

    chart: Callable[[np.ndarray], np.ndarray]
    t0: float
    t1: float

    def __post_init__(self) -> None:
        if not self.t1 > self.t0:
            raise ValueError("curve must have t1 > t0")


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 10-point Gauss-Legendre rule on [-1, 1] of every quadrature panel.

    Built once, on first use rather than at import: its eigensolve loads
    LAPACK, about 0.6 MB of resident memory that no other estimator path
    needs.  Every caller shares the two arrays, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(10)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _curve_form(n: float) -> KernelForm:
    """The form of ``compile_kernel(n, 1)``, built and hashed once per n for the limit."""
    return kernel_form(compile_kernel(n, 1))


class QuadratureConvergenceError(RuntimeError):
    """Raised when panel refinement does not reach the requested tolerance."""


# the finest panel count ``continuous_operator_on_curve`` refines to
_MAX_PANELS = 1 << 17


def continuous_operator_on_curve(
    curve: Curve,
    f: Callable[[np.ndarray], np.ndarray],
    n: float,
    lam: float,
    x,
    *,
    tol: float = 1e-8,
):
    """Continuous analogue of the estimator on a curve (q = 1).

        sigma_{n,lam}(x) = lam * integral Phi~_{n,1}(lam |x - y(t)|) f(y(t)) dmu(t)

    where mu is arc length normalized to total mass 1, the distribution of
    uniformly drawn samples.  The chart must run at constant speed, so mu is
    dt / (t1 - t0).  It is ``_curve_limit`` on the estimator's kernel rows,
    from the form of ``compile_kernel(n, 1)``, with factor lam; a point's value
    in a batch is bitwise its value alone.  ``x`` is a finite (T, Q) batch or
    one point (Q,); the result has shape ``x.shape[:-1]``.  ``f`` maps (N, Q)
    points to (N,) values.

    Non-smooth targets: next to a square-root kink composite Gauss-Legendre
    converges only like h**1.5, so a ``tol`` that ``_MAX_PANELS`` panels
    cannot reach raises ``QuadratureConvergenceError``; no tolerance is
    loosened.
    """
    if not np.isfinite(lam) or lam < 1.0:
        raise ValueError("lam must be a finite real >= 1")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1, x.shape[-1] if x.ndim else 1)
    rows = _kernel_rows(_curve_form(float(n)), lam)
    out = _curve_limit(curve, f, xs, rows, lam, lam * math.sqrt(2.0) * n, tol)
    return out.reshape(x.shape[:-1])[()]


def _curve_limit(curve: Curve, f: Callable, xs: np.ndarray, rows: Callable, factor: float,
                 freq: float, tol: float) -> np.ndarray:
    """factor * integral w(x, y(t)) f(y(t)) dmu(t) at a (T, Q) batch, panels doubling.

    Each level of Gauss-Legendre panels is one ``_weighted_passes`` call on
    the nodes y(t_j), valued f(y(t_j)), with ``rows`` times the node weights;
    the first resolves rows oscillating at ``freq`` radians per unit length.
    A point leaves the finer levels once it agrees to ``tol`` (absolute,
    relative above magnitude 1) over two doublings.
    """
    glx, glw = _gauss_legendre()
    probe = curve.chart(np.linspace(curve.t0, curve.t1, 257))
    length = float(np.linalg.norm(np.diff(probe, axis=0), axis=1).sum())
    panels = 32
    target = freq * length / (2.0 * math.pi)
    while panels < min(_MAX_PANELS, 2.0 * target):
        panels *= 2

    out, todo = np.empty(xs.shape[0]), np.arange(xs.shape[0])
    prev, agree = np.full(xs.shape[0], np.nan), np.zeros(xs.shape[0], dtype=int)
    while panels <= _MAX_PANELS:
        edges = np.linspace(curve.t0, curve.t1, panels + 1)
        h = np.diff(edges)[:, None]
        tnodes = (edges[:-1, None] + 0.5 * h * (glx + 1.0)).ravel()
        wnodes = (0.5 * h * glw / (curve.t1 - curve.t0)).ravel()
        pts = curve.chart(tnodes)
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != tnodes.shape or not np.isfinite(vals).all():
            raise ValueError(f"f at the {tnodes.size} quadrature nodes of {panels} panels must give "
                             f"finite values of shape {tnodes.shape}, got shape {vals.shape}")
        val = _weighted_passes(Dataset(pts, vals, 1)._stack, xs[todo],
                               lambda chunk, points_t: rows(chunk, points_t) * wnodes,
                               factor, False)[0]
        close = np.abs(val - prev) <= tol * np.maximum(1.0, np.abs(val))
        agree = np.where(close, agree + 1, 0)
        done = agree >= 2
        out[todo[done]] = val[done]
        todo, prev, agree = todo[~done], val[~done], agree[~done]
        if not todo.size:
            return out
        panels *= 2
    raise QuadratureConvergenceError(f"no agreement to {tol} within {_MAX_PANELS} panels")
