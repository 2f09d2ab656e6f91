"""Datasets, the one-shot estimator, and its continuous-limit oracle.

The continuous operator (panel-adaptive quadrature of the kernel against
normalized arc measure) is the independent reference for the Monte-Carlo
estimator; trapezoid grids of the compiled kernel are the reference for
the kernel's unit mass.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermloc import estimator
from hermloc.estimator import (
    _PAIRS_PER_CHUNK,
    _row_sums,
    Curve,
    Dataset,
    EstimatorConfig,
    QuadratureConvergenceError,
    continuous_operator_on_curve,
    estimate_batch,
    guarded_ratio,
    ratio_reconstruction,
    read_dataset_csv,
    value_and_unit_passes,
    write_dataset_csv,
)
from hermloc.experiments import HelixSpec, gen_training, heat_value_and_unit_passes
from hermloc.gaussian_net import prefab_kernel_network, shallow_net_estimate
from hermloc.kernels import compile_kernel, eval_kernel
from oracles import write_csv_per_cell


@pytest.fixture(scope="module")
def helix_oracle16():
    """Continuous-operator values at 16 interior helix points, n = 16."""
    spec = HelixSpec()
    curve = spec.curve()
    span = spec.t_max - spec.t_min
    tg = np.linspace(spec.t_min + 0.15 * span, spec.t_min + 0.85 * span, 16)
    xs = spec.point(tg)
    vals = continuous_operator_on_curve(curve, spec.target_ambient, 16.0, 1.0, xs)
    return spec, tg, xs, vals


class TestDataset:
    def test_construction(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        ds = Dataset(pts, np.array([1.0, 2.0, 3.0]), 1)
        assert ds.size == 3
        assert ds.ambient_dim == 2
        assert ds.q == 1

    def test_with_unit_values(self):
        ds = Dataset(np.zeros((4, 3)), np.arange(4.0), 2)
        unit = ds.with_unit_values()
        np.testing.assert_array_equal(unit.values, np.ones(4))
        assert unit.points is ds.points or np.array_equal(unit.points, ds.points)
        assert unit.q == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.zeros(3), 1)
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4), 1)
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0), 1)
        with pytest.raises(ValueError):
            Dataset(np.array([[math.nan, 0.0]]), np.zeros(1), 1)
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(3), 0)
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(3), 3)


class TestDatasetCsv:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        pts[0, 0] = 1e-300
        pts[1, 1] = -1e300
        pts[2, 2] = 0.1
        vals = rng.normal(size=20)
        ds = Dataset(pts, vals, 1)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, str(path))
        back = read_dataset_csv(str(path), 1)
        np.testing.assert_array_equal(back.points, ds.points)
        np.testing.assert_array_equal(back.values, ds.values)

    def test_write_is_deterministic(self, tmp_path):
        ds = Dataset(np.random.default_rng(1).normal(size=(5, 2)), np.arange(5.0), 1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(ds, str(a))
        write_dataset_csv(ds, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_1,value\n0.0,1.0\n")
        with pytest.raises(ValueError):
            read_dataset_csv(str(path), 1)
        path.write_text("y_1,value\n0.0\n")
        with pytest.raises(ValueError):
            read_dataset_csv(str(path), 1)
        path.write_text("")
        with pytest.raises(ValueError):
            read_dataset_csv(str(path), 1)
        path.write_text("y_1,y_2\n0.0,1.0\n")
        with pytest.raises(ValueError, match="needs a last column named value"):
            read_dataset_csv(str(path), 1)
        path.write_text("y_1,value\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_dataset_csv(str(path), 1)

    def test_trailing_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y_1,y_2,value\n0.5,0.25,1.0\n-1.0,2.0,3.0\n\n")
        back = read_dataset_csv(str(path), 1)
        np.testing.assert_array_equal(back.points, [[0.5, 0.25], [-1.0, 2.0]])
        np.testing.assert_array_equal(back.values, [1.0, 3.0])

    def test_table_format(self, tmp_path):
        path = tmp_path / "t.csv"
        estimator._write_csv(str(path), ["x", "n", "name"],
                             [np.array([0.1, 1e-300, -0.0]), np.array([1, -2, 30]),
                              ["a", "b", "c"]])
        assert path.read_bytes() == b"x,n,name\n0.1,1,a\n1e-300,-2,b\n-0.0,30,c\n"

    @pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 2049, 4097])
    def test_table_bytes_match_the_per_cell_writer(self, tmp_path, rows):
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, -1e-5,
                   0.1, 1e16, -1e16, 1.7976931348623157e308, -1.7976931348623157e308]
        rng = np.random.default_rng(rows)
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        k = min(rows, len(special))
        floats[:k] = special[:k]
        floats[rows - k : rows] = special[:k]  # and across the last block boundary
        ints = rng.integers(-(10**15), 10**15, rows)
        # baseline-heat's parameter column: diffusion times and integer degrees
        mixed = tuple(float(v) if i % 2 else int(i) for i, v in enumerate(floats))
        names = [("heat", "kernel", "")[i % 3] for i in range(rows)]
        header = ["x", "n", "parameter", "name"]
        columns = [floats, ints, mixed, names]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        estimator._write_csv(str(new), header, columns)
        write_csv_per_cell(str(old), header, columns)
        assert new.read_bytes() == old.read_bytes()
        if rows > 1:
            assert new.read_text().splitlines()[1].split(",")[2] == "0.0"  # int 0, written as a float

    @pytest.mark.parametrize("rows", [10_000, 40_000])
    def test_write_memory_is_flat_in_rows(self, tmp_path, rows):
        # rows are formatted a block at a time: formatting the whole table
        # at once peaks at about 270 bytes a row, 10.6 MB at 40,000 rows
        ds = Dataset(np.random.default_rng(0).normal(size=(rows, 3)), np.ones(rows), 1)
        tracemalloc.start()
        try:
            write_dataset_csv(ds, str(tmp_path / "data.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("rows", [10_000, 40_000])
    def test_read_memory_is_flat_in_rows(self, tmp_path, rows):
        # rows become an array a block at a time: one list of every row
        # peaks at about 250 bytes a row, 10 MB at 40,000 rows
        ds = Dataset(np.random.default_rng(0).normal(size=(rows, 3)), np.ones(rows), 1)
        path = str(tmp_path / "data.csv")
        write_dataset_csv(ds, path)
        tracemalloc.start()
        try:
            back = read_dataset_csv(path, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert back.points.tobytes() == ds.points.tobytes()
        assert back.values.tobytes() == ds.values.tobytes()


class TestEstimate:
    def _dataset(self, m=64, seed=4):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(m, 3))
        vals = np.cos(pts @ np.array([1.0, -1.0, 0.5]))
        return Dataset(pts, vals, 1)

    def test_single_equals_batch_bitwise(self):
        ds = self._dataset()
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = np.random.default_rng(5).normal(size=(7, 3))
        batch = estimate_batch(ds, cfg, xs)
        for i in range(7):
            assert estimate_batch(ds, cfg, xs[i : i + 1])[0] == batch[i]

    def test_single_equals_batch_across_chunks(self):
        # 300 points against 512 samples span three chunks of test points
        ds = self._dataset(m=512, seed=12)
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = np.random.default_rng(13).normal(size=(300, 3))
        rows = _PAIRS_PER_CHUNK // ds.size
        assert 2 * rows < xs.shape[0]
        batch = estimate_batch(ds, cfg, xs)
        for i in (0, rows - 1, rows, 2 * rows - 1, 2 * rows, 299):
            assert estimate_batch(ds, cfg, xs[i : i + 1])[0] == batch[i]

    def test_no_test_points(self):
        ds = self._dataset()
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        assert estimate_batch(ds, cfg, np.zeros((0, 3))).shape == (0,)
        num, den = value_and_unit_passes(ds, cfg, np.zeros((0, 3)))
        assert num.shape == den.shape == (0,)

    def test_batch_order_invariance(self):
        ds = self._dataset()
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = np.random.default_rng(6).normal(size=(9, 3))
        perm = np.random.default_rng(7).permutation(9)
        np.testing.assert_array_equal(
            estimate_batch(ds, cfg, xs[perm]), estimate_batch(ds, cfg, xs)[perm]
        )

    def test_linearity_in_values(self):
        ds = self._dataset()
        other = Dataset(ds.points, np.sin(ds.points[:, 0]), 1)
        mixed = Dataset(ds.points, 2.0 * ds.values - 3.0 * other.values, 1)
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = np.random.default_rng(8).normal(size=(5, 3))
        got = estimate_batch(mixed, cfg, xs)
        want = 2.0 * estimate_batch(ds, cfg, xs) - 3.0 * estimate_batch(other, cfg, xs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_constant_field_ratio_is_exact(self):
        ds = self._dataset(m=48, seed=9)
        const = Dataset(ds.points, np.full(48, 3.7), 1)
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = ds.points[:5]
        num = estimate_batch(const, cfg, xs)
        den = estimate_batch(const.with_unit_values(), cfg, xs)
        np.testing.assert_allclose(num / den, 3.7, rtol=1e-13)

    def test_alpha_scaling_matches_manual_sum(self):
        ds = self._dataset(m=32, seed=10)
        n, alpha = 6.0, 0.5
        cfg = EstimatorConfig.build(n, alpha, 1)
        x = np.array([0.2, -0.4, 0.9])
        lam = n ** (1.0 - alpha)
        r = lam * np.linalg.norm(ds.points - x[None, :], axis=1)
        manual = (
            n ** (ds.q * (1.0 - alpha))
            * math.fsum((eval_kernel(cfg.table, r) * ds.values).tolist())
            / ds.size
        )
        assert estimate_batch(ds, cfg, x[None, :])[0] == pytest.approx(manual, rel=1e-13)

    def test_validation(self):
        ds = self._dataset()
        cfg = EstimatorConfig.build(8.0, 1.0, 2)
        with pytest.raises(ValueError):
            estimate_batch(ds, cfg, np.zeros((2, 3)))  # table q != data q
        cfg1 = EstimatorConfig.build(8.0, 1.0, 1)
        with pytest.raises(ValueError):
            estimate_batch(ds, cfg1, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            estimate_batch(ds, cfg1, np.full((2, 3), math.inf))
        with pytest.raises(ValueError):
            EstimatorConfig.build(8.0, 0.0, 1)
        with pytest.raises(ValueError):
            EstimatorConfig.build(8.0, 1.5, 1)
        assert EstimatorConfig(1.0, compile_kernel(6.0, 1)).n == 6.0


def _cfg():
    return EstimatorConfig.build(8.0, 1.0, 1)


# every batch entry point over a dataset, as f(ds, xs) -> one or two (T,) passes
_BATCH_ENTRY_POINTS = {
    "estimate_batch": lambda ds, xs: estimate_batch(ds, _cfg(), xs),
    "value_and_unit_passes": lambda ds, xs: value_and_unit_passes(ds, _cfg(), xs),
    "ratio_reconstruction": lambda ds, xs: ratio_reconstruction(ds, _cfg(), xs),
    "heat_value_and_unit_passes": lambda ds, xs: heat_value_and_unit_passes(ds, 0.1, xs),
    "shallow_net_estimate": lambda ds, xs: shallow_net_estimate(
        ds, prefab_kernel_network(4, 1, 2, 1.0), xs
    ),
}


@pytest.mark.parametrize("entry", list(_BATCH_ENTRY_POINTS.values()), ids=list(_BATCH_ENTRY_POINTS))
class TestBatchContract:
    """A single point is a batch of one: every entry point takes a finite (T, Q) batch."""

    ds = Dataset(np.random.default_rng(30).normal(size=(40, 2)), np.arange(40.0), 1)

    def test_empty_batch_gives_empty_result(self, entry):
        out = entry(self.ds, np.zeros((0, 2)))
        for part in out if isinstance(out, tuple) else (out,):
            assert part.shape == (0,)

    def test_one_dimensional_point_raises(self, entry):
        with pytest.raises(ValueError, match="test points must be a batch"):
            entry(self.ds, np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_raises(self, entry, bad):
        with pytest.raises(ValueError, match="test points must be a batch"):
            entry(self.ds, np.array([[0.1, 0.2], [0.3, bad]]))


def _tree_sum_bound(terms: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Largest |sum - fsum| of a compensated pairwise tree, per column.

    The tree is within u*|S| + gamma_k*gamma_{2k}*sum|terms| of the exact
    sum S, and fsum, the correctly rounded S, is within u*|S| of it.
    ``_row_sums`` promises no more than the tree.
    """
    u = 2.0**-53
    k = math.ceil(math.log2(terms.shape[0]))

    def gamma(j):
        return j * u / (1.0 - j * u)

    absum = np.array([math.fsum(col) for col in np.abs(terms).T])
    return 2.0 * u * (1.0 + 2.0 * u) * np.abs(want) + gamma(k) * gamma(2 * k) * absum


def _ill_conditioned_columns(m: int, seed: int) -> np.ndarray:
    """Three ill-conditioned columns of length m.

    +-1e16 alternating with remainders in [-1, 1]; pairs x, -x that cancel
    exactly; terms spread over 24 decades whose last term is minus the
    correctly rounded sum of the others.
    """
    rng = np.random.default_rng(seed)
    big = np.where(np.arange(m) % 4 == 0, 1e16, -1e16)
    alternating = np.where(np.arange(m) % 2 == 0, big, rng.uniform(-1.0, 1.0, m))
    half = rng.normal(size=m // 2) * 10.0 ** rng.integers(-12, 12, m // 2)
    cancelling = rng.permutation(np.concatenate([half, -half, np.zeros(m % 2)]))
    wide = rng.normal(size=m) * 10.0 ** rng.integers(-12, 12, m)
    if m > 1:
        wide[-1] = -math.fsum(wide[:-1])
    return np.stack([alternating, cancelling, wide], axis=1)


class TestSquaredDistances:
    """The passes' radii, added up one coordinate at a time, at several Q."""

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_passes_match_norm_kernel_fsum_reference(self, dim):
        # M is a power of two, so at alpha = 1 the factor 1/M is exact
        rng = np.random.default_rng(40 + dim)
        m = 512
        pts = rng.normal(size=(m, dim))
        ds = Dataset(pts, np.cos(pts.sum(axis=1)), 1)
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = rng.normal(size=(30, dim))
        num, den = value_and_unit_passes(ds, cfg, xs)
        for i, x in enumerate(xs):
            kern = eval_kernel(cfg.table, np.linalg.norm(pts - x[None, :], axis=1))
            terms = np.stack([kern * ds.values, kern], axis=1)
            want = np.array([math.fsum(col) for col in terms.T])
            got = m * np.array([num[i], den[i]])
            assert np.all(np.abs(got - want) <= _tree_sum_bound(terms, want)), (i, got, want)

    @pytest.mark.parametrize("dim", [1, 5])
    def test_single_equals_batch_bitwise(self, dim):
        rng = np.random.default_rng(50 + dim)
        pts = rng.normal(size=(700, dim))
        ds = Dataset(pts, np.sin(pts[:, 0]), 1)
        cfg = EstimatorConfig.build(6.0, 0.5, 1)
        xs = rng.normal(size=(250, dim))  # chunks of 93 points
        num, den = value_and_unit_passes(ds, cfg, xs)
        for i in (0, 92, 93, 186, 249):
            one_num, one_den = value_and_unit_passes(ds, cfg, xs[i : i + 1])
            assert (one_num[0], one_den[0]) == (num[i], den[i])

    @pytest.mark.parametrize("count,m", [(64, 1024), (512, 1024), (512, 16384)])
    def test_memory_is_flat_in_points_and_samples(self, count, m):
        # a (T, M, Q) difference array alone would take 8 * 3 * T * M bytes,
        # 201 MB at T = 512, M = 16384
        rng = np.random.default_rng(60)
        ds = Dataset(rng.normal(size=(m, 3)), np.ones(m), 1)
        cfg = EstimatorConfig.build(6.0, 1.0, 1)
        xs = rng.normal(size=(count, 3))
        value_and_unit_passes(ds, cfg, xs[:1])  # build the kernel form first
        tracemalloc.start()
        try:
            value_and_unit_passes(ds, cfg, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestTreeSums:
    """``_row_sums``, the estimator's one summation, against ``math.fsum``."""

    @pytest.mark.parametrize("m", [1, 2, 3, 1000, 16384, 100000])
    def test_agrees_with_fsum_within_its_bound(self, m):
        terms = _ill_conditioned_columns(m, seed=m)
        want = np.array([math.fsum(col) for col in terms.T])
        bound = _tree_sum_bound(terms, want)
        got = _row_sums(np.ascontiguousarray(terms.T))
        assert np.all(np.abs(got - want) <= bound), (got, want, bound)

    def test_columns_are_independent(self):
        # a row's sum does not depend on its neighbours or their count
        rows = np.ascontiguousarray(_ill_conditioned_columns(1000, seed=11).T)
        alone = [_row_sums(rows[[j]].copy())[0] for j in range(3)]
        together = _row_sums(np.tile(rows, (3, 1)))
        np.testing.assert_array_equal(together, np.tile(alone, 3))

    @pytest.mark.parametrize("m", [2, 7, 9, 130, 1000, 40000])
    def test_row_alone_equals_row_in_batch(self, m):
        # the remainders are summed in numpy's order, which must not depend
        # on how many rows share the call; three levels past M = 32766
        rng = np.random.default_rng(m)
        rows = rng.normal(size=(300, m)) * 10.0 ** rng.integers(-8, 8, (300, m))
        together = _row_sums(rows.copy())
        for count in (1, 2, 5, 64):
            np.testing.assert_array_equal(_row_sums(rows[:count].copy()), together[:count])
        for i in (0, 17, 299):
            assert _row_sums(rows[i : i + 1].copy())[0] == together[i]

    def test_zero_and_subnormal_rows(self):
        tiny = np.random.default_rng(3).integers(-(2**20), 2**20, 5000) * 5e-324
        rows = np.stack([np.zeros(5000), tiny, np.full(5000, 5e-324)])
        got = _row_sums(rows.copy())
        # sums of multiples of 2**-1074 this small are exact
        assert got.tolist() == [0.0, math.fsum(tiny), 5000 * 5e-324]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
        decades=st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
        cancel=st.booleans(),
        extra=st.lists(
            st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False), max_size=8
        ),
    )
    def test_random_rows_within_the_tree_bound(self, m, seed, decades, cancel, extra):
        rng = np.random.default_rng(seed)
        low, high = sorted(decades)
        row = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(low, high, m)
        row[: len(extra)] = extra[:m]
        if cancel and m > 1:
            row[-1] = -math.fsum(row[:-1])
        want = np.array([math.fsum(row)])
        got = _row_sums(row[None, :].copy())
        assert np.abs(got - want) <= _tree_sum_bound(row[:, None], want), (got, want)

    def test_overflowing_scale_raises(self):
        with pytest.raises(ValueError, match="1000 terms up to 1e\\+306"):
            _row_sums(np.full((2, 1000), 1e306))
        with pytest.raises(ValueError):
            _row_sums(np.array([[1.0, math.inf]]))
        # P = 2**10 at M = 1000: the scale stays finite up to max|x| < 2**1013
        assert _row_sums(np.full((1, 1000), 2.0**1012)) == [1000 * 2.0**1012]
        with pytest.raises(ValueError):
            _row_sums(np.full((1, 1000), 2.0**1013))

    def test_estimator_rejects_values_that_overflow_its_sums(self):
        # all samples near one point put every kernel row near its peak (the
        # unit pass is about 2.72 there); values past 2**512 are scaled by a
        # power of two before the sums, so only an estimate that itself
        # overflows raises
        pts = np.random.default_rng(24).normal(scale=1e-3, size=(1024, 3))
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        for value in (1e300, 1e306):
            ok = ratio_reconstruction(Dataset(pts, np.full(1024, value), 1), cfg, pts[:3])
            np.testing.assert_allclose(ok, value, rtol=1e-13)
        ds = Dataset(pts, np.full(1024, 1e308), 1)
        for fn in (estimate_batch, ratio_reconstruction):
            with pytest.raises(ValueError, match="1e\\+308, M = 1024: overflow encountered"):
                fn(ds, cfg, pts[:3])

    def test_scaled_values_keep_every_bit(self):
        # a power-of-two shift of the values, folded into the factor, leaves
        # the passes bitwise as they are unscaled
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(700, 3))
        vals = np.cos(pts[:, 0])
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        small = value_and_unit_passes(Dataset(pts, vals, 1), cfg, pts[:40])
        large = value_and_unit_passes(Dataset(pts, np.ldexp(vals, 900), 1), cfg, pts[:40])
        np.testing.assert_array_equal(large[0], np.ldexp(small[0], 900))
        np.testing.assert_array_equal(large[1], small[1])

    def test_stack_rows_equal_their_datasets_alone(self):
        # one dataset per point: M = 20000 puts 3 points in a chunk, so the 7
        # rows span three chunks; one dataset's values are scaled down by a power of two
        rng = np.random.default_rng(26)
        cfg = EstimatorConfig.build(6.0, 0.5, 2)
        sets = [Dataset(rng.normal(size=(20000, 3)), rng.normal(size=20000) * 10.0**k, 2)
                for k in (0, 300, -300, 5, 0, 0, 2)]
        xs = rng.normal(size=(7, 3))
        stack = estimator._DatasetStack.of(sets)
        assert np.flatnonzero(stack.shift).tolist() == [1]
        num, den = estimator._kernel_passes(stack, cfg, xs, unit_pass=True)
        for i, ds in enumerate(sets):
            one_num, one_den = value_and_unit_passes(ds, cfg, xs[i : i + 1])
            assert (one_num[0], one_den[0]) == (num[i], den[i]), i
        part = stack.take([5, 1])
        value = estimator._kernel_passes(part, cfg, xs[[5, 1]], unit_pass=False)[0]
        assert list(value) == [num[5], num[1]]
        with pytest.raises(ValueError, match="a stack of 7 datasets needs as many test points"):
            estimator._kernel_passes(stack, cfg, xs[:3], unit_pass=False)
        with pytest.raises(ValueError, match="share their shape"):
            estimator._DatasetStack.of([sets[0], Dataset(np.zeros((5, 3)), np.zeros(5), 2)])

    def test_one_row_stack_serves_every_point(self):
        # a one-row stack is read by every point of the batch, as its dataset
        # is; any other row count must match the batch
        rng = np.random.default_rng(27)
        cfg = EstimatorConfig.build(6.0, 0.5, 2)
        sets = [Dataset(rng.normal(size=(900, 3)), rng.normal(size=900) * 10.0**k, 2)
                for k in (0, 300, 2)]
        stack = estimator._DatasetStack.of(sets)
        xs = rng.normal(size=(5, 3))
        for i, ds in enumerate(sets):
            got = estimator._kernel_passes(stack.take([i]), cfg, xs, unit_pass=True)
            want = value_and_unit_passes(ds, cfg, xs)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        for rows, count in (([0, 2], 1), ([0, 2], 5), ([0, 1, 2], 2)):
            with pytest.raises(ValueError, match=f"a stack of {len(rows)} datasets needs as many"):
                estimator._kernel_passes(stack.take(rows), cfg, xs[:count], unit_pass=True)

    def test_dataset_stack_is_built_once(self, monkeypatch):
        calls = []
        of = estimator._DatasetStack.of
        monkeypatch.setattr(estimator._DatasetStack, "of",
                            classmethod(lambda cls, sets: calls.append(len(sets)) or of(sets)))
        rng = np.random.default_rng(28)
        pts = rng.normal(size=(300, 3))
        ds = Dataset(pts, np.cos(pts[:, 0]), 1)
        cfg = EstimatorConfig.build(6.0, 1.0, 1)
        estimate_batch(ds, cfg, pts[:4])
        ratio_reconstruction(ds, cfg, pts[:4])
        heat_value_and_unit_passes(ds, 0.1, pts[:4])
        assert calls == [1]

    def test_single_equals_batch_at_odd_width(self):
        # M = 1000 is not a power of two; 200 points span four chunks
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(1000, 3))
        ds = Dataset(pts, np.cos(pts @ np.array([1.0, -1.0, 0.5])), 1)
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = rng.normal(size=(200, 3))
        rows = _PAIRS_PER_CHUNK // ds.size
        assert 3 * rows < xs.shape[0]
        num, den = value_and_unit_passes(ds, cfg, xs)
        np.testing.assert_array_equal(num, estimate_batch(ds, cfg, xs))
        np.testing.assert_array_equal(den, estimate_batch(ds.with_unit_values(), cfg, xs))
        np.testing.assert_array_equal(ratio_reconstruction(ds, cfg, xs), guarded_ratio(num, den))
        for i in (0, rows - 1, rows, 2 * rows - 1, 2 * rows, 3 * rows, 199):
            assert estimate_batch(ds, cfg, xs[i : i + 1])[0] == num[i]
            one_num, one_den = value_and_unit_passes(ds, cfg, xs[i : i + 1])
            assert (one_num[0], one_den[0]) == (num[i], den[i])

    def test_threads_match_a_serial_run_bitwise(self):
        rng = np.random.default_rng(22)
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = rng.normal(size=(300, 3))
        sets = [Dataset(p, np.sin(p[:, 0]), 1) for p in rng.normal(size=(2, 2000, 3))]
        serial = [ratio_reconstruction(ds, cfg, xs) for ds in sets]
        threaded = [None, None]
        start = threading.Barrier(2)

        def work(i):
            start.wait(timeout=60)
            threaded[i] = ratio_reconstruction(sets[i], cfg, xs)

        workers = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
        for got, want in zip(threaded, serial):
            np.testing.assert_array_equal(got, want)

    def test_no_per_row_fsum(self, monkeypatch):
        # the estimator's sums never go through a Python-level fsum loop
        def no_fsum(_):
            raise AssertionError("math.fsum called")

        monkeypatch.setattr(math, "fsum", no_fsum)
        assert not hasattr(estimator, "fsum")
        pts = np.random.default_rng(23).normal(size=(300, 3))
        ds = Dataset(pts, np.cos(pts[:, 0]), 1)
        cfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = pts[:5]
        assert np.all(np.isfinite(estimate_batch(ds, cfg, xs)))
        assert np.all(np.isfinite(ratio_reconstruction(ds, cfg, xs)))


class TestKernelMass:
    def test_unit_mass_line(self):
        r = np.linspace(0.0, 24.0, 200001)
        for n in (16.0, 32.0):
            table = compile_kernel(n, 1)
            mass = 2.0 * np.trapezoid(eval_kernel(table, r), r)
            assert abs(mass - 1.0) < 1e-6

    def test_unit_mass_small_n_is_looser(self):
        r = np.linspace(0.0, 24.0, 200001)
        table = compile_kernel(8.0, 1)
        mass = 2.0 * np.trapezoid(eval_kernel(table, r), r)
        assert abs(mass - 1.0) < 5e-5

    def test_unit_mass_plane(self):
        r = np.linspace(0.0, 24.0, 200001)
        for n in (16.0, 32.0):
            table = compile_kernel(n, 2)
            mass = 2.0 * math.pi * np.trapezoid(eval_kernel(table, r) * r, r)
            assert abs(mass - 1.0) < 1e-5


class TestContinuousOperator:
    def test_unit_pass_inverts_arc_length(self):
        spec = HelixSpec()
        curve = spec.curve()
        ones = lambda pts: np.ones(pts.shape[0])
        val = continuous_operator_on_curve(curve, ones, 16.0, 1.0, spec.point(2.5))
        assert val * spec.arc_length == pytest.approx(1.0, abs=1e-6)

    def test_ratio_tracks_target(self):
        spec = HelixSpec()
        curve = spec.curve()
        x = spec.point(2.5)
        ones = lambda pts: np.ones(pts.shape[0])
        for n in (16.0, 32.0):
            num = continuous_operator_on_curve(curve, spec.target_ambient, n, 1.0, x)
            den = continuous_operator_on_curve(curve, ones, n, 1.0, x)
            assert num / den == pytest.approx(spec.target(2.5), abs=5e-8)

    def test_batch_matches_the_per_point_loop(self, helix_oracle16):
        # converged points leave the finer levels, so a point's value in a
        # batch is bitwise its value alone, not just within tol * max(1, |v|)
        spec, _, xs, vals = helix_oracle16
        alone = [continuous_operator_on_curve(spec.curve(), spec.target_ambient, 16.0, 1.0, x)
                 for x in xs]
        np.testing.assert_array_equal(vals, alone)
        # a kink at t = 1.3, inside a panel, keeps the point there refining
        # after the point at t = 5 has converged
        kinked = lambda y: np.abs(y[:, 2] - 1.3 * np.pi) ** 1.5
        xs = spec.point([1.3, 5.0])
        both = continuous_operator_on_curve(spec.curve(), kinked, 16.0, 1.0, xs)
        alone = [continuous_operator_on_curve(spec.curve(), kinked, 16.0, 1.0, x) for x in xs]
        np.testing.assert_array_equal(both, alone)

    def test_result_has_the_batch_shape(self):
        spec = HelixSpec()
        ones = lambda pts: np.ones(pts.shape[0])
        one = continuous_operator_on_curve(spec.curve(), ones, 6.0, 1.0, spec.point(2.0))
        assert np.ndim(one) == 0
        two = continuous_operator_on_curve(spec.curve(), ones, 6.0, 1.0, spec.point([1.0, 2.0]))
        assert two.shape == (2,)
        assert two[1] == one
        grid = spec.point([[1.0, 2.0], [3.0, 4.0]])
        assert continuous_operator_on_curve(spec.curve(), ones, 6.0, 1.0, grid).shape == (2, 2)

    def test_bad_points_raise_before_refining(self):
        # f runs once per level: each bad point stops at the first level
        spec = HelixSpec()
        levels = []

        def counted(pts):
            levels.append(len(pts))
            return np.ones(len(pts))

        for x in ([math.nan, 0.0, 0.0], [1.0, 2.0], [[0.0, 1.0, math.inf]]):
            with pytest.raises(ValueError, match="test points must be a batch"):
                continuous_operator_on_curve(spec.curve(), counted, 16.0, 1.0, x)
        assert len(levels) == 3

    def test_no_saturation_for_a_smooth_target(self):
        # sigma(f)/sigma(1) at six points in [0.2, 0.8] of the range, lam = 1:
        # errors 4.3e-4, 6.3e-6, 3.6e-8, 1.6e-10 at n = 8, 16, 32, 64, and the
        # doubling slope grows (6.1, 7.4, 7.8) instead of stalling at a fixed
        # rate.  Margins from the tolerance: each sigma is below 1 and settles
        # to within tol = 1e-12, and |f| <= 1, so a ratio moves by at most
        # 2 * tol / sigma(1) = 2 * tol * arc length = 5.6e-11.  That is 0.2% of
        # err(32) against a bound 2.9 times err(32), and it can lower the
        # 32 -> 64 slope by at most log2(1 + 5.6e-11 / 1.6e-10) = 0.43, to
        # 7.4, still above 6.1.
        spec = HelixSpec()
        curve = spec.curve()
        ones = lambda pts: np.ones(pts.shape[0])
        t = spec.t_min + (spec.t_max - spec.t_min) * np.linspace(0.2, 0.8, 6)
        xs = spec.point(t)
        err = {}
        for n in (8.0, 16.0, 32.0, 64.0):
            num = continuous_operator_on_curve(curve, spec.target_ambient, n, 1.0, xs, tol=1e-12)
            den = continuous_operator_on_curve(curve, ones, n, 1.0, xs, tol=1e-12)
            err[n] = float(np.max(np.abs(num / den - spec.target(t))))
        assert err[32.0] <= err[8.0] * 4.0**-6
        assert math.log2(err[32.0] / err[64.0]) > math.log2(err[8.0] / err[16.0])

    def test_quadrature_rule_is_built_once(self, monkeypatch):
        spec = HelixSpec()
        args = (spec.curve(), spec.target_ambient, 6.0, 1.0, spec.point(1.0))
        first = continuous_operator_on_curve(*args)

        def no_rebuild(_):
            raise AssertionError("Gauss-Legendre rule rebuilt")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rebuild)
        assert continuous_operator_on_curve(*args) == first

    def test_kernel_form_is_looked_up_once_per_n(self, monkeypatch):
        spec = HelixSpec()
        points = [spec.point(t) for t in (1.0, 2.5, 4.0)]
        estimator._curve_form.cache_clear()
        cold = []
        for x in points:
            cold.append(continuous_operator_on_curve(spec.curve(), spec.target_ambient, 6.0, 1.0, x))
            estimator._curve_form.cache_clear()
        calls = []

        def counted(n, q):
            calls.append((n, q))
            return compile_kernel(n, q)

        monkeypatch.setattr(estimator, "compile_kernel", counted)
        warm = [continuous_operator_on_curve(spec.curve(), spec.target_ambient, 6.0, 1.0, x)
                for x in points * 2]
        assert len(calls) <= 1
        assert warm == cold * 2

    @pytest.mark.parametrize("bad,got", [
        (lambda pts: np.where(pts[:, 2] > 5.0, np.nan, 1.0), r"\(1280,\)"),
        (lambda pts: np.ones((len(pts), 2)), r"\(1280, 2\)"),
        (lambda pts: 1.0, r"\(\)"),
    ])
    def test_bad_values_of_f_are_named(self, bad, got):
        spec = HelixSpec()
        want = r"^f at the 1280 quadrature nodes of 128 panels must give finite values of shape"
        with pytest.raises(ValueError, match=want + r" \(1280,\), got shape " + got + "$"):
            continuous_operator_on_curve(spec.curve(), bad, 6.0, 1.0, spec.point(1.0))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_unreachable_tol_raises_before_any_pass(self, monkeypatch, tol):
        calls = []
        monkeypatch.setattr(estimator, "_weighted_passes", lambda *args: calls.append(args))
        spec = HelixSpec()
        with pytest.raises(ValueError, match=f"^tol must be finite and >= 0, got {tol}$"):
            continuous_operator_on_curve(spec.curve(), spec.target_ambient, 6.0, 1.0,
                                         spec.point(1.0), tol=tol)
        assert calls == []

    def test_validation_and_convergence_guard(self, monkeypatch):
        spec = HelixSpec()
        curve = spec.curve()
        ones = lambda pts: np.ones(pts.shape[0])
        with pytest.raises(ValueError):
            continuous_operator_on_curve(curve, ones, 16.0, 0.5, spec.point(1.0))
        with pytest.raises(ValueError, match="t1 > t0"):
            Curve(curve.chart, 1.0, 1.0)
        monkeypatch.setattr(estimator, "_MAX_PANELS", 8)
        with pytest.raises(QuadratureConvergenceError):
            continuous_operator_on_curve(curve, ones, 16.0, 1.0, spec.point(1.0))


class TestMonteCarloConsistency:
    def test_error_shrinks_with_sample_budget(self, helix_oracle16):
        # mean absolute deviation from the continuous operator, averaged
        # over three independent streams, drops as M quadruples
        spec, _, xs, oracle = helix_oracle16
        cfg = EstimatorConfig.build(16.0, 1.0, 1)
        mads = []
        for m in (256, 1024, 4096):
            per_seed = []
            for seed in (0, 1, 2):
                ds = gen_training(spec, m, "none", rng=np.random.default_rng(seed))
                raw = estimate_batch(ds, cfg, xs)
                per_seed.append(float(np.mean(np.abs(raw - oracle))))
            mads.append(float(np.mean(per_seed)))
        assert mads[1] < mads[0]
        assert mads[2] < mads[1]

    def test_pointwise_deviation_within_standard_error(self, helix_oracle16):
        # each raw estimate sits within 4 standard errors of the continuous
        # limit (frozen stream; the largest observed z-score is 2.06)
        spec, _, xs, oracle = helix_oracle16
        m = 1024
        cfg = EstimatorConfig.build(16.0, 1.0, 1)
        ds = gen_training(spec, m, "none", rng=np.random.default_rng(0))
        raw = estimate_batch(ds, cfg, xs)
        for i, x in enumerate(xs):
            r = np.linalg.norm(ds.points - x[None, :], axis=1)
            contrib = eval_kernel(cfg.table, r) * ds.values
            se = float(np.std(contrib, ddof=1) / math.sqrt(m))
            assert abs(raw[i] - oracle[i]) <= 4.0 * se
