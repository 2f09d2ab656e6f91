"""Helix study harness: specs, noise models, reports, baselines.

Frozen target values are analytic (cos(1) at t = 0 and its mirror at
t = 2); noise calibrations are checked against their design moments on
frozen streams.
"""

import json
import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from hermloc import experiments
from hermloc.estimator import (
    Dataset,
    EstimatorConfig,
    _squared_distances,
    estimate_batch,
    guarded_ratio,
)
from hermloc.experiments import (
    INTERIOR_HI,
    INTERIOR_LO,
    NOISE_MODELS,
    UNBIAS_FACTOR,
    ExperimentConfig,
    HelixSpec,
    gen_training,
    heat_value_and_unit_passes,
    rate_table,
    ratio_reconstruction,
    run_experiment,
    write_report,
)


class TestHelixSpec:
    def test_range_is_a_constant(self):
        assert fields(HelixSpec) == ()
        assert (HelixSpec().t_min, HelixSpec().t_max) == (0.0, 2.0 * math.pi)
        with pytest.raises(TypeError):
            HelixSpec(t_max=1.0)

    def test_frozen_target_values(self):
        spec = HelixSpec()
        assert spec.target(0.0) == pytest.approx(math.cos(1.0), abs=1e-15)
        assert spec.target(0.0) == pytest.approx(0.5403023058681398, abs=1e-15)
        assert spec.target(2.0) == pytest.approx(math.cos(1.0 - math.pi), abs=1e-15)
        assert spec.target(2.0) == pytest.approx(-0.5403023058681397, abs=1e-14)
        assert spec.argument(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_geometry(self):
        spec = HelixSpec()
        np.testing.assert_allclose(spec.point(0.0), [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            spec.point(1.0), [-1.0, 0.0, math.pi], atol=1e-15
        )
        assert spec.speed == pytest.approx(4.442882938158366, abs=1e-15)
        assert spec.arc_length == pytest.approx(27.915456798555518, abs=1e-12)

    def test_target_domain_checked(self):
        spec = HelixSpec()
        with pytest.raises(ValueError):
            spec.target(-0.1)
        with pytest.raises(ValueError):
            spec.target(2.0 * math.pi + 0.1)

    def test_ambient_form_agrees_on_curve(self):
        spec = HelixSpec()
        t = np.linspace(spec.t_min, spec.t_max, 101)
        np.testing.assert_allclose(
            spec.target_ambient(spec.point(t)), spec.target(t), atol=1e-15
        )

    def test_grid_and_interior_window(self):
        spec = HelixSpec()
        t, pts = spec.grid(11)
        np.testing.assert_array_equal(t, np.linspace(0.0, 2.0 * math.pi, 11))
        np.testing.assert_array_equal(pts, spec.point(t))
        inside = spec.interior(t)
        assert inside.tolist() == [False] + [True] * 9 + [False]
        lo, hi = (spec.t_max - spec.t_min) * np.array([INTERIOR_LO, INTERIOR_HI])
        assert spec.interior([lo, hi]).all()
        assert not spec.interior(np.nextafter([lo, hi], [0.0, 10.0])).any()


class TestGenTraining:
    def test_deterministic_by_seed(self):
        spec = HelixSpec()
        a = gen_training(spec, 50, "additive", rng=np.random.default_rng(7))
        b = gen_training(spec, 50, "additive", rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.values, b.values)

    def test_noiseless_values_lie_on_target(self):
        spec = HelixSpec()
        ds = gen_training(spec, 100, "none", rng=np.random.default_rng(1))
        np.testing.assert_allclose(
            ds.values, spec.target_ambient(ds.points), atol=1e-15
        )

    def test_additive_noise_moments(self):
        spec = HelixSpec()
        m = 200_000
        ds = gen_training(spec, m, "additive", sigma=0.3, rng=np.random.default_rng(0))
        resid = ds.values - spec.target_ambient(ds.points)
        assert abs(float(np.mean(resid))) < 4.0 * 0.3 / math.sqrt(m)
        assert float(np.var(resid)) == pytest.approx(0.09, rel=0.05)

    def test_multiplicative_noise_is_unbiased(self):
        spec = HelixSpec()
        m = 200_000
        ds = gen_training(spec, m, "multiplicative", rng=np.random.default_rng(0))
        resid = ds.values - spec.target_ambient(ds.points)
        se = float(np.std(resid)) / math.sqrt(m)
        assert abs(float(np.mean(resid))) < 4.0 * se

    def test_unbias_factor_value(self):
        # variance of the phase noise is 1.5**2 = 2.25; the cosine shrinks
        # means by exp(-var/2), so the published factor undoes exp(-1.125)
        assert UNBIAS_FACTOR == math.exp(1.125)

    def test_validation(self):
        spec = HelixSpec()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gen_training(spec, 0, "none", rng=rng)
        with pytest.raises(ValueError):
            gen_training(spec, 10, "pink", rng=rng)
        for noise in NOISE_MODELS:
            for sigma in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="sigma must be positive"):
                    gen_training(spec, 10, noise, sigma=sigma, rng=rng)
        assert NOISE_MODELS == ("none", "additive", "multiplicative")


class TestExperimentConfig:
    def test_defaults_validate(self):
        ExperimentConfig()

    def test_field_guards(self):
        with pytest.raises(ValueError):
            ExperimentConfig(M=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=1)
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(noise="white")
        for sigma in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be positive"):
                ExperimentConfig(sigma=sigma)
        for few in (1, 2):
            with pytest.raises(ValueError, match="test_points >= 3"):
                ExperimentConfig(test_points=few)
        with pytest.raises(ValueError, match="alpha"):
            replace(ExperimentConfig(), alpha=2.0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            ExperimentConfig(seed=-1)

    def test_field_types(self):
        for bad in ({"M": "256"}, {"M": 2.0}, {"trials": True}, {"alpha": True},
                    {"sigma": "0.3"}, {"noise": 1}, {"output": 3}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ExperimentConfig(**bad)
        cfg = ExperimentConfig(**{"M": np.int64(8), "alpha": 1, "sigma": 1})
        assert cfg.M == 8 and cfg.alpha == 1


class TestRatioReconstruction:
    def test_constant_field_recovered(self):
        spec = HelixSpec()
        ds = gen_training(spec, 64, "none", rng=np.random.default_rng(3))
        const = Dataset(ds.points, np.full(64, 2.5), 1)
        ecfg = EstimatorConfig.build(8.0, 1.0, 1)
        xs = spec.point(np.linspace(1.0, 5.0, 9))
        out = ratio_reconstruction(const, ecfg, xs)
        np.testing.assert_allclose(out, 2.5, rtol=1e-12)

    def test_equals_two_estimate_batch_calls_bitwise(self):
        # the shared kernel pass must reproduce the value pass over the unit
        # pass exactly, including the guard on a vanishing unit pass
        spec = HelixSpec()
        ds = gen_training(spec, 96, "additive", rng=np.random.default_rng(5))
        ecfg = EstimatorConfig.build(16.0, 1.0, 1)
        xs = np.concatenate([spec.point(np.linspace(0.0, 6.0, 301)),
                             [[50.0, 50.0, 50.0]]])
        num = estimate_batch(ds, ecfg, xs)
        den = estimate_batch(ds.with_unit_values(), ecfg, xs)
        want = num / np.where(np.abs(den) < 1e-12, np.inf, den)
        got = ratio_reconstruction(ds, ecfg, xs)
        np.testing.assert_array_equal(got, want)
        assert got[-1] == 0.0

    def test_dead_zone_reports_zero(self):
        # samples clustered near t = 1 leave no kernel mass at t = 5 for a
        # narrow kernel; the reconstruction reports 0 instead of blowing up
        spec = HelixSpec()
        t = np.linspace(0.99, 1.01, 20)
        ds = Dataset(spec.point(t), spec.target(t), 1)
        ecfg = EstimatorConfig.build(64.0, 1.0, 1)
        out = ratio_reconstruction(ds, ecfg, spec.point(np.array([5.0])))
        assert out[0] == 0.0


class TestRunExperiment:
    CFG = dict(M=64, n=8, test_points=128, seed=11)

    def test_deterministic(self):
        a = run_experiment(ExperimentConfig(**self.CFG))
        b = run_experiment(ExperimentConfig(**self.CFG))
        np.testing.assert_array_equal(a.average_fhat, b.average_fhat)
        assert a.average_summary == b.average_summary

    def test_seed_changes_result(self):
        a = run_experiment(ExperimentConfig(**self.CFG))
        c = run_experiment(ExperimentConfig(**{**self.CFG, "seed": 12}))
        assert not np.array_equal(a.average_fhat, c.average_fhat)

    def test_parallel_trials_assemble_deterministically(self):
        cfg = ExperimentConfig(**{**self.CFG, "trials": 4, "noise": "additive"})
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ta, tb in zip(a.trials, b.trials):
            assert ta.trial == tb.trial
            np.testing.assert_array_equal(ta.errors, tb.errors)
        np.testing.assert_array_equal(
            a.average_fhat, np.mean([tr.fhat for tr in a.trials], axis=0)
        )

    def test_report_contents(self):
        report = run_experiment(ExperimentConfig(**self.CFG))
        spec = HelixSpec()
        assert report.t_grid.shape == (128,)
        np.testing.assert_array_equal(report.f_true, spec.target(report.t_grid))
        tr = report.trials[0]
        assert tr.histogram.shape == (101, 2)
        assert np.all(np.diff(tr.histogram[:, 1]) >= 0)  # percentiles grow
        assert tr.summary["interior_max"] <= tr.summary["max"]
        assert set(tr.summary) == {"max", "interior_max", "mean", "median"}

    def test_interior_band_definition(self):
        spec = HelixSpec()
        assert INTERIOR_LO == 0.1 and INTERIOR_HI == 0.9
        report = run_experiment(ExperimentConfig(**self.CFG))
        span = spec.t_max - spec.t_min
        inside = (report.t_grid >= 0.1 * span) & (report.t_grid <= 0.9 * span)
        errs = np.abs(report.trials[0].errors)
        assert report.trials[0].summary["interior_max"] == pytest.approx(
            float(errs[inside].max())
        )


class TestWriteReport:
    def test_files_and_byte_identity(self, tmp_path):
        cfg = dict(M=64, n=8, test_points=128, seed=11, trials=2)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        run_experiment(ExperimentConfig(**cfg, output=str(d1)))
        run_experiment(ExperimentConfig(**cfg, output=str(d2)))
        for name in ("trial_000.csv", "trial_001.csv", "average.csv", "summary.json"):
            assert (d1 / name).is_file()
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        doc = json.loads((d1 / "summary.json").read_text())
        assert doc["rng"] == "PCG64"
        assert "output" not in doc["config"]
        assert len(doc["trial_summaries"]) == 2

    def test_trial_threads_follow_the_cpus_the_process_may_use(self, tmp_path, monkeypatch):
        cfg = dict(M=64, n=8, test_points=128, seed=11, trials=3, noise="additive")
        run_experiment(ExperimentConfig(**cfg, output=str(tmp_path / "all")))
        pools = []
        pool = experiments.ThreadPoolExecutor
        monkeypatch.setattr(experiments, "ThreadPoolExecutor",
                            lambda max_workers: pools.append(max_workers) or pool(max_workers))
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        run_experiment(ExperimentConfig(**cfg, output=str(tmp_path / "one")))
        assert pools == [1]
        names = sorted(p.name for p in (tmp_path / "all").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
        for name in names:
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_single_trial_average_equals_trial(self, tmp_path):
        out = tmp_path / "run"
        report = run_experiment(
            ExperimentConfig(M=64, n=8, test_points=128, seed=3, output=str(out))
        )
        assert (out / "trial_000.csv").read_bytes() == (out / "average.csv").read_bytes()
        np.testing.assert_array_equal(report.average_fhat, report.trials[0].fhat)

    def test_two_trial_average_is_written_from_the_mean(self, tmp_path):
        out = tmp_path / "run"
        report = run_experiment(
            ExperimentConfig(M=64, n=8, test_points=128, seed=3, trials=2, output=str(out))
        )
        average = (out / "average.csv").read_bytes()
        rows = [line.split(",") for line in average.decode().splitlines()]
        assert rows[0] == ["t", "f", "fhat", "error"]
        fhat = np.array([float(row[2]) for row in rows[1:]])
        assert fhat.tobytes() == report.average_fhat.tobytes()
        assert average != (out / "trial_000.csv").read_bytes()
        assert average != (out / "trial_001.csv").read_bytes()

    def test_write_report_separately(self, tmp_path):
        report = run_experiment(ExperimentConfig(M=64, n=8, test_points=128, seed=3))
        write_report(report, str(tmp_path / "later"))
        assert (tmp_path / "later" / "summary.json").is_file()


class TestHeatKernelBaseline:
    def test_single_bump_closed_form(self):
        y0 = np.array([0.5, -1.0])
        ds = Dataset(y0[None, :], np.array([3.0]), 1)
        x = np.array([0.2, 0.4])
        t = 0.07
        want = 3.0 * math.exp(-float(np.sum((x - y0) ** 2)) / t) / math.sqrt(
            4.0 * math.pi * t
        )
        num, den = heat_value_and_unit_passes(ds, t, x[None, :])
        assert num[0] == pytest.approx(want, rel=1e-14)
        assert den[0] == pytest.approx(want / 3.0, rel=1e-14)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30), 2)
        xs = rng.normal(size=(6, 2))
        batch = heat_value_and_unit_passes(ds, 0.2, xs)[0]
        for i in range(6):
            one = heat_value_and_unit_passes(ds, 0.2, xs[i : i + 1])[0]
            np.testing.assert_array_equal(one, batch[i : i + 1])

    def test_sums_within_the_row_sums_bound(self):
        # values +-1e6 that cancel: a plain dot product misses by about
        # u * sum|terms|, far outside the bound below
        m, t, u = 1000, 0.5, 2.0**-53
        rng = np.random.default_rng(21)
        pts = rng.uniform(0.0, 1.0, (m, 1))
        vals = np.where(np.arange(m) % 2 == 0, 1e6, -1e6) + rng.normal(size=m)
        ds = Dataset(pts, vals, 1)
        xs = rng.uniform(0.0, 1.0, (16, 1))
        num, den = heat_value_and_unit_passes(ds, t, xs)
        scale = 1.0 / (m * math.sqrt(4.0 * math.pi * t))
        d2 = _squared_distances(xs, np.ascontiguousarray(pts.T))
        d2 /= -t
        weights = np.exp(d2)
        p = 2.0 ** math.ceil(math.log2(m + 2))
        c = 3 * m**2 * p**2 * u**3  # two extraction levels at M <= 32766
        for got, rows in ((num, weights * vals), (den, weights)):
            for value, row in zip(got, rows):
                exact = sum(map(Fraction, row.tolist()))
                # |s^ - S| <= u|S| + (u^2 + c) sum|x|, then one rounding of scale * s^
                bound = scale * (u * abs(exact) + (u * u + c) * math.fsum(np.abs(row)))
                bound += u * abs(value)
                assert abs(Fraction(value) - Fraction(scale) * exact) <= bound

    def test_saturation_rate_is_linear_in_t(self):
        # normalized heat smoothing of y**2 at 0 has error ~ t/2 regardless
        # of the target's smoothness: halving t halves the error
        grid = np.linspace(-3.0, 3.0, 2001).reshape(-1, 1)
        ds = Dataset(grid, grid[:, 0] ** 2, 1)
        x = np.zeros(1)
        errs = []
        for t in (0.1, 0.05, 0.025):
            num, den = heat_value_and_unit_passes(ds, t, x[None, :])
            errs.append(abs(num[0] / den[0] - 0.0))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.05)

    def test_passes_from_one_matrix_equal_two_calls_bitwise(self, monkeypatch):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(40, 3)), rng.normal(size=40), 1)
        xs = rng.normal(size=(9, 3))
        # the unit pass equals a value pass over unit values, bitwise
        want = (heat_value_and_unit_passes(ds, 0.3, xs)[0],
                heat_value_and_unit_passes(ds.with_unit_values(), 0.3, xs)[0])
        calls = []
        real_exp = np.exp
        monkeypatch.setattr(experiments.np, "exp", lambda a: calls.append(a) or real_exp(a))
        num, den = heat_value_and_unit_passes(ds, 0.3, xs)
        assert len(calls) == 1
        np.testing.assert_array_equal(num, want[0])
        np.testing.assert_array_equal(den, want[1])

    def test_memory_is_flat_in_samples(self):
        # an unchunked (N, M, Q) difference array would take 16 MB at
        # M = 1024 and 64 MB at M = 4096
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(512, 3))
        peaks = []
        for m in (1024, 4096):
            ds = Dataset(rng.normal(size=(m, 3)), rng.normal(size=m), 1)
            tracemalloc.start()
            try:
                heat_value_and_unit_passes(ds, 0.5, xs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0] and max(peaks) < 4 * 2**20, peaks

    def test_validation(self):
        ds = Dataset(np.zeros((2, 2)), np.ones(2), 1)
        with pytest.raises(ValueError, match="points must be a batch"):
            heat_value_and_unit_passes(ds, 0.1, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="points must be a batch"):
            heat_value_and_unit_passes(ds, 0.1, np.zeros(2))
        for t in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                heat_value_and_unit_passes(ds, t, np.zeros((1, 2)))


class TestRateTable:
    def test_heat_limit_saturates_at_order_two(self):
        # The heat smoother's limit at t = 1/n^2 is f + O(t): its doubling
        # slope tends to 2 and stays there.  Margin from the tolerance, stated
        # before measuring: each limit is below 1 and settles to within tol =
        # 1e-12, |f| <= 1, and the limit of a unit column is 1/(2 * arc length)
        # (exp(-d^2/t) has mass sqrt(pi t) against the factor 1/sqrt(4 pi t)),
        # so a ratio moves by at most 2 * tol * 2 * arc length = 1.1e-10.
        # Against err(64) near 1e-4, from err(4) near 2.4e-2 at slope 2, that
        # moves a slope by under 1e-5; the rest of the 0.1 is the bias's t^2
        # term, a relative O(t) = O(1/n^2) change to each error.
        rows = rate_table([16, 32, 64], 16, 0, 16)
        slopes = [s for method, regime, _, _, s in rows if (method, regime) == ("heat", "limit")]
        assert slopes[0] is None
        assert abs(slopes[1] - 2.0) < 0.1 and abs(slopes[2] - 2.0) < 0.1

    def test_sample_rows_are_the_interior_max_of_one_draw(self):
        spec = HelixSpec()
        ds = gen_training(spec, 32, "none", rng=np.random.default_rng(3))
        t_grid, xs = spec.grid(24)
        inside = spec.interior(t_grid)
        fhat = {
            "heat": guarded_ratio(*heat_value_and_unit_passes(ds, 1.0 / 36, xs)),
            "kernel": ratio_reconstruction(ds, EstimatorConfig.build(6, 1.0, 1), xs),
        }
        rows = rate_table([4, 6], 32, 3, 24)
        got = {m: e for m, r, n, e, _ in rows if (r, n) == ("sample", 6)}
        assert got == {m: float(np.max(np.abs(v - spec.target(t_grid))[inside]))
                       for m, v in fhat.items()}

    def test_slope_of_each_group(self):
        rows = rate_table([4, 6], 32, 3, 24)
        assert [r[:3] for r in rows] == [(m, r, n) for m in ("heat", "kernel")
                                         for r in ("limit", "sample") for n in (4, 6)]
        for first, second in zip(rows[::2], rows[1::2]):
            assert first[4] is None
            assert second[4] == math.log2(first[3] / second[3]) / math.log2(6 / 4)

    @pytest.mark.parametrize("n_list", [[], [4, 4], [8, 4], [1, 4], [4, 8.0], [4, True]])
    def test_n_list_must_be_increasing_integers_from_two(self, n_list):
        with pytest.raises(ValueError, match="n_list must be strictly increasing integers >= 2"):
            rate_table(n_list, 16, 0, 16)
