"""Observability functionals, high-frequency bounds, decay fits, recursion."""

import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from helpers import block_schedule, scalar_observability_sums
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polystab import diagnostics, schemes
from polystab import (
    DiagnosticFailure,
    DimensionMismatchError,
    DomainError,
    ExampleParams,
    ModalState,
    ModalSystem,
    SchemeConfig,
    SchemeSolver,
    build_boundary_coupled_waves,
    build_coupled_waves,
    decay_fit,
    high_freq_contraction,
    high_freq_observability,
    inverse_inequality_check,
    decay_recursion_oracle,
    filtering_cutoff,
    observability_constant_study,
    observability_functional,
    observation_time,
    substep_count,
    synthetic_trace,
    uniform_decay_study,
    worst_case_family,
)


def record_block_lengths(monkeypatch):
    """Steps per time block of every later ``iterate_raw`` stream."""
    lengths = []
    iterate_raw = SchemeSolver.iterate_raw

    def recorded(self, *args, **kwargs):
        for s in iterate_raw(self, *args, **kwargs):
            _, block, row = s
            if row == 0:
                lengths.append(block.resid.shape[0])
            yield s

    monkeypatch.setattr(SchemeSolver, "iterate_raw", recorded)
    return lengths


class TestObservationTime:
    def test_clustered_route_for_coupled_waves(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        pol = observation_time(sys_)
        assert pol.route == "clustered"
        assert pol.t_star == pytest.approx(2.0 * 2.0 * math.pi / pol.gamma1, rel=1e-14)

    def test_pairwise_route_for_uniform_gaps(self):
        sys_ = ModalSystem.from_eta(np.array([1.0, 4.0, 9.0, 16.0]) * 4.0)
        pol = observation_time(sys_)
        assert pol.route == "pairwise"
        assert pol.t_star == pytest.approx(2.0 * 2.0 * math.pi / pol.gamma, rel=1e-14)

    def test_override(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        assert observation_time(sys_, t_star=3.25).t_star == 3.25

    @pytest.mark.parametrize("eta", [[1.0, 1.0], [1.0, 1.0, 1.0]])
    def test_zero_gap_needs_t_star(self, eta):
        # a repeated frequency leaves no positive gap constant to divide by
        sys_ = ModalSystem.from_eta(eta)
        with pytest.raises(DomainError, match="no usable gap constant; pass t_star explicitly"):
            observation_time(sys_)
        assert observation_time(sys_, t_star=2.0).t_star == 2.0

    def test_repeated_pair_takes_clustered_route(self):
        # mu = (1, 1, 2): gamma = 0, gamma1 = 1/2
        pol = observation_time(ModalSystem.from_eta([1.0, 1.0, 4.0]))
        assert (pol.route, pol.gamma, pol.gamma1) == ("clustered", 0.0, 0.5)
        assert pol.t_star == 2.0 * 2.0 * math.pi / 0.5

    @pytest.mark.parametrize("t_star", [0.0, -1.0, math.inf, math.nan])
    def test_bad_override_rejected(self, t_star):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        with pytest.raises(DomainError, match="t_star must be positive and finite"):
            observation_time(sys_, t_star=t_star)


class TestObservabilityFunctional:
    def test_single_mode_matches_scalar_recursion(self):
        eta, d = 7.0, 0.9
        sys_ = ModalSystem.from_eta([eta], damp_gram=[[d]])
        u0 = ModalState([0.8], [-0.3])
        rep = observability_functional(sys_, u0, beta=0.0, dt=0.05, T_star=4.0)
        damp, v1, v2, weak = scalar_observability_sums(eta, d, 0.8, -0.3, 0.05, 4.0, 0.0)
        assert rep.damp_sum == pytest.approx(damp, rel=1e-12)
        assert rep.visc_sum1 == pytest.approx(v1, rel=1e-12)
        assert rep.visc_sum2 == pytest.approx(v2, rel=1e-12)
        assert rep.weak_norm_sq == pytest.approx(weak, rel=1e-14)
        assert rep.ratio == pytest.approx((damp + v1 + v2) / weak, rel=1e-12)

    def test_scaling_invariance(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        rng = np.random.default_rng(0)
        u0 = ModalState(rng.standard_normal(16), rng.standard_normal(16))
        scaled = ModalState(3.7 * u0.a, 3.7 * u0.b)
        r1 = observability_functional(sys_, u0, 0.0, 0.01, 2.0)
        r2 = observability_functional(sys_, scaled, 0.0, 0.01, 2.0)
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-12)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["too_few", "too_many"])
    def test_wrong_size_state_raises(self, extra):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        z = ModalState(np.ones(sys_.n + extra), np.ones(sys_.n + extra))
        with pytest.raises(DimensionMismatchError,
                           match=f"state rows: expected length 16, got {16 + 2 * extra}$"):
            observability_functional(sys_, z, 0.0, 0.05, 1.0)

    def test_undamped_single_low_mode_viscosity_only(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 0.0, 8))
        a = np.zeros(16)
        a[0] = 1.0
        rep = observability_functional(sys_, ModalState(a, np.zeros(16)), 0.0, 0.02, 2.0)
        assert rep.damp_sum == 0.0
        assert rep.visc_sum1 > 0.0 and rep.visc_sum2 > 0.0
        assert rep.ratio > 0.0

    def test_zero_state_rejected(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        with pytest.raises(DomainError):
            observability_functional(sys_, ModalState.zero(8), 0.0, 0.01, 1.0)

    def test_high_state_consistent_with_high_freq_observability(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 0.0, 16))
        rng = np.random.default_rng(4)
        st = ModalState(rng.standard_normal(32), rng.standard_normal(32))
        keep = sys_.mu > 30.0
        high = ModalState(np.where(keep, st.a, 0.0), np.where(keep, st.b, 0.0))
        rep = observability_functional(sys_, high, 0.0, 0.02, 3.0)
        hf = high_freq_observability(sys_, high, 0.0, 0.02, 3.0)
        # with gamma = 0 the whole budget is the two viscosity sums
        assert hf == pytest.approx(rep.ratio, rel=1e-12)

    @pytest.mark.parametrize("T_star", [-1.0, -1e-300, math.inf, -math.inf, math.nan])
    def test_bad_horizon_rejected(self, T_star):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        u0 = ModalState(np.ones(8), np.ones(8))
        with pytest.raises(DomainError, match="T_star must be non-negative and finite"):
            observability_functional(sys_, u0, 0.0, 0.05, T_star)
        with pytest.raises(DomainError, match="T_star must be non-negative and finite"):
            high_freq_observability(sys_, u0, 0.0, 0.05, T_star)

    def test_zero_horizon_observes_one_step(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        rng = np.random.default_rng(2)
        u0 = ModalState(rng.standard_normal(8), rng.standard_normal(8))
        rep = observability_functional(sys_, u0, 0.0, 0.05, 0.0)
        rec = SchemeSolver(sys_, SchemeConfig(dt=0.05, t_final=0.05, damping=False)
                           ).step(u0)
        assert rep.n_steps == 1
        assert rep.damp_sum == rec.observed_damp
        assert rep.visc_sum1 == rec.visc1 and rep.visc_sum2 == 2.0 * rec.visc2


class TestObservabilitySums:
    """The sums add each time block's rows in step order, so they equal a
    step-by-step loop over the same blocks bit for bit; a block
    ``sum(axis=0)`` would reassociate them.  Other blocks give other bits:
    the per-step terms depend on the block length."""

    @pytest.mark.parametrize("m, B", [(4, 64), (200, 1)])
    def test_step_order_sums(self, monkeypatch, m, B):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        cfg = SchemeConfig(dt=0.05, t_final=5.0, damping=False)
        X0 = np.random.default_rng(8).standard_normal((2 * sys_.n, m))
        lengths = record_block_lengths(monkeypatch)
        damp, v1, v2, weak, nsteps = diagnostics._observability_sums(
            SchemeSolver(sys_, cfg), X0, 0.25, 5.0)
        assert nsteps == 101 and lengths == block_schedule(B, nsteps)
        ref = np.zeros((3, m))
        for k, block, row in SchemeSolver(sys_, cfg).iterate_raw(X0, nsteps, beta=0.25):
            if k == 0:
                ref_weak = block.weak_sq[0]
            ref[0] += block.observed[row]
            ref[1] += block.visc1[row]
            ref[2] += 2.0 * block.visc2[row]
        assert np.array_equal(weak, ref_weak)
        for got, want in zip((damp, v1, v2), ref):
            assert np.array_equal(got, want)


class TestObservabilityStudy:
    def test_single_mode_draw_matches_closed_form(self):
        eta, d = 11.0, 0.6
        sys_ = ModalSystem.from_eta([eta], damp_gram=[[d]])
        study = observability_constant_study(
            sys_, beta=0.0, dt_list=[0.05], trials=3, seed=9, t_star=2.0
        )
        ratios = []
        for child in np.random.SeedSequence(9).spawn(3):
            x = np.random.default_rng(child).standard_normal(2)
            damp, v1, v2, weak = scalar_observability_sums(
                eta, d, x[0], x[1], 0.05, 2.0, 0.0
            )
            ratios.append((damp + v1 + v2) / weak)
        assert study.cells[0].min_ratio == pytest.approx(min(ratios), rel=1e-12)

    def test_lowpass_minimum_matches_per_draw_functional(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        dt, trials = 0.05, 4
        study = observability_constant_study(
            sys_, beta=0.0, dt_list=[dt], trials=trials, seed=3, t_star=2.0
        )
        cell = study.cells[0]
        low = sys_.mu <= cell.cutoff
        ratios = []
        for child in np.random.SeedSequence(3).spawn(trials):
            x = np.random.default_rng(child).standard_normal(2 * sys_.n)
            st = ModalState(np.where(low, x[:sys_.n], 0.0), np.where(low, x[sys_.n:], 0.0))
            ratios.append(observability_functional(sys_, st, 0.0, dt, 2.0).ratio)
        assert 0 < np.count_nonzero(low) < sys_.n
        assert cell.n_lowpass_active == trials
        assert cell.min_ratio_lowpass == pytest.approx(min(ratios), rel=1e-12)

    def test_no_damping_no_viscosity_gives_zero(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 0.0, 4))
        study = observability_constant_study(
            sys_, beta=0.0, dt_list=[0.05], trials=5, seed=1, t_star=1.0,
            viscosity=False,
        )
        assert study.cells[0].min_ratio == 0.0

    def test_minima_positive_and_comparable_across_dt(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 16))
        study = observability_constant_study(
            sys_, beta=0.0, dt_list=[0.02, 0.01], trials=40, seed=5
        )
        mins = [c.min_ratio for c in study.cells]
        assert all(m > 0.0 for m in mins)
        assert max(mins) / min(mins) < 4.0
        assert study.route == "clustered"
        for cell in study.cells:
            assert cell.cutoff == pytest.approx(study.delta / cell.dt)

    @pytest.mark.parametrize("bad", [
        {"trials": 0},
        {"trials": -3},
        {"trials": 2.5},
        {"trials": True},
        {"dt_list": [0.0]},
        {"dt_list": [0.05, 0.0]},
        {"delta": 0.0},
        {"delta": -1.0},
        {"delta": math.inf},
        {"delta": 5.0},
        {"dt_list": [0.02, 0.05], "delta": 3.104},
        {"dt_list": []},
        {"t_star": -1.0},
        {"t_star": math.inf},
    ], ids=["trials_zero", "trials_negative", "trials_fraction", "trials_bool", "dt_zero",
            "later_dt_zero", "delta_zero", "delta_negative", "delta_infinite",
            "delta_above_delta0", "delta_above_later_delta0", "no_dt", "t_star_negative",
            "t_star_infinite"])
    def test_bad_inputs_raise_before_stepping(self, monkeypatch, bad):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        calls = []
        iterate_raw = SchemeSolver.iterate_raw

        def counted(self, *args, **kwargs):
            calls.append(1)
            return iterate_raw(self, *args, **kwargs)

        monkeypatch.setattr(SchemeSolver, "iterate_raw", counted)
        kwargs = {"beta": 0.0, "dt_list": [0.05], "trials": 3, "seed": 0, "t_star": 2.0, **bad}
        with pytest.raises(DomainError):
            observability_constant_study(sys_, **kwargs)
        assert calls == []


def joint_batch_cell(sys_, dt, trials, seed, beta, viscosity, t_star):
    """(min_ratio, min_ratio_lowpass, n_lowpass_active) of one study cell
    with each draw and its low-pass copy stepped as one 2 * trials batch."""
    X = np.column_stack([np.random.default_rng(child).standard_normal(2 * sys_.n)
                         for child in np.random.SeedSequence(seed).spawn(trials)])
    low = filtering_cutoff(sys_, dt, 1.0)
    keep = np.concatenate([low.retained, sys_.n + low.retained])
    XL = np.zeros_like(X)
    XL[keep] = X[keep]
    cfg = SchemeConfig(dt=dt, t_final=max(t_star, dt), viscosity=viscosity, damping=False)
    damp, v1, v2, weak, _ = diagnostics._observability_sums(
        SchemeSolver(sys_, cfg), np.hstack([X, XL]), beta, t_star)
    total = damp + v1 + v2
    active = weak[trials:] > 0.0
    low_min = np.min(total[trials:][active] / weak[trials:][active]) if active.any() else math.nan
    return np.min(total[:trials] / weak[:trials]), low_min, int(np.count_nonzero(active))


# per system, time steps whose cutoff 1/dt keeps every mode, falls between
# groups, or splits a group (the boundary system's one dense group at dt 0.2
# and 0.1; the custom system's 2x2 block of modes 1 and 2, mu = 2 and 5, at
# dt 0.4 and 0.25)
SPLIT_SYSTEMS = {
    "coupled": (lambda: build_coupled_waves(ExampleParams(0.5, 1.0, 8)),
                [0.2, 0.1, 0.05, 0.04, 0.02]),
    "boundary": (lambda: build_boundary_coupled_waves(ExampleParams(0.5, 1.0, 4)),
                 [0.2, 0.1, 0.05]),
    "custom": (lambda: ModalSystem.from_eta(
        [1.0, 4.0, 25.0, 100.0],
        damp_gram=[[1, 0, 0, 0], [0, 1, 0.5, 0], [0, 0.5, 1, 0], [0, 0, 0, 1]]),
        [0.4, 0.25, 0.15, 0.1]),
}
SPLIT_RTOL = 16 * np.finfo(float).eps


class TestLowPassSplit:
    """The study steps each draw's low-pass part XL and its remainder
    X - XL (X itself when a group straddles the cutoff) and adds their sums;
    stepping X and XL together as one batch gives the same cell up to
    reassociated sums.  ``SPLIT_RTOL`` is 16 eps (3.6e-15); the worst
    relative difference measured over these cells with 200 seeds each,
    beta in {0, 0.25} and viscosity on and off was 1.1e-15."""

    @pytest.mark.parametrize("name, dt", [(name, dt) for name, (_, dts) in SPLIT_SYSTEMS.items()
                                          for dt in dts])
    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**16), beta=st.sampled_from([0.0, 0.25]),
           viscosity=st.booleans())
    def test_matches_joint_batch(self, name, dt, seed, beta, viscosity):
        sys_ = SPLIT_SYSTEMS[name][0]()
        study = observability_constant_study(
            sys_, beta, [dt], 5, seed, t_star=1.0, viscosity=viscosity)
        cell = study.cells[0]
        min_ratio, min_low, n_active = joint_batch_cell(sys_, dt, 5, seed, beta, viscosity, 1.0)
        assert cell.n_lowpass_active == n_active
        assert cell.min_ratio == pytest.approx(min_ratio, rel=SPLIT_RTOL, abs=0.0)
        if n_active:
            assert cell.min_ratio_lowpass == pytest.approx(min_low, rel=SPLIT_RTOL, abs=0.0)
        else:
            assert math.isnan(cell.min_ratio_lowpass)

    def test_steps_two_trials_batches_per_dt(self, monkeypatch):
        """Every dt steps two batches of ``trials`` columns over the same
        steps, so the study steps 2 * trials columns per step; the second
        batch is all zero exactly when every mode is retained."""
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 16))
        dt_list, trials = [0.05, 0.02, 0.01, 0.005], 40
        calls = []
        iterate_raw = SchemeSolver.iterate_raw

        def recorded(self, x0, n_steps, *args, **kwargs):
            calls.append((self.cfg.dt, x0.shape[1], n_steps, bool(np.any(x0))))
            return iterate_raw(self, x0, n_steps, *args, **kwargs)

        monkeypatch.setattr(SchemeSolver, "iterate_raw", recorded)
        observability_constant_study(sys_, 0.0, dt_list, trials, 5, t_star=2.0)
        full = [filtering_cutoff(sys_, dt, 1.0).retained.size == sys_.n for dt in dt_list]
        assert full == [False, False, True, True]
        steps = [substep_count(2.0, dt) + 1 for dt in dt_list]
        assert calls == [c for dt, k, kept in zip(dt_list, steps, full)
                         for c in [(dt, trials, k, True), (dt, trials, k, not kept)]]


class TestInverseInequality:
    def test_single_mode_exact(self):
        mu = 7.0
        sys_ = ModalSystem.from_eta([mu**2])
        rep = inverse_inequality_check(sys_, dt=0.1, delta=0.5)
        assert rep.min_ratio_h == pytest.approx(0.1 * mu, rel=1e-14)
        assert rep.min_ratio_weak == pytest.approx(0.1 * mu, rel=1e-14)
        assert rep.ok

    def test_empty_high_part_vacuous(self):
        sys_ = ModalSystem.from_eta([1.0])
        rep = inverse_inequality_check(sys_, dt=0.01, delta=1.0)
        assert rep.n_high == 0 and rep.ok
        assert math.isinf(rep.min_ratio_h)

    @pytest.mark.parametrize("dt,delta,message", [
        (0.1, math.nan, "delta must lie in"), (0.1, math.inf, "delta must lie in"),
        (0.1, 0.0, "delta must lie in"), (-0.1, 0.5, "dt must be positive and finite"),
        (math.nan, 0.5, "dt must be positive and finite"),
        (math.inf, 0.5, "dt must be positive and finite"),
    ], ids=["cutoff_nan", "cutoff_inf", "cutoff_zero", "dt_negative", "dt_nan", "dt_inf"])
    def test_bad_step_or_cutoff_rejected(self, dt, delta, message):
        # filtering_cutoff checks both: the cutoff delta / dt has no other source
        sys_ = ModalSystem.from_eta([49.0])
        with pytest.raises(DomainError, match=message):
            inverse_inequality_check(sys_, dt=dt, delta=delta)

    @pytest.mark.parametrize("beta", [-40.0, 40.0, 80.0])
    def test_large_beta_weak_ratio_finite(self, beta):
        # each weight eta^(-2 beta), eta^(-2 beta - 1) alone overflows or
        # underflows at these beta; the ratio does not depend on beta
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=64))
        rep = inverse_inequality_check(sys_, dt=0.01, delta=1.0, beta=beta)
        expect = 0.01 * float(np.min(sys_.mu[sys_.mu > 100.0]))
        assert rep.min_ratio_h == pytest.approx(expect, rel=1e-14)
        assert rep.min_ratio_weak == pytest.approx(expect, rel=1e-14)
        assert rep.min_ratio_weak >= rep.delta and rep.ok

    def test_mixed_state_rayleigh_bound(self):
        # random high combinations: dt ||A z|| / ||z|| >= dt * min retained mu
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 16))
        cutoff = 20.0
        dt = 0.05
        high = sys_.mu > cutoff
        rng = np.random.default_rng(13)
        eta = sys_.eta
        for _ in range(50):
            a = np.where(high, rng.standard_normal(32), 0.0)
            b = np.where(high, rng.standard_normal(32), 0.0)
            num = np.sum(eta**2 * a**2) + np.sum(eta * b**2)
            den = np.sum(eta * a**2) + np.sum(b**2)
            ratio = dt * math.sqrt(num / den)
            assert ratio >= dt * sys_.mu[high].min() * (1 - 1e-12)


class TestHighFreqContraction:
    def test_bound_value_and_single_mode_factor(self):
        dt, delta = 0.1, 1.0
        assert 1.0 / (1.0 + 2.0 * dt * delta**2) == pytest.approx(1.0 / 1.2, rel=1e-15)
        mu = 15.0
        sys_ = ModalSystem.from_eta([mu**2])
        u0 = ModalState([1.0], [0.5])
        ratios = high_freq_contraction(sys_, u0, 0.0, dt, delta, steps=20)
        expect = (1.0 / (1.0 + dt**3 * mu**2)) ** 2
        np.testing.assert_allclose(ratios, expect, rtol=1e-13)
        assert np.all(ratios <= 1.0 / 1.2 + 1e-12)

    def test_random_high_states_respect_bound(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        dt, delta = 0.1, 1.0
        cutoff = delta / dt
        rng = np.random.default_rng(2)
        high = sys_.mu > cutoff
        for _ in range(20):
            a = np.where(high, rng.standard_normal(64), 0.0)
            b = np.where(high, rng.standard_normal(64), 0.0)
            ratios = high_freq_contraction(sys_, ModalState(a, b), 0.0, dt, delta, 50)
            assert np.all(ratios <= 1.0 / (1.0 + 2.0 * dt * delta**2) + 1e-12)

    def test_zero_state_trivial_pass(self):
        sys_ = ModalSystem.from_eta([400.0])
        out = high_freq_contraction(sys_, ModalState.zero(1), 0.0, 0.1, 1.0, 5)
        assert out.size == 0

    @pytest.mark.parametrize("steps", [0, -3, 2.5, True],
                             ids=["zero", "negative", "fraction", "bool"])
    def test_bad_step_count_raises_before_stepping(self, monkeypatch, steps):
        sys_ = ModalSystem.from_eta([400.0])
        calls = []
        iterate_raw = SchemeSolver.iterate_raw

        def counted(self, *args, **kwargs):
            calls.append(1)
            return iterate_raw(self, *args, **kwargs)

        monkeypatch.setattr(SchemeSolver, "iterate_raw", counted)
        with pytest.raises(DomainError, match="steps must be a positive integer"):
            high_freq_contraction(sys_, ModalState([1.0], [0.5]), 0.0, 0.1, 1.0, steps)
        assert calls == []

    def test_numpy_step_count(self):
        sys_ = ModalSystem.from_eta([400.0, 900.0])
        u0 = ModalState([1.0, -0.5], [0.5, 2.0])
        want = high_freq_contraction(sys_, u0, 0.0, 0.1, 1.0, 5)
        assert want.size == 5
        assert np.array_equal(high_freq_contraction(sys_, u0, 0.0, 0.1, 1.0, np.int64(5)), want)

    @staticmethod
    def high_state(sys_, cutoff):
        rng = np.random.default_rng(4)
        high = sys_.mu > cutoff
        return ModalState(*(np.where(high, rng.standard_normal(sys_.n), 0.0) for _ in "ab"))

    def test_large_beta_within_bound(self):
        # at beta = 30 every weak norm is finite and nonzero
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 64))
        ratios = high_freq_contraction(sys_, self.high_state(sys_, 100.0), 30.0, 0.01, 1.0, 50)
        assert ratios.size == 50 and np.all(ratios <= 1.0 / 1.02 + 1e-12)

    @pytest.mark.parametrize("beta", [40.0, 80.0])
    def test_out_of_range_beta_refused(self, beta):
        # the weak weight eta^(-2 beta - 1) underflows to 0 on the largest
        # modes, where every ratio would read 0 / 0: refused before stepping
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 64))
        with pytest.raises(DomainError, match=f"beta = {beta!r} is out of range"):
            high_freq_contraction(sys_, self.high_state(sys_, 100.0), beta, 0.01, 1.0, 50)
        with pytest.raises(DomainError, match=f"beta = {beta!r} is out of range"):
            high_freq_contraction(sys_, ModalState.zero(sys_.n), beta, 0.01, 1.0, 50)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["too_few", "too_many"])
    def test_wrong_size_state_raises_before_stepping(self, monkeypatch, extra):
        sys_ = ModalSystem.from_eta([400.0, 900.0])
        calls = []
        monkeypatch.setattr(SchemeSolver, "iterate_raw", lambda *args: calls.append(1))
        with pytest.raises(DimensionMismatchError,
                           match=f"state: expected length 2, got {2 + extra}$"):
            high_freq_contraction(sys_, ModalState(np.ones(2 + extra), np.zeros(2 + extra)),
                                  0.0, 0.1, 1.0, 5)
        assert calls == []

    @pytest.mark.parametrize("delta", [math.nan, -0.5, math.inf], ids=["nan", "negative", "inf"])
    def test_bad_cutoff_raises_before_stepping(self, monkeypatch, delta):
        # a NaN bound would select no ratio and -0.5 passes as delta^2 = 0.25:
        # filtering_cutoff refuses both, and inf, before any step
        sys_ = ModalSystem.from_eta([400.0])
        calls = []
        monkeypatch.setattr(SchemeSolver, "iterate_raw", lambda *args: calls.append(1))
        with pytest.raises(DomainError, match=r"delta must lie in \(0, 3.14159\); got"):
            high_freq_contraction(sys_, ModalState([1.0], [0.5]), 0.0, 0.1, delta, 5)
        assert calls == []

    @pytest.mark.parametrize("dt", [math.nan, -1.0, 0.0, math.inf],
                             ids=["nan", "negative", "zero", "inf"])
    def test_zero_state_bad_dt_raises(self, dt):
        # dt is checked before the zero-state early return
        sys_ = ModalSystem.from_eta([400.0])
        with pytest.raises(DomainError, match="dt must be positive and finite; got"):
            high_freq_contraction(sys_, ModalState.zero(1), 0.0, dt, 1.0, 5)

    def test_blocks_match_per_record_ratios(self, monkeypatch):
        # 2500 steps of one column in 5 of 8 groups (B = 1024): full time
        # blocks and a partial last one
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        dt, delta, steps, beta = 0.1, 1.0, 2500, 0.25
        high = sys_.mu > delta / dt
        rng = np.random.default_rng(4)
        u0 = ModalState(np.where(high, rng.standard_normal(16), 0.0),
                        np.where(high, rng.standard_normal(16), 0.0))
        lengths = record_block_lengths(monkeypatch)
        ratios = high_freq_contraction(sys_, u0, beta, dt, delta, steps)
        assert lengths == block_schedule(1024, steps) and lengths[-2:] == [1024, 453]
        cfg = SchemeConfig(dt=dt, t_final=steps * dt, viscosity=True, damping=False)
        per_record = [block.weak_sq[row + 1, 0] / block.weak_sq[row, 0] for _, block, row in
                      SchemeSolver(sys_, cfg).iterate_raw(u0.stacked(), steps, beta=beta)]
        assert np.array_equal(ratios, per_record)

    def test_low_component_rejected(self):
        sys_ = ModalSystem.from_eta([1.0, 400.0])
        with pytest.raises(DomainError):
            high_freq_contraction(sys_, ModalState([1.0, 1.0], [0.0, 0.0]),
                                  0.0, 0.1, 1.0, 5)


class TestHighFreqObservability:
    def test_scaling_invariance_and_positivity(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        dt, delta = 0.01, 1.0
        cutoff = delta / dt
        rng = np.random.default_rng(3)
        high = sys_.mu > cutoff
        assert np.any(high)
        a = np.where(high, rng.standard_normal(64), 0.0)
        b = np.where(high, rng.standard_normal(64), 0.0)
        u0 = ModalState(a, b)
        r1 = high_freq_observability(sys_, u0, 0.0, dt, 2.0)
        r2 = high_freq_observability(sys_, ModalState(2.0 * a, 2.0 * b), 0.0, dt, 2.0)
        assert r1 > 0.0
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_single_mode_matches_scalar_recursion(self):
        eta = 900.0
        sys_ = ModalSystem.from_eta([eta])
        u0 = ModalState([1.0], [0.0])
        got = high_freq_observability(sys_, u0, 0.0, 0.05, 1.0)
        _, v1, v2, weak = scalar_observability_sums(eta, 0.0, 1.0, 0.0, 0.05, 1.0, 0.0)
        assert got == pytest.approx((v1 + v2) / weak, rel=1e-12)


class TestDecayFit:
    def test_exact_power_law(self):
        t = np.linspace(0.0, 50.0, 2001)
        fit = decay_fit(synthetic_trace(t, 1.0 / (1.0 + t)), 0.0, (1.0, 50.0))
        assert fit.exponent == pytest.approx(1.0, abs=1e-10)
        assert fit.M_hat == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_steeper_law_detected_by_envelope(self):
        t = np.linspace(0.0, 80.0, 4001)
        E = 5.0 / (1.0 + t) ** 2
        short = decay_fit(synthetic_trace(t, E), 0.0, (1.0, 10.0))
        long = decay_fit(synthetic_trace(t, E), 0.0, (1.0, 80.0))
        assert short.exponent == pytest.approx(2.0, abs=1e-9)
        # at the theoretical rate p0=1 the envelope of a 1/(1+t)^2 law is
        # attained at the window start, and stays there as the window grows
        assert long.M_hat == pytest.approx(short.M_hat, rel=1e-12)
        assert long.M_hat == pytest.approx(5.0 / 2.0, rel=1e-12)

    def test_constant_energy_has_zero_exponent(self):
        t = np.linspace(0.0, 10.0, 101)
        fit = decay_fit(synthetic_trace(t, np.ones_like(t)), 0.0, (0.0, 10.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.M_hat == pytest.approx(11.0, rel=1e-12)

    def test_matches_polyfit_through_the_helper(self):
        t = np.linspace(0.0, 50.0, 5001)
        E = 3.0 * (1.0 + t) ** -1.3 * (1.0 + 0.2 * np.sin(t))
        fit = decay_fit(synthetic_trace(t, E), 0.0, (5.0, 40.0))
        mask = (t >= 5.0) & (t <= 40.0)
        x, y = np.log1p(t[mask]), np.log(E[mask])
        slope, r_sq = diagnostics._loglog_fit(x, y)
        assert (fit.exponent, fit.r_squared) == (-slope, r_sq)
        ref_slope, ref_icpt = np.polyfit(x, y, 1)
        resid = y - (ref_slope * x + ref_icpt)
        ref_r_sq = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
        assert fit.exponent == pytest.approx(-ref_slope, rel=1e-10)
        assert fit.r_squared == pytest.approx(ref_r_sq, rel=1e-10)
        assert fit.r_squared < 0.999  # the wobble leaves a residual

    def test_m_hat_divides_after_the_maximum(self):
        # max(w E) / d == max(w E / d) for d > 0: rounding is monotone
        t = np.linspace(0.0, 50.0, 5001)
        E = 3.0 * (1.0 + t) ** -1.3 * (1.0 + 0.2 * np.sin(t))
        for d in (0.37, 1.0, 3.7, 1e5):
            trace = dataclasses.replace(synthetic_trace(t, E), domain_sq0=d)
            fit = decay_fit(trace, 0.5, (5.0, 40.0))
            mask = (t >= 5.0) & (t <= 40.0)
            assert fit.M_hat == float(np.max((1.0 + t[mask]) ** 0.5 * E[mask] / d))

    def test_nonpositive_energy_rejected(self):
        t = np.linspace(0.0, 10.0, 11)
        E = np.ones_like(t)
        E[5] = 0.0
        with pytest.raises(DomainError):
            decay_fit(synthetic_trace(t, E), 0.0, (0.0, 10.0))


class TestUniformDecayStudy:
    def test_damped_study_uniform_verdict(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        study = uniform_decay_study(sys_, beta=0.0, dt_list=[0.05, 0.02], T=60.0)
        assert study.verdict == "uniform"
        assert study.envelope_spread <= 4.0
        for cell in study.cells:
            assert math.isfinite(cell.envelope.M_hat)
            assert cell.envelope.exponent >= 0.7

    def test_gamma_zero_verdict_non_uniform(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 0.0, 8))
        study = uniform_decay_study(sys_, beta=0.0, dt_list=[0.05, 0.02], T=60.0,
                                    t_star=8.0)
        assert study.verdict == "non-uniform"

    def test_heavy_damping_bounded_envelope(self):
        # exponential decay easily satisfies the polynomial envelope
        sys_ = ModalSystem.from_eta([4.0], damp_gram=[[2.0]])
        study = uniform_decay_study(sys_, 0.0, [0.01], T=30.0, t_star=4.0)
        cell = study.cells[0]
        assert math.isfinite(cell.envelope.M_hat)
        assert cell.envelope.M_hat < 1.0

    def test_family_normalization(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        from polystab import norm_domain

        for label, st in worst_case_family(sys_):
            assert norm_domain(sys_, st) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [
        {"dt_list": [-0.05]},
        {"dt_list": [0.05, 0.0]},
        {"dt_list": [0.5], "T": 0.2},
        {"t_star": 30.0},  # the window (T*/2, T) starts beyond T
        {"t_star": 19.95},  # the window holds t = 10 alone
        {"dt_list": []},
        {"beta": -0.5},
        {"T": math.inf},
        {"t_star": -4.0},
        {"t_star": math.inf},
    ], ids=["dt_negative", "later_dt_zero", "T_below_dt", "window_beyond_T",
            "one_sample_window", "no_dt", "beta_at_minus_half", "T_infinite",
            "t_star_negative", "t_star_infinite"])
    def test_bad_inputs_raise_before_stepping(self, monkeypatch, bad):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        calls = []
        iterate_raw = SchemeSolver.iterate_raw

        def counted(self, *args, **kwargs):
            calls.append(1)
            return iterate_raw(self, *args, **kwargs)

        monkeypatch.setattr(SchemeSolver, "iterate_raw", counted)
        kwargs = {"beta": 0.0, "dt_list": [0.05], "T": 10.0, "t_star": 4.0, **bad}
        with pytest.raises(DomainError):
            uniform_decay_study(sys_, **kwargs)
        assert calls == []

    def test_underflowing_envelope_inconclusive(self):
        # viscosity divides the amplitude by 1 + dt^3 eta = 1251 per step,
        # so the energy reaches 0.0 near t = 27, inside the window (2, 60)
        sys_ = ModalSystem.from_eta([1e4])
        study = uniform_decay_study(sys_, 0.0, [0.5], T=60.0, t_star=4.0)
        assert study.verdict == "inconclusive"
        assert math.isnan(study.envelope_spread)
        (cell,) = study.cells
        assert cell.envelope is None
        (member,) = cell.member_fits
        assert member.label == "mode[0]"
        assert member.exponent is None and member.r_squared is None
        assert 0.0 < member.m_hat < 1e-20


    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_fits_use_every_window_sample(self, gamma):
        # every member and envelope exponent is the least-squares slope over
        # all window samples, the members stepped one at a time here
        sys_ = build_coupled_waves(ExampleParams(0.5, gamma, 4))
        study = uniform_decay_study(sys_, 0.0, [0.1, 0.05], T=20.0, t_star=4.0)
        lo, hi = study.fit_window
        family = worst_case_family(sys_)
        for cell in study.cells:
            sol = SchemeSolver(sys_, SchemeConfig(dt=cell.dt, t_final=20.0))
            E = np.array([sol.run(z0).energy for _, z0 in family])
            t = np.arange(E.shape[1]) * cell.dt
            mask = (t >= lo) & (t <= hi)
            x = np.log1p(t[mask])
            fits = [(mf.exponent, e) for mf, e in zip(cell.member_fits, E)]
            for exponent, e in fits + [(cell.envelope.exponent, E.max(axis=0))]:
                ref = -np.polyfit(x, np.log(e[mask]), 1)[0]
                assert exponent == pytest.approx(ref, rel=1e-10)

    def test_drains_every_record(self, monkeypatch):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        counts = []
        iterate_raw = SchemeSolver.iterate_raw

        def counted(self, *args, **kwargs):
            counts.append(0)
            for s in iterate_raw(self, *args, **kwargs):
                counts[-1] += 1
                yield s

        monkeypatch.setattr(SchemeSolver, "iterate_raw", counted)
        dt_list, T = [0.1, 0.05, 0.03], 20.0
        uniform_decay_study(sys_, 0.0, dt_list, T=T, t_star=4.0)
        assert counts == [substep_count(T, dt) + 1 for dt in dt_list]

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_blocks_match_per_record_assembly(self, monkeypatch, gamma):
        # the study's member-major E gives exactly the member and envelope
        # values of a step-major E assembled one record at a time and
        # fitted through _loglog_fit, for the damped system and the gamma = 0
        # control, also past a full and a partial last block (B = 1024 for
        # both family batches).  The window (T*/2, T) first spans the whole
        # grid but its ends (t = 0 and the step past T), through T* = dt, so
        # every other sample counts, and then starts inside it (T* = 4), so
        # the study fits a view of E that starts there.
        sys_ = build_coupled_waves(ExampleParams(0.5, gamma, 4))
        T, dt = 150.0, 0.05
        family = worst_case_family(sys_)
        X0 = np.column_stack([st.stacked() for _, st in family])
        t = np.arange(substep_count(T, dt) + 2) * dt
        E = np.empty((t.size, X0.shape[1]))
        for k, block, row in SchemeSolver(sys_, SchemeConfig(dt=dt, t_final=T)).iterate_raw(
                X0, t.size - 1):
            if k == 0:
                E[0] = block.energy[0]
            E[k + 1] = block.energy[row + 1]
        lengths = record_block_lengths(monkeypatch)
        for t_star in [dt, 4.0]:
            study = uniform_decay_study(sys_, 0.0, [dt], T=T, t_star=t_star)
            lo, hi = study.fit_window
            win = (t >= lo) & (t <= hi)
            assert not win[0] and not win[-1] and win[1:-1].all() == (t_star == dt)
            x, w = np.log1p(t[win]), (1.0 + t[win]) ** study.p0
            (cell,) = study.cells
            fits = [(mf.m_hat, mf.exponent, mf.r_squared) for mf in cell.member_fits]
            env = cell.envelope
            for got, e in zip(fits + [(env.M_hat, env.exponent, env.r_squared)],
                              list(E[win].T) + [E[win].max(axis=1)]):
                slope, r_sq = diagnostics._loglog_fit(x, np.log(e))
                assert got == (float(np.max(w * e)), -slope, r_sq)
        # two studies, each with a full block and a partial last one
        assert lengths == 2 * block_schedule(1024, t.size - 1)
        assert lengths.count(1024) == 2 and lengths[-1] < 1024


def test_criterion_7_bounds_are_fixed():
    # the decay verdict's bounds: no argument moves them, the study echoes them
    assert (diagnostics.UNIFORMITY_FACTOR, diagnostics.EXPONENT_FLOOR) == (4.0, 0.7)
    sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
    study = uniform_decay_study(sys_, 0.0, [0.05], T=4.0, t_star=4.0)
    assert (study.uniformity_factor, study.exponent_floor) == (4.0, 0.7)
    with pytest.raises(TypeError):
        uniform_decay_study(sys_, 0.0, [0.05], T=4.0, t_star=4.0, uniformity_factor=100.0)


class TestNonFiniteBeta:
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("study", ["functional", "constant_study", "inverse_inequality",
                                       "zero_state_contraction", "decay_study", "run"])
    def test_raises_before_stepping(self, monkeypatch, study, beta):
        # a non-finite beta never reaches the kernel, where +inf reads as a
        # zero weak norm and NaN as a non-finite state
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        u0 = ModalState(np.ones(8), np.ones(8))
        calls = []
        doubled = SchemeSolver._doubled  # every stepped run reads the one-step maps first
        monkeypatch.setattr(SchemeSolver, "_doubled",
                            lambda self, K: calls.append(K) or doubled(self, K))
        runs = {
            "functional": lambda: observability_functional(sys_, u0, beta, 0.05, 2.0),
            "constant_study": lambda: observability_constant_study(
                sys_, beta, [0.05], 4, 0, t_star=2.0),
            "inverse_inequality": lambda: inverse_inequality_check(sys_, 0.1, 1.0, beta),
            "zero_state_contraction": lambda: high_freq_contraction(
                sys_, ModalState.zero(8), beta, 0.1, 1.0, 5),
            "decay_study": lambda: uniform_decay_study(sys_, beta, [0.1], T=4.0, t_star=4.0),
            "run": lambda: SchemeSolver(sys_, SchemeConfig(dt=0.1, t_final=1.0)).run(u0, beta),
        }
        with pytest.raises(DomainError, match="beta must be finite; got"):
            runs[study]()
        assert calls == []


class TestIdentityAudit:
    @pytest.fixture(autouse=True)
    def tight_audit(self, monkeypatch):
        # an audit tolerance of 1e-299 E0 leaves no room for any rounding residual
        monkeypatch.setattr(schemes, "AUDIT_RTOL", 10 * 1e-300)

    def test_decay_study_raises(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        with pytest.raises(DiagnosticFailure):
            uniform_decay_study(sys_, 0.0, [0.05], T=4.0, t_star=4.0)

    def test_observability_paths_raise(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        rng = np.random.default_rng(1)
        u0 = ModalState(rng.standard_normal(8), rng.standard_normal(8))
        with pytest.raises(DiagnosticFailure):
            observability_functional(sys_, u0, 0.0, 0.05, 2.0)
        with pytest.raises(DiagnosticFailure):
            observability_constant_study(sys_, 0.0, [0.05], 4, 0, t_star=2.0)

    def test_zero_state_passes(self):
        # residual 0 <= 0: the audit passes and the zero-state check fires
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        with pytest.raises(DomainError):
            observability_functional(sys_, ModalState.zero(8), 0.0, 0.05, 2.0)


class TestLemma31:
    def test_alpha_zero_rate(self):
        res = decay_recursion_oracle(C=1.0, alpha=0.0, E0=1.0, steps=20000)
        k = np.arange(res.values.size) + 1.0
        prod = res.values * k
        assert res.M < 2.0
        assert np.all(res.values[1:] < res.values[:-1])
        # the normalized product settles near 1 with no late growth
        assert prod[-1] == pytest.approx(1.0, abs=1e-3)
        assert prod[-1] <= prod[len(prod) // 10] + 1e-9

    def test_recursion_satisfied_to_tolerance(self):
        res = decay_recursion_oracle(C=2.5, alpha=0.5, E0=3.0, steps=500)
        e = res.values
        resid = np.abs(e[1:] + 2.5 * e[1:] ** 2.5 - e[:-1])
        assert np.max(resid / e[:-1]) <= 1e-13

    def test_alpha_one_rate(self):
        res = decay_recursion_oracle(C=1.0, alpha=1.0, E0=1.0, steps=20000)
        prod = res.values * np.sqrt(np.arange(res.values.size) + 1.0)
        # continuum limit of e' = -e^3 gives e ~ 1/sqrt(2 t)
        assert prod[-1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)
        assert math.isfinite(res.M)

    def test_vanishing_dissipation_flagged(self):
        res = decay_recursion_oracle(C=1e-9, alpha=0.0, E0=1.0, steps=100)
        assert res.stagnant

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            decay_recursion_oracle(C=0.0, alpha=0.0, E0=1.0, steps=10)
        with pytest.raises(DomainError):
            decay_recursion_oracle(C=1.0, alpha=-1.0, E0=1.0, steps=10)
        with pytest.raises(DomainError):
            decay_recursion_oracle(C=1.0, alpha=0.0, E0=0.0, steps=10)

    @pytest.mark.parametrize("kwargs,message", [
        ({"C": math.inf}, "C must be positive and finite"),
        ({"C": math.nan}, "C must be positive and finite"),
        ({"E0": math.inf}, "E0 must be positive and finite"),
        ({"E0": -1.0}, "E0 must be positive and finite"),
        ({"alpha": math.inf}, "alpha must be finite and exceed -1"),
        ({"alpha": math.nan}, "alpha must be finite and exceed -1"),
        ({"steps": 2.5}, "steps must be a positive integer"),
        ({"steps": True}, "steps must be a positive integer"),
        ({"steps": 0}, "steps must be a positive integer"),
        ({"alpha": 100.0, "E0": 1e8}, "overflows a float"),
        ({"C": 1e300, "E0": 1e5}, "overflows a float"),
    ], ids=["C_inf", "C_nan", "E0_inf", "E0_negative", "alpha_inf", "alpha_nan",
            "steps_fraction", "steps_bool", "steps_zero", "E0_power_overflows",
            "C_E0_power_overflows"])
    def test_malformed_input_rejected(self, kwargs, message):
        args = {"C": 1.0, "alpha": 0.0, "E0": 1.0, "steps": 10, **kwargs}
        with pytest.raises(DomainError, match=message):
            decay_recursion_oracle(**args)

    def test_numpy_integer_steps_accepted(self):
        res = decay_recursion_oracle(C=1.0, alpha=0.0, E0=1.0, steps=np.int64(10))
        assert res.values.shape == (11,)


def bisect_root(prev, C, p):
    """Root of x + C x^p = prev, bisected until the bracket stops shrinking."""
    lo, hi = max(prev - C * prev**p, 0.0), prev
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if mid + C * mid**p > prev:
            hi = mid
        else:
            lo = mid


EPS = np.finfo(float).eps


class TestRecursionProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        log_C=st.floats(-6.0, 3.0),
        log_E0=st.floats(-6.0, 6.0),
        alpha=st.one_of(st.just(0.0), st.floats(-1.0, 3.0, exclude_min=True)),
        steps=st.integers(1, 30),
    )
    def test_steps_solve_the_recursion(self, log_C, log_E0, alpha, steps):
        C, E0, p = 10.0**log_C, 10.0**log_E0, 2.0 + alpha
        with np.errstate(over="ignore"):  # M overflows as alpha -> -1
            e = decay_recursion_oracle(C=C, alpha=alpha, E0=E0, steps=steps).values
        for prev, new in zip(e[:-1], e[1:]):
            prev, new = float(prev), float(new)
            if alpha == 0.0:
                exact = Fraction(new) + Fraction(C) * Fraction(new) ** 2 - Fraction(prev)
                assert abs(exact) <= 4 * EPS * Fraction(prev)
            else:
                assert abs(new + C * new**p - prev) <= 1e-13 * prev
            # strictly decreasing while the decrease C e^p is resolvable
            # in floating point, never increasing after that
            if C * prev**p > 8 * EPS * prev:
                assert new < prev
            else:
                assert new <= prev
        assert e[1] == pytest.approx(bisect_root(float(e[0]), C, p), rel=1e-13)


def scalar_recursion(C, alpha, E0, steps):
    """Reference sequence: one scalar root per step, as the oracle's head takes."""
    p = 2.0 + alpha
    out = [float(E0)]
    for _ in range(steps):
        e = out[-1]
        if e == 0.0:
            out.append(0.0)
        elif alpha == 0.0:
            out.append(2.0 * e / (1.0 + math.sqrt(1.0 + 4.0 * C * e)))
        else:
            out.append(diagnostics._recursion_root(e, C, p))
    return np.array(out)


def exact_residual(prev, new, C, p):
    """(new + C new^p - prev) / prev, exact for integer p, else to 40 digits."""
    if p == int(p):
        F = Fraction(new) + Fraction(C) * Fraction(new) ** int(p) - Fraction(prev)
        return float(F / Fraction(prev))
    with localcontext() as ctx:
        ctx.prec = 40
        F = Decimal(new) + Decimal(C) * Decimal(new) ** Decimal(p) - Decimal(prev)
        return float(F / Decimal(prev))


TINY = np.finfo(float).tiny  # values below hold fewer than 53 bits


class TestRecursionTail:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        log_C=st.floats(-9.0, 9.0),
        log_E0=st.floats(-6.0, 6.0),
        alpha=st.one_of(st.just(0.0), st.just(-1.0 + 2.0**-52), st.just(100.0),
                        st.floats(-0.99, 3.0)),
        steps=st.integers(2, 5 * 10**4),
    )
    @example(log_C=math.log10(9e-4), log_E0=0.0, alpha=-1.0 + 2.0**-52, steps=5 * 10**4)
    @example(log_C=0.0, log_E0=0.0, alpha=100.0, steps=5 * 10**4)
    @example(log_C=9.0, log_E0=0.0, alpha=0.0, steps=5 * 10**4)
    @example(log_C=-9.0, log_E0=0.0, alpha=0.0, steps=5 * 10**4)
    @example(log_C=-300.0, log_E0=200.0, alpha=0.0, steps=1000)  # only E0^{2+alpha} overflows
    def test_tail_matches_scalar_steps(self, log_C, log_E0, alpha, steps):
        C, E0, p = 10.0**log_C, 10.0**log_E0, 2.0 + alpha
        if max((1.0 + alpha) * log_E0, log_C + p * log_E0) > math.log10(np.finfo(float).max):
            # E0^{1+alpha} or C E0^{2+alpha} is beyond the float range
            with pytest.raises(DomainError, match="overflows a float"):
                decay_recursion_oracle(C=C, alpha=alpha, E0=E0, steps=steps)
            return
        with np.errstate(over="ignore"):  # M overflows as alpha -> -1
            res = decay_recursion_oracle(C=C, alpha=alpha, E0=E0, steps=steps)
        e = res.values
        assert np.all(e[1:] <= e[:-1])
        ref = scalar_recursion(C, alpha, E0, steps)
        # relative bounds hold while e^{2+alpha} is a normal number (or above)
        with np.errstate(over="ignore"):
            full = (ref >= TINY) & (ref**p >= TINY)
        # a step loop rounds every step; where e barely moves the rounding
        # repeats, so the loop drifts from the exact sequence by up to
        # steps * eps / 2 (1.5e-12 over 3e4 steps at C e^{1+alpha} ~ 1e-13)
        err = np.abs(e[full] - ref[full]) / ref[full]
        assert np.max(err, initial=0.0) <= 1e-12 + steps * EPS / 2
        # sampled steps, both sides of the head/tail boundary and of chunk ends
        ks = {1, steps, res.head_steps, res.head_steps + 1}
        ks |= {res.head_steps + m * diagnostics.CHUNK + d for m in (1, 2, 3) for d in (0, 1)}
        ks |= set(range(1, steps + 1, max(1, steps // 25)))
        for k in sorted(k for k in ks if 1 <= k <= steps and full[k - 1] and full[k]):
            bound = 4 * EPS if alpha == 0.0 or k > res.head_steps else 1e-13
            assert abs(exact_residual(float(e[k - 1]), float(e[k]), C, p)) <= bound

    def test_stagnant_tail_matches_40_digit_recursion(self):
        C, steps = 1e-9, 5 * 10**4
        res = decay_recursion_oracle(C=C, alpha=0.0, E0=1.0, steps=steps)
        assert res.head_steps == 0 and res.stagnant
        with localcontext() as ctx:
            ctx.prec = 40
            c4, e, exact = 4 * Decimal(C), Decimal(1), [1.0]
            for _ in range(steps):
                e = 2 * e / (1 + (1 + c4 * e).sqrt())
                exact.append(float(e))
        assert np.max(np.abs(res.values - exact) / exact) <= 4 * EPS

    @pytest.mark.parametrize("C,E0,steps", [(1.0, 1.0, 3000), (9e-4, 1e-300, 7 * 10**4)],
                             ids=["in_head", "in_tail"])
    def test_underflow_to_zero(self, C, E0, steps):
        # e falls through the subnormal range to 0 and stays there
        alpha = -1.0 + 2.0**-52
        with np.errstate(over="ignore"):  # (k+1)^{1/(1+alpha)} overflows
            res = decay_recursion_oracle(C=C, alpha=alpha, E0=E0, steps=steps)
        e = res.values
        assert np.all(e[1:] <= e[:-1]) and e[-1] == 0.0
        # the zeros add nothing to M, whose true value overflows
        assert not math.isnan(res.M) and res.M == math.inf
        ref = scalar_recursion(C, alpha, E0, steps)
        full = ref >= TINY
        err = np.abs(e[full] - ref[full]) / ref[full]
        assert np.max(err) <= 1e-12 + steps * EPS / 2

    def test_subnormal_powers_match_60_digit_recursion(self):
        # e^{2+alpha} falls below the normal range some steps before e does
        C, alpha, E0, steps = 7.65e8, -0.977066, 1.47e-8, 80
        res = decay_recursion_oracle(C=C, alpha=alpha, E0=E0, steps=steps)
        with localcontext() as ctx:
            ctx.prec = 60
            c, p, e, exact = Decimal(C), Decimal(alpha) + 2, Decimal(E0), [E0]
            for _ in range(steps):
                x = e  # Newton from above descends onto the root of x + C x^p = e
                while True:
                    step = (x + c * x**p - e) / (1 + p * c * x ** (p - 1))
                    x -= step
                    if abs(step) <= x * Decimal("1e-50"):
                        break
                e = x
                exact.append(float(e))
        exact = np.array(exact)
        full = exact >= TINY
        assert 0 < np.count_nonzero(full) < steps  # the case reaches below TINY
        assert np.max(np.abs(res.values[full] - exact[full]) / exact[full]) <= 8 * EPS
        assert res.resid_max <= 2 * EPS

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "MAX_SWEEPS", 1)
        with pytest.raises(DiagnosticFailure, match="did not converge"):
            decay_recursion_oracle(C=1.0, alpha=0.0, E0=1.0, steps=5000)

    def test_reports_head_and_residual(self):
        res = decay_recursion_oracle(C=2.5, alpha=0.5, E0=3.0, steps=500)
        assert res.head_steps == 500
        assert res.tail_solves == 0
        e = res.values
        resid = np.abs((e[1:] - e[:-1]) + 2.5 * e[1:] ** 2.5) / e[:-1]
        assert res.resid_max == pytest.approx(float(np.max(resid)), rel=1e-2)

    @pytest.mark.parametrize("steps", [2 * 10**5, 10**6])
    def test_one_solve_per_chunk(self, steps):
        # from the second-order start every chunk past the first takes one
        # bidiagonal solve
        res = decay_recursion_oracle(C=1.0, alpha=0.0, E0=1.0, steps=steps)
        chunks = -(-(steps - res.head_steps) // diagnostics.CHUNK)
        assert res.head_steps == 2007 and chunks == {2 * 10**5: 13, 10**6: 61}[steps]
        assert res.tail_solves <= chunks + 1
        assert res.resid_max <= 2 * EPS
