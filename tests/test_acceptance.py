"""Acceptance criteria, one test per criterion at its stated tolerance.

Each criterion prints a single ``PASS``/``FAIL`` line (visible with
``pytest -s tests/test_acceptance.py`` or in failure reports).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import physical_coupled_waves_energy

from polystab import (
    ExampleParams,
    InghamConfig,
    ModalState,
    ModalSystem,
    SchemeConfig,
    build_boundary_coupled_waves,
    build_coupled_waves,
    check_gap,
    energy,
    estimate_clustered,
    estimate_scalar,
    factorize,
    high_freq_contraction,
    ingham_ratio_scalar,
    inverse_inequality_check,
    decay_recursion_oracle,
    modal_multiplier,
    observability_constant_study,
    uniform_decay_study,
)
from polystab.spectra import boundary_fixedpoint_residuals


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description}")


def test_criterion_1_energy_identity():
    with criterion(1, "per-step and telescoped energy identity, coupled waves"):
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=64))
        cfg = SchemeConfig(dt=0.01, t_final=20.0)
        rng = np.random.default_rng(101)
        z0 = ModalState(rng.standard_normal(sys_.n), rng.standard_normal(sys_.n))
        t0 = time.perf_counter()
        trace = factorize(sys_, cfg).run(z0)
        elapsed = time.perf_counter() - t0
        step_tol = 1e-12 * trace.e0
        assert np.max(trace.identity_residual) <= step_tol
        nsteps = trace.identity_residual.shape[0]
        assert trace.telescope_residual <= nsteps * step_tol
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_midpoint_conservation():
    with criterion(2, "midpoint conservation: drift < 1e-11 over 1e4 steps, n=128"):
        rng = np.random.default_rng(2024)
        eta = np.sort(rng.uniform(1.0, 1e4, size=128))
        sys_ = ModalSystem.from_eta(eta)
        cfg = SchemeConfig(dt=0.01, t_final=1.0, viscosity=False, damping=False)
        sol = factorize(sys_, cfg)
        y = ModalState(rng.standard_normal(128), rng.standard_normal(128))
        e0 = energy(sys_, y)
        worst = 0.0
        for _ in range(10**4):
            y = sol.step(y).z_next
            worst = max(worst, abs(energy(sys_, y) - e0))
        assert worst < 1e-11 * e0


def test_criterion_3_multiplier_law():
    with criterion(3, "measured midpoint rotation equals (2/dt) atan(mu dt/2)"):
        for mu in (1.0, math.pi, 50.0):
            for dt in (0.5, 0.01):
                sys_ = ModalSystem.from_eta([mu**2])
                cfg = SchemeConfig(dt=dt, t_final=10 * dt, viscosity=False,
                                   damping=False)
                sol = factorize(sys_, cfg)
                alpha, _ = modal_multiplier(mu, dt)
                y = ModalState([1.0], [0.0])
                ang = math.atan2(y.b[0] / mu, y.a[0])
                for _ in range(5):
                    y = sol.step(y).z_next
                    new = math.atan2(y.b[0] / mu, y.a[0])
                    step = (ang - new + math.pi) % (2.0 * math.pi) - math.pi
                    assert abs(step - alpha * dt) <= 1e-10, (mu, dt)
                    ang = new


def test_criterion_4_high_frequency_contraction():
    with criterion(4, "per-step weak-norm ratio <= 1/(1+2 dt delta^2) + 1e-12"):
        delta = 1.0
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=64))
        rng = np.random.default_rng(404)
        for dt in (0.1, 0.01):
            cutoff = delta / dt
            high = sys_.mu > cutoff
            assert np.any(high), f"no modes above cutoff {cutoff}"
            for _ in range(100):
                a = np.where(high, rng.standard_normal(sys_.n), 0.0)
                b = np.where(high, rng.standard_normal(sys_.n), 0.0)
                # raises DiagnosticFailure if any per-step ratio exceeds
                # the bound + 1e-12
                ratios = high_freq_contraction(
                    sys_, ModalState(a, b), beta=0.0, dt=dt, delta=delta, steps=40
                )
                assert ratios.size == 40


def test_criterion_5_inverse_inequality():
    with criterion(5, "dt ||Ay||/||y|| >= delta on the high subspace, both scales"):
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=64))
        for dt, delta in ((0.1, 1.0), (0.01, 1.0), (0.05, 1.9)):
            cutoff = delta / dt
            rep = inverse_inequality_check(sys_, dt=dt, delta=delta, beta=0.0)
            assert rep.n_high > 0
            assert rep.min_ratio_h >= rep.delta
            assert rep.min_ratio_weak >= rep.delta
            assert rep.ok
            # diagonal oracle: the minimum is exactly dt * smallest high mu
            expect = dt * float(np.min(sys_.mu[sys_.mu > cutoff]))
            assert rep.min_ratio_h == pytest.approx(expect, rel=1e-14)
            assert rep.min_ratio_weak == pytest.approx(expect, rel=1e-14)


def test_criterion_6_observability_uniformity():
    with criterion(6, "observability minima positive and within factor 4 across dt"):
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=32))
        t0 = time.perf_counter()
        study = observability_constant_study(
            sys_, beta=0.0, dt_list=[0.02, 0.01, 0.005], trials=200, seed=606
        )
        elapsed = time.perf_counter() - t0
        mins = [cell.min_ratio for cell in study.cells]
        assert all(m > 0.0 for m in mins)
        assert max(mins) / min(mins) <= 4.0
        lows = [cell.min_ratio_lowpass for cell in study.cells]
        assert all(m > 0.0 for m in lows)
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_criterion_7_uniform_polynomial_decay():
    with criterion(7, "decay envelope M_hat uniform across dt; gamma=0 control"):
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=32))
        study = uniform_decay_study(
            sys_, beta=0.0, dt_list=[0.02, 0.01, 0.005], T=200.0
        )
        assert study.fit_window[0] == pytest.approx(study.t_star / 2.0)
        m_hats = [cell.envelope.M_hat for cell in study.cells]
        assert all(math.isfinite(m) for m in m_hats)
        assert max(m_hats) / min(m_hats) <= 4.0
        assert all(cell.envelope.exponent >= 0.7 for cell in study.cells)
        assert study.verdict == "uniform"
        control = build_coupled_waves(ExampleParams(alpha=0.5, gamma=0.0, k_max=32))
        control_study = uniform_decay_study(
            control, beta=0.0, dt_list=[0.02, 0.01, 0.005], T=200.0,
            t_star=study.t_star,
        )
        assert control_study.verdict == "non-uniform"


def test_criterion_8_ingham_estimates():
    with criterion(8, "exponential-sum envelopes: exact, positive, cluster-aware"):
        # single-frequency self-test: exactly sigma (2J + 1)
        cfg = InghamConfig(sigma=1.0, J=4, gamma=2.0, trials=1, seed=0)
        ratio = ingham_ratio_scalar(np.array([1.0]), np.array([1.0 + 0j]), cfg)
        assert ratio == pytest.approx(cfg.sigma * (2 * cfg.J + 1), rel=1e-13)

        def sampling(freqs, gap, trials, seed):
            sigma = 0.9 * math.pi / (np.max(freqs) + 0.5 * gap)
            J = int(math.ceil((math.pi / gap) / sigma)) + 1
            return InghamConfig(sigma=sigma, J=J, gamma=gap, trials=trials, seed=seed)

        # boundary-coupled spectrum: scalar envelope positive over 1000 draws
        sys2 = build_boundary_coupled_waves(ExampleParams(0.5, 1.0, 16))
        cfg2 = sampling(sys2.mu, check_gap(sys2).gamma, trials=1000, seed=808)
        assert estimate_scalar(sys2.mu, cfg2).c_lo > 0.0

        # coupled spectrum: scalar envelope collapses >= 10x from k_max 8 to
        # 64 under gamma1-scale sampling while the clustered one stays put
        lows = {}
        for k_max in (8, 64):
            sys1 = build_coupled_waves(ExampleParams(1.0, 1.0, k_max))
            gamma1 = check_gap(sys1).gamma1
            cfg1 = sampling(sys1.mu, gamma1, trials=1000, seed=809)
            lows[k_max] = (
                estimate_scalar(sys1.mu, cfg1).c_lo,
                estimate_clustered(sys1.mu, cfg1).c_lo,
            )
        assert lows[8][0] >= 10.0 * lows[64][0]
        assert lows[8][1] > 0.0 and lows[64][1] > 0.0


def test_criterion_9_spectrum_oracles():
    with criterion(9, "closed-form spectra vs brute-force and physical oracles"):
        alpha, gamma = 0.5, 1.0
        sys1 = build_coupled_waves(ExampleParams(alpha, gamma, 32))
        for k in range(1, 33):
            block = np.array([[(k * np.pi) ** 2, alpha], [alpha, (k * np.pi) ** 2]])
            lam = np.linalg.eigvalsh(block)
            got = np.sort([sys1.eta[2 * k - 2], sys1.eta[2 * k - 1]])
            assert np.max(np.abs(got - lam) / lam) <= 1e-12
        p2 = ExampleParams(alpha, gamma, 32)
        sys2 = build_boundary_coupled_waves(p2)
        assert np.max(boundary_fixedpoint_residuals(p2, sys2)) <= 1e-12
        for s in (sys1, sys2):
            assert np.linalg.eigvalsh(s.damp_gram)[0] >= -1e-12 * gamma
        # physical-space simulation (sine coefficients of each field) vs the
        # modal run: identical energy traces to 1e-10 over T=5
        k_max, dt, T = 16, 0.01, 5.0
        sys3 = build_coupled_waves(ExampleParams(alpha, gamma, k_max))
        rng = np.random.default_rng(909)
        z0 = ModalState(rng.standard_normal(sys3.n), rng.standard_normal(sys3.n))
        trace = factorize(sys3, SchemeConfig(dt=dt, t_final=T)).run(z0)
        phys = physical_coupled_waves_energy(alpha, gamma, k_max, z0.a, z0.b, dt, T)
        assert np.max(np.abs(phys - trace.energy)) <= 1e-10 * trace.e0


def test_criterion_10_extremal_recursion():
    with criterion(10, "extremal recursion: k * e_k bounded over 1e6 steps"):
        res = decay_recursion_oracle(C=1.0, alpha=0.0, E0=1.0, steps=10**6)
        k = np.arange(res.values.size) + 1.0
        prod = res.values * k
        assert math.isfinite(res.M)
        assert res.M == pytest.approx(float(np.max(prod)), rel=1e-15)
        assert res.resid_max <= 2 * np.finfo(float).eps
        # no growth trend across the last decade of k
        last_decade = prod[10**5 :]
        assert float(np.max(last_decade)) <= float(prod[10**5]) * (1.0 + 1e-9)
        assert abs(prod[-1] / prod[10**5] - 1.0) <= 1e-3
