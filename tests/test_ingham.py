"""Exponential-sum estimates: exact cases, envelopes, draws, cluster forms."""

import math
import warnings

import numpy as np
import pytest
from helpers import sample_matrix, sampled_sums
from hypothesis import given, settings
from hypothesis import strategies as st

from polystab import (
    DiagnosticFailure,
    DomainError,
    ExampleParams,
    InghamConfig,
    build_boundary_coupled_waves,
    build_coupled_waves,
    check_gap,
    cluster_seminorm,
    estimate_clustered,
    estimate_scalar,
    ingham_ratio_scalar,
    q_form,
)
from polystab.ingham import (
    _apply,
    _cluster_matrix,
    _draw_coefficients,
    _envelope,
    _gram,
    support_threshold,
)
from polystab.spectra import cluster_partition


def gapped_config(**kw):
    # family inside the window: pi/sigma - gamma/2 = 10 - 1 = 9
    defaults = dict(sigma=math.pi / 10, J=16, gamma=2.0, trials=200, seed=5)
    defaults.update(kw)
    return InghamConfig(**defaults)


def auto_config(freqs, gap, trials=300, seed=7):
    """Sampling window covering the family, resolution set by the gap."""
    sigma = 0.9 * math.pi / (np.max(np.abs(freqs)) + 0.5 * gap)
    J = int(math.ceil((math.pi / gap) / sigma)) + 1
    return InghamConfig(sigma=sigma, J=J, gamma=gap, trials=trials, seed=seed)


class TestRatioScalar:
    def test_single_frequency_exact(self):
        cfg = InghamConfig(sigma=1.0, J=4, gamma=2.0, trials=1, seed=0)
        ratio = ingham_ratio_scalar(np.array([1.0]), np.array([1.0 + 0j]), cfg)
        assert ratio == pytest.approx(cfg.sigma * (2 * cfg.J + 1), rel=1e-13)

    def test_two_frequency_hand_expansion(self):
        # omega = +-1, x = (1,1), sigma = pi/2, J = 2:
        # sigma * sum_j |2 cos(j sigma)|^2 / 2 = (pi/2) * 12 / 2 = 3 pi
        cfg = InghamConfig(sigma=math.pi / 2, J=2, gamma=2.0, trials=1, seed=0)
        ratio = ingham_ratio_scalar(
            np.array([-1.0, 1.0]), np.array([1.0 + 0j, 1.0 + 0j]), cfg
        )
        assert ratio == pytest.approx(3.0 * math.pi, rel=1e-12)

    def test_support_zeroing_with_warning(self):
        cfg = InghamConfig(sigma=math.pi / 4, J=3, gamma=2.0, trials=1, seed=0)
        thr = support_threshold(cfg)
        assert thr == pytest.approx(3.0)
        freqs = np.array([1.0, 10.0])
        with pytest.warns(UserWarning, match="zeroed"):
            ratio = ingham_ratio_scalar(freqs, np.array([1.0 + 0j, 5.0 + 0j]), cfg)
        lone = ingham_ratio_scalar(np.array([1.0]), np.array([1.0 + 0j]), cfg)
        assert ratio == pytest.approx(lone, rel=1e-14)

    def test_all_zeroed_is_an_error(self):
        cfg = InghamConfig(sigma=math.pi / 4, J=3, gamma=2.0, trials=1, seed=0)
        with pytest.raises(DomainError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ingham_ratio_scalar(np.array([50.0]), np.array([1.0 + 0j]), cfg)

    def test_config_invariants(self):
        with pytest.raises(DomainError):
            InghamConfig(sigma=2.0, J=4, gamma=2.0)  # sigma > pi/gamma
        with pytest.raises(DomainError):
            InghamConfig(sigma=0.1, J=4, gamma=2.0)  # J sigma <= pi/gamma
        with pytest.raises(DomainError):
            InghamConfig(sigma=1.0, J=4, gamma=2.0, trials=0)
        with pytest.raises(DomainError, match="J must be a positive integer"):
            InghamConfig(sigma=1.0, J=4.5, gamma=2.0)  # N = 2J + 1 counts samples
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            InghamConfig(sigma=1.0, J=4, gamma=2.0, seed=-1)


@st.composite
def sampled_families(draw):
    """A sorted family inside the support window of a valid sampling, with
    duplicated, tightly clustered and well separated neighbours, and a time."""
    start = draw(st.floats(-6.0, 2.0))
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 0.1), st.floats(0.5, 3.0)),
                         max_size=9))
    freqs = start + np.cumsum([0.0] + gaps)
    gamma = draw(st.floats(0.5, 2.0))
    edge = np.max(np.abs(freqs)) + 0.5 * gamma
    sigma = min(math.pi / gamma, draw(st.floats(0.3, 0.99)) * math.pi / edge)
    J = int(math.ceil(math.pi / (gamma * sigma))) + 1 + draw(st.integers(0, 40))
    trials = draw(st.integers(1, 20))
    cfg = InghamConfig(sigma=sigma, J=J, gamma=gamma, trials=trials, seed=draw(st.integers(0, 99)))
    return freqs, cfg, draw(st.floats(-20.0, 20.0))


def oracle_tolerance(freqs, cfg, t):
    """Rounding bound of the sample-matrix sums, relative to sigma N per unit
    mass: each of the N phases ``omega (t + j sigma)`` is rounded to about
    eps times its size."""
    N = 2 * cfg.J + 1
    phase = 1.0 + np.max(np.abs(freqs)) * (abs(t) + cfg.J * cfg.sigma)
    return 4 * N * np.finfo(float).eps * phase * cfg.sigma * N


class TestDirichletGram:
    """The closed-form Gram and the exact envelopes against the sample matrix."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(family=sampled_families())
    def test_gram_and_envelopes_against_sample_matrix(self, family):
        freqs, cfg, t = family
        phases = np.exp(1j * t * freqs)
        E = sample_matrix(freqs, cfg, t)
        # S(x, t) = y^H G y with y = x exp(i omega t): sigma E^H E = P^H G P
        tol = oracle_tolerance(freqs, cfg, t)
        G = _gram(freqs, cfg)
        np.testing.assert_allclose(cfg.sigma * (E.conj().T @ E),
                                   phases.conj()[:, None] * G * phases, rtol=0.0, atol=tol)
        assert np.array_equal(np.diag(G), np.full(freqs.size, (2 * cfg.J + 1) * cfg.sigma))

        # every oracle ratio, at t and at 0, lies inside the exact envelopes
        # within the module's slack plus the oracle's own rounding
        n = freqs.size
        rng = np.random.default_rng(cfg.seed)
        X = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        D = _draw_coefficients(freqs, cfg)
        X = np.hstack([X, (D[:, 0] + 1j * D[:, 1]).T])
        mass = np.sum(np.abs(X) ** 2, axis=0)
        slack = 8 * n * np.finfo(float).eps * np.linalg.norm(G) + tol
        sc = estimate_scalar(freqs, cfg)
        assert sc.n_active == n and 0.0 <= sc.c_lo <= sc.c_hi
        for s in (0.0, t):
            ratios = sampled_sums(freqs, X, cfg, s) / mass
            assert np.all(ratios >= sc.c_lo - slack) and np.all(ratios <= sc.c_hi + slack)
        assert abs(ingham_ratio_scalar(freqs, X[:, 0], cfg, t) - ratios[0]) <= slack

        partition = cluster_partition(freqs, cfg.gamma)
        if any(len(c) == 2 and freqs[c[0]] == freqs[c[1]] for c in partition):
            with pytest.raises(DomainError, match="zero gap"):
                estimate_clustered(freqs, cfg)
            return
        cl = estimate_clustered(freqs, cfg)
        assert 0.0 <= cl.c_lo <= cl.c_hi  # 0 when a duplicate straddles two clusters
        q = np.sum(np.abs(_cluster_matrix(freqs, partition) @ X) ** 2, axis=0)
        ratios = sampled_sums(freqs, X, cfg) / q
        slack = slack * mass / q
        assert np.all(ratios >= cl.c_lo - slack) and np.all(ratios <= cl.c_hi + slack)

    def test_envelope_that_misses_a_draw_fails(self):
        freqs = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])
        cfg = gapped_config(trials=20)
        G = _gram(freqs, cfg)
        D = _draw_coefficients(freqs, cfg)
        mass = np.einsum("dkn,dkn->d", D, D)
        eigs = np.linalg.eigvalsh(G)
        est = _envelope(eigs, G, D, mass)
        assert (est.c_lo, est.c_hi) == (eigs[0], eigs[-1])
        # a lower constant above the smallest sampled ratio, or an upper one
        # below the largest, by far more than the rounding slack
        for lo, hi in ((est.sampled_lo * (1 + 1e-9), eigs[-1]),
                       (eigs[0], est.sampled_hi * (1 - 1e-9))):
            with pytest.raises(DiagnosticFailure, match="outside the exact envelope"):
                _envelope(np.array([lo, hi]), G, D, mass)


class TestSampledSums:
    """The module's n x n sums against the sum over the 2J+1 samples."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 40), tall=st.booleans())
    def test_qr_reduction_matches_direct_sum(self, seed, n, tall):
        # the (2J+1, n) sample matrix E reduces to the Gram G = sigma E^H E
        # (= sigma R^H R for E = QR), so the sums cost the same whatever J is;
        # tall: 2J+1 > n, otherwise 2J+1 < n and E has fewer rows than columns
        rng = np.random.default_rng(seed)
        J = int(rng.integers(n // 2 + 1, n + 20)) if tall else int(rng.integers(2, (n - 2) // 2 + 1))
        assert (2 * J + 1 > n) == tall
        gamma = 1.0
        u = 1.0 / J + (1.0 - 1.0 / J) * rng.uniform(0.05, 1.0)  # J sigma > pi / gamma
        cfg = InghamConfig(sigma=u * math.pi / gamma, J=J, gamma=gamma, trials=1, seed=0)
        edge = support_threshold(cfg)
        freqs = np.sort(rng.uniform(-edge, edge, n))
        X = rng.standard_normal((n, n + 3)) + 1j * rng.standard_normal((n, n + 3))
        t = float(rng.uniform(0.1, 10.0))
        mass = np.sum(np.abs(X) ** 2, axis=0)
        got = np.array([ingham_ratio_scalar(freqs, x, cfg, t=t) for x in X.T]) * mass
        slack = 8 * n * np.finfo(float).eps * np.linalg.norm(_gram(freqs, cfg))
        tol = (oracle_tolerance(freqs, cfg, t) + slack) * mass
        np.testing.assert_array_less(np.abs(got - sampled_sums(freqs, X, cfg, t)), tol)

    def test_draw_sums_pairs_match_direct_sum_exactly(self):
        # a cancelling pair e_i - e_j sums to 2 (N sigma - G_ij) with a single
        # rounding, in whatever order the products are added; on a clustered
        # family its ratio is the lower sampled extreme
        sys_ = build_coupled_waves(ExampleParams(1.0, 1.0, 16))
        freqs = sys_.mu
        cfg = auto_config(freqs, check_gap(sys_).gamma1, trials=30, seed=2)
        G = _gram(freqs, cfg)
        D = _draw_coefficients(freqs, cfg)
        n, m = freqs.size, cfg.trials
        assert D.shape == (m + n - 1, 2, n) and m < n
        sums = np.einsum("dkn,dkn->d", _apply(G, D), D)
        order = np.argsort(freqs)
        N = 2 * cfg.J + 1
        assert np.array_equal(sums[m:], 2 * (N * cfg.sigma - G[order[:-1], order[1:]]))

        mass = np.einsum("dkn,dkn->d", D, D)
        slack = 8 * n * np.finfo(float).eps * np.linalg.norm(G)
        tol = (oracle_tolerance(freqs, cfg, 0.0) + slack) * mass
        direct = sampled_sums(freqs, (D[:, 0] + 1j * D[:, 1]).T, cfg)
        np.testing.assert_array_less(np.abs(sums - direct), tol)

        ratios = sums / mass
        est = estimate_scalar(freqs, cfg)
        assert np.argmin(ratios) >= m
        assert (est.sampled_lo, est.sampled_hi) == (np.min(ratios), np.max(ratios))


class TestDrawCoefficients:
    def test_matches_explicit_construction(self):
        freqs = np.array([3.0, -5.0, 1.0, 20.0, -1.0, 7.0, 1.5])
        cfg = InghamConfig(sigma=math.pi / 10, J=16, gamma=2.0, trials=7, seed=11)
        assert support_threshold(cfg) < 20.0  # one mode lies outside the window
        w = freqs[np.abs(freqs) <= support_threshold(cfg)]
        n = w.size
        gauss = np.random.default_rng(cfg.seed).standard_normal((cfg.trials, 2, n))
        order = np.argsort(w)
        pairs = []
        for i, j in zip(order[:-1], order[1:]):
            pair = np.zeros((2, n))
            pair[0, i], pair[0, j] = 1.0, -1.0
            pairs.append(pair)
        expect = np.concatenate([gauss, np.stack(pairs)])
        D = _draw_coefficients(w, cfg)
        assert D.dtype == expect.dtype and D.shape == expect.shape == (cfg.trials + n - 1, 2, n)
        assert np.array_equal(D, expect)

    def test_draws_do_not_depend_on_trials(self):
        freqs = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])
        few = _draw_coefficients(freqs, gapped_config(trials=3))
        many = _draw_coefficients(freqs, gapped_config(trials=40))
        assert np.array_equal(few[:3], many[:3])
        assert np.array_equal(few[3:], many[40:])  # the cancelling pairs


class TestEstimateScalar:
    def test_single_frequency_envelope_collapses(self):
        cfg = InghamConfig(sigma=1.0, J=4, gamma=2.0, trials=50, seed=1)
        est = estimate_scalar(np.array([1.0]), cfg)
        expect = cfg.sigma * (2 * cfg.J + 1)
        assert est.c_lo == pytest.approx(expect, rel=1e-13)
        assert est.c_hi == pytest.approx(expect, rel=1e-13)
        assert est.n_active == 1

    def test_duplicated_frequency_cancels(self):
        # the adversarial draw (1, -1) on identical frequencies produces an
        # exactly vanishing exponential sum
        cfg = gapped_config(trials=50)
        est = estimate_scalar(np.array([1.0, 1.0]), cfg)
        assert est.c_lo == 0.0

    def test_two_sided_and_positive_for_gapped_family(self):
        freqs = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])
        cfg = gapped_config()
        est = estimate_scalar(freqs, cfg)
        assert 0.0 < est.c_lo <= est.c_hi
        # fresh draws land inside the envelope only up to sampling error,
        # but every individually computed ratio respects the bounds used
        rng = np.random.default_rng(99)
        for _ in range(20):
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            r = ingham_ratio_scalar(freqs, x, cfg)
            assert r > 0.0

    def test_boundary_coupled_spectrum_positive(self):
        sys_ = build_boundary_coupled_waves(ExampleParams(0.5, 1.0, 16))
        gap = check_gap(sys_).gamma
        est = estimate_scalar(sys_.mu, auto_config(sys_.mu, gap, trials=300))
        assert est.c_lo > 0.0

    def test_time_shift_stability(self):
        # the two-sided bounds are uniform in t: per-t minima stay positive
        # and comparable across shifts
        freqs = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])
        cfg = gapped_config(trials=100)
        rng = np.random.default_rng(12)
        draws = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(40)]
        t_values = [0.0] + list(rng.uniform(0.0, 2 * math.pi / cfg.gamma, size=10))
        minima = []
        for t in t_values:
            minima.append(min(ingham_ratio_scalar(freqs, x, cfg, t=t) for x in draws))
        minima = np.array(minima)
        assert np.all(minima > 0.0)
        assert np.max(minima) / np.min(minima) < 10.0

    def test_vector_valued_reduction(self):
        # Y-valued coefficients in an orthonormal frame: the vector ratio is
        # the coefficient-mass-weighted mix of the per-component ratios
        freqs = np.array([1.0, 3.5, 7.0])
        cfg = InghamConfig(sigma=0.3, J=9, gamma=1.2, trials=1, seed=0)
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        num = sum(sampled_sums(freqs, A[:, [c]], cfg)[0] for c in range(4))
        total = np.sum(np.abs(A) ** 2)
        vector_ratio = num / total
        mix = 0.0
        for c in range(4):
            w = np.sum(np.abs(A[:, c]) ** 2) / total
            mix += w * ingham_ratio_scalar(freqs, A[:, c], cfg)
        assert vector_ratio == pytest.approx(mix, rel=1e-12)


class TestQForm:
    def test_isolated_family_is_plain_mass(self):
        freqs = np.array([1.0, 5.0, 9.0])
        x = np.array([1.0 + 1j, -2.0, 0.5j])
        assert q_form(freqs, x, gamma1=2.0) == pytest.approx(
            float(np.sum(np.abs(x) ** 2)), rel=1e-15
        )

    def test_cancelling_cluster_value(self):
        g = 0.01
        freqs = np.array([5.0, 5.0 + g])
        x = np.array([1.0 + 0j, -1.0 + 0j])
        assert q_form(freqs, x, gamma1=1.0) == pytest.approx(2.0 * g**2, rel=1e-12)

    def test_zero(self):
        assert q_form(np.array([1.0, 1.005]), np.zeros(2), gamma1=1.0) == 0.0

    def test_degeneracy_iff_zero(self):
        # Q(x) = 0 with nonzero cluster gaps forces x = 0
        freqs = np.array([1.0, 1.02, 4.0])
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert q_form(freqs, x, gamma1=1.0) > 0.0


def q_reference(freqs, x, partition):
    """Q(x) summed cluster by cluster."""
    total = 0.0
    for cluster in partition:
        if len(cluster) == 1:
            total += abs(x[cluster[0]]) ** 2
        else:
            i, j = cluster
            gap = freqs[j] - freqs[i]
            total += abs(x[i] + x[j]) ** 2 + gap**2 * (abs(x[i]) ** 2 + abs(x[j]) ** 2)
    return total


class TestClusterMatrix:
    def test_batched_q_matches_per_column_q_form(self):
        sys_ = build_coupled_waves(ExampleParams(1.0, 1.0, 12))
        freqs = np.concatenate([sys_.mu, [sys_.mu[-1] + 40.0]])  # one isolated mode
        partition = cluster_partition(freqs, check_gap(sys_).gamma1)
        assert {len(c) for c in partition} == {1, 2}
        rng = np.random.default_rng(4)
        X = rng.standard_normal((freqs.size, 25)) + 1j * rng.standard_normal((freqs.size, 25))
        batched = np.sum(np.abs(_cluster_matrix(freqs, partition) @ X) ** 2, axis=0)
        per_column = np.array([q_form(freqs, X[:, c], partition=partition) for c in range(25)])
        reference = np.array([q_reference(freqs, X[:, c], partition) for c in range(25)])
        np.testing.assert_allclose(batched, per_column, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(batched, reference, rtol=1e-14, atol=0.0)

    def test_estimate_uses_q_form_per_draw(self):
        sys_ = build_coupled_waves(ExampleParams(1.0, 1.0, 8))
        gamma1 = check_gap(sys_).gamma1
        cfg = auto_config(sys_.mu, gamma1, trials=40, seed=9)
        partition = cluster_partition(sys_.mu, gamma1)
        assert support_threshold(cfg) >= np.max(sys_.mu)  # every mode is supported
        D = _draw_coefficients(sys_.mu, cfg)
        X = (D[:, 0] + 1j * D[:, 1]).T
        G = _gram(sys_.mu, cfg)
        num = np.array([np.real(np.vdot(x, G @ x)) for x in X.T])
        q = np.array([q_form(sys_.mu, x, partition=partition) for x in X.T])
        est = estimate_clustered(sys_.mu, cfg)
        assert est.sampled_lo == pytest.approx(float(np.min(num / q)), rel=1e-12)
        assert est.sampled_hi == pytest.approx(float(np.max(num / q)), rel=1e-12)

    def test_conventions_of_q_form_and_cluster_seminorm(self):
        # q_form charges g^2 (|x_k|^2 + |x_{k+1}|^2); cluster_seminorm
        # charges g^2 ||x_{k+1}||^2.  Pinned as they stand.
        g = 0.5
        freqs = np.array([2.0, 2.0 + g])
        a, b = 1.0 + 2.0j, -0.5 + 0.25j
        common = abs(a + b) ** 2
        assert q_form(freqs, np.array([a, b]), partition=((0, 1),)) == pytest.approx(
            common + g**2 * (abs(a) ** 2 + abs(b) ** 2), rel=1e-14
        )
        assert cluster_seminorm(freqs, np.array([[a], [b]]), ((0, 1),)) == pytest.approx(
            common + g**2 * abs(b) ** 2, rel=1e-14
        )
        assert np.array_equal(
            _cluster_matrix(freqs, ((0, 1),)), np.array([[1.0, 1.0], [g, 0.0], [0.0, g]])
        )


class TestEstimateClustered:
    def test_isolated_family_matches_scalar(self):
        freqs = np.array([1.0, 5.0, 9.0])
        cfg = InghamConfig(sigma=0.3, J=6, gamma=2.0, trials=100, seed=3)
        sc = estimate_scalar(freqs, cfg)
        cl = estimate_clustered(freqs, cfg)
        assert cl.c_lo == pytest.approx(sc.c_lo, rel=1e-12)
        assert cl.c_hi == pytest.approx(sc.c_hi, rel=1e-12)

    def test_coupled_waves_scalar_degrades_clustered_does_not(self):
        results = {}
        for k_max in (8, 32):
            sys_ = build_coupled_waves(ExampleParams(1.0, 1.0, k_max))
            gamma1 = check_gap(sys_).gamma1
            cfg = auto_config(sys_.mu, gamma1, trials=200, seed=7)
            results[k_max] = (
                estimate_scalar(sys_.mu, cfg).c_lo,
                estimate_clustered(sys_.mu, cfg).c_lo,
            )
        scalar8, clustered8 = results[8]
        scalar32, clustered32 = results[32]
        assert scalar8 > 10.0 * scalar32  # cancellation not seen by sum |x|^2
        assert clustered32 > 0.5  # Q(x) absorbs the cancellation
        assert clustered8 > 0.5

    def test_cancelling_draw_ratio_bounded(self):
        # on a tight cluster the cancelling draw shrinks numerator and Q alike
        g = 1e-3
        freqs = np.array([20.0, 20.0 + g])
        cfg = auto_config(freqs, 1.0, trials=10, seed=0)
        x = np.array([1.0 + 0j, -1.0 + 0j])
        num = cfg.sigma * np.sum(
            np.abs(np.exp(1j * np.outer(cfg.sigma * np.arange(-cfg.J, cfg.J + 1), freqs)) @ x) ** 2
        )
        q = q_form(freqs, x, gamma1=1.0)
        est = estimate_clustered(freqs, cfg)
        assert est.c_lo <= num / q <= est.c_hi
        assert est.c_lo > 0.0


class TestClusterSeminorm:
    def test_scalar_isolated(self):
        freqs = np.array([1.0, 4.0])
        x = np.array([[2.0], [3.0]])
        part = ((0,), (1,))
        assert cluster_seminorm(freqs, x, part) == pytest.approx(13.0, rel=1e-15)

    def test_cancelling_pair(self):
        g = 0.25
        freqs = np.array([3.0, 3.0 + g])
        x = np.array([[1.5], [-1.5]])
        part = ((0, 1),)
        assert cluster_seminorm(freqs, x, part) == pytest.approx(
            g**2 * 1.5**2, rel=1e-13
        )

    def test_zero_coefficients(self):
        assert cluster_seminorm(np.array([1.0, 1.1]), np.zeros((2, 3)), ((0, 1),)) == 0.0

    def test_gram_weighted_vectors(self):
        freqs = np.array([2.0, 2.2])
        gram = np.array([[2.0, 0.3], [0.3, 1.0]])
        u = np.array([1.0 + 0.5j, -0.25])
        v = np.array([0.5, 1.0 - 1j])
        got = cluster_seminorm(freqs, np.stack([u, v]), ((0, 1),), gram=gram)
        s = u + v
        expect = np.real(np.conj(s) @ gram @ s) + 0.2**2 * np.real(np.conj(v) @ gram @ v)
        assert got == pytest.approx(float(expect), rel=1e-13)
