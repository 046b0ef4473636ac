"""Example spectra: closed forms vs brute-force oracles, audits, filtering."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from helpers import physical_coupled_waves_energy

from polystab import (
    ConfigError,
    DomainError,
    ExampleParams,
    ModalState,
    ModalSystem,
    SchemeConfig,
    audit_spectrum,
    build_boundary_coupled_waves,
    build_coupled_waves,
    check_gap,
    check_obs_lower_bound,
    cluster_partition,
    factorize,
    filtering_cutoff,
    sine_overlap,
    worst_case_family,
)
from polystab.config import ExperimentConfig, InitBlock, build_init
from polystab.spectra import boundary_fixedpoint_residuals


class TestCoupledWaves:
    def test_branch_eigenvalues_match_block_diagonalization(self):
        # oracle: diagonalize the per-k 2x2 coupling block directly
        alpha, k_max = 1.0, 16
        sys_ = build_coupled_waves(ExampleParams(alpha, 1.0, k_max))
        for k in range(1, k_max + 1):
            block = np.array([[(k * np.pi) ** 2, alpha], [alpha, (k * np.pi) ** 2]])
            lam = np.linalg.eigvalsh(block)
            got = np.sort([sys_.eta[2 * k - 2], sys_.eta[2 * k - 1]])
            np.testing.assert_allclose(got, lam, rtol=1e-12)

    def test_small_alpha_limit(self):
        sys_ = build_coupled_waves(ExampleParams(1e-12, 2.0, 4))
        ks = np.arange(1, 5)
        base = np.repeat((ks * np.pi) ** 2, 2)
        np.testing.assert_allclose(sys_.eta, base, rtol=1e-10)
        # damping blocks do not depend on alpha
        assert sys_.damp_gram[0, 0] == pytest.approx(1.0)
        assert sys_.damp_gram[0, 1] == pytest.approx(-1.0)

    def test_first_plus_branch_frequency(self):
        sys_ = build_coupled_waves(ExampleParams(1.0, 1.0, 2))
        assert sys_.mu[1] == pytest.approx(math.sqrt(1.0 + math.pi**2), rel=1e-15)
        assert sys_.labels[1] == ("+", 1)

    def test_gram_block_spectrum(self):
        # per-cluster block [[g/2,-g/2],[-g/2,g/2]] has eigenvalues {0, g}
        gamma = 0.8
        sys_ = build_coupled_waves(ExampleParams(0.5, gamma, 3))
        block = sys_.damp_gram[:2, :2]
        lam = np.linalg.eigvalsh(block)
        np.testing.assert_allclose(lam, [0.0, gamma], atol=1e-15)

    def test_gram_psd(self):
        gamma = 1.3
        sys_ = build_coupled_waves(ExampleParams(0.5, gamma, 16))
        lam_min = np.linalg.eigvalsh(sys_.damp_gram)[0]
        assert lam_min >= -1e-12 * gamma

    def test_alpha_range_enforced(self):
        with pytest.raises(DomainError):
            build_coupled_waves(ExampleParams(math.pi**2, 1.0, 4))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_gamma_must_be_finite_and_nonnegative(self, gamma):
        with pytest.raises(DomainError, match="gamma must be nonnegative and finite; got"):
            ExampleParams(0.5, gamma, 4)


class TestBoundaryCoupledWaves:
    def test_fixed_point_residuals(self):
        p = ExampleParams(0.5, 1.0, 16)
        sys_ = build_boundary_coupled_waves(p)
        res = boundary_fixedpoint_residuals(p, sys_)
        assert np.max(res) <= 1e-12

    def test_interlacing_and_limit(self):
        p = ExampleParams(0.9, 1.0, 24)
        sys_ = build_boundary_coupled_waves(p)
        for j, (branch, k) in enumerate(sys_.labels):
            mid = 0.5 * math.pi + k * math.pi
            if branch == "-":
                assert sys_.mu[j] < mid
            else:
                assert sys_.mu[j] > mid
        # both branches approach pi/2 + k pi from either side
        gaps = [abs(sys_.mu[j] - (0.5 * math.pi + k * math.pi))
                for j, (_, k) in enumerate(sys_.labels)]
        assert gaps[-1] < gaps[0]

    def test_normalization_against_quadrature(self):
        # oracle: numerical quadrature of the squared eigenfunction pair
        p = ExampleParams(0.5, 1.0, 3)
        sys_ = build_boundary_coupled_waves(p)
        diag = sine_overlap(sys_.mu, sys_.mu)
        b = 1.0 / np.sqrt(2.0 * diag)
        for j in range(sys_.n):
            val, _ = quad(lambda x: 2.0 * b[j] ** 2 * np.sin(sys_.mu[j] * x) ** 2, 0.0, 1.0)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_overlap_closed_form_against_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, c = rng.uniform(0.5, 40.0, size=2)
            val, _ = quad(lambda x: np.sin(a * x) * np.sin(c * x), 0.0, 1.0,
                          limit=200)
            assert sine_overlap(a, c) == pytest.approx(val, abs=1e-10)
        # diagonal limit
        mu = 7.3
        val, _ = quad(lambda x: np.sin(mu * x) ** 2, 0.0, 1.0)
        assert sine_overlap(mu, mu) == pytest.approx(val, abs=1e-12)
        assert sine_overlap(mu, mu) == pytest.approx(
            0.5 - math.sin(2 * mu) / (4 * mu), rel=1e-14
        )

    def test_small_alpha_normalization_limit(self):
        sys_ = build_boundary_coupled_waves(ExampleParams(1e-10, 1.0, 2))
        b = 1.0 / np.sqrt(2.0 * sine_overlap(sys_.mu, sys_.mu))
        np.testing.assert_allclose(b, 1.0, atol=1e-9)

    def test_eigenfunction_orthonormality(self):
        # pairs (-+ sin, sin) b: Gram should be the identity
        sys_ = build_boundary_coupled_waves(ExampleParams(0.7, 1.0, 8))
        signs = np.array([1.0 if br == "-" else -1.0 for br, _ in sys_.labels])
        diag = sine_overlap(sys_.mu, sys_.mu)
        b = 1.0 / np.sqrt(2.0 * diag)
        S = sine_overlap(sys_.mu[:, None], sys_.mu[None, :])
        gram = (signs[:, None] * signs[None, :] + 1.0) * S * (b[:, None] * b[None, :])
        assert np.max(np.abs(gram - np.eye(sys_.n))) <= 1e-10

    def test_gram_psd_and_observation_norms(self):
        gamma = 2.0
        sys_ = build_boundary_coupled_waves(ExampleParams(0.5, gamma, 12))
        assert np.linalg.eigvalsh(sys_.damp_gram)[0] >= -1e-12 * gamma
        np.testing.assert_allclose(sys_.bstar_norms, math.sqrt(gamma / 2), rtol=1e-12)

    def test_alpha_range_enforced(self):
        with pytest.raises(DomainError):
            build_boundary_coupled_waves(ExampleParams(1.0, 1.0, 4))

    @pytest.mark.parametrize("k_max", [1, 16, 64])
    @pytest.mark.parametrize("alpha, gamma", [(0.5, 1.0), (0.9, 0.3), (0.1, 2.0), (0.5, 0.0)])
    def test_blocks_match_dense_gather(self, k_max, alpha, gamma):
        # the builder's blocks are those from_eta gathers from the dense Gram
        sys_ = build_boundary_coupled_waves(ExampleParams(alpha, gamma, k_max))
        ref = ModalSystem.from_eta(sys_.mu**2, sys_.damp_gram, sys_.labels, sys_.mu)
        assert len(sys_.blocks) == len(ref.blocks)
        for (idx, gram), (ref_idx, ref_gram) in zip(sys_.blocks, ref.blocks):
            assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
            assert gram.tobytes() == ref_gram.tobytes()
        assert sys_.bstar_norms.tobytes() == ref.bstar_norms.tobytes()
        assert sys_.labels == ref.labels


class TestGapAudit:
    def test_coupled_waves_pairwise_gap_shrinks(self):
        alpha = 1.0
        sys_ = build_coupled_waves(ExampleParams(alpha, 1.0, 32))
        audit = check_gap(sys_)
        k = 32
        expect = math.sqrt(k**2 * math.pi**2 + alpha) - math.sqrt(k**2 * math.pi**2 - alpha)
        assert audit.min_pairwise_gap == pytest.approx(expect, rel=1e-12)
        assert audit.min_pairwise_gap == pytest.approx(alpha / (k * math.pi), rel=1e-3)
        # growing the truncation shrinks the pairwise gap further
        audit64 = check_gap(build_coupled_waves(ExampleParams(alpha, 1.0, 64)))
        assert audit64.min_pairwise_gap < 0.51 * audit.min_pairwise_gap

    def test_weak_gap_2_stays_of_order_pi(self):
        sys_ = build_coupled_waves(ExampleParams(1.0, 1.0, 64))
        audit = check_gap(sys_)
        assert audit.weak_gap_2 >= 3.0
        assert audit.gamma1 == pytest.approx(audit.weak_gap_2 / 2, rel=1e-15)

    def test_single_frequency_convention(self):
        audit = check_gap(ModalSystem.from_eta([4.0]))
        assert math.isinf(audit.min_pairwise_gap)
        assert math.isinf(audit.weak_gap_2)

    def test_cluster_partition_rule(self):
        part = cluster_partition(np.array([1.0, 1.01, 4.0, 7.0, 7.02]), gamma1=1.0)
        assert part == ((0, 1), (2,), (3, 4))
        with pytest.raises(DomainError):
            cluster_partition(np.array([2.0, 1.0]), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cluster_partition_refuses_non_finite_frequencies(self, bad):
        with pytest.raises(DomainError, match="frequencies must be finite"):
            cluster_partition(np.array([1.0, bad, 3.0]), 1.0)

    def test_cluster_partition_gamma1(self):
        freqs = np.array([1.0, 1.01, 4.0])
        with pytest.raises(DomainError, match="gamma1 must not be NaN"):
            cluster_partition(freqs, math.nan)
        assert cluster_partition(freqs, math.inf) == ((0,), (1,), (2,))


class TestTwoClusterRule:
    """Fewer than 3 modes: ``gamma1`` is inf and no caller forms a 2-cluster."""

    def test_two_modes_form_no_cluster(self):
        sys_ = ModalSystem.from_eta([1.0, 4.0], damp_gram=[[0.5, 0.2], [0.2, 0.5]])
        assert math.isinf(check_gap(sys_).gamma1)
        assert cluster_partition(sys_.mu, check_gap(sys_).gamma1) == ((0,), (1,))
        with pytest.raises(ConfigError, match="no 2-clusters"):
            build_init(ExperimentConfig(init=InitBlock(kind="cluster_pair")), sys_)
        assert [label for label, _ in worst_case_family(sys_)] == ["mode[0]", "mode[1]"]
        obs = check_obs_lower_bound(sys_, beta=0.0)
        assert obs.partition == ((0,), (1,)) and obs.degenerate == ()
        assert obs.cluster_theta_hat == obs.theta_hat == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_three_modes_still_pair(self):
        sys_ = ModalSystem.from_eta(np.array([1.0, 1.01, 4.0]) ** 2)
        assert check_obs_lower_bound(sys_, beta=0.0).partition == ((0, 1), (2,))
        assert build_init(ExperimentConfig(init=InitBlock(kind="cluster_pair")), sys_).a.tolist() == [1.0, 1.0, 0.0]


def dense_with_zero_gap(seed):
    """Nine frequencies, at least 1 apart but for three pairs, one of them
    with zero gap, and a dense positive semi-definite damping Gram."""
    rng = np.random.default_rng(seed)
    mu = np.cumsum(rng.uniform(1.0, 2.0, 9))
    gaps = rng.uniform(0.0, 0.1, 3)
    gaps[rng.integers(3)] = 0.0
    mu[[1, 4, 7]] = mu[[0, 3, 6]] + gaps
    A = rng.standard_normal((9, 9))
    return ModalSystem.from_eta(mu**2, damp_gram=A @ A.T / 9)


class TestObsLowerBound:
    def test_single_mode_value(self):
        gamma = 1.0
        sys_ = ModalSystem.from_eta([math.pi**2], damp_gram=[[gamma / 2]])
        obs = check_obs_lower_bound(sys_, beta=0.0)
        assert obs.theta_hat == pytest.approx(math.sqrt(gamma / 2) * math.pi, rel=1e-14)
        assert obs.cluster_theta_hat == pytest.approx(obs.theta_hat, rel=1e-14)

    def test_no_damping_gives_zero(self):
        sys_ = ModalSystem.from_eta([1.0, 9.0])
        obs = check_obs_lower_bound(sys_, beta=0.0)
        assert obs.theta_hat == 0.0

    def test_cluster_bound_stable_under_truncation_growth(self):
        # the per-mode bound cannot distinguish the nearly-cancelling
        # cluster directions, but the clustered bound stays put
        vals = []
        for k_max in (8, 32, 64):
            sys_ = build_coupled_waves(ExampleParams(1.0, 1.0, k_max))
            vals.append(check_obs_lower_bound(sys_, beta=0.0).cluster_theta_hat)
        assert vals[0] == pytest.approx(vals[-1], rel=1e-9)
        assert vals[-1] > 0.4

    @pytest.mark.parametrize("build,arg,beta", [
        (build_coupled_waves, ExampleParams(0.5, 1.0, 8), 0.0),
        (build_coupled_waves, ExampleParams(0.5, 1.0, 64), 0.0),
        (build_boundary_coupled_waves, ExampleParams(0.5, 1.0, 16), 0.0),
        (build_boundary_coupled_waves, ExampleParams(0.5, 1.0, 256), 0.0),
        (dense_with_zero_gap, 0, 0.0), (dense_with_zero_gap, 1, 0.5),
        (dense_with_zero_gap, 21, 0.3),
    ], ids=["coupled_8", "coupled_64", "boundary_16", "boundary_256",
            "dense_0", "dense_1", "dense_21"])
    def test_cluster_grams_match_dense_indexing(self, build, arg, beta):
        # the bound computed cluster by cluster from the dense matrix, as
        # before the Gram was stored as group blocks and the 2x2 solves batched
        sys_ = build(arg)
        D, w = sys_.damp_gram, sys_.mu ** (2.0 * beta + 1.0)
        vals, degenerate = [], []
        for cluster in cluster_partition(sys_.mu, check_gap(sys_).gamma1):
            if len(cluster) == 1:
                vals.append(sys_.bstar_norms[cluster[0]] * w[cluster[0]])
                continue
            i, j = cluster
            gap = sys_.mu[j] - sys_.mu[i]
            if gap == 0.0:
                degenerate.append(cluster)
                continue
            M = D[np.ix_([i, j], [i, j])] + gap * gap * np.diag([0.0, D[j, j]])
            vals.append(math.sqrt(max(float(np.linalg.eigvalsh(M)[0]), 0.0)) * w[i])
        obs = check_obs_lower_bound(sys_, beta=beta)
        assert any(len(c) == 2 for c in obs.partition)
        assert bool(degenerate) == (build is dense_with_zero_gap)
        assert obs.degenerate == tuple(degenerate)
        assert obs.cluster_theta_hat == float(min(vals))
        assert obs.theta_hat == float(np.min(np.sqrt(np.diag(D)) * w))

    def test_singleton_cluster_value_is_its_mode_value(self):
        # both values scale by the same power, so they agree bit for bit
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            mu = np.cumsum(rng.uniform(1.0, 2.0, n)) + 0.5
            sys_ = ModalSystem.from_eta(mu**2, damp_gram=np.diag(rng.uniform(0.1, 2.0, n)))
            obs = check_obs_lower_bound(sys_, beta=rng.uniform(-0.45, 2.0))
            assert all(len(c) == 1 for c in obs.partition)
            assert obs.cluster_theta_hat == obs.theta_hat

    def test_degenerate_cluster_reported(self):
        eta = np.array([1.0, 1.0, 16.0])
        sys_ = ModalSystem.from_eta(eta, damp_gram=0.5 * np.eye(3))
        obs = check_obs_lower_bound(sys_, beta=0.0)
        assert obs.degenerate == ((0, 1),)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_nonfinite_beta_raises(self, beta):
        # NaN gave NaN constants and +inf gave +inf; the audit raises too
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        for call in (lambda: check_obs_lower_bound(sys_, beta),
                     lambda: audit_spectrum(sys_, beta, 0.1, 1.0)):
            with pytest.raises(DomainError, match="beta must be finite; got"):
                call()


class TestFilteringCutoff:
    def test_cutoff_definition(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        fc = filtering_cutoff(sys_, dt=0.1, delta=1.0)
        assert fc.cutoff == pytest.approx(10.0, rel=1e-15)
        assert np.all(sys_.mu[fc.retained] <= 10.0)
        assert np.all(np.delete(sys_.mu, fc.retained) > 10.0)

    def test_delta_out_of_range(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        fc = filtering_cutoff(sys_, dt=0.1, delta=1.0)
        with pytest.raises(DomainError):
            filtering_cutoff(sys_, dt=0.1, delta=fc.delta0)

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -0.1],
                             ids=["inf", "nan", "zero", "negative"])
    def test_bad_dt_rejected(self, dt):
        # dt = inf used to pass the dt > 0 test (cutoff 0, no mode retained)
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        with pytest.raises(DomainError, match="dt must be positive and finite; got"):
            filtering_cutoff(sys_, dt=dt, delta=1.0)

    def test_small_dt_retains_everything(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        fc = filtering_cutoff(sys_, dt=1e-4, delta=1.0)
        assert fc.retained.size == sys_.n

    def test_audit_report_fields(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        rep = audit_spectrum(sys_, beta=0.0, dt=0.01, delta=1.0)
        assert rep.cutoff == pytest.approx(100.0)
        assert rep.gamma1 > 1.0
        assert rep.retained_count == sys_.n
        assert math.isfinite(rep.theta_hat) and math.isfinite(rep.cluster_theta_hat)


class TestPhysicalSpaceOracle:
    def test_energy_traces_agree(self):
        # simulate the damped pair directly in the sine basis of each field
        # (no branch diagonalization) and compare energy traces
        alpha, gamma, k_max = 0.5, 1.0, 16
        dt, T = 0.01, 5.0
        sys_ = build_coupled_waves(ExampleParams(alpha, gamma, k_max))
        rng = np.random.default_rng(17)
        z0 = ModalState(rng.standard_normal(sys_.n), rng.standard_normal(sys_.n))
        trace = factorize(sys_, SchemeConfig(dt=dt, t_final=T)).run(z0)
        phys = physical_coupled_waves_energy(alpha, gamma, k_max, z0.a, z0.b, dt, T)
        assert phys.shape == trace.energy.shape
        assert np.max(np.abs(phys - trace.energy)) <= 1e-10 * trace.e0
