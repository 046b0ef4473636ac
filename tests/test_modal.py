"""Modal state space: graded norms, energy, projections."""

import copy
import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from helpers import apply_a, inner_h, modal_systems
from hypothesis import given, settings
from hypothesis import strategies as st

from polystab import SchemeConfig, SchemeSolver, factorize, modal
from polystab.spectra import ExampleParams, build_boundary_coupled_waves, build_coupled_waves
from polystab import (
    DimensionMismatchError,
    DomainError,
    ModalState,
    ModalSystem,
    NonFiniteStateError,
    energy,
    norm_domain,
    pair_norm_sq,
)


def make_system(eta, damp_gram=None):
    return ModalSystem.from_eta(np.asarray(eta, dtype=float), damp_gram=damp_gram)


def random_system(rng, n, with_damping=True):
    eta = np.sort(rng.uniform(0.5, 1e4, size=n))
    D = None
    if with_damping:
        R = rng.standard_normal((n, min(n, 4)))
        D = R @ R.T / n
    return ModalSystem.from_eta(eta, damp_gram=D)


def random_state(rng, n):
    return ModalState(rng.standard_normal(n), rng.standard_normal(n))


def norm_graded(sys_, w, s):
    """Graded norm ``sqrt(sum eta^{2s} w^2)``: the pair norm of (w, 0) on
    the ``-s`` scale."""
    return float(np.sqrt(pair_norm_sq(sys_, w, np.zeros_like(w), -s)))


def norm_pair(sys_, z, beta):
    """Pair norm ``sqrt(||a||_{-beta}^2 + ||b||_{-beta-1/2}^2)``."""
    return float(np.sqrt(pair_norm_sq(sys_, z.a, z.b, beta)))


class TestNormGraded:
    def test_zero_vector(self):
        sys_ = make_system([2.0, 5.0])
        for s in (-1.0, 0.0, 0.5, 2.0):
            assert norm_graded(sys_, np.zeros(2), s) == 0.0

    def test_hand_value(self):
        # sum eta^{2s} w^2 with eta=(1,4), s=-1/2: 1 + 1/4
        sys_ = make_system([1.0, 4.0])
        got = norm_graded(sys_, np.array([1.0, 1.0]), -0.5)
        assert got == pytest.approx(math.sqrt(1.25), rel=1e-15)

    def test_unit_eta_scale_free(self):
        sys_ = make_system([1.0])
        for s in (-3.0, 0.0, 1.7):
            assert norm_graded(sys_, np.array([3.0]), s) == pytest.approx(3.0, rel=1e-15)

    def test_dimension_mismatch(self):
        sys_ = make_system([1.0, 2.0])
        for norm in (norm_domain, energy):
            with pytest.raises(DimensionMismatchError) as err:
                norm(sys_, ModalState(np.ones(3), np.ones(3)))
            assert err.value.expected == 2
            assert err.value.actual == 3

    def test_monotone_in_scale_for_mu_above_one(self):
        rng = np.random.default_rng(7)
        eta = np.sort(rng.uniform(1.0, 50.0, size=12))  # mu >= 1
        sys_ = ModalSystem.from_eta(eta)
        for _ in range(50):
            w = rng.standard_normal(12)
            s1, s2 = np.sort(rng.uniform(-2.0, 2.0, size=2))
            assert norm_graded(sys_, w, s1) <= norm_graded(sys_, w, s2) * (1 + 1e-12)


class TestNormPair:
    def test_zero_state(self):
        sys_ = make_system([4.0])
        assert norm_pair(sys_, ModalState.zero(1), 0.0) == 0.0

    def test_displacement_only(self):
        sys_ = make_system([4.0])
        st = ModalState([1.0], [0.0])
        assert norm_pair(sys_, st, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_velocity_only(self):
        # eta^{-1} b^2 = 4/4 = 1
        sys_ = make_system([4.0])
        st = ModalState([0.0], [2.0])
        assert norm_pair(sys_, st, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_h_norm_is_energy_norm(self):
        rng = np.random.default_rng(3)
        for n in (1, 8, 512):
            sys_ = random_system(rng, n, with_damping=False)
            st = random_state(rng, n)
            assert energy(sys_, st) == pytest.approx(
                0.5 * norm_pair(sys_, st, -0.5) ** 2, rel=1e-14
            )


class TestPairWeightRange:
    """A beta whose pair-norm weight overflows or underflows is refused."""

    @staticmethod
    def high_state():
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 64))
        rng = np.random.default_rng(4)
        high = sys_.mu > 100.0
        return sys_, *(np.where(high, rng.standard_normal(sys_.n), 0.0) for _ in "ab")

    @pytest.mark.parametrize("beta", [-40.0, 40.0, 80.0])
    def test_out_of_range_beta_refused(self, beta):
        # at -40 eta^(-2 beta) overflows, which times a zero mode is nan; at
        # 40 and 80 eta^(-2 beta - 1) underflows to 0 on the largest modes
        sys_, a, b = self.high_state()
        with pytest.raises(DomainError, match=f"beta = {beta!r} is out of range"):
            pair_norm_sq(sys_, a, b, beta)

    @pytest.mark.parametrize("beta", [-0.25, 0.0, 0.5])
    def test_in_range_values_unchanged(self, beta):
        sys_, a, b = self.high_state()
        eta = sys_.eta
        want = np.sum(eta ** (-2.0 * beta) * a**2) + np.sum(eta ** (-2.0 * beta - 1.0) * b**2)
        assert pair_norm_sq(sys_, a, b, beta) == want
        batch = pair_norm_sq(sys_, np.stack([a, b], axis=1), np.stack([b, a], axis=1), beta)
        assert batch[0] == pytest.approx(want, rel=1e-14)  # summed down a column


class TestNormDomain:
    def test_values(self):
        assert norm_domain(make_system([1.0]), ModalState.zero(1)) == 0.0
        assert norm_domain(make_system([1.0]), ModalState([1.0], [1.0])) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )
        assert norm_domain(make_system([4.0]), ModalState([1.0], [1.0])) == pytest.approx(
            math.sqrt(20.0), rel=1e-15
        )


class TestEnergy:
    def test_values(self):
        assert energy(make_system([math.pi**2]), ModalState([1.0], [0.0])) == pytest.approx(
            math.pi**2 / 2, rel=1e-15
        )
        assert energy(make_system([1.0]), ModalState([0.0], [2.0])) == pytest.approx(
            2.0, rel=1e-15
        )
        assert energy(make_system([1.0]), ModalState.zero(1)) == 0.0


class TestApplyA:
    def test_skew_adjoint(self):
        rng = np.random.default_rng(5)
        for n in (2, 64, 256):
            sys_ = random_system(rng, n, with_damping=False)
            z = random_state(rng, n)
            h_sq = norm_pair(sys_, z, -0.5) ** 2
            assert abs(inner_h(sys_, apply_a(sys_, z), z)) <= 1e-12 * h_sq


class TestValidation:
    def test_eta_must_be_sorted_positive(self):
        with pytest.raises(DomainError):
            ModalSystem.from_eta([2.0, 1.0])
        with pytest.raises(DomainError):
            ModalSystem.from_eta([0.0, 1.0])
        with pytest.raises(NonFiniteStateError):
            ModalSystem.from_eta([1.0, np.nan])

    def test_gram_must_be_symmetric_psd(self):
        with pytest.raises(DomainError):
            ModalSystem.from_eta([1.0, 2.0], damp_gram=[[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DomainError):
            ModalSystem.from_eta([1.0, 2.0], damp_gram=[[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("D", [5.0, [1.0, 2.0], np.eye(3)], ids=["scalar", "vector", "3x3"])
    def test_gram_shape_mismatch(self, D):
        with pytest.raises(DimensionMismatchError, match="damp_gram rows: expected length 2"):
            ModalSystem.from_eta([1.0, 2.0], damp_gram=D)

    def test_bstar_norms_match_diagonal(self):
        D = np.array([[2.0, 0.0], [0.0, 0.5]])
        sys_ = ModalSystem.from_eta([1.0, 2.0], damp_gram=D)
        assert np.allclose(sys_.bstar_norms**2, np.diag(D), rtol=1e-14)

    def test_state_rejects_nonfinite_and_mismatch(self):
        with pytest.raises(NonFiniteStateError):
            ModalState([np.nan], [0.0])
        with pytest.raises(DimensionMismatchError):
            ModalState([1.0, 2.0], [0.0])
        sys_ = make_system([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            energy(sys_, ModalState([1.0], [1.0]))

    def test_mu_eta_consistency(self):
        rng = np.random.default_rng(1)
        eta = np.sort(rng.uniform(0.1, 1e6, size=64))
        sys_ = ModalSystem.from_eta(eta)
        assert np.max(np.abs(sys_.mu**2 - sys_.eta)) <= 4 * np.finfo(float).eps * eta[-1]


def dense_blocks(D):
    """The group blocks of a dense Gram, gathered as ``from_eta`` gathers them."""
    D = np.asarray(D, dtype=float)
    return [(idx, D[idx[:, :, None], idx[:, None, :]])
            for idx in modal.groups_by_size(modal.mode_groups(D))]


# inputs that ``from_eta`` refuses: eta, and optionally a dense Gram, labels, mu
INVALID = {
    "nonfinite_eta": {"eta": [1.0, np.nan]},
    "nonpositive_eta": {"eta": [0.0, 1.0]},
    "decreasing_eta": {"eta": [2.0, 1.0]},
    "eta_2d": {"eta": [[1.0, 2.0]]},
    "empty_eta": {"eta": []},
    "mu_inconsistent": {"eta": [1.0, 4.0], "mu": [1.0, 2.1]},
    "mu_length": {"eta": [1.0, 4.0], "mu": [1.0]},
    "labels_length": {"eta": [1.0, 4.0], "labels": ("a",)},
    "nonfinite_block": {"eta": [1.0, 4.0], "D": [[np.inf, 0.1], [0.1, 1.0]]},
    "asymmetric_block": {"eta": [1.0, 4.0], "D": [[1.0, 0.5], [0.2, 1.0]]},
    "indefinite_block": {"eta": [1.0, 4.0], "D": [[1.0, 2.0], [2.0, 1.0]]},
}


class TestConstructor:
    """``ModalSystem(eta, blocks, labels, mu)`` is the one validated path."""

    @pytest.mark.parametrize("case", INVALID.values(), ids=INVALID)
    def test_refuses_what_from_eta_refuses(self, case):
        eta, labels, mu = case["eta"], case.get("labels", ()), case.get("mu")
        D = case.get("D", np.zeros((np.size(eta), np.size(eta))))
        with pytest.raises((DomainError, NonFiniteStateError, DimensionMismatchError)) as want:
            ModalSystem.from_eta(eta, case.get("D"), labels, mu)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            ModalSystem(eta, dense_blocks(D), labels, mu)

    @pytest.mark.parametrize("idx", [
        [[0], [1]],  # misses mode 2
        [[0], [1], [1]],  # repeats mode 1, misses mode 2
        [[0], [1], [2], [1]],  # repeats mode 1
        [[0], [1], [3]],  # past the last mode
        [[0], [1], [-1]],
    ])
    def test_refuses_stacks_that_do_not_cover_each_mode_once(self, idx):
        idx = np.array(idx)
        with pytest.raises(DomainError, match="cover each of the 3 modes exactly once"):
            ModalSystem([1.0, 4.0, 9.0], [(idx, np.ones((len(idx), 1, 1)))])

    def test_a_missed_mode_cannot_vanish(self):
        # mode 1 of a 2-mode system in no block: refused, not run with its
        # energy silently dropped
        with pytest.raises(DomainError, match="exactly once"):
            ModalSystem([1.0, 4.0], [(np.array([[0]]), np.ones((1, 1, 1)))])
        with pytest.raises(DomainError, match="exactly once"):
            ModalSystem([1.0, 4.0], [(np.array([[0]]), np.ones((1, 1, 1))),
                                     (np.array([[0, 1]]), np.eye(2)[None])])

    @pytest.mark.parametrize("blocks", [
        [(np.array([[0.0], [1.0]]), np.zeros((2, 1, 1)))],  # float indices
        [(np.array([0, 1]), np.zeros((2, 1, 1)))],  # 1-d stack
        [(np.array([[0, 1]]), np.zeros((1, 1, 1)))],  # gram of the wrong shape
        [(np.zeros((0, 1), int), np.zeros((0, 1, 1))), (np.array([[0, 1]]), np.eye(2)[None])],
    ], ids=["float", "1d", "gram_shape", "empty_stack"])
    def test_refuses_malformed_blocks(self, blocks):
        with pytest.raises(DomainError, match="index stack"):
            ModalSystem([1.0, 4.0], blocks)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sys_=st.one_of(
        modal_systems(),
        *(st.builds(build, st.builds(ExampleParams, st.floats(0.1, 0.9),
                                     st.sampled_from([0.0, 0.3, 1.0]), st.integers(1, 8)))
          for build in (build_coupled_waves, build_boundary_coupled_waves))))
    def test_rebuild_is_byte_identical(self, sys_):
        other = ModalSystem(sys_.eta, sys_.blocks, sys_.labels, sys_.mu)
        for (idx, gram), (idx2, gram2) in zip(sys_.blocks, other.blocks, strict=True):
            assert idx.dtype == idx2.dtype and idx.shape == idx2.shape
            assert idx.tobytes() == idx2.tobytes()
            assert gram.shape == gram2.shape and gram.tobytes() == gram2.tobytes()
            # read-only copies of what was passed
            assert not (idx2.flags.writeable or gram2.flags.writeable)
            assert not np.shares_memory(gram, gram2)
        for name in ("eta", "mu", "bstar_norms", "damp_gram"):
            assert getattr(sys_, name).tobytes() == getattr(other, name).tobytes(), name
        assert other.labels == sys_.labels
        cfg = SchemeConfig(dt=0.01, t_final=0.01)
        for M, M2 in zip(SchemeSolver(sys_, cfg)._doubled(1), SchemeSolver(other, cfg)._doubled(1),
                         strict=True):
            assert M.tobytes() == M2.tobytes()


class TestIdentity:
    """Systems and states compare and hash by identity: their array fields
    have no truth value, so field-wise ``==`` would raise, and ``hash``
    would hash unhashable arrays."""

    def test_equal_only_to_itself_and_hashable(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 3))
        z = ModalState(np.arange(1.0, sys_.n + 1), np.zeros(sys_.n))
        for a in (sys_, z):
            twin = copy.copy(a)
            assert a == a and not a != a
            assert a != twin and not a == twin
            assert hash(a) == hash(a) and {a, a, twin} == {a, twin}
        # a step record holding a state compares and hashes through it
        rec = factorize(sys_, SchemeConfig(dt=0.1, t_final=1.0)).step(z)
        assert rec == rec and rec != dataclasses.replace(rec, z_next=copy.copy(rec.z_next))
        assert {rec, rec} == {rec}


def permuted_block_gram(rng, spectra):
    """Symmetric Gram with one random diagonal block per eigenvalue list in
    ``spectra``, under a random permutation; returns ``(D, perm)`` where the
    new index i holds the old mode ``perm[i]``."""
    n = sum(len(lam) for lam in spectra)
    D = np.zeros((n, n))
    start = 0
    for lam in spectra:
        s = len(lam)
        Q = np.linalg.qr(rng.standard_normal((s, s)))[0]
        blk = (Q * lam) @ Q.T
        D[start:start + s, start:start + s] = 0.5 * (blk + blk.T)
        start += s
    perm = rng.permutation(n)
    return D[np.ix_(perm, perm)], perm


class TestGramBlockChecks:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["blocks", "dense", "zero", "asymmetric", "indefinite"]),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
        log_scale=st.floats(-6.0, 6.0),
    )
    def test_group_minimum_matches_dense_eigvalsh(self, seed, shape, sizes, log_scale):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        if shape == "dense":
            sizes = [n]
        # PSD blocks of random rank, or eigenvalues of both signs
        low = -1.0 if shape == "indefinite" else 0.0
        spectra = [rng.uniform(low, 1.0, s) * (rng.random(s) < 0.7) for s in sizes]
        D = 10.0**log_scale * permuted_block_gram(rng, spectra)[0]
        if shape == "zero":
            D[:] = 0.0
        if shape == "asymmetric":
            # entries off by up to 0.4e-14 relative, some where D.T is zero
            mask = rng.random((n, n)) < 0.3
            D = D + 0.4e-14 * np.abs(D).max() * rng.uniform(-1.0, 1.0, (n, n)) * mask
        scale = np.abs(D).max()
        got_scale, asym, lam_min = modal._gram_extremes(dense_blocks(D))
        dense_min = np.linalg.eigvalsh(D)[0]
        assert got_scale == scale
        assert asym == np.abs(D - D.T).max()
        assert abs(lam_min - dense_min) <= 1e-12 * scale
        if dense_min < -1e-12 * scale:
            with pytest.raises(DomainError, match="not positive semidefinite"):
                ModalSystem.from_eta(np.arange(1.0, n + 1.0), damp_gram=D)
        else:
            sys_ = ModalSystem.from_eta(np.arange(1.0, n + 1.0), damp_gram=D)
            groups = modal.mode_groups(D)
            assert [g.tolist() for g in sys_.groups] == [g.tolist() for g in groups]

    @pytest.mark.parametrize("t,ok", [(-1e-11, False), (-1e-13, True)])
    def test_one_indefinite_group(self, t, ok):
        # the 2-mode group of old modes 6 and 7 gets the eigenvalue
        # t * scale; the groups of sizes 1, 2 and 3 around it stay PSD, and
        # the tolerance is -1e-12 * scale
        spectra = [[1.0, 0.5], [0.7], [1.0, 0.3, 0.2], [0.0, 0.8], [0.4]]
        D, perm = permuted_block_gram(np.random.default_rng(11), spectra)
        grp = np.flatnonzero((perm == 6) | (perm == 7))
        v = np.zeros(D.shape[0])
        v[grp] = np.linalg.eigh(D[np.ix_(grp, grp)])[1][:, 0]
        D += t * np.abs(D).max() * np.outer(v, v)
        D = 0.5 * (D + D.T)
        if ok:
            ModalSystem.from_eta(np.arange(1.0, 10.0), damp_gram=D)
        else:
            with pytest.raises(DomainError, match="not positive semidefinite"):
                ModalSystem.from_eta(np.arange(1.0, 10.0), damp_gram=D)

    @pytest.mark.parametrize("entry", [(2, 0), (0, 2)])
    def test_asymmetry_across_groups_raises(self, entry):
        D = np.diag([1.0, 2.0, 3.0])
        D[entry] = 0.5
        with pytest.raises(DomainError, match="not symmetric"):
            ModalSystem.from_eta([1.0, 2.0, 3.0], damp_gram=D)

    def test_groups_stored_on_system(self):
        D = permuted_block_gram(np.random.default_rng(4), [[1.0, 0.5], [2.0], [1.0, 0.0, 3.0]])[0]
        sys_ = ModalSystem.from_eta(np.arange(1.0, 7.0), damp_gram=D)
        assert [g.tolist() for g in sys_.groups] == [g.tolist() for g in modal.mode_groups(D)]
        assert not any(g.flags.writeable for g in sys_.groups)
        # a read-only property read from the blocks, not a field
        assert "groups" not in repr(sys_)
        assert "groups" not in {f.name for f in dataclasses.fields(ModalSystem)}
        assert isinstance(vars(ModalSystem)["groups"], property)
        with pytest.raises(AttributeError):
            sys_.groups = ()


class TestGramBlockStorage:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sys_=modal_systems())
    def test_blocks_are_dense_gram_gathers(self, sys_):
        D = sys_.damp_gram
        n = sys_.n
        assert [g.tolist() for g in sys_.groups] == [g.tolist() for g in modal.mode_groups(D)]
        for idx, gram in sys_.blocks:
            # the blocks are the dense Gram's gathered (g, s, s) blocks
            assert gram.tobytes() == D[idx[:, :, None], idx[:, None, :]].tobytes()
            assert not gram.flags.writeable
        # entries read back from the blocks, inside and across groups
        rows, cols = np.divmod(np.arange(n * n), n)
        assert sys_.gram_at(rows, cols).tobytes() == D.reshape(-1).tobytes()

    def test_coupled_waves_build_matches_dense_build(self):
        cfg = SchemeConfig(dt=0.01, t_final=0.01)
        for k_max, gamma in itertools.product([1, 8, 64], [0.0, 0.3, 1.0]):
            sys_ = build_coupled_waves(ExampleParams(0.5, gamma, k_max))
            other = ModalSystem.from_eta(sys_.eta, sys_.damp_gram)
            for (idx, gram), (idx2, gram2) in zip(sys_.blocks, other.blocks, strict=True):
                assert idx.dtype == idx2.dtype and idx.tobytes() == idx2.tobytes()
                assert gram.shape == gram2.shape and gram.tobytes() == gram2.tobytes()
            # the idx stacks cover every mode exactly once
            modes = np.concatenate([idx.ravel() for idx, _ in sys_.blocks])
            assert np.array_equal(np.sort(modes), np.arange(sys_.n))
            assert [g.tolist() for g in sys_.groups] == [g.tolist() for g in other.groups]
            assert sys_.bstar_norms.tobytes() == other.bstar_norms.tobytes()
            assert sys_.damp_gram.tobytes() == other.damp_gram.tobytes()
            maps = SchemeSolver(sys_, cfg)._doubled(1)
            for M, M2 in zip(maps, SchemeSolver(other, cfg)._doubled(1), strict=True):
                assert M.tobytes() == M2.tobytes()

    def test_undamped_coupled_waves_are_singletons(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 0.0, 8))
        assert [g.tolist() for g in sys_.groups] == [[j] for j in range(16)]
        ((idx, gram),) = sys_.blocks
        assert idx.shape == (16, 1) and not gram.any()
        assert not sys_.bstar_norms.any()

    def test_coupled_waves_build_forms_no_dense_gram(self):
        # n = 4096: a dense Gram and its copy would allocate 2 x 128 MiB
        build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        tracemalloc.start()
        try:
            sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sys_.n == 4096 and len(sys_.groups) == 2048
        assert peak < 4 * 2**20
