"""Two-stage steppers: hand values, energy identity, conservation, multiplier."""

import dataclasses
import math

import numpy as np
import pytest
from helpers import (block_schedule, inner_h, modal_systems, scalar_two_stage_step,
                     stage1_matrix, time_steps)
from hypothesis import given, settings
from hypothesis import strategies as st

from polystab import modal, schemes
from polystab import (
    DiagnosticFailure,
    DimensionMismatchError,
    DomainError,
    ModalState,
    ModalSystem,
    NonFiniteStateError,
    SchemeConfig,
    energy,
    factorize,
    modal_multiplier,
    build_coupled_waves,
    build_boundary_coupled_waves,
    ExampleParams,
    filtering_cutoff,
    observation_time,
    substep_count,
    uniform_decay_study,
    worst_case_family,
)


def random_system(rng, n, damped=True):
    eta = np.sort(rng.uniform(0.5, 2e3, size=n))
    D = None
    if damped:
        R = rng.standard_normal((n, min(n, 6)))
        D = R @ R.T / n
    return ModalSystem.from_eta(eta, damp_gram=D)


def random_state(rng, n):
    return ModalState(rng.standard_normal(n), rng.standard_normal(n))


def midpoint_stage(sol, z):
    """The midpoint stage z~ of ``sol``'s step from ``z``: the step of the
    same config with the viscosity stage off."""
    return factorize(sol.sys, dataclasses.replace(sol.cfg, viscosity=False)).step(z).z_next


# per-step values of a ``(k, block, row)`` step tuple: (array of its time
# block, row offset from ``row``); the state arrays hold x_k at ``row`` and
# x_{k+1} at ``row + 1``.  A damped solver's damping term is ``observed``;
# an undamped one's is zero.
RAW_FIELDS = {"energy_prev": ("energy", 0), "energy": ("energy", 1),
              "weak_sq_prev": ("weak_sq", 0), "weak_sq": ("weak_sq", 1),
              "visc1": ("visc1", 0), "visc2": ("visc2", 0),
              "observed_damp": ("observed", 0), "identity_residual": ("resid", 0)}


def raw(rec, name):
    """The (m,) row of its time block that the step tuple ``rec`` points at."""
    _, block, row = rec
    array, offset = RAW_FIELDS[name]
    return getattr(block, array)[row + offset]


class TestFactorize:
    def test_single_mode_stage_matrices(self):
        sys_ = ModalSystem.from_eta([1.0])
        sol = factorize(sys_, SchemeConfig(dt=2.0, t_final=2.0))
        assert np.array_equal(stage1_matrix(sys_, 2.0, damped=False), [[1.0, -1.0], [1.0, 1.0]])
        # viscosity stage: z+ = z~ / (1 + dt^3 eta) = z~ / 9
        z = ModalState([1.0], [0.5])
        rec = sol.step(z)
        np.testing.assert_allclose(rec.z_next.stacked(), midpoint_stage(sol, z).stacked() / 9.0,
                                   rtol=1e-15)

    def test_damping_flag_off_ignores_gram(self):
        eta = [1.0, 4.0]
        D = [[0.3, 0.1], [0.1, 0.5]]
        with_d = ModalSystem.from_eta(eta, damp_gram=D)
        without = ModalSystem.from_eta(eta)
        cfg = SchemeConfig(dt=0.3, t_final=1.0, damping=False)
        z = ModalState([1.0, -2.0], [0.5, 0.25])
        r1 = factorize(with_d, cfg).step(z)
        r2 = factorize(without, cfg).step(z)
        assert np.array_equal(r1.z_next.a, r2.z_next.a)
        assert np.array_equal(r1.z_next.b, r2.z_next.b)
        assert r1.damp_term == 0.0

    def test_small_dt_viscosity_limit(self):
        sys_ = ModalSystem.from_eta([50.0])
        sol = factorize(sys_, SchemeConfig(dt=1e-5, t_final=1.0))
        z = ModalState([1.0], [1.0])
        ratio = sol.step(z).z_next.stacked() / midpoint_stage(sol, z).stacked()
        np.testing.assert_allclose(ratio, 1.0, rtol=0.0, atol=1e-9)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SchemeConfig(dt=0.0, t_final=1.0)
        with pytest.raises(DomainError):
            SchemeConfig(dt=1.0, t_final=0.5)
        with pytest.raises(TypeError):  # the audit tolerance is no config field
            SchemeConfig(dt=0.1, t_final=1.0, solve_tol=1e-3)


class TestStepHandValues:
    def test_single_mode_two_stage(self):
        # midpoint rotation of (1, 0) through 2*atan(1/2), then the 1/(1+1)
        # diagonal viscosity factor
        sys_ = ModalSystem.from_eta([1.0])
        sol = factorize(sys_, SchemeConfig(dt=1.0, t_final=1.0))
        z = ModalState([1.0], [0.0])
        rec, z_tilde = sol.step(z), midpoint_stage(sol, z)
        assert z_tilde.a[0] == pytest.approx(0.6, rel=1e-15)
        assert z_tilde.b[0] == pytest.approx(-0.8, rel=1e-15)
        assert rec.z_next.a[0] == pytest.approx(0.3, rel=1e-15)
        assert rec.z_next.b[0] == pytest.approx(-0.4, rel=1e-15)

    def test_conservative_viscosity_factor_value(self):
        # mode mu=10, dt=0.1: both blocks scale by 1/(1 + 0.001*100) = 1/1.1
        sys_ = ModalSystem.from_eta([100.0])
        sol = factorize(sys_, SchemeConfig(dt=0.1, t_final=1.0, damping=False))
        z = ModalState([1.0], [1.0])
        rec, z_tilde = sol.step(z), midpoint_stage(sol, z)
        np.testing.assert_allclose(rec.z_next.a, z_tilde.a / 1.1, rtol=1e-15)
        np.testing.assert_allclose(rec.z_next.b, z_tilde.b / 1.1, rtol=1e-15)

    def test_zero_state_fixed_point(self):
        sys_ = ModalSystem.from_eta([2.0])
        sol = factorize(sys_, SchemeConfig(dt=0.5, t_final=1.0, damping=False))
        rec = sol.step(ModalState.zero(1))
        assert not rec.z_next.a.any() and not rec.z_next.b.any()

    def test_dense_path_matches_scalar_solves(self):
        # diagonal damping Gram decouples the modes: the dense LU path must
        # reproduce per-mode solves of the defining stage equations
        eta = np.array([1.0, 9.0, 40.0])
        dvals = np.array([0.7, 0.2, 1.3])
        sys_ = ModalSystem.from_eta(eta, damp_gram=np.diag(dvals))
        dt = 0.23
        sol = factorize(sys_, SchemeConfig(dt=dt, t_final=1.0))
        rng = np.random.default_rng(0)
        z = random_state(rng, 3)
        rec, z_tilde = sol.step(z), midpoint_stage(sol, z)
        for j in range(3):
            at, bt, an, bn = scalar_two_stage_step(eta[j], dvals[j], z.a[j], z.b[j], dt)
            assert z_tilde.a[j] == pytest.approx(at, rel=1e-13)
            assert z_tilde.b[j] == pytest.approx(bt, rel=1e-13)
            assert rec.z_next.a[j] == pytest.approx(an, rel=1e-13)
            assert rec.z_next.b[j] == pytest.approx(bn, rel=1e-13)

    def test_step_states_read_only_and_unaliased(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        sol = factorize(sys_, SchemeConfig(dt=0.05, t_final=1.0))
        z = random_state(np.random.default_rng(6), sys_.n)
        conservative = factorize(sys_, dataclasses.replace(sol.cfg, damping=False))
        midpoint = factorize(sys_, dataclasses.replace(sol.cfg, damping=False, viscosity=False))
        rec, z_tilde = sol.step(z), midpoint_stage(sol, z)
        kept = [z_tilde.stacked(), rec.z_next.stacked()]
        later = [sol.step(rec.z_next), conservative.step(z)]
        states = [z_tilde, rec.z_next, midpoint.step(z).z_next, sol.run(z).final_state]
        states += [r.z_next for r in later]
        for st_ in states:
            for arr in (st_.a, st_.b):
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        # later steps reuse no buffer of an earlier state
        assert np.array_equal(z_tilde.stacked(), kept[0])
        assert np.array_equal(rec.z_next.stacked(), kept[1])
        arrays = [z.a, z.b] + [arr for st_ in states for arr in (st_.a, st_.b)]
        for i, u in enumerate(arrays):
            assert not any(np.shares_memory(u, v) for v in arrays[i + 1:])


class TestStageSolveProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        gram=st.sampled_from(["dense", "zero"]),
        log_dt=st.floats(-3.0, -1.0),
        log_scale=st.floats(-2.0, 1.0),
    )
    def test_matches_dense_stage_solve(self, seed, n, gram, log_dt, log_scale):
        rng = np.random.default_rng(seed)
        eta = np.sort(10.0 ** rng.uniform(-4.0, 4.0, n))
        if n >= 2:
            eta[[0, -1]] = 1e-4, 1e4  # eta spans 8 decades
        D = None
        if gram == "dense":
            R = 10.0**log_scale * rng.standard_normal((n, rng.integers(1, n + 1)))
            D = R @ R.T
            D = 0.5 * (D + D.T)
        sys_ = ModalSystem.from_eta(eta, damp_gram=D)
        cfg = SchemeConfig(dt=10.0**log_dt, t_final=1.0)
        sol = factorize(sys_, cfg)

        def e_norm(v):
            return math.sqrt(np.sum(eta * v[:n] ** 2) + np.sum(v[n:] ** 2))

        z = random_state(rng, n)
        e0 = energy(sys_, z)
        M = stage1_matrix(sys_, cfg.dt)
        for _ in range(3):
            x = z.stacked()
            ref = np.linalg.solve(M, (2.0 * np.eye(2 * n) - M) @ x)
            rec, z_tilde = sol.step(z), midpoint_stage(sol, z)
            assert e_norm(z_tilde.stacked() - ref) <= 1e-12 * e_norm(x)
            m = 0.5 * (z.b + z_tilde.b)
            a, b = rec.z_next.a, rec.z_next.b
            lhs = (energy(sys_, rec.z_next) + cfg.dt * float(m @ sys_.damp_gram @ m)
                   + cfg.dt**3 * float(np.sum(eta**2 * a**2) + np.sum(eta * b**2))
                   + 0.5 * cfg.dt**6 * float(np.sum(eta**3 * a**2) + np.sum(eta**2 * b**2)))
            assert abs(lhs - energy(sys_, z)) <= 1e-12 * e0
            assert rec.identity_residual <= 1e-12 * e0
            z = rec.z_next


class TestModeGroups:
    def test_coupled_waves_pairs(self):
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=8))
        groups = modal.mode_groups(sys_.damp_gram)
        assert [g.tolist() for g in groups] == [[2 * k, 2 * k + 1] for k in range(8)]

    def test_undamped_singletons(self):
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=0.0, k_max=8))
        groups = modal.mode_groups(sys_.damp_gram)
        assert [g.tolist() for g in groups] == [[j] for j in range(16)]

    def test_boundary_system_one_group(self):
        sys_ = build_boundary_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=8))
        groups = modal.mode_groups(sys_.damp_gram)
        assert [g.tolist() for g in groups] == [list(range(16))]

    def test_permuted_blocks_recovered(self):
        rng = np.random.default_rng(3)
        sizes = [3, 1, 2, 4, 1]
        n = sum(sizes)
        D = np.zeros((n, n))
        blocks, start = [], 0
        for s in sizes:
            R = rng.standard_normal((s, s))
            D[start:start + s, start:start + s] = R @ R.T
            blocks.append(set(range(start, start + s)))
            start += s
        D[1, :] = D[:, 1] = 0.0  # a zero row splits off a singleton
        blocks = [{0, 2}, {1}] + blocks[1:]
        perm = rng.permutation(n)  # new index i holds old mode perm[i]
        groups = modal.mode_groups(D[np.ix_(perm, perm)])
        got = sorted(sorted(int(perm[i]) for i in g) for g in groups)
        assert got == sorted(sorted(b) for b in blocks)
        assert all(np.all(np.diff(g) > 0) for g in groups)
        assert [int(g[0]) for g in groups] == sorted(int(g[0]) for g in groups)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), density=st.floats(0.0, 0.2))
    def test_components_match_graph_search(self, seed, n, density):
        # random patterns, one-sided entries included, against a depth-first search
        rng = np.random.default_rng(seed)
        D = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
        adj = (D != 0.0) | (D.T != 0.0)
        seen, want = set(), []
        for start in range(n):
            if start in seen:
                continue
            comp, stack = {start}, [start]
            while stack:
                for v in np.flatnonzero(adj[stack.pop()]).tolist():
                    if v not in comp:
                        comp.add(v)
                        stack.append(v)
            seen |= comp
            want.append(sorted(comp))
        assert [g.tolist() for g in modal.mode_groups(D)] == want

    @pytest.mark.parametrize("entry", [(2, 0), (0, 2)])
    def test_one_sided_entry_joins_groups(self, entry):
        # the pattern is (D != 0) | (D.T != 0): either triangle couples
        D = np.diag([1.0, 2.0, 3.0])
        D[entry] = 1e-16
        assert [g.tolist() for g in modal.mode_groups(D)] == [[0, 2], [1]]

    def test_factorize_reads_system_groups(self, monkeypatch):
        calls = []
        real = modal._components  # the component search of a dense Gram

        def counting(n, i, j):
            calls.append(1)
            return real(n, i, j)

        monkeypatch.setattr(modal, "_components", counting)
        # the builder gives its blocks; only a dense Gram is searched
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=8))
        assert len(calls) == 0
        dense = ModalSystem.from_eta(sys_.eta, sys_.damp_gram)
        assert len(calls) == 1
        z = random_state(np.random.default_rng(0), sys_.n)
        for system in (sys_, dense):
            sol = factorize(system, SchemeConfig(dt=0.05, t_final=1.0))
            sol.run(z)
            sol.step(z)
            for stages in ({"damping": False}, {"damping": False, "viscosity": False}):
                factorize(system, dataclasses.replace(sol.cfg, **stages)).step(z)
        assert len(calls) == 1


def chained_steps(sol, X, n_steps):
    """Energy (n_steps + 1, m) and damp, visc1, visc2 (n_steps, m) of
    ``n_steps`` single steps chained from the columns of X: the solver's
    one-step map P, assembled densely in energy coordinates from its groups,
    applied one step at a time, and each step's terms from the defining
    formulas in modal coordinates (the midpoint stage is
    ``z~ = (1 + dt^3 eta) z+``)."""
    sys_, dt = sol.sys, sol.cfg.dt
    n, eta = sys_.n, sys_.eta[:, None]
    e = np.concatenate([sys_.mu, np.ones(n)])[:, None]  # modal -> energy coordinates
    P = np.zeros((2 * n, 2 * n))
    for grp, M in zip(sol._groups, sol._doubled(1)):
        for rows, Mg in zip(grp.rows, M):
            P[np.ix_(rows, rows)] = Mg[:rows.size]
    x = np.empty((n_steps + 1, 2 * n, X.shape[1]))
    x[0] = e * X
    for k in range(n_steps):
        np.matmul(P, x[k], out=x[k + 1])
    a, b = (x / e)[:, :n], x[:, n:]
    E = 0.5 * np.sum(eta * a**2 + b**2, axis=1)
    visc1 = dt**3 * np.sum(eta**2 * a[1:]**2 + eta * b[1:]**2, axis=1)
    visc2 = 0.5 * dt**6 * np.sum(eta**3 * a[1:]**2 + eta**2 * b[1:]**2, axis=1)
    mid = 0.5 * (b[:-1] + (1.0 + dt**3 * eta) * b[1:])
    damp = dt * np.einsum("kim,ij,kjm->km", mid, sys_.damp_gram, mid) if sol._damped else 0.0
    return E, damp, visc1, visc2


class TestBlockedKernelProperty:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        shape=st.sampled_from(["blocks", "zero_rows", "dense"]),
        log_dt=st.floats(-3.0, -1.0),
        m=st.integers(1, 3),
        extra=st.integers(1, 63),
    )
    def test_blocks_match_chained_steps(self, seed, sizes, shape, log_dt, m, extra):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        eta = np.sort(10.0 ** rng.uniform(-4.0, 4.0, n))
        if n >= 2:
            eta[[0, -1]] = 1e-4, 1e4  # eta spans 8 decades
        if shape == "dense":
            sizes = [n]
        D = np.zeros((n, n))
        start = 0
        for s in sizes:
            R = rng.standard_normal((s, rng.integers(1, s + 1)))
            D[start:start + s, start:start + s] = R @ R.T
            start += s
        if shape == "zero_rows":
            zero = rng.random(n) < 0.4
            D[zero, :] = D[:, zero] = 0.0
        perm = rng.permutation(n)
        sys_ = ModalSystem.from_eta(eta, damp_gram=D[np.ix_(perm, perm)])
        cfg = SchemeConfig(dt=10.0**log_dt, t_final=1.0)
        sol = factorize(sys_, cfg)
        X = rng.standard_normal((2 * n, m))
        B = schemes._block_length(2 * n * m, sol._groups)
        n_steps = B + extra if B > 1 else 1 + extra
        assert B == 1 or n_steps % B != 0

        recs = list(sol.iterate_raw(X, n_steps))
        assert [k for k, _, _ in recs] == list(range(n_steps))
        blocks = [block for _, block, row in recs if not row]
        assert [len(b.resid) for b in blocks] == block_schedule(B, n_steps)
        E = np.concatenate([blocks[0].energy[:1]] + [b.energy[1:] for b in blocks])
        e0 = E[0]
        assert np.all(np.diff(E, axis=0) <= 0.0)
        resid = np.concatenate([b.resid for b in blocks])
        assert np.all(resid <= 1e-12 * e0)
        tol = 1e-12 * e0
        for got, want in zip([E] + [np.concatenate([getattr(b, name) for b in blocks])
                                    for name in ("observed", "visc1", "visc2")],
                             chained_steps(sol, X, n_steps)):
            assert np.all(np.abs(got - want) <= tol)


class TestIterateRawAudit:
    def test_raises_at_first_failing_step(self, monkeypatch):
        # an audit tolerance of 1e-299 E0 leaves no room for any rounding
        # residual: the first step with a nonzero residual fails.  Where that
        # step falls is a matter of rounding, so take the first seed that puts
        # it inside a time block (not on the block's first row).
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        cfg = SchemeConfig(dt=0.05, t_final=1.0)
        sol = factorize(sys_, cfg)
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal((2 * sys_.n, 1))
            recs = list(sol.iterate_raw(x, 200))
            first = int(np.flatnonzero([raw(s, "identity_residual")[0] for s in recs])[0])
            if recs[first][2] > 0:
                break
        else:
            pytest.fail("no seed puts the first nonzero residual inside a time block")
        monkeypatch.setattr(schemes, "AUDIT_RTOL", 10 * 1e-300)
        with pytest.raises(DiagnosticFailure, match=f"at step {first}$"):
            list(sol.iterate_raw(x, 200))

    def test_zero_state_passes(self, monkeypatch):
        monkeypatch.setattr(schemes, "AUDIT_RTOL", 10 * 1e-300)
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        sol = factorize(sys_, SchemeConfig(dt=0.05, t_final=1.0))
        assert len(list(sol.iterate_raw(np.zeros(2 * sys_.n), 100))) == 100

    def test_empty_batch_raises_before_stepping(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        sol = factorize(sys_, SchemeConfig(dt=0.05, t_final=1.0))
        with pytest.raises(DomainError, match="at least one column"):
            next(sol.iterate_raw(np.zeros((2 * sys_.n, 0)), 5))
        assert sorted(sol._doubled_maps) == [1]
        # one all-zero column still yields its steps, every term zero
        recs = list(sol.iterate_raw(np.zeros((2 * sys_.n, 1)), 5))
        assert len(recs) == 5
        assert not any(raw(r, name).any() for r in recs for name in RAW_FIELDS)

    @pytest.mark.parametrize("n_steps", [0, -3, 2.5, True],
                             ids=["zero", "negative", "fraction", "bool"])
    def test_bad_step_count_raises_before_stepping(self, n_steps):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        sol = factorize(sys_, SchemeConfig(dt=0.05, t_final=1.0))
        x = np.random.default_rng(0).standard_normal((2 * sys_.n, 1))
        with pytest.raises(DomainError, match="n_steps must be a positive integer"):
            next(sol.iterate_raw(x, n_steps))
        assert sorted(sol._doubled_maps) == [1]

    def test_numpy_step_count(self):
        # check_int takes a numpy integer, so the kernel steps it like an int
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        sol = factorize(sys_, SchemeConfig(dt=0.05, t_final=1.0))
        x = np.random.default_rng(0).standard_normal((2 * sys_.n, 2))
        got, want = (list(sol.iterate_raw(x, k)) for k in (np.int64(5), 5))
        assert [rec[0] for rec in got] == [rec[0] for rec in want] == list(range(5))
        for g, w in zip(got, want):
            for name in RAW_FIELDS:
                assert np.array_equal(raw(g, name), raw(w, name)), name

    def test_tolerance_is_fixed(self):
        # 10.0 * 1e-13 (the former default) is 1e-12 to the bit
        assert schemes.AUDIT_RTOL == 1e-12 == 10.0 * 1e-13


def block_diagonal_system(rng, sizes, permute=True):
    """Random damped system whose Gram has one random PSD block per size
    (blocks of rank 1..s; a size-1 block may be zero), rows permuted unless
    ``permute`` is false (then each group holds consecutive modes)."""
    n = sum(sizes)
    eta = np.sort(10.0 ** rng.uniform(-2.0, 3.0, n))
    D = np.zeros((n, n))
    start = 0
    for s in sizes:
        R = rng.standard_normal((s, rng.integers(1, s + 1)))
        keep = rng.integers(0, 2) if s == 1 else 1
        D[start:start + s, start:start + s] = keep * (R @ R.T)
        start += s
    perm = rng.permutation(n) if permute else np.arange(n)
    return ModalSystem.from_eta(eta, damp_gram=D[np.ix_(perm, perm)])


def stepped_entries(sol, X):
    """State entries per step that the batch X steps: per group size, every
    column of each occupied group if some group holds every column, else
    each occupied (group, column) pair."""
    total = 0
    for grp in sol._groups:
        occ = X[grp.rows].any(axis=1)  # (g, m)
        pairs = occ.any(axis=1).sum() * X.shape[1] if occ.all(axis=1).any() else occ.sum()
        total += grp.rows.shape[1] * int(pairs)
    return total


def block_terms(blocks):
    """Every (steps, m) array of a ``_blocks`` stream, joined over its time
    blocks (the states after each block are overwritten, so not kept)."""
    blocks = [b for b, _ in blocks]
    out = {name: np.concatenate([getattr(b, name) for b in blocks]) for name in
           ("visc1", "visc2", "observed", "resid")}
    for name in ("energy", "weak_sq"):
        out[name] = np.concatenate([getattr(blocks[0], name)[:1]]
                                   + [getattr(b, name)[1:] for b in blocks])
    return out, [len(b.resid) for b in blocks]


class TestOccupiedGroups:
    """Only what a batch occupies is stepped.  Per group size, if some group
    holds every column, the occupied groups are stepped in every column;
    else each occupied (group, column) pair is stepped alone and a column's
    terms are summed over its pairs in group order.  Groups no column
    occupies stay exactly zero and add exact zeros, and a column's terms
    are its own: rolling the columns rolls every term bit for bit, and
    each column matches the same column stepped alone (one column, which
    some group holds, with the longer time blocks of its own entries)
    within ``SPARSE_EPS`` eps of its E0 (of ``E0 / min eta``, which bounds
    it, for ``weak_sq``).  The two runs reach a step through different
    powers of P; over 2000 other draws the largest gap was 8.7 eps (energy
    and residual) and 16.1 eps (``weak_sq``)."""

    SPARSE_EPS = 32

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
        support=st.sampled_from(["one", "several", "all"]),
        m=st.integers(2, 4),
        zero_col=st.booleans(),
        full_col=st.booleans(),
        damping=st.booleans(),
        extra=st.integers(1, 63),
    )
    def test_sparse_batch_matches_columns_alone(self, seed, sizes, support, m, zero_col,
                                                full_col, damping, extra):
        rng = np.random.default_rng(seed)
        sys_ = block_diagonal_system(rng, sizes)
        n, groups = sys_.n, sys_.groups
        sol = factorize(sys_, SchemeConfig(dt=0.02, t_final=1.0, damping=damping))
        X = np.zeros((2 * n, m))
        for c in range(m):
            count = {"one": 1, "several": rng.integers(1, len(groups) + 1),
                     "all": len(groups)}[support]
            for i in rng.choice(len(groups), size=count, replace=False):
                rows = np.concatenate([groups[i], groups[i] + n])
                X[rows, c] = rng.standard_normal(rows.size)
        if full_col:  # a column that occupies every group
            X[:, rng.integers(m)] = rng.standard_normal(2 * n)
        if zero_col:
            X[:, rng.integers(m)] = 0.0
        B = schemes._block_length(stepped_entries(sol, X), sol._groups)
        n_steps = 2 * B + extra  # doubling blocks, a full one and a partial one
        got, lengths = block_terms(sol._blocks(X, n_steps))
        assert lengths == block_schedule(B, n_steps)
        # the rolled batch rolls every term bit for bit, block by block
        for (b, _), (q, _) in zip(sol._blocks(X, n_steps),
                                  sol._blocks(np.roll(X, 1, axis=1), n_steps)):
            for name in b._fields[1:]:
                assert np.array_equal(np.roll(getattr(b, name), 1, axis=1), getattr(q, name))
        eps = np.finfo(float).eps
        for c in range(m):
            alone, _ = block_terms(sol._blocks(X[:, c:c + 1], n_steps))
            if not X[:, c].any():
                assert not any(got[name][:, c].any() or alone[name].any() for name in got)
                continue
            e0 = alone["energy"][0, 0]
            for name in got:
                scale = e0 / sys_.eta.min() if name == "weak_sq" else e0
                gap = np.abs(got[name][:, c] - alone[name][:, 0]).max() / (eps * scale)
                assert gap <= self.SPARSE_EPS, (c, name, gap)
        # and the energies of chained single steps, which step every group
        E = chained_steps(sol, X, n_steps)[0]
        assert np.all(np.abs(got["energy"] - E) <= 1e-12 * E[0])

    @pytest.mark.parametrize("damping", [True, False])
    def test_one_group_final_state(self, damping):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 6))
        n = sys_.n
        sol = factorize(sys_, SchemeConfig(dt=0.05, t_final=3.0, damping=damping))
        rng = np.random.default_rng(3)
        rows = np.concatenate([sys_.groups[2], sys_.groups[2] + n])
        x = np.zeros(2 * n)
        x[rows] = rng.standard_normal(rows.size)
        final = sol.run(ModalState.from_stacked(x)).final_state.stacked()
        outside = np.setdiff1d(np.arange(2 * n), rows)
        assert not final[outside].any()
        # P does not mix groups: a state that equals x on the group and
        # occupies every other group ends with the same group rows
        x[outside] = rng.standard_normal(outside.size)
        dense = sol.run(ModalState.from_stacked(x)).final_state.stacked()
        assert np.array_equal(final[rows], dense[rows])


class TestColumnPosition:
    """A column's states and terms do not depend on where it sits in the
    batch: the block products are padded to whole 8-column panels, which
    BLAS computes alike (an edge panel rounds its columns differently).
    Rolling the columns of a batch rolls every state and term bit for bit,
    through the doubling blocks, the full ones and a partial last one."""

    @pytest.mark.parametrize("m", [2, 3, 5, 9, 12])
    @pytest.mark.parametrize("damping", [True, False])
    def test_rolled_batch_rolls_every_term(self, m, damping):
        rng = np.random.default_rng(m)
        sys_ = block_diagonal_system(rng, [3, 3, 2, 3, 1, 2])
        sol = factorize(sys_, SchemeConfig(dt=0.02, t_final=1.0, damping=damping))
        X = rng.standard_normal((2 * sys_.n, m))
        B = schemes._block_length(2 * sys_.n * m, sol._groups)
        n_steps = 3 * B + 45  # two full blocks after the doubling ones, then a partial one
        lengths = []
        # the states after a block are views into reused buffers: compare as they come
        for (b, after), (q, after_q) in zip(sol._blocks(X, n_steps),
                                            sol._blocks(np.roll(X, 1, axis=1), n_steps)):
            lengths.append(len(b.resid))
            for name in b._fields[1:]:
                assert np.array_equal(np.roll(getattr(b, name), 1, axis=1), getattr(q, name)), name
            for (_, x), (_, xq) in zip(after, after_q):
                assert np.array_equal(np.roll(x, 1, axis=2), xq)
        assert B >= 64 and lengths == block_schedule(B, n_steps)


def stepped_groups(blocks):
    """Per time block of a ``_blocks`` stream, the groups stepped (pairs, on
    the pair path): the rows of the groups of its states after the block."""
    return [sum(grp.rows.shape[0] for grp, _ in after) for _, after in blocks]


class TestRetirement:
    """A (group, column) entry of energy e at x_0 is no longer stepped after
    the first full time block of power-of-two index from whose first new
    state x_k on ``f e lambda_max^k < RETIRE_RTOL W_c / N``,
    ``W_c = max e sigma_min^(2 n_steps)``: what it would still add moves
    each later term of its column by at most ``RETIRE_RTOL`` times the
    column's final energy, whatever beta (``f`` carries the weak-norm
    weights).  The block length is pinned at 4, so a 70-step run checks
    after steps 4, 8, 16, 32 and 64.

    Against the same batch with ``RETIRE_RTOL = 0`` (no entry retires: the
    limit is 0, its logarithm -inf), which steps the other entries alike,
    the gap is that bound plus the rounding of the sums that skip the
    retired entries, a few eps of each term (of ``E_k`` for the residual,
    which cancels).  Against the same groups stepped one per column, which
    never retire, it is that bound plus ``SPARSE_EPS`` eps of E0, as in
    ``TestOccupiedGroups`` (of ``2 E0 max eta^(-2 beta - 1)``, which bounds
    it, for ``weak_sq``)."""

    SPARSE_EPS = TestOccupiedGroups.SPARSE_EPS
    N_STEPS = 70
    # terms of a run whose block length grows, against the run at the
    # initial B: eps of each term (of E_k for the residual) beyond the
    # retirement bound; the worst of the k_max 128 trace is 57 (observed damping)
    GROWN_EPS = 128

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        m=st.integers(2, 3),
        dense=st.booleans(),
        log_decay=st.floats(2.0, 4.0),
        beta=st.sampled_from([-1.0, 0.0, 0.5]),
        damping=st.booleans(),
    )
    def test_terms_within_bound(self, seed, sizes, m, dense, log_decay, beta, damping):
        rng = np.random.default_rng(seed)
        # eta over 5 decades, each group on consecutive modes, the top mode a group alone
        sys_ = block_diagonal_system(rng, sizes + [1], permute=False)
        eta = sys_.eta.copy()
        eta[[0, -1]] = 1e-2, 1e3
        sys_ = ModalSystem(eta, sys_.blocks)
        n = sys_.n
        # the top mode's energy falls by (1 + dt^3 eta)^2 >= 1e4 per step
        dt = (10.0**log_decay / 1e3) ** (1 / 3)
        sol = factorize(sys_, SchemeConfig(dt=dt, t_final=100.0, damping=damping))
        # every group in every column, or each column a random nonempty set of
        # groups, column 0 holding the top group; a column with the top group
        # holds the lowest, whose energy outlasts it
        groups = [rows for grp in sol._groups for rows in grp.rows]  # a column's order of terms
        occ = np.ones((m, len(groups)), bool) if dense else rng.random((m, len(groups))) < 0.5
        occ[np.arange(m), rng.integers(len(groups), size=m)] = True
        top, low = (next(i for i, rows in enumerate(groups) if k in rows) for k in (n - 1, 0))
        occ[0, top] = True
        occ[:, low] |= occ[:, top]
        X = np.zeros((2 * n, m))
        alone = []  # one column per occupied (group, column)
        for c, i in zip(*np.nonzero(occ)):
            X[groups[i], c] = rng.standard_normal(groups[i].size)
            alone.append((c, groups[i]))
        Y = np.zeros((2 * n, len(alone)))
        for col, (c, rows) in enumerate(alone):
            Y[rows, col] = X[rows, c]
        mid = factorize(sys_, SchemeConfig(dt, 100.0, viscosity=False, damping=False))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schemes, "_block_length", lambda entries, groups: 4)
            runs = [list(solver._blocks(x, self.N_STEPS, beta))
                    for solver, x in [(sol, X), (sol, Y), (mid, X)]]
            mp.setattr(schemes, "RETIRE_RTOL", 0.0)
            kept = block_terms(sol._blocks(X, self.N_STEPS, beta))[0]
        counts, alone_counts, mid_counts = map(stepped_groups, runs)
        assert counts[-1] < counts[0]  # the top group retired
        # single-group columns and the conservative midpoint map retire nothing
        assert len(set(alone_counts)) == len(set(mid_counts)) == 1
        got, one = block_terms(runs[0])[0], block_terms(runs[1])[0]
        eps, weak_w = np.finfo(float).eps, 2.0 * np.max(eta ** (-2.0 * beta - 1.0))
        for c in range(m):
            cols = [col for col, (cc, _) in enumerate(alone) if cc == c]
            bound = schemes.RETIRE_RTOL * kept["energy"][-1, c]
            e0 = kept["energy"][0, c]
            for name in got:
                slack = (5 if name == "resid" else 1) * bound
                ulps = kept["energy"][:-1, c] if name == "resid" else kept[name][:, c]
                assert np.all(np.abs(got[name][:, c] - kept[name][:, c])
                              <= slack + self.SPARSE_EPS * eps * ulps), (c, name)
                want = sum(one[name][:, col] for col in cols)
                scale = e0 * weak_w if name == "weak_sq" else e0
                assert np.all(np.abs(got[name][:, c] - want)
                              <= slack + self.SPARSE_EPS * eps * scale), (c, name)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(sys_=modal_systems(), dt=time_steps(), beta=st.sampled_from([-1.0, 0.0, 0.5]),
           damping=st.booleans(), viscosity=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bounds_hold_for_every_state(self, sys_, dt, beta, damping, viscosity, seed):
        # per group, for random states x in energy coordinates:
        # sigma_min(P)^2 E(x) <= E(P x) <= lambda_max E(x), and each term of
        # M x, weighted as the kernel weights it, is at most f E(x)
        sol = factorize(sys_, SchemeConfig(dt, 1.0, viscosity=viscosity, damping=damping))
        rng = np.random.default_rng(seed)
        for M, w, (sig2, lmax, f) in zip(sol._doubled(1), sol._weights(beta),
                                         sol._retire_bounds(beta)):
            g, _, s2 = M.shape
            x = rng.standard_normal((g, s2, 8)) * 10.0 ** rng.uniform(-3, 3, (g, s2, 1))
            y2 = np.square(M @ x)
            e = 0.5 * np.sum(x**2, axis=1)  # (g, 8)
            assert np.all(0.5 * y2[:, :s2].sum(axis=1) >= sig2[:, None] * e * (1 - 1e-12))
            assert np.all(0.5 * y2[:, :s2].sum(axis=1) <= lmax[:, None] * e * (1 + 1e-12))
            terms = np.einsum("tgr,grk->tgk", w, y2)
            assert np.all(terms <= f[:, None] * e * (1 + 1e-12))

    def pinned_runs(self, sol, x, beta=0.0, n_steps=N_STEPS, B=4):
        """The stepped groups and terms of ``sol``'s ``n_steps`` run from
        ``x`` at block length B, and the terms of the same run with no entry
        retired."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schemes, "_block_length", lambda entries, groups: B)
            blocks = list(sol._blocks(x, n_steps, beta))
            mp.setattr(schemes, "RETIRE_RTOL", 0.0)
            kept = block_terms(sol._blocks(x, n_steps, beta))[0]
        return stepped_groups(blocks), blocks[-1][1], block_terms(blocks)[0], kept

    def assert_within_bound(self, got, kept, ulps_eps=SPARSE_EPS):
        bound = schemes.RETIRE_RTOL * kept["energy"][-1]
        for name in got:
            ulps = kept["energy"][:-1] if name == "resid" else kept[name]
            assert np.all(np.abs(got[name] - kept[name]) <= (5 if name == "resid" else 1) * bound
                          + ulps_eps * np.finfo(float).eps * ulps), name

    @pytest.mark.parametrize("eta_small, beta, ratio, retires", [
        (1.0, 0.0, 1e-28, False),
        (1.0, 0.0, 0.05 * np.finfo(float).eps**2, False),  # would retire without the 1/N
        (1.0, 0.0, 1e-40, True),
        (1e-2, 0.5, 1e-36, False),  # would retire without the weak weight 1e4 in f
        (1e-2, 0.5, 1e-40, True),
    ])
    def test_midpoint_retires_only_below_eps_squared(self, eta_small, beta, ratio, retires):
        # the midpoint map keeps each group's energy: eight groups of one mode
        # beside a ninth, each holding ``ratio`` of its energy, retire when
        # ratio f < eps^2 / N, with N = 9 groups and f = 2 max(1, 2 eta^(-2 beta - 1))
        # (4, and 4e4 for eta 1e-2 at beta 1/2); together they then hold at
        # most eps^2 of the column's energy, the whole gap
        sys_ = ModalSystem.from_eta(8 * [eta_small] + [1.0])
        sol = factorize(sys_, SchemeConfig(0.1, 10.0, viscosity=False, damping=False))
        x = np.zeros((18, 1))
        x[9:, 0] = np.sqrt(8 * [ratio] + [1.0])  # velocities: energies ratio/2 and 1/2
        counts, after, got, kept = self.pinned_runs(sol, x, beta)
        assert counts[0] == 9 and counts[-1] == (1 if retires else 9)
        assert np.count_nonzero(sol._to_modal(after)) == 2 * counts[-1]
        self.assert_within_bound(got, kept)

    @pytest.mark.parametrize("c, small, kept_groups", [(9.0, 1e-60, [[[0, 2]]]),
                                                       (math.sqrt(2.0) - 1.0, 1e-48,
                                                        [[[0, 2], [1, 3]]])])
    def test_witness_keeps_a_small_lasting_group(self, c, small, kept_groups):
        # a group of one mode holding ``small`` of a column's energy beside one
        # whose energy falls (1 + c)^2-fold per step, P being that factor times
        # a rotation: the witness is the larger of the small group's energy
        # and the large one's at the end of the run, so the small group stays.
        # The large group retires once it is below eps^2 of the small one
        # (c = 9, 1e2 per step); at 2 per step it ends at 2^-70 > 1e-48 of
        # its start, and no group retires
        sys_ = ModalSystem.from_eta([1e-2, 1e3])
        sol = factorize(sys_, SchemeConfig((c / 1e3) ** (1 / 3), 100.0))
        x = np.array([[math.sqrt(small)], [1.0], [math.sqrt(small)], [1.0]])
        counts, after, got, kept = self.pinned_runs(sol, x)
        assert [grp.rows.tolist() for grp, _ in after] == kept_groups
        a, b = sol._to_modal(after)[[0, 2]]
        assert 0.5 * (1e-2 * a**2 + b**2) > 0.25 * (1e-2 + 1.0) * small  # half its start
        self.assert_within_bound(got, kept)

    @staticmethod
    def count_checks(monkeypatch):
        """Per ``_retire`` call from now on: its step x_k and the earliest
        step from which a stepped entry retires (inf when none does)."""
        calls = []
        retire = schemes.SchemeSolver._retire

        def spy(self, lays, maps, bufs, dues, i, k):
            calls.append((k, min((due.min() for due in dues), default=np.inf)))
            return retire(self, lays, maps, bufs, dues, i, k)

        monkeypatch.setattr(schemes.SchemeSolver, "_retire", spy)
        return calls

    def test_checks_skip_what_cannot_retire(self, monkeypatch):
        # a column's only entry gets a step beyond the run from the schedule
        # itself (its witness is its own energy); on the midpoint map, which
        # keeps every group's energy (sigma_min^2 and lambda_max are 1 to
        # rounding), no entry falls eps^2 below its column, so none ever
        # retires.  The checks at 4, 8, 16, 32 and 64 drop nothing
        calls = self.count_checks(monkeypatch)
        monkeypatch.setattr(schemes, "_block_length", lambda entries, groups: 4)
        sys_ = ModalSystem.from_eta(np.arange(1.0, 10.0))
        rng = np.random.default_rng(3)
        one = np.zeros((18, 3))
        for c in range(3):
            one[[c, 9 + c], c] = rng.standard_normal(2)
        for cfg, x, first in [(SchemeConfig(0.5, 100.0), one, self.N_STEPS),
                              (SchemeConfig(0.1, 10.0, viscosity=False, damping=False),
                               rng.standard_normal((18, 2)), np.inf)]:
            calls.clear()
            counts = stepped_groups(factorize(sys_, cfg)._blocks(x, self.N_STEPS))
            assert [k for k, _ in calls] == [4, 8, 16, 32, 64] and len(set(counts)) == 1
            assert all(due >= first for _, due in calls)

    def test_control_sweep_retires_nothing(self, monkeypatch):
        # the criterion-7 gamma = 0 control family: 11 pairs in 8 columns,
        # whose entries of one column decay at nearly one rate, so that no
        # entry falls eps^2 below its column's energy within T = 200
        calls = self.count_checks(monkeypatch)
        damped = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        sys_ = build_coupled_waves(ExampleParams(0.5, 0.0, 32))
        x = np.column_stack([z.stacked() for _, z in worst_case_family(sys_)])
        assert x.shape[1] == 8 and stepped_groups(
            factorize(sys_, SchemeConfig(0.01, 1.0))._blocks(x, 1)) == [11]
        dts = [0.02, 0.01, 0.005]
        study = uniform_decay_study(sys_, beta=0.0, dt_list=dts, T=200.0,
                                    t_star=observation_time(damped).t_star)
        # in each run, the earliest step from which an entry may retire is beyond its last
        firsts = list(dict.fromkeys(due for _, due in calls))
        assert study.verdict == "non-uniform" and len(firsts) == 3
        assert all(due > substep_count(200.0, dt) + 1 for due, dt in zip(firsts, dts))

    def test_trace_steps_the_scheduled_groups_at_the_end(self, monkeypatch):
        # coupled waves k_max 128 (128 groups of 2 modes) from a random state
        # over 10^4 steps: structure, not timing
        calls = self.count_checks(monkeypatch)
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 128))
        sol = factorize(sys_, SchemeConfig(dt=0.01, t_final=100.0))
        z0 = ModalState.from_stacked(np.random.default_rng(7).standard_normal(2 * sys_.n))
        blocks = list(sol._blocks(z0.stacked()[:, None], 10001))
        counts, (got, lengths) = stepped_groups(blocks), block_terms(blocks)
        # the schedule from x_0: group g, of energy e, is stepped after the
        # last check, at x_k, while f e lambda_max^k >= RETIRE_RTOL W / 128,
        # W = max e sigma_min^(2 * 10001)
        (grp,), ((sig2, lmax, f),) = sol._groups, sol._retire_bounds(0.0)
        e = 0.5 * np.sum((z0.stacked()[grp.rows] * grp.scale[:, :, 0]) ** 2, axis=1)
        log_w = np.max(np.log(e) + 10001 * np.log(sig2))
        k_last = calls[-1][0]
        assert np.all(lmax < 1.0)  # f e lambda_max^k falls with k
        left = (np.log(f * e) + k_last * np.log(lmax)
                >= np.log(schemes.RETIRE_RTOL / 128) + log_w)
        assert counts[0] == 128 and counts[-1] == np.count_nonzero(left)
        # once groups retire, B follows the entries left: after the last
        # retirement every block but the partial last one is a power of two
        # above the initial B = 64, and each cached power of P was stepped
        B, first = schemes._block_length(2 * sys_.n, sol._groups), np.argmax(np.less(counts, 128))
        assert B == 64 and lengths[:first] == block_schedule(B, 10001)[:first]
        assert all(n > B and n & (n - 1) == 0 for n in lengths[counts.index(counts[-1]):-1])
        assert set(sol._doubled_maps) == {n for n in lengths if n & (n - 1) == 0}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schemes, "RETIRE_RTOL", 0.0)
            kept, kept_lengths = block_terms(sol._blocks(z0.stacked()[:, None], 10001))
        assert kept_lengths == block_schedule(B, 10001)
        self.assert_within_bound(got, kept, self.GROWN_EPS)
        trace = sol.run(z0)
        assert trace.identity_ok and trace.telescope_residual <= trace.telescope_tol
        # the first 50 steps, before any check, against chained single steps
        z, tol = z0, schemes.AUDIT_RTOL * trace.e0
        for k in range(50):
            rec = sol.step(z)
            z = rec.z_next
            assert abs(trace.energy[k + 1] - energy(sys_, z)) <= tol
            for name in ("damp", "visc1", "visc2", "identity_residual"):
                assert abs(getattr(trace, name)[k] - getattr(rec, name.replace(
                    "damp", "damp_term"))) <= tol, (k, name)
        # the retired groups read exact zero in the final state
        final = trace.final_state.stacked()
        assert np.count_nonzero(final) == 4 * counts[-1]
        assert abs(energy(sys_, trace.final_state) - trace.e_final) <= tol

    def test_long_trace_retires_groups(self):
        # the same trace over 10^5 steps: its best group's energy falls
        # 0.9802-fold per step, so e sigma_min^(2 * 10^5) underflows; in logs
        # the witness does not, and the decayed groups retire.  B is pinned
        # at 64: over 10^5 steps the grown blocks' powers of P round apart
        # from B = 64's by more than GROWN_EPS, which bounds 10^4 steps
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 128))
        sol = factorize(sys_, SchemeConfig(dt=0.01, t_final=1000.0))
        x0 = np.random.default_rng(7).standard_normal((2 * sys_.n, 1))
        counts, _, got, kept = self.pinned_runs(sol, x0, n_steps=100001, B=64)
        assert counts[0] == 128 and counts[-1] < 128
        self.assert_within_bound(got, kept)

    def test_grown_blocks_reuse_the_first_allocation(self):
        # the same trace: each growth lays its buffers out in the old ones'
        # allocation, which fits as B grows only where the groups fall, so
        # the states after the last growth lie in the first full block's
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 128))
        sol = factorize(sys_, SchemeConfig(dt=0.01, t_final=100.0))
        z0 = np.random.default_rng(7).standard_normal((2 * sys_.n, 1))
        blocks = list(sol._blocks(z0, 10001))
        lengths = [len(b.resid) for b, _ in blocks]
        first = blocks[lengths.index(64)][1][0][1]
        last = [after[0][1] for (_, after), n in zip(blocks, lengths) if n == max(lengths)]
        assert max(lengths) > 64 and first.base is not None
        assert all(np.shares_memory(first.base, state) for state in last)


class TestStateSize:
    """Every stepping entry point refuses a state that is not of the
    system's size, before it steps: ``step``, ``run`` and ``iterate_raw``
    (here 2n - 4 and 2n + 4 rows) through the kernel's row check."""

    @pytest.mark.parametrize("extra", [-2, 2], ids=["too_few", "too_many"])
    @pytest.mark.parametrize("entry", [
        lambda sol, z: next(sol.iterate_raw(np.column_stack([z.stacked()] * 3), 5)),
        lambda sol, z: sol.step(z),
        lambda sol, z: sol.run(z),
    ], ids=["iterate_raw", "step", "run"])
    def test_wrong_size_raises_before_stepping(self, entry, extra):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 4))
        sol = factorize(sys_, SchemeConfig(dt=0.05, t_final=1.0))
        z = random_state(np.random.default_rng(0), sys_.n + extra)
        with pytest.raises(DimensionMismatchError,
                           match=f"state rows: expected length 16, got {16 + 2 * extra}$"):
            entry(sol, z)
        assert sorted(sol._doubled_maps) == [1]


class TestBlockLength:
    def test_follows_stepped_rows(self):
        # criterion-7 system, 32 groups of two modes (4 rows each), 8 columns:
        # a dense batch steps 1024 entries per step (B = 32); one group held
        # by every column steps 32, and so does the batch whose column c
        # occupies group c alone, stepped as 8 (group, column) pairs: both
        # reach the 2^18 / (entries of P) cap, B = 512
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        n, m = sys_.n, 8
        sol = factorize(sys_, SchemeConfig(dt=0.01, t_final=1.0))
        rng = np.random.default_rng(5)
        one, split = np.zeros((2 * n, m)), np.zeros((2 * n, m))
        for c in range(m):
            rows = np.concatenate([sys_.groups[3], sys_.groups[3] + n])
            one[rows, c] = rng.standard_normal(rows.size)
            rows = np.concatenate([sys_.groups[c], sys_.groups[c] + n])
            split[rows, c] = rng.standard_normal(rows.size)

        def lengths(x):
            return [len(b.resid) for b, _ in sol._blocks(x, 1100)]

        assert lengths(rng.standard_normal((2 * n, m))) == block_schedule(32, 1100)
        assert lengths(one) == lengths(split) == block_schedule(512, 1100)

    @staticmethod
    def rule_length(monkeypatch, sol, x):
        """The ``_block_length`` a batch ``x`` gets, before the step-count cap."""
        got, rule = [], schemes._block_length
        monkeypatch.setattr(schemes, "_block_length", lambda e, g: got.append(rule(e, g)) or got[-1])
        next(sol._blocks(x, 1))
        return got[-1]

    def test_zero_batch_counts_one_entry_per_column(self, monkeypatch):
        # an all-zero batch steps no entry but still fills (6, B, m) terms
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        sol = factorize(sys_, SchemeConfig(dt=0.01, t_final=1.0, damping=False))
        for m, B in [(1, 512), (8, 512), (200, 128), (1000, 32)]:
            x = np.zeros((2 * sys_.n, m))
            assert self.rule_length(monkeypatch, sol, x) == B and B <= 2**15 // m
            steps = list(sol.iterate_raw(x, 300))
            assert len(steps) == 300 and not any(b.energy.any() for _, b, _ in steps)

    def test_benchmark_batches_keep_their_length(self, monkeypatch):
        # batches with no zero column: the criterion-7 family (8 columns;
        # damped and the gamma = 0 control), a k_max 512 trace column and
        # the 200 low-pass observability draws at dt 0.02 and 0.01
        for gamma, B in [(1.0, 512), (0.0, 1024)]:
            sys_ = build_coupled_waves(ExampleParams(0.5, gamma, 32))
            x = np.column_stack([st.stacked() for _, st in worst_case_family(sys_)])
            assert self.rule_length(monkeypatch, factorize(sys_, SchemeConfig(0.01, 1.0)), x) == B
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 512))
        x = np.random.default_rng(7).standard_normal((2 * sys_.n, 1))
        assert self.rule_length(monkeypatch, factorize(sys_, SchemeConfig(0.01, 1.0)), x) == 16
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        X = np.random.default_rng(606).standard_normal((2 * sys_.n, 200))
        for dt, B in [(0.02, 2), (0.01, 1)]:
            keep = filtering_cutoff(sys_, dt, 1.0).retained
            XL = np.zeros_like(X)
            XL[np.concatenate([keep, sys_.n + keep])] = X[np.concatenate([keep, sys_.n + keep])]
            sol = factorize(sys_, SchemeConfig(dt, 1.0, damping=False))
            assert self.rule_length(monkeypatch, sol, XL) == B

    def test_power_of_two_and_few_maps(self):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 8))
        sol = factorize(sys_, SchemeConfig(dt=0.01, t_final=1.0))
        for rows in range(1, 2 * sys_.n + 1):
            for m in (1, 3, 7, 50, 1000, 10**5):
                B = schemes._block_length(rows * m, sol._groups)
                # 2^18 / (entries of P): 8 groups of 4 x 4
                assert 1 <= B <= 2048 and B & (B - 1) == 0, (rows, m)
        rng = np.random.default_rng(6)
        for m in range(1, 400, 7):
            list(sol.iterate_raw(rng.standard_normal((2 * sys_.n, m)), 300))
        # one doubled map per power of two up to the longest block, which
        # the 300 steps cap at 256
        assert sorted(sol._doubled_maps) == [1 << i for i in range(9)]

    @pytest.mark.parametrize("m", [1, 8])
    def test_short_runs_build_no_unstepped_powers(self, m):
        # the rule alone gives B = 256 (one column) and 32 (eight columns)
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        x = np.random.default_rng(7).standard_normal((2 * sys_.n, m))
        cfg = SchemeConfig(dt=0.01, t_final=1.0)
        B = schemes._block_length(2 * sys_.n * m, factorize(sys_, cfg)._groups)
        assert B >= 32
        for n_steps in [1, 2, 3, 5, 17, 31, 33, 127, 129]:
            sol = factorize(sys_, cfg)
            assert len(list(sol.iterate_raw(x, n_steps))) == n_steps
            K = max(sol._doubled_maps)
            assert K <= n_steps and K == min(B, 1 << (n_steps.bit_length() - 1)), n_steps
            assert sorted(sol._doubled_maps) == [1 << i for i in range(K.bit_length())]
        sol = factorize(sys_, cfg)
        z = ModalState.from_stacked(x[:, 0])
        sol.step(z)
        assert sorted(sol._doubled_maps) == [1]
        sol.run(z)  # 101 steps
        assert sorted(sol._doubled_maps) == [1, 2, 4, 8, 16, 32, 64]


class TestMapIdentity:
    """The one-step map and the energy weights every step reads satisfy, per
    mode group, ``P^T diag(1/2 + c + c^2/2) P + L^T L = I/2`` with
    ``c = dt^3 eta`` (0 without viscosity) and the ``L^T L`` term only when
    damped: the per-step energy identity of every state at once.  ``S`` is
    formed from ``K Z = [-2h mu, 2I]`` with no cancellation of size ``h mu``
    (h = dt/2), so the max-abs residual per group is bounded by a flat
    ``8 eps``.  Over these 150 examples the worst residual is 4.0 eps,
    with h mu up to 219 and h max|D| up to 1.6.  The residual still grows
    with the damping strength, as it did when ``S_a`` was formed as
    ``[I, h mu] + h mu S_b``: ``K = I + h^2 diag(eta) + hD`` carries the
    rounding of ``hD``, ~eps h max|D| also in weakly damped directions (30 eps
    at h max|D| = 28 over 3000 other draws, 31 eps with the former ``S_a``)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sys_=modal_systems(), dt=time_steps(), damping=st.booleans(),
           viscosity=st.booleans())
    def test_one_step_map_identity(self, sys_, dt, damping, viscosity):
        sol = factorize(sys_, SchemeConfig(dt=dt, t_final=dt, damping=damping,
                                           viscosity=viscosity))
        for grp, rows, w in zip(sol._groups, sol._doubled(1), sol._weights(0.0)):
            c = dt**3 * grp.eta if viscosity else np.zeros_like(grp.eta)
            s2 = grp.eta.shape[1]
            assert np.array_equal(w[:3, :, :s2], [np.full_like(c, 0.5), c, 0.5 * c**2])
            assert not w[:3, :, s2:].any() and np.all(w[4, :, s2:] == 1.0)
            d = w[0] + w[1] + w[2] + (w[4] if damping else 0.0)
            resid = np.abs(rows.transpose(0, 2, 1) @ (d[:, :, None] * rows)
                           - 0.5 * np.eye(s2)).max(axis=(1, 2))
            assert np.all(resid <= 8 * np.finfo(float).eps), resid


class TestDoubledMaps:
    """``M_K = [P^K; L P^{K-1}]``, built by doubling, against K - 1 repeated
    products of ``M_1 = [P; L]`` and against a dense 2n x 2n oracle: the
    stage matrix of ``helpers.stage1_matrix`` taken to energy coordinates,
    solved and powered densely, with L compared through the observed-damping
    form ``(P^{K-1})^T Q P^{K-1}``, ``Q = L^T L``.  P is a contraction in
    energy coordinates, so the errors are bounded absolutely, by multiples
    of K eps (relative to ``1 + max |Q_K|`` for the damping form, which the
    undamped stage does not bound).  Over 1500 other draws the worst were
    1.04 K eps against the repeated products, 5.0 K eps against the dense
    powers and 2.5 K eps (1 + max |Q_K|) on the damping form."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sys_=modal_systems(), dt=time_steps(), damping=st.booleans(),
           viscosity=st.booleans(), log_K=st.integers(1, 7))
    def test_doubled_maps_match_repeated_and_dense_powers(self, sys_, dt, damping, viscosity,
                                                          log_K):
        K, n, eps = 1 << log_K, sys_.n, np.finfo(float).eps
        sol = factorize(sys_, SchemeConfig(dt=dt, t_final=dt, damping=damping,
                                           viscosity=viscosity))
        e = np.concatenate([sys_.mu, np.ones(n)])  # modal -> energy coordinates
        A = e[:, None] * stage1_matrix(sys_, dt, damped=sol._damped) / e[None, :]
        S = np.linalg.solve(A, 2.0 * np.eye(2 * n) - A)
        c = dt**3 * np.tile(sys_.eta, 2) if viscosity else np.zeros(2 * n)
        P = S / (1.0 + c)[:, None]
        M = 0.5 * (np.eye(2 * n)[n:] + S[n:])
        PK1 = np.linalg.matrix_power(P, K - 1)
        PK, QK = P @ PK1, PK1.T @ (dt * M.T @ sys_.damp_gram @ M) @ PK1
        for grp, M1, MK in zip(sol._groups, sol._doubled(1), sol._doubled(K)):
            s2 = grp.rows.shape[1]
            rep = M1
            for _ in range(K - 1):
                rep = rep @ M1[:, :s2]
            assert np.abs(MK - rep).max() <= 4 * K * eps
            for rows, Mg in zip(grp.rows, MK):
                box = np.ix_(rows, rows)
                assert np.abs(Mg[:s2] - PK[box]).max() <= 16 * K * eps
                LK = Mg[s2:]
                q = np.abs(QK[box]).max()
                assert np.abs(LK.T @ LK - QK[box]).max(initial=0.0) <= 8 * K * eps * (1.0 + q)


class TestLongHorizon:
    def test_identity_residual_over_200001_steps(self):
        # the criterion-7 family (k_max 32, 8 members in 6 groups, stepped as
        # 8 (group, column) pairs, B = 512) at dt = 1e-3 to T = 200.  Each
        # state of a time block is P^512 times a state 512 steps back, so the
        # per-step residual carries the rounding of the doubled powers:
        # 19.5 eps E0 (4.3e-15) at most here (30.6 eps at B = 128 with every
        # occupied group stepped in every column); the audit allows 1e-12 E0.
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        family = [z for _, z in worst_case_family(sys_)]
        X0, e0 = np.column_stack([z.stacked() for z in family]), [energy(sys_, z) for z in family]
        cfg = SchemeConfig(dt=1e-3, t_final=200.0)
        n_steps = substep_count(cfg.t_final, cfg.dt) + 1
        assert n_steps == 200_001
        sol = factorize(sys_, cfg)
        worst = max((block.resid / e0).max()
                    for _, block, row in sol.iterate_raw(X0, n_steps) if not row)
        assert max(sol._doubled_maps) == 512
        assert worst <= 64 * np.finfo(float).eps, worst


class TestDenseGroup:
    """One dense group of size n (``build_boundary_coupled_waves`` at k_max
    256: 512 modes) keeps B = 1 through the 2^18 cap of ``_block_length``:
    it steps one step per block with ``M_1 = [P; L]`` and builds no doubled
    map."""

    @pytest.fixture(scope="class")
    def solver(self):
        sys_ = build_boundary_coupled_waves(ExampleParams(0.5, 1.0, 256))
        assert [g.size for g in sys_.groups] == [512]
        return factorize(sys_, SchemeConfig(dt=0.01, t_final=1.0))

    @pytest.mark.parametrize("m", [1, 8])
    def test_single_steps_and_no_doubling(self, solver, m):
        assert schemes._block_length(2 * solver.sys.n * m, solver._groups) == 1
        X = np.random.default_rng(m).standard_normal((2 * solver.sys.n, m))
        recs = list(solver.iterate_raw(X, 5))
        assert [(block.k0, len(block.resid)) for _, block, _ in recs] == [(k, 1) for k in range(5)]
        assert sorted(solver._doubled_maps) == [1]


class TestRawStepRecords:
    """The per-step records of ``iterate_raw`` are bare step tuples."""

    @pytest.mark.parametrize("m, B", [(1, 256), (64, 4), (200, 1)])
    def test_protocol(self, m, B):
        # plain (k, block, row) 3-tuples, k = 0..n_steps-1, one block object per
        # time block, n_steps items; blocks of 1, 2, 4, ... steps up to B,
        # then two full blocks and a partial last one where B > 1
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 32))
        sol = factorize(sys_, SchemeConfig(dt=0.01, t_final=1.0))
        X = np.random.default_rng(2).standard_normal((2 * sys_.n, m))
        assert schemes._block_length(2 * sys_.n * m, sol._groups) == B
        n_steps = (B - 1) + 2 * B + 3 if B > 1 else 7
        recs = list(sol.iterate_raw(X, n_steps))
        assert len(recs) == n_steps
        assert all(type(r) is tuple and len(r) == 3 for r in recs)
        assert [k for k, _, _ in recs] == list(range(n_steps))
        blocks = {}
        for k, block, row in recs:
            assert block.k0 + row == k
            assert blocks.setdefault(block.k0, block) is block, k
        lengths = [len(b.resid) for b in blocks.values()]
        doubling = [1 << i for i in range(B.bit_length() - 1)]
        assert lengths == (doubling + [B, B, 3] if B > 1 else [1] * 7)
        for name in RAW_FIELDS:
            assert raw(recs[0], name).shape == (m,), name

    def test_records_outlive_iteration(self):
        # several full time blocks and a partial one, column batches of 3 and
        # 8 columns (B = 512 and 256) and the 400 of the observability draws (B = 1),
        # whose full blocks reuse the two block buffers alternately
        for k_max, m, B in [(4, 3, 512), (4, 8, 256), (32, 400, 1)]:
            sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, k_max))
            sol = factorize(sys_, SchemeConfig(dt=0.05, t_final=1.0))
            X = np.random.default_rng(4).standard_normal((2 * sys_.n, m))
            assert schemes._block_length(2 * sys_.n * m, sol._groups) == B
            n_steps = 3 * B + 5
            seen, recs = [], []
            for rec in sol.iterate_raw(X, n_steps, beta=0.5):
                k, _, row = rec
                seen.append((k, row, [np.array(raw(rec, name)) for name in RAW_FIELDS]))
                recs.append(rec)
            assert [k for k, _, _ in recs] == list(range(n_steps))
            # a held tuple keeps its own k and row: zip reuses no tuple held here
            assert [(k, row) for k, _, row in recs] == [(k, row) for k, row, _ in seen]
            for rec, (k, _, values) in zip(recs, seen):
                for name, value in zip(RAW_FIELDS, values):
                    assert np.array_equal(raw(rec, name), value), (m, k, name)


class TestBufferLifetime:
    """A full time block writes its squares into the buffer its product has
    just read, which the previous block's states after it point into: the
    final state of ``run`` must be the last block's own."""

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_final_state_matches_chained_steps(self, gamma, extra):
        # the doubling blocks hold B - 1 steps, so 3B - 1 steps end on the
        # second full block and 3B, 3B + 1 on a partial one
        sys_ = build_coupled_waves(ExampleParams(0.5, gamma, 32))
        B = 256
        n_steps = 3 * B + extra
        sol = factorize(sys_, SchemeConfig(dt=0.05, t_final=(n_steps - 1) * 0.05))
        assert schemes._block_length(2 * sys_.n, sol._groups) == B
        assert sol._damped == (gamma > 0)
        assert (block_schedule(B, n_steps)[-1] == B) == (extra == -1)
        z = z0 = ModalState.from_stacked(np.random.default_rng(5).standard_normal(2 * sys_.n))
        trace = sol.run(z0)
        assert trace.damp.size == n_steps
        final = trace.final_state
        for _ in range(n_steps):
            z = sol.step(z).z_next
        tol = 1e-12 * energy(sys_, z0)
        assert abs(energy(sys_, final) - energy(sys_, z)) <= tol
        assert energy(sys_, ModalState(final.a - z.a, final.b - z.b)) <= tol


def assert_records_equal(r1, r2):
    for f in dataclasses.fields(r1):
        v1, v2 = getattr(r1, f.name), getattr(r2, f.name)
        if isinstance(v1, ModalState):
            assert np.array_equal(v1.a, v2.a) and np.array_equal(v1.b, v2.b), f.name
        else:
            assert v1 == v2, f.name


class TestStageMaps:
    SYSTEMS = [
        lambda: random_system(np.random.default_rng(5), 12),  # one dense group
        lambda: build_coupled_waves(ExampleParams(0.5, 1.0, 6)),  # 2-mode groups
    ]

    @pytest.mark.parametrize("make", SYSTEMS)
    def test_maps_leave_configured_solver_unchanged(self, make):
        sys_ = make()
        cfg = SchemeConfig(dt=0.05, t_final=2.0)
        z = random_state(np.random.default_rng(9), sys_.n)
        sol = factorize(sys_, cfg)
        before, step_before = sol.run(z), sol.step(z)
        for stages in ({"damping": False}, {"damping": False, "viscosity": False}):
            factorize(sys_, dataclasses.replace(cfg, **stages)).step(z)
        after = sol.run(z)
        assert_records_equal(sol.step(z), step_before)
        for name in ("energy", "weak_sq", "damp", "visc1", "visc2", "identity_residual",
                     "observed_damp"):
            assert np.array_equal(getattr(before, name), getattr(after, name)), name
        assert np.array_equal(before.final_state.a, after.final_state.a)
        assert np.array_equal(before.final_state.b, after.final_state.b)


class TestEnergyIdentity:
    def test_per_step_identity_random_systems(self):
        # oracle: evaluate both sides of the identity from the recorded
        # states with the modal norm functions
        rng = np.random.default_rng(42)
        for n in (1, 8, 64, 256):
            sys_ = random_system(rng, n)
            cfg = SchemeConfig(dt=0.05, t_final=1.0)
            sol = factorize(sys_, cfg)
            z = random_state(rng, n)
            e0 = energy(sys_, z)
            for _ in range(5):
                rec, z_tilde = sol.step(z), midpoint_stage(sol, z)
                e1 = energy(sys_, rec.z_next)
                m = ModalState(0.5 * (z.a + z_tilde.a), 0.5 * (z.b + z_tilde.b))
                damp = cfg.dt * float(m.b @ sys_.damp_gram @ m.b)
                az_sq = float(np.sum(sys_.eta**2 * rec.z_next.a**2)
                              + np.sum(sys_.eta * rec.z_next.b**2))
                a2z_sq = float(np.sum(sys_.eta**3 * rec.z_next.a**2)
                               + np.sum(sys_.eta**2 * rec.z_next.b**2))
                lhs = e1 + cfg.dt**3 * az_sq + 0.5 * cfg.dt**6 * a2z_sq + damp
                assert abs(lhs - energy(sys_, z)) <= 1e-12 * e0
                assert rec.identity_residual <= 1e-12 * e0
                assert rec.damp_term >= 0 and rec.visc1 >= 0 and rec.visc2 >= 0
                z = rec.z_next

    def test_conservative_first_stage_preserves_h_norm(self):
        rng = np.random.default_rng(9)
        for n in (4, 64, 256):
            sys_ = random_system(rng, n)
            sol = factorize(sys_, SchemeConfig(dt=0.02, t_final=1.0, damping=False))
            u = random_state(rng, n)
            mid = midpoint_stage(sol, u)
            assert math.sqrt(inner_h(sys_, mid, mid)) == pytest.approx(
                math.sqrt(inner_h(sys_, u, u)), rel=1e-13
            )

    def test_viscosity_off_and_undamped_reduces_to_midpoint(self):
        rng = np.random.default_rng(2)
        sys_ = random_system(rng, 16, damped=False)
        sol = factorize(sys_, SchemeConfig(dt=0.1, t_final=1.0, viscosity=False,
                                           damping=False))
        z = random_state(rng, 16)
        rec = sol.step(z)
        assert energy(sys_, rec.z_next) == pytest.approx(energy(sys_, z), rel=1e-13)
        # the damping switch on an undamped system leaves the midpoint map
        ymid = factorize(sys_, dataclasses.replace(sol.cfg, damping=True)).step(z).z_next
        assert np.array_equal(rec.z_next.a, ymid.a)
        assert np.array_equal(rec.z_next.b, ymid.b)


class TestMidpoint:
    def test_energy_drift_over_many_steps(self):
        rng = np.random.default_rng(21)
        sys_ = random_system(rng, 64, damped=False)
        sol = factorize(sys_, SchemeConfig(dt=0.01, t_final=1.0, viscosity=False,
                                           damping=False))
        y = random_state(rng, 64)
        e0 = energy(sys_, y)
        worst = 0.0
        for _ in range(1000):
            y = sol.step(y).z_next
            worst = max(worst, abs(energy(sys_, y) - e0))
        assert worst <= 1e-12 * e0

    def test_single_mode_rotation_angle(self):
        # measured per-step rotation of (a, b/mu) equals alpha*dt
        mu, dt = 2.0, 1.0
        sys_ = ModalSystem.from_eta([mu**2])
        sol = factorize(sys_, SchemeConfig(dt=dt, t_final=2.0, viscosity=False,
                                           damping=False))
        alpha, _ = modal_multiplier(mu, dt)
        assert alpha * dt == pytest.approx(math.pi / 2, rel=1e-15)
        y = ModalState([1.0], [0.0])
        ang0 = math.atan2(y.b[0] / mu, y.a[0])
        y1 = sol.step(y).z_next
        ang1 = math.atan2(y1.b[0] / mu, y1.a[0])
        step = (ang0 - ang1 + math.pi) % (2 * math.pi) - math.pi
        assert abs(step - alpha * dt) <= 1e-10


class TestModalMultiplier:
    def test_hand_values(self):
        alpha, cos2 = modal_multiplier(2.0, 1.0)
        assert cos2 == pytest.approx(0.5, rel=1e-15)
        assert alpha == pytest.approx(2.0 * math.atan(1.0), rel=1e-15)

    def test_small_frequency_limit(self):
        alpha, cos2 = modal_multiplier(1e-9, 0.1)
        assert alpha == pytest.approx(1e-9, rel=1e-9)
        assert cos2 == pytest.approx(1.0, abs=1e-12)

    def test_angle_range(self):
        for mu in (0.1, 3.0, 500.0):
            for dt in (1e-3, 0.5, 10.0):
                alpha, _ = modal_multiplier(mu, dt)
                assert -math.pi < alpha * dt < math.pi


class TestRun:
    def test_flags_off_energy_constant(self):
        rng = np.random.default_rng(4)
        sys_ = random_system(rng, 16)
        cfg = SchemeConfig(dt=0.05, t_final=5.0, viscosity=False, damping=False)
        trace = factorize(sys_, cfg).run(random_state(rng, 16))
        assert np.max(np.abs(trace.energy - trace.e0)) <= 1e-12 * trace.e0

    def test_telescoped_identity_coupled_waves(self):
        sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=32))
        cfg = SchemeConfig(dt=0.01, t_final=10.0)
        rng = np.random.default_rng(6)
        trace = factorize(sys_, cfg).run(random_state(rng, sys_.n))
        assert trace.identity_ok
        assert trace.telescope_residual <= trace.telescope_tol
        assert trace.monotone_ok
        # step count convention: l = floor(T/dt), l+1 steps recorded
        assert trace.damp.shape[0] == 1001
        assert trace.energy.shape[0] == 1002

    def test_identity_flag_reports_not_raises(self):
        sys_ = ModalSystem.from_eta([1.0])
        cfg = SchemeConfig(dt=0.1, t_final=1.0)
        trace = factorize(sys_, cfg).run(ModalState([1.0], [0.0]))
        assert isinstance(trace.identity_ok, bool)

    def test_nonfinite_step_raises(self):
        sys_ = ModalSystem.from_eta([1e300])
        cfg = SchemeConfig(dt=1e100, t_final=1e100, damping=False)
        with np.errstate(all="ignore"):
            sol = factorize(sys_, cfg)
            with pytest.raises(NonFiniteStateError):
                sol.step(ModalState([1.0], [0.0]))


class TestWeightRange:
    """``run`` refuses a beta whose pair-norm weight overflows or underflows,
    once per beta and before any step; other betas run as they did."""

    @staticmethod
    def high_state(sys_):
        rng = np.random.default_rng(4)
        high = sys_.mu > 100.0
        return ModalState(*(np.where(high, rng.standard_normal(sys_.n), 0.0) for _ in "ab"))

    @pytest.mark.parametrize("beta", [-40.0, 40.0, 80.0])
    def test_out_of_range_beta_refused(self, monkeypatch, beta):
        # unchecked, -40 stepped into a NonFiniteStateError and 80 read weak_sq 0
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 64))
        calls = []
        doubled = schemes.SchemeSolver._doubled
        monkeypatch.setattr(schemes.SchemeSolver, "_doubled",
                            lambda self, K: calls.append(K) or doubled(self, K))
        solver = factorize(sys_, SchemeConfig(dt=0.01, t_final=0.5))
        with pytest.raises(DomainError, match=f"beta = {beta!r} is out of range"):
            solver.run(self.high_state(sys_), beta)
        assert calls == []

    @pytest.mark.parametrize("beta", [-0.25, 0.0, 0.5])
    def test_in_range_results_unchanged(self, monkeypatch, beta):
        sys_ = build_coupled_waves(ExampleParams(0.5, 1.0, 64))
        cfg = SchemeConfig(dt=0.01, t_final=0.5)
        u0 = self.high_state(sys_)
        trace = factorize(sys_, cfg).run(u0, beta)
        monkeypatch.setattr(schemes, "_pair_weights", lambda eta, beta: None)
        unchecked = factorize(sys_, cfg).run(u0, beta)
        for name in ("energy", "weak_sq", "damp", "visc1", "visc2", "observed_damp"):
            assert np.array_equal(getattr(trace, name), getattr(unchecked, name))
        assert trace.weak_sq[0] == pytest.approx(modal.pair_norm_sq(sys_, u0.a, u0.b, beta),
                                                 rel=1e-14)


class TestDiscreteGapLaw:
    @pytest.mark.parametrize("builder,params", [
        (build_coupled_waves, ExampleParams(alpha=0.5, gamma=1.0, k_max=32)),
        (build_boundary_coupled_waves, ExampleParams(alpha=0.5, gamma=1.0, k_max=32)),
    ])
    def test_filtered_alpha_gaps_at_least_half(self, builder, params):
        # on the filtered family |mu| <= delta/dt with delta <= 2 the map
        # mu -> alpha contracts gaps by at most a factor 2
        sys_ = builder(params)
        for dt in (0.1, 0.05, 0.01):
            for delta in (1.0, 1.9):
                fc = filtering_cutoff(sys_, dt, delta)
                mu = sys_.mu[fc.retained]
                if mu.size < 2:
                    continue
                alpha, _ = modal_multiplier(mu, dt)
                dmu = np.abs(mu[:, None] - mu[None, :])
                dal = np.abs(alpha[:, None] - alpha[None, :])
                mask = ~np.eye(mu.size, dtype=bool)
                assert np.all(dal[mask] >= 0.5 * dmu[mask] * (1 - 1e-12))
