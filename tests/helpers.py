"""Independent oracles shared by the test modules.

These deliberately avoid the package's solver internals: the physical-space
simulator works on coupled sine coefficients with its own dense assembly,
and the scalar stepper solves the defining stage equations directly.
"""

import math

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from polystab import InghamConfig, ModalState, ModalSystem


def physical_coupled_waves_energy(alpha, gamma, k_max, a0, b0, dt, t_final,
                                  viscosity=True, damping=True):
    """Energy trace of the zero-order coupled-wave pair, simulated in the
    orthonormal sine basis of each field (no branch diagonalization).

    ``a0, b0`` are modal branch coefficients ordered (-,1), (+,1), (-,2), ...
    as produced by the package builder; they are mapped to field coefficients
    here so both simulations start from the same physical state.
    """
    m = k_max
    ks = np.arange(1, m + 1)
    K = np.diag((ks * np.pi) ** 2)
    A_op = np.block([[K, alpha * np.eye(m)], [alpha * np.eye(m), K]])
    D_op = np.zeros((2 * m, 2 * m))
    D_op[m:, m:] = gamma * np.eye(m)

    # branch -> field coefficients: (-,k) at 2(k-1), (+,k) at 2(k-1)+1
    a_minus, a_plus = a0[0::2], a0[1::2]
    b_minus, b_plus = b0[0::2], b0[1::2]
    w = np.concatenate([(a_plus + a_minus), (a_plus - a_minus)]) / np.sqrt(2.0)
    v = np.concatenate([(b_plus + b_minus), (b_plus - b_minus)]) / np.sqrt(2.0)

    dim = 2 * m
    gen = np.zeros((2 * dim, 2 * dim))
    gen[:dim, dim:] = np.eye(dim)
    gen[dim:, :dim] = -A_op
    if damping:
        gen[dim:, dim:] = -D_op
    M1 = np.eye(2 * dim) - 0.5 * dt * gen
    lu1 = scipy.linalg.lu_factor(M1)
    # viscosity stage: (I + dt^3 A_op) on each block
    lu2 = scipy.linalg.lu_factor(np.eye(dim) + dt**3 * A_op)

    x = np.concatenate([w, v])
    nsteps = int(np.floor((t_final / dt) * (1 + 1e-12) + 1e-12)) + 1
    energies = np.empty(nsteps + 1)

    def energy_of(x):
        w, v = x[:dim], x[dim:]
        return 0.5 * (w @ A_op @ w + v @ v)

    energies[0] = energy_of(x)
    for k in range(nsteps):
        rhs = x + 0.5 * dt * (gen @ x)
        zt = scipy.linalg.lu_solve(lu1, rhs)
        if viscosity:
            x = np.concatenate(
                [scipy.linalg.lu_solve(lu2, zt[:dim]), scipy.linalg.lu_solve(lu2, zt[dim:])]
            )
        else:
            x = zt
        energies[k + 1] = energy_of(x)
    return energies


@st.composite
def modal_systems(draw, max_groups=4):
    """Modal systems of many shapes: 1..``max_groups`` Gram blocks of 1-8
    modes, each a dense PSD block of full or deficient rank (scale 1e-2..1e2)
    or zero (whose modes are then groups of one); eta log-uniform over
    1e-6..1e8, equal inside some blocks (degenerate clusters); modes sorted
    by eta, which permutes the blocks' rows."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 8),
                                     st.sampled_from(["full", "deficient", "zero"]),
                                     st.booleans()), min_size=1, max_size=max_groups))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(s for s, _, _ in blocks)
    eta, D = np.empty(n), np.zeros((n, n))
    start = 0
    for s, kind, equal in blocks:
        eta[start:start + s] = 10.0 ** rng.uniform(-6.0, 8.0, 1 if equal else s)
        rank = {"full": s, "deficient": int(rng.integers(min(1, s - 1), s)), "zero": 0}[kind]
        R = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal((s, rank))
        D[start:start + s, start:start + s] = 0.5 * (R @ R.T + (R @ R.T).T)
        start += s
    order = np.argsort(eta, kind="stable")
    return ModalSystem.from_eta(eta[order], damp_gram=D[np.ix_(order, order)])


def time_steps():
    """Time steps log-uniform over 1e-5..1e-1."""
    return st.floats(-5.0, -1.0).map(lambda e: 10.0**e)


def block_schedule(B, n_steps):
    """Steps per time block of an ``n_steps`` trajectory whose block length
    is B: 1, 2, 4, ... while the known block doubles up to B, then B each,
    the last block possibly shorter."""
    out, K = [], 1
    while sum(out) < n_steps:
        out.append(min(K, n_steps - sum(out)))
        K = min(2 * K, B)
    return out


def stage1_matrix(sys_, dt, damped=True):
    """Dense midpoint stage matrix ``I - (dt/2) G`` of a modal system, with
    the damped generator ``G = A - B B*`` or, if not ``damped``, ``G = A``."""
    n, h = sys_.n, 0.5 * dt
    M = np.eye(2 * n)
    M[:n, n:] -= h * np.eye(n)
    M[n:, :n] += h * np.diag(sys_.eta)
    if damped:
        M[n:, n:] += h * sys_.damp_gram
    return M


def inner_h(sys_, z1, z2):
    """H-inner product ``sum eta a1 a2 + sum b1 b2`` of two modal states
    (twice the energy form: ``inner_h(z, z) = 2 E(z)``)."""
    return float(np.sum(sys_.eta * z1.a * z2.a) + np.sum(z1.b * z2.b))


def apply_a(sys_, z):
    """The block generator ``A (a, b) = (b, -eta a)``, skew in ``inner_h``."""
    return ModalState(z.b.copy(), -sys_.eta * z.a)


def scalar_two_stage_step(eta, d, a, b, dt, damped=True, viscous=True):
    """One two-stage step of a single mode, solved from the defining equations.

    Returns (a_tilde, b_tilde, a_next, b_next).  ``d`` is the 1x1 damping
    Gram entry.
    """
    h = 0.5 * dt
    dd = d if damped else 0.0
    M1 = np.array([[1.0, -h], [h * eta, 1.0 + h * dd]])
    M2 = np.array([[1.0, h], [-h * eta, 1.0 - h * dd]])
    zt = np.linalg.solve(M1, M2 @ np.array([a, b]))
    if viscous:
        zn = zt / (1.0 + dt**3 * eta)
    else:
        zn = zt.copy()
    return zt[0], zt[1], zn[0], zn[1]


def scalar_observability_sums(eta, d, a0, b0, dt, t_star, beta, viscosity=True):
    """Observability sums of a single conservative mode (direct recursion)."""
    damp = v1 = v2 = 0.0
    a, b = a0, b0
    nsteps = int(np.floor((t_star / dt) * (1 + 1e-12) + 1e-12)) + 1
    for _ in range(nsteps):
        at, bt, an, bn = scalar_two_stage_step(eta, d, a, b, dt, damped=False,
                                               viscous=viscosity)
        mb = 0.5 * (b + bt)
        damp += dt * d * mb * mb
        if viscosity:
            v1 += dt**3 * (eta**2 * an**2 + eta * bn**2)
            v2 += dt**6 * (eta**3 * an**2 + eta**2 * bn**2)
        a, b = an, bn
    weak = eta ** (-2.0 * beta) * a0**2 + eta ** (-2.0 * beta - 1.0) * b0**2
    return damp, v1, v2, weak


def sample_matrix(freqs, cfg, t=0.0):
    """(2J+1, n) matrix ``E = [exp(i omega_k (t + j sigma))]`` of an Ingham
    sampling ``cfg``: ``S(x, t) = sigma ||E x||^2`` by definition."""
    times = t + cfg.sigma * np.arange(-cfg.J, cfg.J + 1)
    return np.exp(1j * np.outer(times, freqs))


def sampled_sums(freqs, X, cfg, t=0.0):
    """``sigma ||E x||^2`` per column x of X, summed sample by sample."""
    return cfg.sigma * np.sum(np.abs(sample_matrix(freqs, cfg, t) @ X) ** 2, axis=0)


def cluster_matrix(freqs, partition):
    """Real matrix M with ``Q(x) = ||M x||^2`` for a cluster partition, row
    by row: an isolated mode k gives ``e_k``; a 2-cluster (i, j) of gap
    ``g = omega_j - omega_i`` gives ``e_i + e_j``, ``g e_i`` and ``g e_j``."""
    eye = np.eye(len(freqs))
    rows = []
    for cluster in partition:
        if len(cluster) == 1:
            rows.append(eye[cluster[0]])
        else:
            i, j = cluster
            gap = freqs[j] - freqs[i]
            rows += [eye[i] + eye[j], gap * eye[i], gap * eye[j]]
    return np.array(rows).reshape(-1, len(freqs))


def qr_pencil(G, M):
    """Ascending eigenvalues of the pencil ``(G, M^T M)`` through ``M = Q R``,
    as those of ``R^-T G R^-1``, and the rounding bound
    ``n eps ||G||_F ||R^-1||^2`` of an eigenvalue of the pencil."""
    Rt = np.linalg.qr(M, mode="r").T
    eigs = np.linalg.eigvalsh(np.linalg.solve(Rt, np.linalg.solve(Rt, G).T))
    r_inv = np.linalg.norm(np.linalg.inv(Rt), 2)
    return eigs, G.shape[0] * np.finfo(float).eps * np.linalg.norm(G) * r_inv**2


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
