"""Independent oracles shared by the test modules.

These deliberately avoid the package's solver internals: the physical-space
simulator works on coupled sine coefficients with its own dense assembly,
and the scalar stepper solves the defining stage equations directly.
"""

import numpy as np
import scipy.linalg


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
