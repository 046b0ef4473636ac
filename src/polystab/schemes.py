"""Two-stage viscous time steppers and per-step energy accounting.

Three one-step maps act on a modal system with generator

    G = A - B B*   (damped)   or   G = A   (conservative),

where ``A (a, b) = (b, -eta a)`` is skew-adjoint in the energy inner
product and ``B B*`` acts on the velocity block through the damping Gram
matrix ``D``:

1. damped viscous step -- midpoint stage with the damped generator,

       (z~ - z)/dt = G (z + z~)/2,

   followed by an implicit viscosity stage

       (z+ - z~)/dt = dt^2 A^2 z+   <=>   z+ = z~ / (1 + dt^3 eta),

   applied componentwise to both blocks (A^2 is diagonal ``-eta`` on each
   block in modal coordinates, so the resolvent is exact per mode);

2. conservative viscous step -- the same with ``B B* = 0`` in the first
   stage (the midpoint stage then preserves the H-norm exactly);

3. pure midpoint step -- the first stage alone with ``G = A``
   (the Cayley map; per mode a rotation by ``alpha(mu) dt`` with
   ``alpha = (2/dt) atan(mu dt / 2)``).

Every step records the three dissipation terms

    damp = dt ||B* (z + z~)/2||_Y^2,
    visc1 = dt^3 ||A z+||_H^2,
    visc2 = (dt^6 / 2) ||A^2 z+||_H^2,

which satisfy the exact per-step identity

    E(z+) + visc1 + visc2 + damp = E(z),

so the residual of that identity is a direct measure of linear-solver
error.  One generator advances every trajectory and computes these terms
for each column; ``run``, the ``step_*`` methods and ``iterate_raw`` read
its per-step records, and ``run`` telescopes the identity over the whole
trajectory.

The midpoint stage ``(I - hG) y = (I + hG) x`` with ``h = dt/2`` is
solved through the Schur complement on the velocity block:

    r_a = a + h b,    r_b = b - h eta a - h D b,
    K y_b = r_b - h eta r_a,    K = I + h^2 diag(eta) + h D,
    y_a = r_a + h y_b.

``K`` is symmetric positive definite.  With damping active it is
Cholesky-factored once per solver; otherwise it is diagonal and the solve
is a division, the exact per-mode Cayley map.  ``solve_tol`` only sets the
audit tolerance ``10 * solve_tol * E0`` of the per-step identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DomainError, NonFiniteStateError
from .modal import ModalState, ModalSystem

__all__ = [
    "SchemeConfig",
    "StepRecord",
    "RawStep",
    "EnergyTrace",
    "SchemeSolver",
    "factorize",
    "modal_multiplier",
    "substep_count",
]


@dataclass(frozen=True)
class SchemeConfig:
    """Time step, horizon and stage switches for one scheme configuration.

    ``solve_tol`` sets the identity audit: every step's residual must stay
    within ``10 * solve_tol * E0``.
    """

    dt: float
    t_final: float
    viscosity: bool = True
    damping: bool = True
    solve_tol: float = 1e-13

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise DomainError("dt must be positive")
        if not (self.t_final >= self.dt):
            raise DomainError("t_final must be at least dt")
        if not (0.0 < self.solve_tol <= 1e-6):
            raise DomainError("solve_tol must lie in (0, 1e-6]")


def substep_count(t_final: float, dt: float) -> int:
    """Number of steps l = floor(T/dt), robust to floating division."""
    return int(math.floor((t_final / dt) * (1.0 + 1e-12) + 1e-12))


def modal_multiplier(mu, dt):
    """Discrete frequency and midpoint damping factor of a single mode.

    Returns ``(alpha, cos2)`` with ``alpha = (2/dt) atan(mu dt / 2)`` (the
    per-step rotation rate of the midpoint map) and
    ``cos2 = cos^2(alpha dt / 2) = 1 / (1 + (mu dt)^2 / 4)``.
    """
    mu = np.asarray(mu, dtype=float)
    alpha = (2.0 / dt) * np.arctan(0.5 * mu * dt)
    cos2 = 1.0 / (1.0 + 0.25 * (mu * dt) ** 2)
    if alpha.ndim == 0:
        return float(alpha), float(cos2)
    return alpha, cos2


@dataclass(frozen=True)
class StepRecord:
    """One step of the two-stage scheme with its dissipation bookkeeping.

    ``damp_term`` is the dissipative output of the configured generator
    (zero when the step ran without damping); ``observed_damp`` is the same
    quadratic form evaluated with the system's damping Gram regardless of
    the configuration, which is the observed output of the conservative
    system.
    """

    k: int
    z_tilde: ModalState
    z_next: ModalState
    damp_term: float
    visc1: float
    visc2: float
    identity_residual: float
    observed_damp: float


@dataclass
class EnergyTrace:
    """Scalar per-step summaries of a trajectory of length l+1 steps.

    ``energy`` and ``weak_sq`` have l+2 entries (states k = 0..l+1); the
    per-step term arrays have l+1 entries (steps k = 0..l).
    """

    dt: float
    beta: float
    t: np.ndarray
    energy: np.ndarray
    weak_sq: np.ndarray
    damp: np.ndarray
    visc1: np.ndarray
    visc2: np.ndarray
    identity_residual: np.ndarray
    observed_damp: np.ndarray
    domain_sq0: float
    solve_tol: float
    telescope_residual: float = 0.0
    telescope_tol: float = 0.0
    identity_ok: bool = True
    monotone_ok: bool = True
    final_state: ModalState | None = field(default=None, repr=False)

    @property
    def k(self) -> np.ndarray:
        return np.arange(self.t.shape[0])

    @property
    def e0(self) -> float:
        return float(self.energy[0])

    @property
    def e_final(self) -> float:
        return float(self.energy[-1])


class RawStep(NamedTuple):
    """One step of a (2n, m) column batch with its per-column accounting.

    ``x`` is the state x_k, ``z_tilde`` the midpoint stage and ``z_next``
    the state x_{k+1}.  ``energy`` and ``weak_sq`` (the squared pair norm on
    the ``-beta`` scale) belong to x_{k+1}, the ``*_prev`` fields to x_k.
    ``damp`` is the dissipative output of the stepped generator (zero
    without damping); ``observed_damp`` is the same form evaluated with the
    system's damping Gram regardless.
    """

    k: int
    x: np.ndarray
    z_tilde: np.ndarray
    z_next: np.ndarray
    energy_prev: np.ndarray
    energy: np.ndarray
    weak_sq_prev: np.ndarray
    weak_sq: np.ndarray
    visc1: np.ndarray
    visc2: np.ndarray
    damp: np.ndarray
    observed_damp: np.ndarray
    identity_residual: np.ndarray


class SchemeSolver:
    """Precomputed stage factorization for one (system, config) pair.

    Immutable after construction; one instance can serve many trajectories
    (including batched column states) concurrently.
    """

    def __init__(self, sys: ModalSystem, cfg: SchemeConfig):
        self.sys = sys
        self.cfg = cfg
        dt = cfg.dt
        eta = sys.eta
        self._h = 0.5 * dt
        self._h_eta = (self._h * eta)[:, None]

        # Diagonal resolvent of the viscosity stage, both blocks.
        vf = 1.0 / (1.0 + dt**3 * eta)
        self.visc_factor = vf
        self._vf2 = np.concatenate([vf, vf])[:, None]

        # Schur complement K of the midpoint stage: diagonal without damping.
        self._has_gram = bool(np.any(sys.damp_gram != 0.0))
        self._k_diag_inv = (1.0 / (1.0 + self._h**2 * eta))[:, None]
        self._k_chol = None
        if cfg.damping and self._has_gram:
            K = np.diag(1.0 + self._h**2 * eta) + self._h * sys.damp_gram
            self._k_chol = scipy.linalg.cho_factor(K, check_finite=False)

    def stage1_matrix(self, damped: bool | None = None) -> np.ndarray:
        """Assemble the dense midpoint stage matrix I - (dt/2) G."""
        if damped is None:
            damped = self.cfg.damping
        n, h = self.sys.n, self._h
        M = np.eye(2 * n)
        M[:n, n:] -= h * np.eye(n)
        M[n:, :n] += h * np.diag(self.sys.eta)
        if damped:
            M[n:, n:] += h * self.sys.damp_gram
        return M

    # -- the stepping kernel ---------------------------------------------

    def _stage1(self, x: np.ndarray, damped: bool) -> np.ndarray:
        """Solve (I - hG) y = (I + hG) x for a (2n, m) batch."""
        n, h = self.sys.n, self._h
        a, b = x[:n], x[n:]
        r_a = a + h * b
        r_b = b - self._h_eta * a
        if damped:
            r_b -= h * (self.sys.damp_gram @ b)
        s = r_b - self._h_eta * r_a
        if damped:
            y_b = scipy.linalg.cho_solve(self._k_chol, s, check_finite=False)
        else:
            y_b = s * self._k_diag_inv
        return np.concatenate([r_a + h * y_b, y_b])

    def _weights(self, viscous: bool, beta: float) -> np.ndarray:
        """Rows E, visc1, visc2, weak norm: each is ``row @ x**2``."""
        eta = self.sys.eta
        e_ab = np.concatenate([eta, np.ones_like(eta)])
        c = np.zeros(2 * eta.size)  # dt^3 |A^2|: dt^3 eta on both blocks
        if viscous:
            c = np.float64(self.cfg.dt) ** 3 * np.concatenate([eta, eta])
        return np.array([
            0.5 * e_ab,
            c * e_ab,
            0.5 * c**2 * e_ab,
            np.concatenate([eta ** (-2.0 * beta), eta ** (-2.0 * beta - 1.0)]),
        ])

    def _steps(self, x: np.ndarray, n_steps: int, damped: bool, viscous: bool,
               beta: float = 0.0):
        """Advance a (2n, m) batch ``n_steps`` times, yielding a RawStep each.

        The per-step identity residual is
        ``|E(x_{k+1}) + visc1 + visc2 + damp - E(x_k)|``.
        """
        n, dt = self.sys.n, self.cfg.dt
        damped = damped and self._k_chol is not None
        W = self._weights(viscous, beta)
        e_prev, _, _, w_prev = W @ x**2
        zero = np.zeros(x.shape[1])
        for k in range(n_steps):
            zt = self._stage1(x, damped)
            zn = zt * self._vf2 if viscous else zt
            if not np.all(np.isfinite(zn)):
                raise NonFiniteStateError("time step produced non-finite state")
            e, v1, v2, w = W @ zn**2
            observed = zero
            if self._has_gram:
                mb = 0.5 * (x[n:] + zt[n:])
                observed = dt * np.einsum("im,im->m", mb, self.sys.damp_gram @ mb)
            damp = observed if damped else zero
            resid = np.abs(e + v1 + v2 + damp - e_prev)
            yield RawStep(k, x, zt, zn, e_prev, e, w_prev, w, v1, v2, damp, observed, resid)
            x, e_prev, w_prev = zn, e, w

    # -- public one-step API -------------------------------------------

    def _record(self, z: ModalState, k: int, damped: bool) -> StepRecord:
        s = next(self._steps(z.stacked()[:, None], 1, damped, self.cfg.viscosity))
        return StepRecord(
            k=k,
            z_tilde=ModalState.from_stacked(s.z_tilde[:, 0]),
            z_next=ModalState.from_stacked(s.z_next[:, 0]),
            damp_term=float(s.damp[0]),
            visc1=float(s.visc1[0]),
            visc2=float(s.visc2[0]),
            identity_residual=float(s.identity_residual[0]),
            observed_damp=float(s.observed_damp[0]),
        )

    def step_viscous_damped(self, z: ModalState, k: int = 0) -> StepRecord:
        """One step of the damped two-stage scheme (honors both config flags)."""
        return self._record(z, k, damped=self.cfg.damping)

    def step_viscous_conservative(self, u: ModalState, k: int = 0) -> StepRecord:
        """One step of the conservative two-stage scheme (no damping in stage 1)."""
        return self._record(u, k, damped=False)

    def step_midpoint(self, y: ModalState) -> ModalState:
        """One pure midpoint step (no damping, no viscosity)."""
        s = next(self._steps(y.stacked()[:, None], 1, damped=False, viscous=False))
        return ModalState.from_stacked(s.z_next[:, 0])

    # -- trajectories ----------------------------------------------------

    def run(self, z0: ModalState, beta: float = 0.0) -> EnergyTrace:
        """Iterate the configured stepper over [0, T] and audit the identity.

        Performs l+1 = floor(T/dt)+1 steps and checks the telescoped energy
        identity E^0 - E^{l+1} = sum of all dissipation terms within
        ``(l+1) * 10 * solve_tol * E^0``.  A violation is flagged on the
        returned trace, not raised.
        """
        cfg = self.cfg
        nsteps = substep_count(cfg.t_final, cfg.dt) + 1
        x0 = z0.stacked()[:, None]
        rows = []
        for s in self._steps(x0, nsteps, cfg.damping, cfg.viscosity, beta):
            rows.append((s.energy_prev[0], s.weak_sq_prev[0], s.damp[0], s.visc1[0],
                         s.visc2[0], s.identity_residual[0], s.observed_damp[0]))
        energy, weak_sq, damp, visc1, visc2, resid, observed = np.array(rows).T
        energy = np.append(energy, s.energy[0])
        eta = self.sys.eta
        domain_sq0 = float(np.sum(eta**2 * z0.a**2) + np.sum(eta * z0.b**2))

        step_tol = 10.0 * cfg.solve_tol * energy[0]
        tel_resid = abs(
            (energy[0] - energy[-1])
            - (math.fsum(damp) + math.fsum(visc1) + math.fsum(visc2))
        )
        tel_tol = nsteps * step_tol
        identity_ok = bool(np.all(resid <= step_tol) and tel_resid <= tel_tol)
        monotone_ok = bool(np.all(np.diff(energy) <= step_tol))

        return EnergyTrace(
            dt=cfg.dt,
            beta=beta,
            t=np.arange(nsteps + 1) * cfg.dt,
            energy=energy,
            weak_sq=np.append(weak_sq, s.weak_sq[0]),
            damp=damp,
            visc1=visc1,
            visc2=visc2,
            identity_residual=resid,
            observed_damp=observed,
            domain_sq0=domain_sq0,
            solve_tol=cfg.solve_tol,
            telescope_residual=tel_resid,
            telescope_tol=tel_tol,
            identity_ok=identity_ok,
            monotone_ok=monotone_ok,
            final_state=ModalState.from_stacked(s.z_next[:, 0]),
        )

    def iterate_raw(self, x0: np.ndarray, n_steps: int, beta: float = 0.0):
        """Yield one ``RawStep`` per step of a batched trajectory.

        ``x0`` is a (2n, m) column batch or a 2n vector; damping and
        viscosity follow the config, ``beta`` sets the weak-norm scale.
        Used by the diagnostics studies to run many draws in lockstep.
        """
        x = np.array(x0, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        return self._steps(x, n_steps, self.cfg.damping, self.cfg.viscosity, beta)


def factorize(sys: ModalSystem, cfg: SchemeConfig) -> SchemeSolver:
    """Precompute the stage factorization for a scheme configuration."""
    return SchemeSolver(sys, cfg)
