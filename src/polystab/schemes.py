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

    E(z+) + visc1 + visc2 + damp = E(z).

**Propagator.**  The scheme is linear and time-invariant, so a step is a
fixed matrix.  In energy coordinates ``x^ = (mu a, b)``, where
``E = |x^|^2 / 2``, the generator is

    G^ = [[0, diag mu], [-diag mu, -D]],

the midpoint stage is the Cayley map ``S = (I - hG^)^{-1} (I + hG^)`` with
``h = dt/2`` (orthogonal when ``D = 0``), and one step is ``P = V S`` with
the diagonal viscosity resolvent ``V``; ``P`` is a contraction.  ``S``
comes from the Schur complement ``K = I + h^2 diag(eta) + h D`` of the
stage matrix.  The observed damping of a step from ``x^`` is
``x^T Q x^ = |L x^|^2`` with ``Q = dt M^T D M``, ``M = ([0 I] + [0 I] S) / 2``
and ``L = sqrt(dt) D^{1/2} M``, evaluated with the system's Gram even when
the stepped generator is undamped.

**Mode groups.**  The propagators are block-diagonal over the system's
mode groups.  Groups of one size are stacked, as the system stores them
with their Gram blocks (``ModalSystem.blocks``), and ``P`` and ``L`` are
built per group by batched numpy calls (one batched solve per size).
Every step goes through the time blocks below: a single step (``step``) is
a one-step trajectory.  Another scheme of the family is
another solver: ``factorize(sys, dataclasses.replace(cfg, damping=False))``
steps the conservative scheme, and with ``viscosity=False`` as well the
midpoint map, whose ``z_next`` is the midpoint stage ``z~``.

**Time blocks.**  A (2n, m) column batch holds its last K states
``x_{k-K+1} .. x_k`` as one block per group size; one batched product with
``M_K = [P^K; L P^{K-1}]`` gives the next K states and the square roots of
the observed damping of steps ``k .. k+K-1``.  The known block starts at
``x_0`` and doubles, so the time blocks have 1, 2, 4, ..., B steps, then B
each; ``M_{2K} = M_K P^K`` is cached per K.  The energy, visc1, visc2 and
``-beta`` weak-norm weights are diagonal in energy coordinates (``1/2``,
``dt^3 eta``, ``dt^6 eta^2 / 2``, ``eta^{-2 beta - 1}``), so every term of
the block is a weight product with the squared product.  Full blocks
alternate two buffers per group size: the product goes into one, its
squares into the other, whose states the product has just read, so the
states after a block are valid until the next block.

Only what the batch occupies is stepped; ``P`` keeps every other group
exactly zero.  Per group size, if some group holds every column, the
occupied groups are stepped in all m columns as one (g, 2s, K m) block
(column-aligned), whose products of several columns are padded to whole
8-column BLAS panels.  Otherwise each occupied (group, column) pair is
stepped alone, as one (p, 2s, K) block, and a column's terms are summed
over its pairs in group order: the decay family, one or two groups per
column, steps 8 pairs instead of 6 groups in 8 columns.  Either way a
column's bits do not depend on the other columns or on its place in the
batch.  B follows the state entries stepped, at least one per column
(``_block_length``), and grows with them once entries retire (below): the
known block of the last B states then doubles on, as it did from ``x_0``,
to the new B, which is at most the steps left, so every cached ``M_K`` is
stepped, in buffers laid out in the old ones' allocation where it fits.  A
dense group of size n runs with B = 1 at ~5n^2 multiply-adds per column-step.

**Retirement.**  The viscosity stage divides mode ``eta`` by
``1 + dt^3 eta`` per step, so a column's top modes fall into subnormal
numbers and then exact zeros.  Stepped entries -- a group in one column --
retire, are no longer stepped, on one schedule fixed at x_0
(``_retire_steps``).  With e an entry's energy at x_0 and N the entries
stepped at the start, a column's energy stays above its witness
``W_c = max e sigma_min(P)^(2 n_steps)`` at every step, and
``f e lambda_max^k`` bounds what an entry would still add to each term at
step k, the weak norm of any beta included (``_retire_bounds``;
``sigma_min^2`` and ``lambda_max`` are the extreme eigenvalues of
``P^T P``).  An entry retires from the first k at which
``f e lambda_max^k < RETIRE_RTOL W_c / N``; one with ``lambda_max >= 1``
from step 0 if that holds at k = n_steps, else never.  So each later term
of a column moves by at most ``RETIRE_RTOL E_c(k)`` (to the rounding of e),
1e16 times below the audit.  The witness is taken in logarithms, so it
cannot underflow on long runs.  Entries are dropped after the first full
time block whose first new state is x_k with k >= B, then the first with k
at least twice that, and so on (O(log n) drops, at k = B, 2B, 4B, ... while
B stays), but not after the last block (so ``step`` never retires).  Pairs
retire alone; a column-aligned group retires at the latest of its columns'
steps, so rolling the columns still rolls every bit.  A column's only entry
gets a step beyond the run from the rule itself (its witness is its own
energy, and ``f >= lambda_max >= sigma_min^2``), and a batch of one entry
builds no schedule.  Retired entries read exact zero in the states after a
block.

**Audit.**  The residual of the per-step identity measures how accurately
``P``, ``L`` and their doubled powers were built; its tolerance is the
constant ``AUDIT_RTOL * E0`` (``E0`` per column), which no config moves.
Each state of a time block comes from a state K steps back through
``P^K``, so the residual carries the rounding of ``P^K`` (~20 eps E0 over
2 * 10^5 steps of the criterion-7 family at B = 512).  ``iterate_raw``
checks every time block against it before yielding the block's steps and
raises DiagnosticFailure naming the first failing step; ``run`` flags a
violation on the returned trace instead, and also telescopes the identity
over the whole trajectory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (DiagnosticFailure, DimensionMismatchError, DomainError, NonFiniteStateError,
                     check_int)
from .modal import ModalState, ModalSystem, _pair_weights

# the energy-identity audit: every step's residual is at most AUDIT_RTOL * E0
AUDIT_RTOL = 1e-12
# retirement: what the entries a column no longer steps would still add moves
# each later term of the column by at most RETIRE_RTOL * E_c(k)
RETIRE_RTOL = np.finfo(float).eps ** 2


@dataclass(frozen=True)
class SchemeConfig:
    """Time step, horizon and stage switches for one scheme configuration."""

    dt: float
    t_final: float
    viscosity: bool = True
    damping: bool = True

    def __post_init__(self):
        for name in ("dt", "t_final"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{name} must be a real number; got {value!r}")
        if not (self.dt > 0.0):
            raise DomainError("dt must be positive")
        if not (self.dt <= self.t_final < math.inf):
            raise DomainError("t_final must be finite and at least dt")


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
    per-step term arrays have l+1 entries (steps k = 0..l).  ``final_state``
    is x_{l+1}, where the groups the kernel retired (module docstring) read
    exact zero: together they held at most ``RETIRE_RTOL`` times its energy.
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
    telescope_residual: float = 0.0
    telescope_tol: float = 0.0
    identity_ok: bool = True
    monotone_ok: bool = True
    final_state: ModalState | None = field(default=None, repr=False)

    @property
    def e0(self) -> float:
        return float(self.energy[0])

    @property
    def e_final(self) -> float:
        return float(self.energy[-1])


class _Block(NamedTuple):
    """Steps k0 .. k0+B-1 of a batch: (B+1, m) state rows, (B, m) step rows
    (fresh arrays in every block, so the records pointing at them stay
    valid).  ``weak_sq`` is on the ``-beta`` scale; ``observed`` is the damping
    term evaluated with the system's damping Gram even when the step is
    undamped: the step's own damping term is ``observed`` if the solver is
    damped and zero otherwise."""

    k0: int
    energy: np.ndarray
    weak_sq: np.ndarray
    visc1: np.ndarray
    visc2: np.ndarray
    observed: np.ndarray
    resid: np.ndarray


class _Groups(NamedTuple):
    """All mode groups of one size s, stacked: g groups."""

    rows: np.ndarray  # (g, 2s) rows of the stacked modal vector
    scale: np.ndarray  # (g, 2s, 1) modal -> energy coordinates (mu, then 1)
    eta: np.ndarray  # (g, 2s) eigenvalue of each row's mode
    gram: np.ndarray  # (g, s, s) damping Gram of each group


def _block_length(entries: int, groups) -> int:
    """Longest time block B (blocks run 1, 2, 4, ..., B steps, then B each)
    for ``entries`` stepped state entries per step: ~2^15 stepped entries
    per block and at most 2^18 / (entries of the P of ``groups``) steps,
    rounded down to a power of two.  The last cap keeps a dense group at
    B = 1.  ``_blocks`` passes every group of the system at the start and
    the groups still stepped once some retire, and counts at least one entry
    per column: a block's (6, B, m) terms are filled even where nothing is
    stepped, so an all-zero m-column batch runs at B <= 2^15 / m."""
    sq = sum(grp.rows.size * grp.rows.shape[1] for grp in groups)
    b = min(2**15 // max(entries, 1), 2**18 // sq)
    return 1 << (max(b, 1).bit_length() - 1)


def _lanes(cols: int) -> int:
    """Columns of a block product of ``cols`` columns: several are padded to
    a multiple of 8.  BLAS sums full 8-column panels in one order and an edge
    panel in another, so padded, a column's terms depend neither on where it
    sits nor on the zero rows of unoccupied groups."""
    return cols if cols == 1 else -(-cols // 8) * 8


class _Layout(NamedTuple):
    """The stepped part of group size ``j``: the groups ``sel`` (``grp``),
    either column-aligned (``pair_cols`` None: (5, g, r) weights, m state
    columns per group) or one per occupied (group, column) pair, column by
    column ((p, 5, r) weights, one state column; ``pair_cols`` the pairs'
    columns)."""

    j: int
    sel: np.ndarray | slice
    grp: _Groups
    w: np.ndarray
    pair_cols: list | None
    mc: int


def _add_terms(T: np.ndarray, w: np.ndarray, y2: np.ndarray, pair_cols) -> None:
    """Add to the (k, nb, m) terms ``T`` of nb steps the weighted squares
    ``y2``: of a (g, r, >= nb m) column-aligned block by one product with
    the (k, g, r) weights, or of a (p, r, >= nb) pair block by one product
    per pair with the (p, k, r) weights, added to the pair's column in
    pair order."""
    k, nb, m = T.shape
    if pair_cols is None:
        g, r = w.shape[1:]
        T += (w.reshape(k, g * r) @ y2.reshape(g * r, -1))[:, :nb * m].reshape(k, nb, m)
    else:
        for c, terms in zip(pair_cols, np.matmul(w, y2[:, :, :nb])):
            T[:, :, c] += terms


class SchemeSolver:
    """Propagators of one (system, config) pair.

    Construction builds the ``P`` and ``L`` of the configured stages only,
    per mode group of the system; the doubled maps ``M_K`` are built on
    first use and cached.  ``step`` is a one-step trajectory of the kernel.
    One instance can serve many trajectories (including batched column
    states).
    """

    def __init__(self, sys: ModalSystem, cfg: SchemeConfig):
        self.sys = sys
        self.cfg = cfg
        n, eta = sys.n, sys.eta
        mu = np.sqrt(eta)
        self._groups = []
        for idx, gram in sys.blocks:
            rows = np.concatenate([idx, idx + n], axis=1)
            scale = np.concatenate([mu[idx], np.ones(idx.shape)], axis=1)[:, :, None]
            self._groups.append(_Groups(rows, scale, eta[rows % n], gram))
        self._damped = cfg.damping and any(grp.gram.any() for grp in self._groups)
        self._doubled_maps = {1: self._propagators()}
        self._weight_sets = {}
        self._bound_sets = {}

    # -- propagators -----------------------------------------------------

    def _propagators(self) -> list:
        """Per group size: the (g, r, 2s) one-step map ``[P; L]`` in energy
        coordinates, where ``L = sqrt(dt) D^{1/2} M`` factors the
        observed-damping form ``Q = L^T L`` (no L rows when the groups' Gram
        is zero)."""
        dt = self.cfg.dt
        h = 0.5 * dt
        out = []
        for grp in self._groups:
            g, s = grp.gram.shape[:2]
            eye = np.broadcast_to(np.eye(s), (g, s, s))
            hmu = h * grp.scale[:, :s]  # (g, s, 1)
            K = eye + (h * h * grp.eta[:, :s, None]) * eye
            if self._damped:
                K = K + h * grp.gram
            # (I - hG^) S = (I + hG^):  K Z = [-2h diag(mu), 2I], S_a = [I, 0] + h diag(mu) Z
            # and S_b = Z - [0, I], with no cancellation of size h mu
            Z = np.linalg.solve(K, np.concatenate([-2.0 * hmu * eye, 2.0 * eye], axis=2))
            S = np.concatenate([hmu * Z, Z], axis=1) + np.diag(np.repeat([1.0, -1.0], s))
            vf = 1.0 / (1.0 + dt**3 * grp.eta)
            P = vf[:, :, None] * S if self.cfg.viscosity else S
            if np.any(grp.gram):
                M = 0.5 * Z
                # rows of D^{1/2} for the eigenvalues above eigh's
                # rounding level: the Gram's numerical rank
                lam, U = np.linalg.eigh(grp.gram)
                r = int(np.max(np.sum(lam > s * np.finfo(float).eps * lam.max(), axis=1)))
                root = np.sqrt(dt * np.maximum(lam[:, s - r:], 0.0))[:, :, None]
                P = np.concatenate([P, (root * U[:, :, s - r:].transpose(0, 2, 1)) @ M], axis=1)
            out.append(P)
        return out

    def _doubled(self, K: int) -> list:
        """Per group size: the (g, r, 2s) map ``M_K = [P^K; L P^{K-1}]``
        for K a power of two, by doubling ``M_{2K} = M_K P^K``; cached per K."""
        if K not in self._doubled_maps:
            self._doubled_maps[K] = [M @ M[:, : M.shape[2]] for M in self._doubled(K // 2)]
        return self._doubled_maps[K]

    def _weights(self, beta: float) -> list:
        """Per group size: (5, g, r) weights of the squared map rows for
        E, visc1, visc2 and the weak norm (on the state rows) and the
        observed damping (on the L rows); cached per beta, which must be
        finite and keep the pair-norm weights finite and nonzero on the
        system's eta (else DomainError, before any step)."""
        if beta not in self._weight_sets:
            _pair_weights(self.sys.eta, beta)
            out = []
            for grp, M in zip(self._groups, self._doubled(1)):
                eta = grp.eta
                c = self.cfg.dt**3 * eta if self.cfg.viscosity else np.zeros_like(eta)
                w = np.zeros((5,) + M.shape[:2])
                w[:4, :, : eta.shape[1]] = [np.full_like(eta, 0.5), c, 0.5 * c**2,
                                            eta ** (-2.0 * beta - 1.0)]
                w[4, :, eta.shape[1]:] = 1.0
                out.append(w)
            self._weight_sets[beta] = out
        return self._weight_sets[beta]

    def _retire_bounds(self, beta: float) -> list:
        """Per group size: (3, g) ``sigma_min(P)^2`` and ``lambda_max``, the
        least and the largest eigenvalue of ``P^T P`` (one batched
        ``eigvalsh``) less and plus its rounding ``(2s)^2 eps |P|_F^2``, and
        ``f = 2 max_t sum_r w_t[r] |M_r|^2`` over the terms' weights and the
        rows of ``[P; L]``, so that ``f e`` bounds each term of a state of
        energy e; cached per beta."""
        if beta not in self._bound_sets:
            out = []
            for M, w in zip(self._doubled(1), self._weights(beta)):
                P = M[:, :M.shape[2]]
                sq = np.square(M).sum(axis=2)  # (g, r)
                margin = P.shape[1] ** 2 * np.finfo(float).eps * sq[:, :P.shape[1]].sum(axis=1)
                lam = np.linalg.eigvalsh(P.transpose(0, 2, 1) @ P)
                out.append(np.stack([np.maximum(lam[:, 0] - margin, 0.0), lam[:, -1] + margin,
                                     2.0 * (w * sq).sum(axis=2).max(axis=0)]))
            self._bound_sets[beta] = out
        return self._bound_sets[beta]

    def _to_modal(self, pairs) -> np.ndarray:
        """Stacked modal vector of one-column (groups, state) pairs; other rows zero."""
        out = np.zeros((2 * self.sys.n, 1))
        for grp, xg in pairs:
            out[grp.rows] = xg / grp.scale
        return out[:, 0]

    # -- the stepping kernel ---------------------------------------------

    def _blocks(self, x: np.ndarray, n_steps: int, beta: float = 0.0):
        """Advance a (2n, m) batch ``n_steps`` times, yielding per time block
        a _Block and the energy-coordinate state after it as (groups, state)
        pairs, one per stepped group size: views that the next block
        overwrites.

        Only what the batch occupies is stepped: ``P`` keeps a zero group
        exactly zero, adding exact zeros to every term.  Per group size, if
        some group holds every column, the occupied groups are stepped in
        all m columns (column-aligned: the last K states are one
        (g, 2s, K m) block, padded with zero columns up to ``_lanes``);
        otherwise each occupied (group, column) pair is stepped alone (one
        (p, 2s, K) block, so the states after it are one column per pair)
        and a column's terms are summed over its pairs in group order.  K
        doubles from 1 to B (``_block_length`` of the entries stepped, at
        least m, and at most ``n_steps``).  After full blocks at
        geometrically spaced steps but the last, the entries whose step of
        the schedule fixed at x_0 (``_retire_steps``) has come retire
        (``_retire``); when some do, B follows the entries left (at most the
        steps left) and K doubles on from the old B.  The per-step identity
        residual is ``|E(x_{k+1}) + visc1 + visc2 + damp - E(x_k)|``.  A batch of other
        than 2n rows raises DimensionMismatchError before any step, and a
        non-finite state or term NonFiniteStateError.
        """
        if x.shape[0] != 2 * self.sys.n:
            raise DimensionMismatchError("state rows", 2 * self.sys.n, x.shape[0])
        m = x.shape[1]
        lays, xs = [], []
        for j, (grp, w) in enumerate(zip(self._groups, self._weights(beta))):
            nz = x[grp.rows].any(axis=1)  # (g, m): the columns that occupy each group
            occ = nz.any(axis=1)
            if not occ.any():
                continue
            if nz.all(axis=1).any():  # a slice when every group is occupied: views, no copies
                sel, pair_cols = slice(None) if occ.all() else np.flatnonzero(occ), None
                x0, w = x[grp.rows[sel]], w[:, sel]
            else:  # pairs column by column, each column's in group order
                pair_cols, sel = np.nonzero(nz.T)
                x0 = x[grp.rows[sel], pair_cols[:, None]][:, :, None]
                w, pair_cols = w[:, sel].transpose(1, 0, 2), pair_cols.tolist()
            grp = _Groups(*(a[sel] for a in grp))
            lays.append(_Layout(j, sel, grp, np.ascontiguousarray(w), pair_cols, x0.shape[2]))
            xs.append(x0 * grp.scale)

        def stepped():  # state entries stepped per step, at least one per column
            return max(sum(xg.shape[0] * xg.shape[1] * lay.mc for lay, xg in zip(lays, xs)), m)

        def known_blocks(states, slot, old):
            """Zeroed pairs of (g, r, _lanes(B mc)) buffers, each laid out in the allocation
            of its ``old`` array where it fits (the states copied out first), else allocated,
            ``states`` (g, 2s, cols) at the front of buffer ``slot``, and the known blocks."""
            bufs, known = [], []
            for lay, xg, prev in zip(lays, states, old):
                g, s2, cols = xg.shape
                shape = (2, g, self._doubled(1)[lay.j].shape[1], _lanes(B * lay.mc))
                root, size = prev if prev.base is None else prev.base, math.prod(shape)
                if root.size >= size:
                    xg, buf = xg.copy(), root.reshape(-1)[:size].reshape(shape)
                    buf[...] = 0.0
                else:
                    buf = np.zeros(shape)
                bufs.append(buf)
                known.append(buf[slot, :, :s2])
                known[-1][:, :, :cols] = xg
            return bufs, known

        B = min(_block_length(stepped(), self._groups), 1 << (max(n_steps, 1).bit_length() - 1))
        entries = sum(xg.shape[0] for xg in xs)  # at least the entries of any one column
        bufs, xs = known_blocks(xs, 0, [np.empty(0)] * len(xs))
        prev, es = np.zeros((4, 1, m)), []
        for lay, xg in zip(lays, xs):
            w4 = lay.w[:4, :, :xg.shape[1]] if lay.pair_cols is None else lay.w[:, :4, :xg.shape[1]]
            x2 = xg * xg
            _add_terms(prev, w4, x2, lay.pair_cols)
            es.append(0.5 * x2[:, :, :lay.mc].sum(axis=1))
        prev = prev[:, 0]
        # the step from which each entry retires; a batch's only entry never does
        dues = (self._retire_steps(lays, es, m, beta, entries, n_steps) if entries > 1
                else [np.full(entries, np.inf)] * len(lays))
        # checks follow the full blocks at geometrically spaced steps from check_at on
        K, k0, i, maps_K, check_at = 1, 0, 0, 0, B
        while k0 < n_steps:
            nb = min(K, n_steps - k0)
            if K != maps_K:
                maps, maps_K = [self._doubled(K)[lay.j][lay.sel] for lay in lays], K
            # full blocks alternate a size's two (g, r, width) buffers: the product goes into
            # buffer 1 - i, not the one holding the states it reads, its squares into buffer i
            full = nb == B
            # E, visc1, visc2, weak of x_{k+1}; observed damping and residual of step k
            T = np.zeros((6, nb, m))
            after = []
            for j, (lay, M, xg) in enumerate(zip(lays, maps, xs)):
                s2, cols = M.shape[2], nb * lay.mc
                # columns past ``cols`` are zero or later states: they round no other column
                y = np.matmul(M, xg[:, :, :_lanes(cols)], out=bufs[j][1 - i] if full else None)
                y2 = np.square(y, out=bufs[j][i] if full else None)
                _add_terms(T[:5], lay.w, y2, lay.pair_cols)
                if K < B:  # the known block doubles in place
                    xg[:, :, cols: 2 * cols] = y[:, :s2, :cols]
                xs[j] = xg if K < B else y[:, :s2]
                after.append((lay.grp, y[:, :s2, cols - lay.mc: cols]))
            energy = np.concatenate([prev[0][None], T[0]])
            res = np.add(T[0], T[1], out=T[5])
            res += T[2]
            if self._damped:  # the damping term is zero otherwise
                res += T[4]
            np.abs(np.subtract(res, energy[:-1], out=res), out=res)
            if not np.isfinite(T).all():
                raise NonFiniteStateError("time step produced non-finite state or terms")
            yield (_Block(k0, energy, np.concatenate([prev[3][None], T[3]]), T[1], T[2], T[4],
                          T[5]), after)
            prev = T[:4, -1]
            k, k0, K = k0 + 1, k0 + nb, min(2 * K, B)
            if full and k >= check_at and k0 < n_steps:
                check_at, held = 2 * k, stepped()
                lays, maps, xs, bufs, dues = self._retire(lays, maps, bufs, dues, i, k)
                if stepped() < held:  # B follows the entries left, at most the steps left
                    grown = min(_block_length(stepped(), [lay.grp for lay in lays]),
                                1 << ((n_steps - k0).bit_length() - 1))
                    if grown > B:  # the known block of the last K states doubles on
                        B = grown
                        bufs, xs = known_blocks(
                            [xg[:, :, :K * lay.mc] for lay, xg in zip(lays, xs)], 1 - i, bufs)
            i ^= full

    def _retire_steps(self, lays, es, m, beta, entries, n_steps):
        """The retirement schedule of an ``n_steps`` run of m columns (see
        the module docstring) from the energies ``es`` of the stepped entries
        at x_0 (per layout, (rows, mc)): per layout, the first step from which
        each entry may retire, inf where it never does.  The witness is taken
        in logarithms, so it cannot underflow; a nan (a zero entry of a zero
        column, or ``RETIRE_RTOL = 0``) never retires."""
        bounds = self._retire_bounds(beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs, W = [np.log(e) for e in es], np.full(m, -np.inf)  # W: log W_c per column
            for lay, le in zip(lays, logs):
                w = le + n_steps * np.log(bounds[lay.j][0, lay.sel])[:, None]
                if lay.pair_cols is None:
                    np.maximum(W, w.max(axis=0), out=W)
                else:
                    np.maximum.at(W, lay.pair_cols, w[:, 0])
            lim, dues = np.log(RETIRE_RTOL / entries) + W, []
            for lay, le in zip(lays, logs):
                _, lmax, f = bounds[lay.j][:, lay.sel]
                at = np.s_[:] if lay.pair_cols is None else np.s_[lay.pair_cols, None]
                gap, rate = np.log(f)[:, None] + le - lim[at], -np.log(lmax)[:, None]
                # f e lambda_max^k < RETIRE_RTOL W_c / N for every k > gap / rate if
                # lambda_max < 1; else for every k <= n_steps if it holds at n_steps
                due = np.where(rate > 0, np.maximum(np.floor(gap / rate) + 1.0, 0.0),
                               np.where(gap < n_steps * rate, 0.0, np.inf))
                # a group retires at the latest of its columns' steps
                dues.append(np.where(np.isnan(due), np.inf, due).max(axis=1))
        return dues

    def _retire(self, lays, maps, bufs, dues, i, k):
        """Retirement after a full block whose first new state is x_k (see
        the module docstring): the entries whose step ``dues`` has come are
        dropped.  The block's states are in ``bufs[j][1 - i]``.  Returns the
        layouts, maps, known blocks, buffers and steps, each layout rebuilt
        at most once and dropped when nothing of it is left."""
        out = ([], [], [], [], [])
        for lay, M, buf, due in zip(lays, maps, bufs, dues):
            keep = due > k
            if not keep.any():
                continue
            if not keep.all():  # the kept states move to the front of their buffer
                g = int(keep.sum())
                buf[1 - i, :g] = buf[1 - i][keep]
                aligned = lay.pair_cols is None
                sel = np.flatnonzero(keep) if isinstance(lay.sel, slice) else lay.sel[keep]
                w = lay.w[:, keep] if aligned else lay.w[keep]
                pair_cols = None if aligned else np.array(lay.pair_cols)[keep].tolist()
                lay = _Layout(lay.j, sel, _Groups(*(a[keep] for a in lay.grp)), w, pair_cols,
                              lay.mc)
                M, buf, due = M[keep], buf[:, :g], due[keep]
            for items, item in zip(out, (lay, M, buf[1 - i][:, :M.shape[2]], buf, due)):
                items.append(item)
        return out

    # -- public one-step API -------------------------------------------

    def step(self, z: ModalState) -> StepRecord:
        """One step of the configured scheme: a one-step trajectory of the kernel."""
        ((b, after),) = self._blocks(z.stacked()[:, None], 1)
        # finite terms imply finite states, so they skip ModalState's copy and scan
        z_next = ModalState._wrap_stacked(self._to_modal(after))
        observed = float(b.observed[0, 0])
        return StepRecord(z_next, observed if self._damped else 0.0,
                          *(float(t[0, 0]) for t in (b.visc1, b.visc2, b.resid)), observed)

    # -- trajectories ----------------------------------------------------

    def run(self, z0: ModalState, beta: float = 0.0) -> EnergyTrace:
        """Iterate the configured stepper over [0, T] and audit the identity.

        Performs l+1 = floor(T/dt)+1 steps and checks the telescoped energy
        identity E^0 - E^{l+1} = sum of all dissipation terms within
        ``(l+1) * AUDIT_RTOL * E^0``.  A violation is flagged on the
        returned trace, not raised.
        """
        cfg = self.cfg
        nsteps = substep_count(cfg.t_final, cfg.dt) + 1
        blocks = []
        for b, after in self._blocks(z0.stacked()[:, None], nsteps, beta):
            blocks.append(b)

        def steps(name):
            return np.concatenate([getattr(b, name)[:, 0] for b in blocks])

        def states(name):
            return np.concatenate([getattr(blocks[0], name)[:1, 0]]
                                  + [getattr(b, name)[1:, 0] for b in blocks])

        energy, visc1, visc2, resid, observed = (
            states("energy"), steps("visc1"), steps("visc2"), steps("resid"), steps("observed"))
        damp = observed.copy() if self._damped else np.zeros_like(observed)
        eta = self.sys.eta
        domain_sq0 = float(np.sum(eta**2 * z0.a**2) + np.sum(eta * z0.b**2))

        step_tol = AUDIT_RTOL * energy[0]
        tel_resid = abs((energy[0] - energy[-1])
                        - (math.fsum(damp) + math.fsum(visc1) + math.fsum(visc2)))
        tel_tol = nsteps * step_tol
        identity_ok = bool(np.all(resid <= step_tol) and tel_resid <= tel_tol)
        monotone_ok = bool(np.all(np.diff(energy) <= step_tol))

        return EnergyTrace(
            dt=cfg.dt, beta=beta, t=np.arange(nsteps + 1) * cfg.dt, energy=energy,
            weak_sq=states("weak_sq"), damp=damp, visc1=visc1, visc2=visc2,
            identity_residual=resid, observed_damp=observed, domain_sq0=domain_sq0,
            telescope_residual=tel_resid, telescope_tol=tel_tol,
            identity_ok=identity_ok, monotone_ok=monotone_ok,
            final_state=ModalState._wrap_stacked(self._to_modal(after)))

    def iterate_raw(self, x0: np.ndarray, n_steps: int, beta: float = 0.0):
        """Yield one bare ``(k, block, row)`` tuple per step of a batched
        trajectory: row ``row`` of the step arrays of the ``_Block`` ``block``
        (its state arrays hold x_k at ``row`` and x_{k+1} at ``row + 1``).

        ``x0`` is a (2n, m) column batch with m >= 1 or a 2n vector (else
        DimensionMismatchError or DomainError) and ``n_steps`` a positive
        integer (else DomainError); damping and viscosity follow the config,
        ``beta`` sets the weak-norm scale.  Steps are computed a time block at a time and
        yielded one by one (``zip`` reuses no tuple that a consumer keeps);
        consumers read the whole block where ``row == 0``.  Each block is
        audited before any of its steps is yielded: a per-step identity
        residual above ``AUDIT_RTOL * E0`` of its column raises
        DiagnosticFailure naming the first failing step.
        """
        x = np.array(x0, dtype=float)
        x = x[:, None] if x.ndim == 1 else x
        if x.shape[1] == 0:
            raise DomainError("iterate_raw needs a batch of at least one column")
        check_int("n_steps", n_steps)
        for b, _ in self._blocks(x, int(n_steps), beta):
            if b.k0 == 0:
                tol = AUDIT_RTOL * b.energy[0]
            if (b.resid > tol).any():
                k = b.k0 + int(np.argmax((b.resid > tol).any(axis=1)))
                raise DiagnosticFailure(
                    f"energy identity residual above {AUDIT_RTOL:g} * E0 at step {k}")
            nb = b.resid.shape[0]
            yield from zip(range(b.k0, b.k0 + nb), repeat(b, nb), range(nb))


def factorize(sys: ModalSystem, cfg: SchemeConfig) -> SchemeSolver:
    """Build the per-group propagators of a scheme configuration on the
    system's stored mode groups and Gram blocks (``sys.blocks``)."""
    return SchemeSolver(sys, cfg)
