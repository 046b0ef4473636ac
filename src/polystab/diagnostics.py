"""Composite verification quantities: observability, contraction, decay.

The quantities measured here are the ones the stability theory rests on:

* the discrete observability functional of the conservative viscous
  scheme -- the ratio of the accumulated observation and viscosity sums
  over a horizon T* to the weak norm of the initial state;
* the high-frequency inverse inequality ``dt ||A y|| >= delta ||y||`` on
  the complement of the low-pass space, and the per-step weak-norm
  contraction factor ``1 / (1 + 2 dt delta^2)`` it implies;
* polynomial decay fits ``E ~ M (1 + t)^{-p}`` of damped-scheme energy
  traces against the generator-domain norm of the initial state, swept
  over time steps to probe uniformity in dt;
* the extremal sequence of the discrete decay recursion
  ``e_{k+1} + C e_{k+1}^{2+alpha} = e_k`` as an independent oracle for the
  polynomial rate 1/(alpha+1): scalar roots while a step is stiff, then
  Newton solves of 2^14 steps at a time from a second-order start, each
  step's residual at most 2 eps of the previous value (1e6 steps in 62
  solves, ~33 ms on one core).

Every trajectory is stepped by ``SchemeSolver.iterate_raw``, which
advances all columns of a study cell together with the per-mode-group
propagators of ``schemes`` a time block at a time and yields one bare
``(k, block, row)`` tuple per step.  Every study reads each time block
once, at its first tuple (``_blocks_of``), while every tuple is still
drained; the observability sums add the block's rows in step order.
``iterate_raw`` audits every step it yields: a per-step energy-identity
residual above the fixed ``AUDIT_RTOL * E0`` of its column raises
DiagnosticFailure, which the studies pass on.  The decay verdict's bounds are fixed too
(``UNIFORMITY_FACTOR`` and ``EXPONENT_FLOOR``).

The observability study steps each (mode group, draw) state once: per dt,
the draws' low-pass parts and their high-mode remainders go as two
batches of ``trials`` columns, and a draw's sums are the two parts' sums
added, since no group holds both (a group that straddles the cutoff is
stepped whole in the remainder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import filterfalse
from operator import itemgetter

import numpy as np

from .errors import DiagnosticFailure, DomainError, check_finite, check_int, check_positive
from .modal import ModalState, ModalSystem, _check_conforms, _pair_weights, norm_domain
from .schemes import EnergyTrace, SchemeConfig, factorize, substep_count
from .spectra import FilterCutoff, check_gap, cluster_partition, filtering_cutoff

UNIFORMITY_FACTOR = 4.0  # criterion 7: largest envelope M_hat spread across dt
EXPONENT_FLOOR = 0.7  # criterion 7: smallest envelope exponent


def _blocks_of(records):
    """Each time block of an ``iterate_raw`` stream of ``(k, block, row)``
    tuples once, read from its first one (``row == 0``); every tuple is
    still drained, in C."""
    return map(itemgetter(1), filterfalse(itemgetter(2), records))


# -- observation horizon -------------------------------------------------


@dataclass(frozen=True)
class TStarPolicy:
    """Observation horizon derived from the gap audit."""

    t_star: float
    gamma: float
    gamma1: float
    route: str  # "pairwise" | "clustered" | "override"


def observation_time(sys: ModalSystem, t_star: float | None = None) -> TStarPolicy:
    """Fix T* = 2 * (2 pi / gap constant) from the audited spectrum.

    The pairwise route is used when the smallest pairwise gap is genuinely
    uniform (at least gamma1/2, i.e. no 2-clusters); otherwise the
    2-separated constant drives the horizon; with neither constant positive
    and finite, DomainError asks for ``t_star``.  An explicit ``t_star``
    bypasses the audit; it must be positive and finite (else DomainError).
    """
    audit = check_gap(sys)
    if t_star is not None:
        check_positive("t_star", t_star)
        return TStarPolicy(float(t_star), audit.gamma, audit.gamma1, "override")
    pairwise_usable = 0.0 < audit.gamma < math.inf and (
        not math.isfinite(audit.gamma1) or audit.gamma >= 0.5 * audit.gamma1
    )
    if pairwise_usable:
        return TStarPolicy(2.0 * (2.0 * math.pi / audit.gamma), audit.gamma, audit.gamma1, "pairwise")
    if not 0.0 < audit.gamma1 < math.inf:
        raise DomainError("no usable gap constant; pass t_star explicitly")
    return TStarPolicy(2.0 * (2.0 * math.pi / audit.gamma1), audit.gamma, audit.gamma1, "clustered")


# -- observability functional ---------------------------------------------


@dataclass(frozen=True)
class ObservabilityReport:
    """Accumulated sums of the discrete observability functional."""

    weak_norm_sq: float
    damp_sum: float
    visc_sum1: float
    visc_sum2: float
    ratio: float
    T_star: float
    beta: float
    dt: float
    n_steps: int


def _observability_sums(solver, X0, beta, T_star):
    """Per-column (damp, visc1, visc2, weak) sums of the conservative run of
    ``solver`` (undamped, ``t_final = max(T_star, dt)``) from the batch ``X0``.

    The observation uses the system's damping Gram even though the
    dynamics are undamped; the viscosity sums vanish when the viscous stage
    is off.  The functional charges ``dt^6 ||A^2 u||^2`` where the energy
    identity charges half of it, hence ``2 * visc2``.  ``P`` and ``L``
    are block-diagonal over the mode groups and the weights diagonal, so
    each sum is a sum over groups: split a batch into two batches that
    occupy no group in common, and its sums are theirs added, column by
    column (up to rounding).
    """
    nsteps = substep_count(T_star, solver.cfg.dt) + 1
    damp, visc1, visc2 = np.zeros((3, X0.shape[1]))
    for b in _blocks_of(solver.iterate_raw(X0, nsteps, beta=beta)):
        if b.k0 == 0:
            weak = b.weak_sq[0]
        # row by row, in step order: a block sum would reassociate the sums
        o, v1, v2 = b.observed, b.visc1, 2.0 * b.visc2
        for j in range(len(o)):
            damp += o[j]
            visc1 += v1[j]
            visc2 += v2[j]
    return damp, visc1, visc2, weak, nsteps


def observability_functional(
    sys: ModalSystem,
    u0: ModalState,
    beta: float,
    dt: float,
    T_star: float,
) -> ObservabilityReport:
    """Observation + viscosity budget of the conservative viscous run from ``u0``.

    Returns the ratio of
    ``dt sum ||B*(u^k + u~^{k+1})/2||^2 + dt sum dt^2 ||A u^{k+1}||^2
    + dt sum dt^5 ||A^2 u^{k+1}||^2`` (sums over k dt in [0, T*]) to the
    squared weak norm of ``u0``; ``T_star`` must be finite and >= 0 (0 observes one step).
    """
    if not 0.0 <= T_star < math.inf:
        raise DomainError(f"T_star must be non-negative and finite; got {T_star!r}")
    x0 = u0.stacked()[:, None]
    cfg = SchemeConfig(dt=dt, t_final=max(T_star, dt), damping=False)
    damp, v1, v2, weak, nsteps = _observability_sums(factorize(sys, cfg), x0, beta, T_star)
    if weak[0] == 0.0:
        raise DomainError("zero initial state: observability ratio undefined")
    total = damp[0] + v1[0] + v2[0]
    return ObservabilityReport(
        weak_norm_sq=float(weak[0]),
        damp_sum=float(damp[0]),
        visc_sum1=float(v1[0]),
        visc_sum2=float(v2[0]),
        ratio=float(total / weak[0]),
        T_star=T_star,
        beta=beta,
        dt=dt,
        n_steps=nsteps,
    )


@dataclass(frozen=True)
class ObservabilityCell:
    dt: float
    t_star: float
    cutoff: float
    min_ratio: float
    min_ratio_lowpass: float
    n_lowpass_active: int


@dataclass(frozen=True)
class ObservabilityStudy:
    beta: float
    delta: float
    gamma: float
    gamma1: float
    route: str
    trials: int
    seed: int
    cells: tuple


def observability_constant_study(
    sys: ModalSystem,
    beta: float,
    dt_list,
    trials: int,
    seed: int,
    delta: float = 1.0,
    t_star: float | None = None,
    viscosity: bool = True,
) -> ObservabilityStudy:
    """Minimum observability ratios over random draws, per time step.

    The same seeded Gaussian draws X are reused across all dt values (so
    the study isolates the dt dependence); each dt also gets their
    low-pass parts XL, the modes up to ``filtering_cutoff(sys, dt, delta)``
    kept and the rest zeroed.  Uniformity holds when the per-dt minima stay
    above a common positive floor.

    Per dt one solver steps two batches of ``trials`` columns: XL, whose
    sums give the low-pass ratios, and the remainder ``R = X - XL``
    (exact, since XL holds X's entries or zeros).  When no mode group holds
    both a retained and a dropped mode, XL and R share no group and X's
    sums are theirs added; a group that straddles the cutoff (the boundary
    system's one dense group, a split ``custom`` Gram block) would couple
    them, so there R is X itself and X's sums are R's.  When every mode is
    retained R is all zero; it is stepped all the same, which keeps the
    study at 2 * trials column-steps per step.

    ``t_star``, ``trials`` (a positive integer), every dt (a nonempty list)
    and ``delta`` (in ``filtering_cutoff``'s range at every dt) are checked
    before anything is drawn or stepped: a bad value raises DomainError.
    """
    policy = observation_time(sys, t_star)
    check_int("trials", trials)
    grids = [(SchemeConfig(dt=dt, t_final=max(policy.t_star, dt), viscosity=viscosity,
                           damping=False), filtering_cutoff(sys, dt, delta)) for dt in dt_list]
    if not grids:
        raise DomainError("dt_list must be nonempty")
    n = sys.n
    children = np.random.SeedSequence(seed).spawn(trials)
    X = np.empty((2 * n, trials))
    for i, child in enumerate(children):
        X[:, i] = np.random.default_rng(child).standard_normal(2 * n)

    def run_cell(cfg: SchemeConfig, low: FilterCutoff) -> ObservabilityCell:
        keep = np.concatenate([low.retained, n + low.retained])  # rows of the low modes
        XL = np.zeros_like(X)
        XL[keep] = X[keep]
        kept = np.isin(np.arange(n), low.retained)
        straddle = any((kept[idx].any(axis=1) & ~kept[idx].all(axis=1)).any()
                       for idx, _ in sys.blocks)
        solver = factorize(sys, cfg)
        low_sums = np.array(_observability_sums(solver, XL, beta, policy.t_star)[:4])
        # X - XL is exact: XL holds X's entries or zeros
        sums = np.array(_observability_sums(
            solver, X if straddle else X - XL, beta, policy.t_star)[:4])
        if not straddle:
            sums += low_sums
        damp, v1, v2, weak = sums
        ratios = (damp + v1 + v2) / weak
        damp, v1, v2, weakl = low_sums
        active = weakl > 0.0
        ratios_low = (damp + v1 + v2)[active] / weakl[active]
        return ObservabilityCell(
            dt=cfg.dt,
            t_star=policy.t_star,
            cutoff=low.cutoff,
            min_ratio=float(np.min(ratios)),
            min_ratio_lowpass=float(np.min(ratios_low)) if active.any() else math.nan,
            n_lowpass_active=int(np.count_nonzero(active)),
        )

    return ObservabilityStudy(
        beta=beta,
        delta=delta,
        gamma=policy.gamma,
        gamma1=policy.gamma1,
        route=policy.route,
        trials=trials,
        seed=seed,
        cells=tuple(run_cell(cfg, low) for cfg, low in grids),
    )


# -- high-frequency estimates ----------------------------------------------


@dataclass(frozen=True)
class InverseInequalityReport:
    delta: float
    min_ratio_h: float
    min_ratio_weak: float
    n_high: int
    ok: bool


def inverse_inequality_check(
    sys: ModalSystem, dt: float, delta: float, beta: float = 0.0
) -> InverseInequalityReport:
    """Smallest Rayleigh ratio ``dt ||A y|| / ||y||`` over the high modes,
    those above ``filtering_cutoff(sys, dt, delta)``.

    Per mode the generator multiplies both the energy and the weak pair
    norm by exactly ``mu``, so the minimum is ``dt * min(high mu)`` in
    either scale (computed explicitly in both as a diagonal oracle); it
    must dominate ``delta``.  An empty high part passes vacuously with +inf
    ratios.  ``filtering_cutoff`` checks ``dt`` and ``delta``, and ``beta``
    must be finite (else DomainError).
    """
    eta = np.delete(sys.eta, filtering_cutoff(sys, dt, delta).retained)  # the high modes
    check_finite("beta", beta)
    if eta.size == 0:
        return InverseInequalityReport(delta, math.inf, math.inf, 0, True)
    # basis state (a = e_j): ||A z||^2 / ||z||^2 in the energy scale
    ratios_h = np.sqrt((eta**2) / eta)
    # same mode in the -beta pair scale: the weights eta^(-2 beta) of a and
    # eta^(-2 beta - 1) of b enter through their quotient, one power of eta,
    # as each weight alone overflows for |beta| of about 40 and more
    ratios_w = np.sqrt(eta**2 * eta ** ((-2.0 * beta - 1.0) - (-2.0 * beta)))
    min_h = dt * float(np.min(ratios_h))
    min_w = dt * float(np.min(ratios_w))
    return InverseInequalityReport(
        delta=delta,
        min_ratio_h=min_h,
        min_ratio_weak=min_w,
        n_high=eta.size,
        ok=bool(min_h >= delta and min_w >= delta),
    )


def high_freq_contraction(
    sys: ModalSystem,
    u0_high: ModalState,
    beta: float,
    dt: float,
    delta: float,
    steps: int,
) -> np.ndarray:
    """Per-step weak-norm ratios of the conservative viscous run of a state
    with no component in ``filtering_cutoff(sys, dt, delta).retained``.

    Every ratio must satisfy ``ratio <= 1 / (1 + 2 dt delta^2) + 1e-12``;
    a violation, or a ratio that is not a number (a weak norm that
    underflows to 0), raises DiagnosticFailure.  A zero initial state passes
    trivially (empty ratio sequence).  A state not of the system's size
    raises DimensionMismatchError, and a ``steps`` that is no positive
    integer, a ``dt`` or ``delta`` that ``filtering_cutoff`` refuses or a
    ``beta`` that is not finite or whose pair-norm weights overflow or
    underflow on the system DomainError, before stepping, for a zero state too.
    """
    _check_conforms(sys, u0_high)
    check_int("steps", steps)
    low = filtering_cutoff(sys, dt, delta).retained
    _pair_weights(sys.eta, beta)
    if np.any(u0_high.a[low]) or np.any(u0_high.b[low]):
        raise DomainError("initial state has components at or below the cutoff")
    x0 = u0_high.stacked()[:, None]
    if not np.any(x0):
        return np.empty(0)
    bound = 1.0 / (1.0 + 2.0 * dt * delta**2)
    cfg = SchemeConfig(dt=dt, t_final=max(steps * dt, dt), viscosity=True, damping=False)
    ratios = np.empty(steps)
    for b in _blocks_of(factorize(sys, cfg).iterate_raw(x0, steps, beta=beta)):
        w = b.weak_sq[:, 0]
        with np.errstate(invalid="ignore"):  # 0 / 0: a nan ratio, which fails below
            ratios[b.k0 : b.k0 + w.size - 1] = w[1:] / w[:-1]
    if not np.all(ratios <= bound + 1e-12):
        worst = float(np.max(ratios))
        raise DiagnosticFailure(
            f"weak-norm contraction bound violated: max ratio {worst:.16g} > "
            f"{bound:.16g} + 1e-12"
        )
    return ratios


def high_freq_observability(
    sys: ModalSystem,
    u0_high: ModalState,
    beta: float,
    dt: float,
    T_star: float,
) -> float:
    """Viscosity-sum share of the observability ratio for a high state."""
    rep = observability_functional(sys, u0_high, beta, dt, T_star)
    return (rep.visc_sum1 + rep.visc_sum2) / rep.weak_norm_sq


# -- polynomial decay -------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Log-log regression of an energy trace against (1 + t)."""

    exponent: float
    M_hat: float
    fit_window: tuple
    r_squared: float
    p0: float


def _decay_rate(beta: float) -> float:
    """Theoretical polynomial rate ``p0 = 1 / (1 + 2 beta)``, beta finite and > -1/2."""
    check_finite("beta", beta)
    if not beta > -0.5:
        raise DomainError(f"beta must exceed -1/2; got {beta}")
    return 1.0 / (1.0 + 2.0 * beta)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum's sum does not depend on the BLAS thread count; `@` does
    return float(np.einsum("i,i->", a, b))


def _loglog_fit(xc: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares slope of y against x and its R^2, in closed form on the
    centred samples, given ``xc = x - mean(x)`` (every sample counts)."""
    yc = y - y.mean()
    slope = _dot(xc, yc) / _dot(xc, xc)
    ss_tot = _dot(yc, yc)
    resid = yc - slope * xc
    return slope, 1.0 - _dot(resid, resid) / ss_tot if ss_tot > 0.0 else 1.0


def _window_fit(xc: np.ndarray, w: np.ndarray, e: np.ndarray) -> tuple:
    """(M_hat = max(w e), exponent, R^2) of window energies ``e`` at the
    centred ``xc`` of ``x = log(1 + t)`` and weights ``w = (1 + t)^p0``; no
    exponent or R^2 unless every energy is strictly positive."""
    m_hat = float(np.max(w * e))
    if not np.all(e > 0.0):
        return m_hat, None, None
    slope, r_sq = _loglog_fit(xc, np.log(e))
    return m_hat, -slope, r_sq


def decay_fit(trace: EnergyTrace, beta: float, fit_window) -> DecayFit:
    """Fit ``E ~ (1+t)^-p`` on the window and envelope the theoretical rate.

    ``exponent`` is minus the closed-form centred least-squares slope of
    log E against log(1 + t) over every window sample; ``M_hat`` is the
    window supremum of ``(1 + t)^{p0} E`` at the theoretical rate
    ``p0 = 1 / (1 + 2 beta)``, over ``||z0||_D^2``; beta must be finite and
    exceed -1/2.
    """
    lo, hi = fit_window
    mask = (trace.t >= lo) & (trace.t <= hi)
    if np.count_nonzero(mask) < 2:
        raise DomainError("fit window contains fewer than two samples")
    if trace.domain_sq0 <= 0.0:
        raise DomainError("initial state has zero generator-domain norm")
    p0 = _decay_rate(beta)
    t = trace.t[mask]
    x = np.log1p(t)
    m_hat, exponent, r_sq = _window_fit(x - x.mean(), (1.0 + t) ** p0, trace.energy[mask])
    if exponent is None:
        raise DomainError("energy must be strictly positive on the fit window")
    return DecayFit(
        exponent=exponent,
        M_hat=m_hat / trace.domain_sq0,
        fit_window=(float(lo), float(hi)),
        r_squared=r_sq,
        p0=p0,
    )


def synthetic_trace(t, energy) -> EnergyTrace:
    """Wrap externally computed (t, E) samples as an EnergyTrace for fitting.

    The trace carries a unit generator-domain norm, so ``decay_fit``
    envelopes E itself; the per-step terms are zero placeholders.
    """
    t = np.asarray(t, dtype=float)
    energy = np.asarray(energy, dtype=float)
    if t.shape != energy.shape or t.ndim != 1 or t.size < 2:
        raise DomainError("t and energy must be matching 1-d arrays")
    nsteps = t.size - 1
    zeros = np.zeros(nsteps)
    return EnergyTrace(
        dt=float(t[1] - t[0]),
        beta=0.0,
        t=t,
        energy=energy,
        weak_sq=np.zeros_like(energy),
        damp=zeros,
        visc1=zeros.copy(),
        visc2=zeros.copy(),
        identity_residual=zeros.copy(),
        observed_damp=zeros.copy(),
        domain_sq0=1.0,
    )


def worst_case_family(sys: ModalSystem):
    """Initial states that stress polynomial (not exponential) decay.

    Unit generator-domain-norm members: five single displacement modes
    spread across the spectrum (the lowest and the highest retained mode
    among them; fewer on small systems), and equal-amplitude displacement
    combinations inside the first, middle and last 2-clusters (the weakly
    damped directions).  Returns (label, state) pairs.
    """
    n = sys.n
    idx = sorted(set(np.linspace(0, n - 1, 5).astype(int)))
    members = []
    for j in idx:
        a = np.zeros(n)
        a[j] = 1.0
        members.append((f"mode[{j}]", ModalState(a, np.zeros(n))))
    pairs = [c for c in cluster_partition(sys.mu, check_gap(sys).gamma1) if len(c) == 2]
    if pairs:
        for c in sorted({0, len(pairs) // 2, len(pairs) - 1}):
            i, j = pairs[c]
            a = np.zeros(n)
            a[i] = a[j] = 1.0
            members.append((f"pair[{i},{j}]", ModalState(a, np.zeros(n))))
    out = []
    for label, st in members:
        d = norm_domain(sys, st)
        out.append((label, ModalState(st.a / d, st.b / d)))
    return out


@dataclass(frozen=True)
class MemberFit:
    """Per-member decay summary; ``exponent`` is None when the member's
    energy underflows to zero inside the window (super-fast decay), in
    which case only the sup-based ``m_hat`` is meaningful."""

    label: str
    m_hat: float
    exponent: float | None
    r_squared: float | None


@dataclass(frozen=True)
class DecayCell:
    """One dt of the sweep; ``envelope`` is None when the family envelope
    is not strictly positive on the fit window."""

    dt: float
    member_fits: tuple
    envelope: DecayFit | None


@dataclass(frozen=True)
class DecayStudy:
    beta: float
    p0: float
    t_star: float
    T: float
    fit_window: tuple
    uniformity_factor: float
    exponent_floor: float
    cells: tuple
    envelope_spread: float
    verdict: str  # "uniform" | "non-uniform" | "inconclusive"


def uniform_decay_study(
    sys: ModalSystem,
    beta: float,
    dt_list,
    T: float = 200.0,
    t_star: float | None = None,
    viscosity: bool = True,
    damping: bool = True,
) -> DecayStudy:
    """Sweep the damped scheme over dt and fit the polynomial envelope.

    The members of ``worst_case_family(sys)`` are run to T as one batch
    per dt.  The family envelope (per-step maximum of the member energies)
    is the quantity the uniform decay bound controls, so the verdict rests
    on the envelope fits: "uniform" when the envelope M_hat spread across
    dt is within ``UNIFORMITY_FACTOR`` (4) and every envelope exponent
    reaches ``EXPONENT_FLOOR`` (0.7), else "non-uniform".  The verdict is
    "inconclusive" only when some envelope is not strictly positive on the
    fit window (every member's energy underflows there) or has a non-finite
    M_hat.  Per-member fits are reported alongside.

    Every cell's SchemeConfig and the fit window ``(T*/2, T)``, which must
    hold at least two samples on every dt grid, are checked before
    anything is stepped: a bad dt, T, window or a beta that is not finite
    or not above -1/2 raises DomainError.
    """
    policy = observation_time(sys, t_star)
    p0 = _decay_rate(beta)
    lo, hi = 0.5 * policy.t_star, T
    grids = []
    for dt in dt_list:
        cfg = SchemeConfig(dt=dt, t_final=T, viscosity=viscosity, damping=damping)
        t = np.arange(substep_count(T, dt) + 2) * dt
        win = np.flatnonzero((t >= lo) & (t <= hi))  # one run of the increasing grid
        if win.size < 2:
            raise DomainError(f"fit window ({lo}, {hi}) holds fewer than two samples at dt={dt}")
        grids.append((cfg, t, slice(win[0], win[-1] + 1)))
    if not grids:
        raise DomainError("dt_list must be nonempty")
    family = worst_case_family(sys)
    X0 = np.column_stack([st.stacked() for _, st in family])

    cells = []
    for cfg, t, win in grids:
        E = np.empty((X0.shape[1], t.size))  # member by member: each fit reads one row
        for b in _blocks_of(factorize(sys, cfg).iterate_raw(X0, t.size - 1)):
            E[:, b.k0 : b.k0 + len(b.energy)] = b.energy.T  # column 0 repeats the last block's end
        # the centred window abscissa and the (1+t)^p0 weights serve every
        # member; the window of E is a view (a copy would add ~3 MiB of peak RSS)
        x, w, Ew = np.log1p(t[win]), (1.0 + t[win]) ** p0, E[:, win]
        x -= x.mean()
        fits = [MemberFit(label, *_window_fit(x, w, e)) for (label, _), e in zip(family, Ew)]
        m_hat, exponent, r_sq = _window_fit(x, w, Ew.max(axis=0))
        envelope = None if exponent is None else DecayFit(
            exponent, m_hat, (float(lo), float(hi)), r_sq, p0)
        cells.append(DecayCell(dt=cfg.dt, member_fits=tuple(fits), envelope=envelope))

    envs = [c.envelope for c in cells]
    if any(e is None or not math.isfinite(e.M_hat) for e in envs):
        verdict, spread = "inconclusive", math.nan
    else:
        m_hats = [e.M_hat for e in envs]
        spread = max(m_hats) / min(m_hats)
        ok = spread <= UNIFORMITY_FACTOR and all(e.exponent >= EXPONENT_FLOOR for e in envs)
        verdict = "uniform" if ok else "non-uniform"
    return DecayStudy(
        beta=beta,
        p0=p0,
        t_star=policy.t_star,
        T=T,
        fit_window=(lo, hi),
        uniformity_factor=UNIFORMITY_FACTOR,
        exponent_floor=EXPONENT_FLOOR,
        cells=tuple(cells),
        envelope_spread=spread,
        verdict=verdict,
    )


# -- extremal recursion oracle ----------------------------------------------

HEAD_TOL = 1e-3  # scalar steps while the step Jacobian's (2+alpha) C e^{1+alpha} exceeds this
CHUNK = 2**14  # tail steps per Newton system; prod(1/a) over one stays above e^-16.4
STEP_TOL = 1e-8  # a Newton step this small leaves an error of order its square
MAX_SWEEPS = 12  # Newton sweeps per tail chunk before DiagnosticFailure
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the least normal float


@dataclass(frozen=True)
class DecayRecursionResult:
    values: np.ndarray = field(repr=False)
    M: float
    rate: float
    stagnant: bool
    head_steps: int  # steps taken by scalar roots before the Newton tail
    # largest |e_k + C e_k^{2+alpha} - e_{k-1}| / e_{k-1} over the steps from
    # a normal e_{k-1}; the tail's as solved, before any value is rounded
    # below the normal range
    resid_max: float
    tail_solves: int  # bidiagonal Newton solves of the tail, over all its chunks


def _recursion_root(prev: float, C: float, p: float) -> float:
    """Root x of x + C x^p = prev by Newton's method safeguarded by bisection.

    ``x + C x^p`` is increasing and convex on x >= 0, so Newton started above
    the root descends onto it; a step that leaves the bracket [lo, hi], or
    returns to the iterate before x (a two-cycle, which subnormal values
    fall into), is replaced by a bisection.  Stops once a step moves x by
    at most 1e-15 x.  ``C x^p`` is formed as ``C x^(p-1) x``: with alpha
    near -1 and C large, ``x^p`` falls below the normal range while
    ``C x^p`` (and x) are still normal, and would lose its low bits.
    """
    f = C * prev ** (p - 1.0) * prev
    lo = max(prev - f, 0.0)
    # second-order estimate of the root as a candidate upper endpoint
    hi = lo + 1.25 * p * C * f * (f / prev)
    if hi >= prev or hi + C * hi ** (p - 1.0) * hi < prev:
        hi = prev
    x, last = hi, math.nan
    while True:
        g = x + C * x ** (p - 1.0) * x - prev
        if g > 0.0:
            hi = x
        else:
            lo = x
        nxt = x - g / (1.0 + p * C * x ** (p - 1.0))
        if not lo <= nxt <= hi or nxt == last:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-15 * x:
            return nxt
        last, x = x, nxt


def _newton_tail(values: np.ndarray, start: int, C: float, alpha: float) -> tuple:
    """Fill ``values[start + 1:]`` from ``values[start]``, CHUNK steps per solve.

    Each chunk solves its steps' residuals ``F_j = e_j + C e_j^p - e_{j-1}``
    together by Newton's method, started from the second-order solution:
    the recursion is implicit Euler on ``e' = -C e^p``, and along it
    ``Phi(e) = e^{-q} / (q C) - (p/2) ln e`` grows by ``1 + O((C e^q)^2)``
    per step, so from ``e_s`` and ``x = C e_s^q`` the start is
    ``e_j = e_s (1 + u - (p x / 2) ln(1 + u))^{-1/q}`` with ``u = q x j``
    (Hairer, Lubich and Wanner, Geometric Numerical Integration, ch. IX).
    From it one solve meets the stopping rule in all but the first chunk
    at C = E0 = 1, alpha = 0 (62 over 61 chunks), where the continuum start
    ``(1 + u)^{-1/q}`` took two or three (123).  The Jacobian is lower
    bidiagonal with diagonal ``a_j = 1 + p C e_j^{1+alpha}`` (at most
    1 + HEAD_TOL in the tail) and subdiagonal -1, so the step is
    ``-pi * cumsum(F_j / pi_{j-1})`` with ``pi = cumprod(1 / a)``.  A chunk
    is done once every ``|F_j|`` is at most ``2 eps e_{j-1}`` and the last
    step moved no value by more than ``STEP_TOL`` of itself: the per-step
    residual alone misses a smooth error, which changes each residual by
    only ``a_j - 1`` of itself.  A chunk not done after MAX_SWEEPS sweeps
    raises DiagnosticFailure.  Each chunk is solved scaled by the power of
    two that puts its first value in [0.5, 1), so its values stay normal (a
    chunk shrinks them by at most e^-16.4).  Returns the largest residual
    relative to the previous value and the number of bidiagonal solves.
    """
    p, q = alpha + 2.0, alpha + 1.0
    n = min(CHUNK, values.size - 1 - start)
    j = np.arange(1.0, n + 1.0)
    y, x, F = np.empty(n + 1), np.empty(n), np.empty(n)
    resid, solves = 0.0, 0
    for s in range(start, values.size - 1, CHUNK):
        n = min(CHUNK, values.size - 1 - s)
        e0 = float(values[s])
        if e0 == 0.0:  # underflowed: every later value is 0 too
            values[s + 1 :] = 0.0
            break
        m, k = math.frexp(e0)
        x0 = C * e0**q
        y, x, F, j = y[: n + 1], x[:n], F[:n], j[:n]
        e, prev = y[1:], y[:-1]
        y[0] = m
        # the second-order start, u = q x0 j held in x until the sweeps
        np.multiply(j, q * x0, out=x)
        np.log1p(x, out=e)
        e *= -0.5 * p * x0
        e += x
        np.log1p(e, out=e)
        e /= -q
        np.exp(e, out=e)
        e *= m
        stepped = False
        for _ in range(MAX_SWEEPS):
            np.multiply(e, 1.0 / m, out=x)
            np.power(x, q, out=x)
            x *= x0  # C e_j^{1+alpha}
            np.subtract(e, prev, out=F)  # exact: e_j is within a factor 2 of e_{j-1}
            F += x * e
            if stepped and np.all(np.abs(F) <= 2.0 * _EPS * prev):
                break
            x *= p
            x += 1.0
            np.reciprocal(x, out=x)
            np.cumprod(x, out=x)
            F[1:] /= x[:-1]
            np.cumsum(F, out=F)
            F *= x
            e -= F
            solves += 1
            stepped = bool(np.all(np.abs(F) <= STEP_TOL * e))
        else:
            raise DiagnosticFailure(
                f"extremal recursion: Newton did not converge in {MAX_SWEEPS} "
                f"sweeps at steps {s + 1}..{s + n}"
            )
        resid = max(resid, float(np.max(np.abs(F) / prev)))
        np.ldexp(e, k, out=values[s + 1 : s + 1 + n])
    return resid, solves


def decay_recursion_oracle(
    C: float, alpha: float, E0: float, steps: int
) -> DecayRecursionResult:
    """Solve the extremal recursion e_k + C e_k^{2+alpha} = e_{k-1} from e_0 = E0.

    The head takes one scalar root per step while the step is stiff,
    ``(2+alpha) C e^{1+alpha} > HEAD_TOL`` (about 2e3 steps at C = E0 = 1,
    alpha = 0): for alpha = 0 the closed form ``2 e / (1 + sqrt(1 + 4 C e))``
    of the quadratic, which avoids cancellation, and for other alpha a
    safeguarded Newton iteration on the bracket [e - C e^{2+alpha}, e]
    (``_recursion_root``).  The tail solves CHUNK steps at a time as one
    Newton system (``_newton_tail``), so its values are the exact sequence
    rounded once, without the drift that rounding every step builds up where
    the sequence barely moves.  Each chunk starts from the second-order
    solution of the recursion's modified equation.  At C = E0 = 1,
    alpha = 0, 1e6 steps take 2007 scalar roots and 62 bidiagonal solves
    over 61 chunks: ~33 ms on one core, against ~130 ms for a scalar root
    per step.  Returns the sequence, the envelope constant
    ``M = sup_k e_k (k+1)^{1/(alpha+1)}``, the number of scalar
    ``head_steps``, ``resid_max``, the largest per-step residual relative
    to the previous value, and ``tail_solves``, the tail's number of
    bidiagonal Newton solves.  A sequence that barely moves (C too
    small for the horizon) is flagged ``stagnant``.  C and E0 must be
    positive and finite, alpha finite and above -1, ``E0^{1+alpha}`` and
    ``C E0^{2+alpha}`` finite floats and steps a positive integer (else
    DomainError).  ``M`` is +inf where the supremum overflows a float.
    """
    check_positive("C", C)
    check_positive("E0", E0)
    if not -1.0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed -1; got {alpha!r}")
    check_int("steps", steps)

    C, alpha = float(C), float(alpha)  # numpy scalars would slow the scalar loop several-fold
    p, q = alpha + 2.0, alpha + 1.0
    log_E0 = math.log(E0)
    if max(q * log_E0, math.log(C) + p * log_E0) > math.log(np.finfo(float).max):
        raise DomainError(
            f"E0^(1+alpha) or C E0^(2+alpha) overflows a float; got C={C!r}, "
            f"alpha={alpha!r}, E0={E0!r}"
        )
    values = np.empty(steps + 1)
    out = memoryview(values)  # scalar stores here skip numpy's indexing
    out[0] = e = float(E0)
    head = 0
    while head < steps and p * C * e**q > HEAD_TOL:
        if alpha == 0.0:
            e = 2.0 * e / (1.0 + math.sqrt(1.0 + 4.0 * C * e))
        else:
            e = _recursion_root(e, C, p)
        head += 1
        out[head] = e
    # the head's steps from a normal value, its first ones as e decreases
    normal = int(np.count_nonzero(values[:head] >= _TINY))
    e, prev = values[1 : normal + 1], values[:normal]
    resid = float(np.max(np.abs((e - prev) + C * e**q * e) / prev, initial=0.0))
    tail_resid, solves = _newton_tail(values, head, C, alpha)  # (0.0, 0) with no tail
    resid = max(resid, tail_resid)

    # zeros contribute 0 to M, and the sequence decreases: they are its end
    live = values.size if values[-1] > 0.0 else int(np.count_nonzero(values))
    rate = 1.0 / q
    w = np.arange(1.0, live + 1.0)
    w **= rate
    w *= values[:live]
    return DecayRecursionResult(
        values=values,
        M=float(w.max()),
        rate=rate,
        stagnant=bool(values[-1] > 0.99 * E0),
        head_steps=head,
        resid_max=resid,
        tail_solves=solves,
    )
