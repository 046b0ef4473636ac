"""Closed-form modal truncations of two coupled-wave systems and their audits.

Two builders produce `ModalSystem` truncations with explicit spectra:

* ``build_coupled_waves`` -- two wave equations on (0, 1) with zero-order
  coupling ``alpha`` and velocity damping ``gamma`` on the second field
  (Dirichlet ends).  Per sine mode k the 2x2 coupling block
  ``[[k^2 pi^2, alpha], [alpha, k^2 pi^2]]`` gives the branch eigenvalues
  ``eta_{+-,k} = k^2 pi^2 +- alpha`` with eigenfunctions
  ``(sin(k pi x), +-sin(k pi x))``.

* ``build_boundary_coupled_waves`` -- two wave equations coupled through a
  boundary condition at x = 1; the branch frequencies solve the fixed
  points ``mu = pi/2 + k pi +- atan(alpha / mu)`` and the eigenfunctions
  are ``(-+ sin(mu x), sin(mu x)) * b`` with ``b`` normalizing the pair in
  L^2(0, 1)^2.

The audit functions measure the spectral hypotheses the downstream
inequalities rest on: uniform frequency gaps (pairwise and 2-separated),
per-mode and per-cluster observation lower bounds, and the admissible
low-pass filtering cutoff ``delta / dt``, all reported together by
``audit_spectrum(sys, beta, dt, delta)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, check_int, check_positive
from .modal import ModalSystem


@dataclass(frozen=True)
class ExampleParams:
    """Coupling, damping and truncation size for the example builders."""

    alpha: float
    gamma: float
    k_max: int

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise DomainError("alpha must be positive")
        if not 0.0 <= self.gamma < math.inf:
            raise DomainError(f"gamma must be nonnegative and finite; got {self.gamma!r}")
        check_int("k_max", self.k_max)


def sine_overlap(a, c):
    """Exact overlap ``int_0^1 sin(a x) sin(c x) dx`` (handles a == c)."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    out = 0.5 * (np.sinc((a - c) / np.pi) - np.sinc((a + c) / np.pi))
    return float(out) if out.ndim == 0 else out


def build_coupled_waves(p: ExampleParams) -> ModalSystem:
    """Zero-order coupled waves: eta_{+-,k} = k^2 pi^2 +- alpha.

    The damping observes only the second field's velocity, so in the
    branch basis the Gram matrix consists of per-k blocks
    ``gamma/2 * [[1, -1], [-1, 1]]`` (the symmetric velocity combination
    is undamped).
    """
    if not (p.alpha < math.pi**2):
        raise DomainError(
            f"coupled_waves requires alpha < pi^2 (~{math.pi**2:.4f}); got {p.alpha}"
        )
    ks = np.arange(1, p.k_max + 1)
    base = (ks * math.pi) ** 2
    eta = np.empty(2 * p.k_max)
    eta[0::2] = base - p.alpha  # (-, k) branch
    eta[1::2] = base + p.alpha  # (+, k) branch
    labels = [(branch, int(k)) for k in ks for branch in "-+"]

    # the per-k blocks, without forming the (n, n) Gram
    g = 0.5 * p.gamma
    if g == 0.0:  # zero blocks couple nothing: n modes of their own
        return ModalSystem.from_eta(eta, labels=labels)
    blocks = [(np.arange(eta.size).reshape(-1, 2), np.tile([[g, -g], [-g, g]], (p.k_max, 1, 1)))]
    return ModalSystem(eta, blocks, labels)


def _branch_map(alpha: float, labels):
    """The boundary fixed-point map ``mu -> pi/2 + k pi +- atan(alpha / mu)``,
    vectorised over the (branch, k) labels; its derivative
    ``alpha / (mu^2 + alpha^2) < 1`` makes it a contraction."""
    k = np.array([k for _, k in labels], dtype=float)
    sign = np.array([1.0 if branch == "+" else -1.0 for branch, _ in labels])
    base = 0.5 * np.pi + k * np.pi
    return lambda mu: base + sign * np.arctan(alpha / mu)


def build_boundary_coupled_waves(p: ExampleParams) -> ModalSystem:
    """Boundary-coupled waves: interlaced branch frequencies around pi/2 + k pi.

    Eigenfunctions ``(-+ sin(mu x), sin(mu x)) * b`` are normalized in
    L^2(0,1)^2; the damping observes the second component, so
    ``D[j, m] = gamma * b_j * b_m * overlap(mu_j, mu_m)``.  Same-branch
    sines solve one Robin problem each and are exactly orthogonal; the
    builder checks the pair orthonormality numerically and warns above
    1e-10 deviation.
    """
    if not (p.alpha < 1.0):
        raise DomainError(f"boundary_coupled_waves requires alpha < 1; got {p.alpha}")
    labels = [(branch, k) for k in range(1, p.k_max + 1) for branch in "-+"]
    signs = np.tile([1.0, -1.0], p.k_max)  # sign of the first displacement component
    # plain iteration of all branches together from the uncoupled
    # frequencies pi/2 + k pi (the map's value at mu = inf)
    step = _branch_map(p.alpha, labels)
    mu = step(np.inf)
    for _ in range(200):
        new = step(mu)
        converged = np.all(np.abs(new - mu) <= 1e-15 * new)
        mu = new
        if converged:
            break
    else:
        raise DomainError("frequency fixed point did not converge")
    if np.any(np.abs(mu - step(mu)) > 1e-13 * mu):
        raise DomainError("frequency fixed point residual too large")
    if np.any(np.diff(mu) <= 0.0):
        raise DomainError("boundary frequencies failed to interlace")

    diag_overlap = sine_overlap(mu, mu)
    b = 1.0 / np.sqrt(2.0 * diag_overlap)

    S = sine_overlap(mu[:, None], mu[None, :])
    # the pair Gram is a temporary of this check, so the system's copy of D
    # below adds no peak memory
    dev = float(np.max(np.abs(
        (signs[:, None] * signs[None, :] + 1.0) * S * (b[:, None] * b[None, :]) - np.eye(mu.size))))
    if dev > 1e-10:
        warnings.warn(
            f"boundary eigenfunctions deviate from orthonormality by {dev:.3e}",
            stacklevel=2,
        )

    if p.gamma == 0.0:  # no damping: n modes of their own
        return ModalSystem.from_eta(mu**2, labels=labels, mu=mu)
    # all modes form one group; its block is exactly symmetric, since S and
    # the products b_j b_m are
    D = p.gamma * (b[:, None] * b[None, :]) * S
    return ModalSystem(mu**2, [(np.arange(mu.size)[None], D[None])], labels, mu)


def boundary_fixedpoint_residuals(p: ExampleParams, sys: ModalSystem) -> np.ndarray:
    """Residuals |mu - (pi/2 + k pi +- atan(alpha/mu))| of a boundary build."""
    return np.abs(sys.mu - _branch_map(p.alpha, sys.labels)(sys.mu))


@dataclass(frozen=True)
class GapAudit:
    """Gap statistics of the positive frequency family."""

    min_pairwise_gap: float
    weak_gap_2: float
    gamma: float  # candidate constant for the pairwise condition
    gamma1: float  # candidate constant for the 2-separated condition


def check_gap(sys: ModalSystem) -> GapAudit:
    """Measure the pairwise and 2-separated gaps of the stored frequencies.

    Single-frequency families report +inf by convention.
    """
    mu = np.sort(sys.mu)
    pairwise = float(np.min(np.diff(mu))) if mu.size >= 2 else math.inf
    weak2 = float(np.min(mu[2:] - mu[:-2])) if mu.size >= 3 else math.inf
    return GapAudit(
        min_pairwise_gap=pairwise,
        weak_gap_2=weak2,
        gamma=pairwise,
        gamma1=0.5 * weak2,
    )


def cluster_partition(freqs, gamma1: float):
    """Greedy split of sorted frequencies into isolated modes and 2-clusters.

    Consecutive frequencies closer than ``gamma1 / 2`` are paired; each
    frequency belongs to exactly one cluster.  A ``gamma1`` that is not
    finite (``check_gap`` of fewer than 3 modes) pairs none.
    """
    freqs = np.asarray(freqs, dtype=float)
    if np.any(np.diff(freqs) < 0.0):
        raise DomainError("frequencies must be sorted ascending")
    out = []
    i = 0
    n = freqs.size
    while i < n:
        if i + 1 < n and math.isfinite(gamma1) and freqs[i + 1] - freqs[i] < 0.5 * gamma1:
            out.append((i, i + 1))
            i += 2
        else:
            out.append((i,))
            i += 1
    return tuple(out)


@dataclass(frozen=True)
class ObsLowerBound:
    """Empirical lower-bound constants for the observation operator."""

    theta_hat: float
    cluster_theta_hat: float
    partition: tuple
    degenerate: tuple  # clusters with zero frequency gap


def check_obs_lower_bound(sys: ModalSystem, beta: float) -> ObsLowerBound:
    """Per-mode and per-cluster observation lower-bound constants.

    ``theta_hat`` is ``min_j ||B* phi_j|| mu_j^(2 beta + 1)``.  For the
    clustered variant each 2-cluster contributes the smallest singular
    value of ``xi -> (xi_1 v_1 + xi_2 v_2, gap * xi_2 v_2)`` where ``v_i``
    are the observed eigenvectors (inner products from the damping Gram)
    and ``gap`` the intra-cluster frequency difference, scaled by
    ``mu^(2 beta + 1)``.  Zero-gap clusters are reported as degenerate
    and excluded from the minimum.  Every 2-cluster's 2x2 Gram is read
    from the group blocks at once and all are solved in one batched
    eigen-solve.  A non-finite ``beta`` raises DomainError.
    """
    check_finite("beta", beta)
    w = sys.mu ** (2.0 * beta + 1.0)
    theta_hat = float(np.min(sys.bstar_norms * w))

    partition = cluster_partition(sys.mu, check_gap(sys).gamma1)
    size = np.fromiter(map(len, partition), int, len(partition))
    first = np.cumsum(size) - size  # each cluster's first mode
    scale = w[first]
    single, pair = size == 1, size == 2
    i = first[pair]
    gap = sys.mu[i + 1] - sys.mu[i]
    live = gap != 0.0
    ij = np.stack([i, i + 1], axis=1)
    M = sys.gram_at(ij[live, :, None], ij[live, None, :])
    M[:, 1, 1] += gap[live] * gap[live] * M[:, 1, 1]
    lam_min = np.linalg.eigvalsh(M)[:, 0]
    vals = np.concatenate([
        sys.bstar_norms[first[single]] * scale[single],
        np.sqrt(np.maximum(lam_min, 0.0)) * scale[pair][live],
    ])
    return ObsLowerBound(
        theta_hat=theta_hat,
        cluster_theta_hat=float(np.min(vals, initial=math.inf)),
        partition=partition,
        degenerate=tuple(map(tuple, ij[~live].tolist())),
    )


@dataclass(frozen=True)
class FilterCutoff:
    """Low-pass filtering data for one (dt, delta) choice."""

    dt: float
    delta: float
    delta0: float
    cutoff: float
    retained: np.ndarray


def filtering_cutoff(sys: ModalSystem, dt: float, delta: float) -> FilterCutoff:
    """Cutoff ``delta / dt`` and the retained mode indices ``mu <= delta / dt``:
    the one low/high split of the toolkit.

    Requires ``dt`` positive and finite and ``0 < delta < delta0``, where
    ``delta0`` is the least of ``pi - dt * gamma / 2`` and
    ``pi - dt * gamma1 / 2`` over the finite gap constants of this system
    (pi when neither is finite); else DomainError.
    """
    check_positive("dt", dt)
    audit = check_gap(sys)
    delta0 = min((math.pi - 0.5 * dt * g for g in (audit.gamma, audit.gamma1)
                  if math.isfinite(g)), default=math.pi)
    if not (0.0 < delta < delta0):
        raise DomainError(f"delta must lie in (0, {delta0:.6g}); got {delta}")
    cutoff = delta / dt
    retained = np.nonzero(sys.mu <= cutoff)[0]
    return FilterCutoff(dt=dt, delta=delta, delta0=delta0, cutoff=cutoff, retained=retained)


@dataclass(frozen=True)
class SpectrumReport:
    """Combined spectral audit of one system."""

    min_pairwise_gap: float
    weak_gap_2: float
    gamma: float
    gamma1: float
    theta_hat: float
    cluster_theta_hat: float
    beta: float
    dt: float
    delta: float
    delta0: float
    cutoff: float
    retained_count: int
    partition: tuple
    degenerate: tuple
    mu: np.ndarray
    bstar_norms: np.ndarray


def audit_spectrum(sys: ModalSystem, beta: float, dt: float, delta: float) -> SpectrumReport:
    """Gap constants, observation bounds and the filtering cutoff of one system."""
    gaps, obs = check_gap(sys), check_obs_lower_bound(sys, beta)
    fc = filtering_cutoff(sys, dt, delta)
    return SpectrumReport(  # the gap and bound fields carry over by name
        **vars(gaps), **vars(obs), beta=beta, dt=dt, delta=delta, delta0=fc.delta0,
        cutoff=fc.cutoff, retained_count=int(fc.retained.size), mu=sys.mu,
        bstar_norms=sys.bstar_norms,
    )
