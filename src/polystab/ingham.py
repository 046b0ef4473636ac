"""Constants of discrete Ingham-type exponential-sum estimates.

For a real frequency family ``omega_k`` and complex coefficients ``x_k``
the sampled quadratic form

    S(x, t) = sigma * sum_{j=-J..J} | sum_k x_k exp(i omega_k (t + j sigma)) |^2

is equivalent to a coefficient norm whenever the family has a uniform
gap:

* pairwise gap ``|omega_k - omega_n| >= gamma``:  S(x, t) ~ sum |x_k|^2,
  for ``0 < sigma <= pi/gamma``, ``J sigma > pi/gamma`` and coefficients
  supported strictly inside the sampling window
  ``|omega_k| <= pi/sigma - gamma/2``;

* 2-separated gap ``omega_{k+2} - omega_k >= 2 gamma_1`` (pairs may
  cluster):  S(x, 0) ~ Q(x) with the cluster-aware quadratic form

      Q(x) = sum_{isolated} |x_k|^2
           + sum_{2-clusters} |x_k + x_{k+1}|^2
             + (omega_{k+1} - omega_k)^2 (|x_k|^2 + |x_{k+1}|^2).

S(x, t) = y^H G y with ``y_k = x_k exp(i omega_k t)`` and the real n x n
Dirichlet-kernel Gram (whatever J is)

    G_kl = sigma sin(N theta/2) / sin(theta/2),  theta = sigma (omega_l - omega_k),

``N = 2J + 1`` (exactly ``N sigma`` where ``theta = 0``).  So the constants
are exact extremes of Rayleigh quotients (Baiocchi-Komornik-Loreti, Acta
Math. Hungar. 97, 2002): on the supported modes, the extreme eigenvalues of
G (the scalar envelope, uniform in t since ``|y| = |x|``) and of the pencil
``(G, Q)`` (the clustered envelope).  Q's matrix is block diagonal with
1 x 1 and 2 x 2 blocks, so a block-diagonal T with ``Q(T y) = ||y||^2``
is known in closed form and the pencil has the eigenvalues of ``T^T G T``.
The eigen-solves are accurate to about ``eps ||G||`` in absolute terms,
divided for the pencil by Q's least eigenvalue ``min(1, g^2)``, g the
least gap of a 2-cluster of two supported modes; G is positive
semidefinite, so a rounded negative lower constant is reported as 0.

Seeded draws cross-check each envelope: ``trials`` complex Gaussian
vectors plus the cancelling pairs ``e_a - e_b`` of adjacent supported
frequencies, evaluated as ``x^H G x / d(x)`` with the envelope's
denominator d.  A pair reads four entries of G, ``(G_aa - G_ab) - (G_ba -
G_bb)``, and its Q from the partition, and Q of a draw is summed cluster by
cluster, so beyond the draws' ``x^H G x`` the check costs O(n) per draw.
A ratio outside the envelope by more than the rounding slack
``8 n eps ||G||_F ||x||^2 / d(x)`` raises DiagnosticFailure.  A
non-finite frequency, coefficient or t raises DomainError.

Both envelopes of one family share its sampled part: G and ``||G||_F``,
the draws and their ``x^H G x`` and ``||x||^2``, keyed by the supported
frequencies' bits, sigma, J, trials and seed.  The module holds at most
one such family, for the envelope that did not build it; the next call
releases it.  So a scalar/clustered pair builds it once, a repeated call
of one envelope builds it again, and every result has the bits of a cold
call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DiagnosticFailure, DomainError, check_int, check_positive, finite_array
from .spectra import cluster_partition


@dataclass(frozen=True)
class InghamConfig:
    """Sampling parameters: period sigma, half-width J, gap constant, and the
    number and seed of the cross-check draws (``trials`` Gaussian vectors
    from ``default_rng(seed)``)."""

    sigma: float
    J: int
    gamma: float
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_positive("gamma", self.gamma)
        if not (0.0 < self.sigma <= math.pi / self.gamma):
            raise DomainError("sigma must lie in (0, pi/gamma]")
        for name, low in (("J", 1), ("trials", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if not (self.J * self.sigma > math.pi / self.gamma):
            raise DomainError("J * sigma must exceed pi/gamma")


@dataclass(frozen=True)
class InghamEstimate:
    """Exact two-sided envelope of the ratio and its sampled cross-check.

    ``c_lo``/``c_hi`` are the extreme (generalised) eigenvalues, accurate
    to about ``eps ||G||``; ``sampled_lo``/``sampled_hi`` are the extreme
    ratios of the seeded draws, which lie inside ``[c_lo, c_hi]`` up to
    rounding.  ``n_active`` counts the modes inside the support window.
    """

    c_lo: float
    c_hi: float
    sampled_lo: float
    sampled_hi: float
    n_active: int


def support_threshold(cfg: InghamConfig) -> float:
    """Window edge pi/sigma - gamma/2 of the coefficient support condition."""
    return math.pi / cfg.sigma - 0.5 * cfg.gamma


def _support_mask(freqs: np.ndarray, cfg: InghamConfig) -> np.ndarray:
    # Coefficients strictly above the window edge are zeroed; the edge
    # itself survives.
    return np.abs(freqs) <= support_threshold(cfg)


def _family(freqs, coeffs):
    """Finite frequencies and coefficients of one shape."""
    freqs, coeffs = finite_array("freqs", freqs, float), finite_array("coeffs", coeffs)
    if coeffs.shape != freqs.shape:
        raise DomainError("coeffs must match freqs in length")
    return freqs, coeffs


def _supported(freqs, cfg: InghamConfig):
    """Finite frequencies and the indices of the supported ones."""
    freqs = finite_array("freqs", freqs, float)
    active = np.nonzero(_support_mask(freqs, cfg))[0]
    if active.size == 0:
        raise DomainError("no frequencies inside the support window")
    return freqs, active


def _gram(freqs: np.ndarray, cfg: InghamConfig) -> np.ndarray:
    """Dirichlet-kernel Gram ``N sigma sinc(N u) / sinc(u)``, ``u = theta / (2 pi)``.

    ``np.sinc(0)`` is exactly 1, so equal frequencies give exactly ``N sigma``;
    on supported modes ``|u| < 1``, where ``sinc(u) != 0``.
    """
    N = 2 * cfg.J + 1
    u = (0.5 * cfg.sigma / math.pi) * (freqs[None, :] - freqs[:, None])
    return (N * cfg.sigma) * np.sinc(N * u) / np.sinc(u)


def ingham_ratio_scalar(freqs, coeffs, cfg: InghamConfig, t: float = 0.0) -> float:
    """Sampled-sum ratio ``S(x, t) / sum |x_k|^2`` for one coefficient vector.

    Coefficients violating the support condition are zeroed (with a
    warning); the ratio is computed on the survivors.
    """
    freqs, coeffs = _family(freqs, coeffs)
    finite_array("t", t)
    mask = _support_mask(freqs, cfg)
    zeroed = int(np.count_nonzero(coeffs[~mask]))
    if zeroed:
        warnings.warn(f"{zeroed} coefficient(s) beyond the support window were zeroed",
                      stacklevel=2)
    x = coeffs[mask]
    denom = float(np.sum(np.abs(x) ** 2))
    if denom == 0.0:
        raise DomainError("all coefficients zeroed by the support condition")
    y = x * np.exp(1j * t * freqs[mask])
    return float(np.real(np.vdot(y, _gram(freqs[mask], cfg) @ y))) / denom


def _draw_coefficients(freqs: np.ndarray, cfg: InghamConfig) -> np.ndarray:
    """Gaussian cross-check draws on the supported frequencies ``freqs``.

    Returns a real ``(trials, 2, n)`` array: entry ``[d, 0]`` is the real and
    ``[d, 1]`` the imaginary part of draw d, complex standard normal from one
    ``default_rng(cfg.seed)`` block, so draw d does not depend on ``trials``.
    The cancelling pairs follow these draws in the check (``_pairs``).
    """
    return np.random.default_rng(cfg.seed).standard_normal((cfg.trials, 2, freqs.size))


def _pairs(freqs: np.ndarray):
    """Modes (a, b) of the cancelling pairs ``e_a - e_b``, adjacent in
    frequency: ``(k, k + 1)`` on a sorted family."""
    order = np.argsort(freqs, kind="stable")
    return order[:-1], order[1:]


def _draw_sums(G: np.ndarray, D: np.ndarray, a: np.ndarray, b: np.ndarray):
    """``x^H G x`` and ``||x||^2`` of the draws D, then of the pairs ``e_a - e_b``.

    A pair's sums are exactly those of a dense product with ``e_a - e_b``:
    ``(G_aa - G_ab) - (G_ba - G_bb)`` and 2, as adding zero terms is exact.
    """
    GD = (D.reshape(-1, G.shape[0]) @ G.T).reshape(D.shape)
    pairs = (G[a, a] - G[a, b]) - (G[b, a] - G[b, b])
    num = np.concatenate([np.einsum("dkn,dkn->d", GD, D), pairs])
    mass = np.concatenate([np.einsum("dkn,dkn->d", D, D), np.full(a.size, 2.0)])
    return num, mass


class _Sampled(NamedTuple):
    """What both envelopes of one family share: the Gram G on the supported
    frequencies and ``||G||_F``, the draws D and the draws' and pairs'
    ``x^H G x`` (num) and ``||x||^2`` (mass).  Its arrays are read-only."""

    key: tuple
    G: np.ndarray
    norm: float
    D: np.ndarray
    num: np.ndarray
    mass: np.ndarray


# (envelope that built it, family) until the next call (module docstring)
_held: tuple[str, _Sampled] | None = None


def _sampled(freqs: np.ndarray, cfg: InghamConfig, envelope: str) -> _Sampled:
    """The sampled family of the supported frequencies ``freqs`` under cfg.

    Its key is the bits of ``freqs`` and sigma, J, trials and seed; gamma
    is not part of it, since it acts only through which frequencies are
    supported (and the clustered partition, which is not shared).  The
    family held by the other envelope under the same key is taken instead
    of built; a family built here is held for the other envelope.
    """
    global _held
    key = (freqs.tobytes(), cfg.sigma, cfg.J, cfg.trials, cfg.seed)
    held, _held = _held, None  # released before another is built
    if held is not None and held[0] != envelope and held[1].key == key:
        return held[1]
    G = _gram(freqs, cfg)
    D = _draw_coefficients(freqs, cfg)
    num, mass = _draw_sums(G, D, *_pairs(freqs))
    for a in (G, D, num, mass):
        a.flags.writeable = False
    family = _Sampled(key, G, float(np.linalg.norm(G)), D, num, mass)
    _held = (envelope, family)
    return family


def _envelope(eigs: np.ndarray, family: _Sampled, den: np.ndarray) -> InghamEstimate:
    """Envelope of the ascending ``eigs``, cross-checked by the family's
    draws with the denominators ``den`` (module docstring)."""
    n, num, mass = family.G.shape[0], family.num, family.mass
    lo, hi = max(float(eigs[0]), 0.0), float(eigs[-1])
    ratios = num / den
    slack = 8 * n * np.finfo(float).eps * family.norm * mass / den
    outside = np.nonzero((ratios < lo - slack) | (ratios > hi + slack))[0]
    if outside.size:
        i = int(outside[0])
        raise DiagnosticFailure(
            f"sampled ratio {ratios[i]!r} of draw {i} lies outside the exact "
            f"envelope [{lo!r}, {hi!r}] by more than {slack[i]!r}"
        )
    return InghamEstimate(
        c_lo=lo,
        c_hi=hi,
        sampled_lo=float(np.min(ratios)),
        sampled_hi=float(np.max(ratios)),
        n_active=n,
    )


def estimate_scalar(freqs, cfg: InghamConfig) -> InghamEstimate:
    """Exact envelope of ``S(x, t) / sum |x_k|^2`` (the same for every t).

    Adds ``eigvalsh(G)`` to the sampled family (``_sampled``), which an
    ``estimate_clustered`` call on the same supported frequencies, sigma,
    J, trials and seed builds or takes.
    """
    freqs, active = _supported(freqs, cfg)
    family = _sampled(freqs[active], cfg, "scalar")
    return _envelope(np.linalg.eigvalsh(family.G), family, family.mass)


def _cluster_form(freqs: np.ndarray, partition, active: np.ndarray):
    """Weights (c, v) of Q on the modes ``active`` (by position in it):

        Q(x) = sum_k c_k |x_k + x_{k+1}|^2 + sum_k v_k |x_k|^2.

    ``c_k`` is 1 where k and k + 1 form a 2-cluster of two active modes;
    ``v_k`` is ``g^2`` on the modes of a 2-cluster of gap g, plus 1 on an
    isolated mode or a 2-cluster's only active mode (which so gives
    ``(1 + g^2) |x_k|^2``).  The partition must hold each mode exactly once,
    in clusters of one or two, and a 2-cluster must pair two neighbouring
    modes.
    """
    if any(len(c) not in (1, 2) for c in partition):
        raise DomainError("a cluster must hold one or two modes")
    two = np.array([c for c in partition if len(c) == 2], dtype=int).reshape(-1, 2)
    one = np.array([c[0] for c in partition if len(c) == 1], dtype=int)
    if not np.array_equal(np.sort(np.concatenate([one, two.ravel()])), np.arange(freqs.size)):
        raise DomainError(f"partition must hold each of the {freqs.size} modes exactly once")
    if np.any(two[:, 1] != two[:, 0] + 1):
        raise DomainError("a 2-cluster must pair two neighbouring modes")
    gap = freqs[two[:, 1]] - freqs[two[:, 0]]
    on = np.zeros(freqs.size, dtype=bool)
    on[active] = True
    both = on[two].all(axis=1)
    c, v = np.zeros(freqs.size), np.zeros(freqs.size)
    c[two[both, 0]] = 1.0
    v[two] = (gap * gap)[:, None]
    v[np.concatenate([one, two[~both].ravel()])] += 1.0
    return c[active[:-1]], v[active]


def _q_values(X: np.ndarray, form) -> np.ndarray:
    """Q of the coefficient vectors ``X[..., 0, :] + i X[..., 1, :]``."""
    c, v = form
    common = X[..., :-1] + X[..., 1:]
    return (np.einsum("...kn,...kn->...n", common, common) @ c
            + np.einsum("...kn,...kn->...n", X, X) @ v)


def _pair_q(form) -> np.ndarray:
    """Q of the pairs ``e_k - e_{k+1}`` of neighbouring active modes:
    ``v_k + v_{k+1} + c_{k-1} + c_{k+1}``, as ``x_k + x_{k+1} = 0``."""
    c, v = form
    return (v[:-1] + v[1:]) + np.append(0.0, c[:-1]) + np.append(c[1:], 0.0)


def q_form(freqs, coeffs, partition) -> float:
    """Cluster-aware coefficient form Q(x) for a sorted frequency family,
    split into isolated modes and 2-clusters by ``partition`` (for example
    ``cluster_partition(freqs, gamma1)``)."""
    freqs, coeffs = _family(freqs, coeffs)
    form = _cluster_form(freqs, partition, np.arange(freqs.size))
    return float(_q_values(np.stack([coeffs.real, coeffs.imag]), form))


def _q_basis(A: np.ndarray, form) -> np.ndarray:
    """``A T`` for the block-diagonal T with ``Q(T y) = ||y||^2``: on an
    active 2-cluster of gap g (``v_k = g^2``, Q's block ``[[1 + g^2, 1],
    [1, 1 + g^2]]``) T holds ``(e_k + e_{k+1}) / sqrt(2 (2 + g^2))`` and
    ``(e_k - e_{k+1}) / (sqrt(2) g)``, elsewhere ``e_k / sqrt(v_k)``."""
    c, v = form
    k = np.flatnonzero(c)
    out = A / np.sqrt(v)
    out[:, k] = (A[:, k] + A[:, k + 1]) / np.sqrt(2.0 * (2.0 + v[k]))
    out[:, k + 1] = (A[:, k] - A[:, k + 1]) / np.sqrt(2.0 * v[k])
    return out


def estimate_clustered(freqs, cfg: InghamConfig) -> InghamEstimate:
    """Exact envelope of ``S(x, 0) / Q(x)``.

    ``cfg.gamma`` plays the role of the 2-separated constant and defines
    the cluster partition.  The pencil ``(G, Q)`` has the eigenvalues of
    ``T^T G T`` (``_q_basis``), formed in O(n^2).  A 2-cluster of two
    supported modes whose squared gap is 0 makes Q vanish on a nonzero
    vector and raises DomainError.  The sampled family (``_sampled``) is
    shared with ``estimate_scalar``; this envelope adds Q's weights, Q of
    the draws and ``eigvalsh(T^T G T)``.  A refused call draws nothing.
    """
    freqs, active = _supported(freqs, cfg)
    form = _cluster_form(freqs, cluster_partition(freqs, cfg.gamma), active)
    if np.any(form[1] == 0.0):  # v is at least 1 off an active 2-cluster
        raise DomainError("Q(x) vanishes on a supported 2-cluster with zero gap")
    family = _sampled(freqs[active], cfg, "clustered")
    den = np.concatenate([_q_values(family.D, form), _pair_q(form)])
    C = _q_basis(_q_basis(family.G, form).T, form)
    return _envelope(np.linalg.eigvalsh(C), family, den)
