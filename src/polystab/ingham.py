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
``(G, M^T M)``, with ``Q(x) = ||M x||^2`` for the real cluster matrix M of
``_cluster_matrix`` (the clustered envelope).  The eigen-solves are
accurate to about ``eps ||G||`` in absolute terms (times ``||R^-1||^2``,
``M = Q_M R``, for the pencil); G is positive semidefinite, so a rounded
negative lower constant is reported as 0.

Seeded draws cross-check each envelope: ``trials`` complex Gaussian
vectors plus the cancelling pairs ``e_i - e_{i+1}`` of adjacent supported
frequencies, evaluated as ``x^H G x / d(x)`` with the envelope's
denominator d.  A ratio outside the envelope by more than the rounding
slack ``8 n eps ||G||_F ||x||^2 / d(x)`` raises DiagnosticFailure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticFailure, DomainError
from .spectra import cluster_partition

__all__ = [
    "InghamConfig",
    "InghamEstimate",
    "support_threshold",
    "ingham_ratio_scalar",
    "estimate_scalar",
    "q_form",
    "estimate_clustered",
    "cluster_seminorm",
]


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
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise DomainError("gamma must be positive and finite")
        if not (0.0 < self.sigma <= math.pi / self.gamma):
            raise DomainError("sigma must lie in (0, pi/gamma]")
        if not (isinstance(self.J, (int, np.integer)) and self.J >= 1):
            raise DomainError(f"J must be a positive integer; got {self.J!r}")
        if not (self.J * self.sigma > math.pi / self.gamma):
            raise DomainError("J * sigma must exceed pi/gamma")
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise DomainError(f"trials must be a positive integer; got {self.trials!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise DomainError(f"seed must be a non-negative integer; got {self.seed!r}")


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


def _supported(freqs, cfg: InghamConfig):
    """Frequencies, supported indices, and the Gram and draws on those modes."""
    freqs = np.asarray(freqs, dtype=float)
    active = np.nonzero(_support_mask(freqs, cfg))[0]
    if active.size == 0:
        raise DomainError("no frequencies inside the support window")
    return freqs, active, _gram(freqs[active], cfg), _draw_coefficients(freqs[active], cfg)


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
    freqs = np.asarray(freqs, dtype=float)
    coeffs = np.asarray(coeffs)
    if coeffs.shape != freqs.shape:
        raise DomainError("coeffs must match freqs in length")
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
    """Cross-check draws on the supported frequencies ``freqs``.

    Returns a real ``(trials + n - 1, 2, n)`` array: entry ``[d, 0]`` is the
    real and ``[d, 1]`` the imaginary part of draw d.  Draws 0..trials-1 are
    complex standard normal, one ``default_rng(cfg.seed)`` block, so draw i
    does not depend on ``trials``; the remaining draws are the deterministic
    cancelling pairs ``e_i - e_j`` of modes adjacent in frequency.
    """
    n, m = freqs.size, cfg.trials
    D = np.zeros((m + n - 1, 2, n))
    D[:m] = np.random.default_rng(cfg.seed).standard_normal((m, 2, n))
    eye = np.eye(n)[np.argsort(freqs)]
    D[m:, 0] = eye[:-1] - eye[1:]
    return D


def _apply(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """``A x`` for every draw x of D, as one real product."""
    return (D.reshape(-1, D.shape[-1]) @ A.T).reshape(*D.shape[:2], -1)


def _envelope(eigs: np.ndarray, G: np.ndarray, D: np.ndarray, den: np.ndarray) -> InghamEstimate:
    """Envelope of the ascending ``eigs``, cross-checked by the draws D with
    denominators ``den`` (module docstring)."""
    lo, hi = max(float(eigs[0]), 0.0), float(eigs[-1])
    ratios = np.einsum("dkn,dkn->d", _apply(G, D), D) / den
    mass = np.einsum("dkn,dkn->d", D, D)
    slack = 8 * G.shape[0] * np.finfo(float).eps * np.linalg.norm(G) * mass / den
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
        n_active=G.shape[0],
    )


def estimate_scalar(freqs, cfg: InghamConfig) -> InghamEstimate:
    """Exact envelope of ``S(x, t) / sum |x_k|^2`` (the same for every t)."""
    _, _, G, D = _supported(freqs, cfg)
    return _envelope(np.linalg.eigvalsh(G), G, D, np.einsum("dkn,dkn->d", D, D))


def _cluster_matrix(freqs: np.ndarray, partition) -> np.ndarray:
    """Real matrix M with Q(x) = ||M x||^2 for the given cluster partition.

    An isolated mode k gives the row ``e_k``; a 2-cluster (i, j) with gap
    ``g = omega_j - omega_i`` gives the rows ``e_i + e_j``, ``g e_i`` and
    ``g e_j``.
    """
    eye = np.eye(freqs.size)
    rows = []
    for cluster in partition:
        if len(cluster) == 1:
            rows.append(eye[cluster[0]])
        else:
            i, j = cluster
            gap = freqs[j] - freqs[i]
            rows += [eye[i] + eye[j], gap * eye[i], gap * eye[j]]
    return np.array(rows).reshape(-1, freqs.size)


def q_form(freqs, coeffs, gamma1: float | None = None, partition=None) -> float:
    """Cluster-aware coefficient form Q(x) for a sorted frequency family."""
    freqs = np.asarray(freqs, dtype=float)
    coeffs = np.asarray(coeffs)
    if coeffs.shape != freqs.shape:
        raise DomainError("coeffs must match freqs in length")
    if partition is None:
        if gamma1 is None:
            raise DomainError("q_form needs gamma1 or an explicit partition")
        partition = cluster_partition(freqs, gamma1)
    return float(np.sum(np.abs(_cluster_matrix(freqs, partition) @ coeffs) ** 2))


def estimate_clustered(freqs, cfg: InghamConfig) -> InghamEstimate:
    """Exact envelope of ``S(x, 0) / Q(x)``.

    ``cfg.gamma`` plays the role of the 2-separated constant and defines
    the cluster partition.  With ``M = Q_M R`` on the supported modes the
    pencil ``(G, M^T M)`` has the eigenvalues of ``R^-T G R^-1``.  A
    2-cluster of two supported modes with zero gap makes Q vanish on a
    nonzero vector and raises DomainError.
    """
    freqs, active, G, D = _supported(freqs, cfg)
    partition = cluster_partition(freqs, cfg.gamma)
    if any(len(c) == 2 and freqs[c[0]] == freqs[c[1]] and np.isin(c, active).all()
           for c in partition):
        raise DomainError("Q(x) vanishes on a supported 2-cluster with zero gap")
    M = _cluster_matrix(freqs, partition)[:, active]
    Rt = np.linalg.qr(M, mode="r").T
    C = np.linalg.solve(Rt, np.linalg.solve(Rt, G).T)
    MD = _apply(M, D)
    return _envelope(np.linalg.eigvalsh(C), G, D, np.einsum("dkn,dkn->d", MD, MD))


def cluster_seminorm(freqs, coeffs, partition, gram=None) -> float:
    """Cluster seminorm sum ||T_n C_n||^2 for vector-valued coefficients.

    ``coeffs`` has one row per frequency; rows are coordinates of Y-valued
    coefficients in a frame whose Gram matrix is ``gram`` (identity when
    omitted).  Isolated modes contribute ``||x_k||^2``; a 2-cluster with
    frequency gap g contributes ``||x_k + x_{k+1}||^2 + g^2 ||x_{k+1}||^2``
    (the printed row convention of the cluster matrices).
    """
    freqs = np.asarray(freqs, dtype=float)
    C = np.atleast_2d(np.asarray(coeffs))
    if C.shape[0] != freqs.size:
        # allow a 1-d scalar coefficient vector
        if C.shape == (1, freqs.size):
            C = C.T
        else:
            raise DomainError("coeffs must have one row per frequency")
    if gram is None:
        gram = np.eye(C.shape[1])
    gram = np.asarray(gram, dtype=float)

    def norm_sq(v):
        return float(np.real(np.conj(v) @ gram @ v))

    total = 0.0
    for cluster in partition:
        if len(cluster) == 1:
            total += norm_sq(C[cluster[0]])
        else:
            i, j = cluster
            gap = freqs[j] - freqs[i]
            total += norm_sq(C[i] + C[j]) + gap**2 * norm_sq(C[j])
    return total
