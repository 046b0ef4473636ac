"""Empirical constants for discrete Ingham-type exponential-sum estimates.

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

The theorems assert the existence of two-sided constants; this module
*measures* them: it draws seeded complex Gaussian coefficient vectors,
appends deterministic adversarial draws (cancelling pairs ``e_i -
e_{i+1}`` on every adjacent frequency pair), and reports the min/max
observed ratios as empirical envelopes.  These are estimates, not proofs.

S is ``sigma ||E x||^2`` with the (2J+1, n) sample matrix
``E = [exp(i omega_k (t + j sigma))]``.  For a batch of more than n
coefficient vectors it is evaluated as ``sigma ||R x||^2``, where ``R`` is
the triangular QR factor of ``E``: ``E = Q R`` with orthonormal ``Q`` gives
``||E x|| = ||R x||``, so no (2J+1)-row product with the batch is formed.
The Gram matrix ``E* E`` (which would square the conditioning of close
clusters) is never built.  Q(x) is ``||M x||^2`` with the real cluster
matrix ``M`` of ``_cluster_matrix``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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
    """Sampling parameters: period sigma, half-width J, gap constant, draws."""

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
        if self.J < 1:
            raise DomainError("J must be a positive integer")
        if not (self.J * self.sigma > math.pi / self.gamma):
            raise DomainError("J * sigma must exceed pi/gamma")
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise DomainError(f"trials must be a positive integer; got {self.trials!r}")


@dataclass(frozen=True)
class InghamEstimate:
    """Empirical two-sided envelope of the sampled ratio."""

    c_lo: float
    c_hi: float
    n_active: int


def support_threshold(cfg: InghamConfig) -> float:
    """Window edge pi/sigma - gamma/2 of the coefficient support condition."""
    return math.pi / cfg.sigma - 0.5 * cfg.gamma


def _support_mask(freqs: np.ndarray, cfg: InghamConfig) -> np.ndarray:
    # Coefficients strictly above the window edge are zeroed; the edge
    # itself survives.
    return np.abs(freqs) <= support_threshold(cfg)


def _apply_support(freqs: np.ndarray, coeffs: np.ndarray, cfg: InghamConfig) -> np.ndarray:
    mask = _support_mask(freqs, cfg)
    zeroed = int(np.count_nonzero(coeffs[~mask]))
    if zeroed:
        warnings.warn(
            f"{zeroed} coefficient(s) beyond the support window were zeroed",
            stacklevel=3,
        )
    out = np.array(coeffs, dtype=complex)
    out[~mask] = 0.0
    return out


# Largest sample matrix built, in complex entries (2 GiB).
_MAX_SAMPLE_ENTRIES = 2**27


def _sample_matrix(freqs: np.ndarray, cfg: InghamConfig, t: float) -> np.ndarray:
    """(2J+1, n) matrix of exp(i omega (t + j sigma)) samples.

    Raises DomainError instead of allocating more than _MAX_SAMPLE_ENTRIES.
    """
    entries = (2 * cfg.J + 1) * freqs.size
    if entries > _MAX_SAMPLE_ENTRIES:
        raise DomainError(
            f"sample matrix of J = {cfg.J}, n = {freqs.size} has {entries} entries, "
            f"above the limit of {_MAX_SAMPLE_ENTRIES}"
        )
    times = t + cfg.sigma * np.arange(-cfg.J, cfg.J + 1)
    return np.exp(1j * np.outer(times, freqs))


def _sums(E: np.ndarray, X: np.ndarray, sigma: float) -> np.ndarray:
    """sigma * ||E x||^2 per column x of X.

    With more columns than E has, E is first reduced to its triangular QR
    factor R (``||E x|| = ||R x||``): O(rows n^2) once instead of O(rows n)
    per column.  With fewer columns the direct product is cheaper.
    """
    if X.shape[1] > E.shape[1]:
        E = np.linalg.qr(E, mode="r")
    return sigma * np.sum(np.abs(E @ X) ** 2, axis=0)


def _sampled_sums(freqs, X, cfg, t=0.0):
    """sigma * sum_j |sum_k x_k e^{i omega_k (t + j sigma)}|^2 per column."""
    return _sums(_sample_matrix(freqs, cfg, t), X, cfg.sigma)


def ingham_ratio_scalar(freqs, coeffs, cfg: InghamConfig, t: float = 0.0) -> float:
    """Sampled-sum ratio against sum |x_k|^2 for one coefficient vector.

    Coefficients violating the support condition are zeroed (with a
    warning); the ratio is computed on the survivors.
    """
    freqs = np.asarray(freqs, dtype=float)
    coeffs = np.asarray(coeffs)
    if coeffs.shape != freqs.shape:
        raise DomainError("coeffs must match freqs in length")
    x = _apply_support(freqs, coeffs, cfg)
    denom = float(np.sum(np.abs(x) ** 2))
    if denom == 0.0:
        raise DomainError("all coefficients zeroed by the support condition")
    num = float(_sampled_sums(freqs, x[:, None], cfg, t)[0])
    return num / denom


def _draw_coefficients(freqs: np.ndarray, cfg: InghamConfig) -> np.ndarray:
    """Seeded Gaussian draws on the supported modes plus adversarial pairs.

    Columns 0..trials-1 are complex standard normal restricted to the
    support window (per-trial spawned streams keep the draws independent
    of execution order); the remaining columns are the deterministic
    cancelling draws e_i - e_{i+1} for every adjacent supported pair.
    """
    n = freqs.size
    mask = _support_mask(freqs, cfg)
    active = np.nonzero(mask)[0]
    if active.size == 0:
        raise DomainError("no frequencies inside the support window")
    order = active[np.argsort(freqs[active])]
    X = np.zeros((n, cfg.trials + order.size - 1), dtype=complex)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        X[active, i] = rng.standard_normal(active.size) + 1j * rng.standard_normal(
            active.size
        )
    pairs = np.arange(cfg.trials, X.shape[1])
    X[order[:-1], pairs] = 1.0
    X[order[1:], pairs] = -1.0
    return X


def _draw_sums(freqs: np.ndarray, cfg: InghamConfig):
    """The draws of ``_draw_coefficients`` and their sampled sums at t = 0.

    Returns ``(X, num)``.  The Gaussian columns and the (at most n - 1)
    cancelling pairs are summed apart: the Gaussian block goes through the
    QR factor when it outnumbers the modes, while the pairs always take the
    direct product, which sums two sample columns exactly and so carries no
    factorisation error into the near-cancelling sums that set the
    envelopes.
    """
    X = _draw_coefficients(freqs, cfg)
    E = _sample_matrix(freqs, cfg, 0.0)
    m = cfg.trials
    return X, np.concatenate([_sums(E, X[:, :m], cfg.sigma), _sums(E, X[:, m:], cfg.sigma)])


def estimate_scalar(freqs, cfg: InghamConfig) -> InghamEstimate:
    """Empirical envelope of the ratio against sum |x_k|^2 at t = 0."""
    freqs = np.asarray(freqs, dtype=float)
    X, num = _draw_sums(freqs, cfg)
    denom = np.sum(np.abs(X) ** 2, axis=0)
    ratios = num / denom
    return InghamEstimate(
        c_lo=float(np.min(ratios)),
        c_hi=float(np.max(ratios)),
        n_active=int(np.count_nonzero(_support_mask(freqs, cfg))),
    )


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
    """Empirical envelope of the ratio against Q(x) at t = 0.

    ``cfg.gamma`` plays the role of the 2-separated constant and defines
    the cluster partition.
    """
    freqs = np.asarray(freqs, dtype=float)
    partition = cluster_partition(freqs, cfg.gamma)
    X, num = _draw_sums(freqs, cfg)
    q = np.sum(np.abs(_cluster_matrix(freqs, partition) @ X) ** 2, axis=0)
    good = q > 0.0
    if not np.any(good):
        raise DomainError("all draws have vanishing Q(x)")
    ratios = num[good] / q[good]
    return InghamEstimate(
        c_lo=float(np.min(ratios)),
        c_hi=float(np.max(ratios)),
        n_active=int(np.count_nonzero(_support_mask(freqs, cfg))),
    )


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
