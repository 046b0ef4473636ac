"""Modal state space, graded norms, energies, and frequency projections.

The toolkit works on finite modal truncations of a damped second-order
system

    w''(t) + A w(t) + B B* w'(t) = 0

written in the orthonormal eigenbasis of the positive self-adjoint
operator A.  A system is then fully described by

* the eigenvalues ``eta_j > 0`` (frequencies ``mu_j = sqrt(eta_j)``),
* the damping Gram matrix ``D[j, m] = <B* phi_j, B* phi_m>_Y``,

and a state by the pair of real coefficient vectors ``(a, b)`` of the
displacement and the velocity.  All norms used downstream are modal sums
weighted by powers of ``eta``:

    ||w||_{s}^2      = sum_j eta_j^{2 s} w_j^2            (graded norm)
    ||(a, b)||_{-beta}^2 = ||a||_{-beta}^2 + ||b||_{-beta-1/2}^2

so the energy is E = (1/2) ||(a, b)||_{1/2-scale}^2 with exact constants
(no hidden norm equivalences).

**Mode groups.**  Modes couple only through ``D``, so a system stores
``D`` as its group blocks (one stack per group size), and every system is
built from such blocks, which are checked block by block.
``build_coupled_waves`` gives its closed-form blocks and forms no (n, n)
array; ``build_boundary_coupled_waves`` gives its dense ``D`` as one block
of all modes; ``from_eta`` gathers the blocks of a dense ``D`` over the
connected components of ``(D != 0) | (D.T != 0)`` (``mode_groups``).  No
(n, n) array is kept: ``ModalSystem.damp_gram`` assembles one, O(n^2) in
memory, on request.

Everything in this module is pure; systems and states are immutable value
types and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonFiniteStateError

_SYM_RTOL = 1e-14
_PSD_RTOL = 1e-12


def _readonly(x) -> np.ndarray:
    out = np.array(x, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModalSystem:
    """Finite modal truncation: eigenvalues, frequencies and damping Gram.

    The damping Gram is stored per mode group only: ``blocks`` holds, per
    group size s, the stacked (g, s) mode indices of the g groups of that
    size and their (g, s, s) Gram blocks.  ``groups`` and ``damp_gram`` are
    read from them; no (n, n) array is kept, and ``damp_gram`` assembles
    one, O(n^2) in memory, each time it is read.

    Attributes
    ----------
    eta : (n,) positive eigenvalues of the spatial operator, nondecreasing.
    mu : (n,) frequencies, ``mu_j = sqrt(eta_j)``.
    bstar_norms : (n,) per-mode observation norms, ``sqrt(diag(damp_gram))``.
    labels : per-mode branch tags, e.g. ``("-", 3)``; empty tuple if unused.
    blocks : per group size, the ``(idx, gram)`` pair described above.
    """

    eta: np.ndarray
    mu: np.ndarray
    bstar_norms: np.ndarray
    labels: tuple = field(default=())
    blocks: tuple = field(init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.eta.shape[0]

    @property
    def groups(self) -> tuple:
        """The mode groups, the ``mode_groups`` of the Gram: the rows of the
        ``blocks`` index stacks, ordered by smallest mode."""
        return tuple(sorted((grp for idx, _ in self.blocks for grp in idx), key=lambda g: g[0]))

    @property
    def damp_gram(self) -> np.ndarray:
        """The (n, n) symmetric PSD matrix of Y-inner products of the damping
        observations of the eigenvectors, assembled from ``blocks``."""
        D = np.zeros((self.n, self.n))
        for idx, gram in self.blocks:
            D[idx[:, :, None], idx[:, None, :]] = gram
        D.setflags(write=False)
        return D

    def gram_at(self, i, j) -> np.ndarray:
        """Gram entries ``D[i, j]`` for broadcast index arrays, read from
        ``blocks``: entries of two different groups are exact zeros."""
        i, j = np.broadcast_arrays(i, j)
        slot, row, pos = _places(self.n, [idx for idx, _ in self.blocks])
        same = (slot[i] == slot[j]) & (row[i] == row[j])
        out = np.zeros(i.shape)
        for k, (_, gram) in enumerate(self.blocks):
            at = same & (slot[i] == k)
            out[at] = gram[row[i[at]], pos[i[at]], pos[j[at]]]
        return out

    @classmethod
    def from_eta(cls, eta, damp_gram=None, labels=None, mu=None) -> "ModalSystem":
        """Build and validate a system from eigenvalues and a dense damping Gram
        (zero if omitted): its groups come from its nonzero entries
        (``mode_groups``) and each group's block is gathered from it.

        ``mu`` may be supplied when the frequencies are the natural data
        (e.g. closed-form spectra); it is checked against ``sqrt(eta)``.
        """
        eta, mu = _spectrum(eta, mu)
        n = eta.size
        if damp_gram is None:
            return cls._assemble(eta, [(np.arange(n)[:, None], np.zeros((n, 1, 1)))], labels, mu)
        D = np.asarray(damp_gram, dtype=float)
        if D.shape != (n, n):
            raise DimensionMismatchError("damp_gram rows", n, D.shape[0] if D.ndim else 0)
        blocks = [(idx, D[idx[:, :, None], idx[:, None, :]])
                  for idx in groups_by_size(mode_groups(D))]
        return cls._assemble(eta, blocks, labels, mu)

    @classmethod
    def _assemble(cls, eta, blocks, labels=None, mu=None) -> "ModalSystem":
        """The system whose Gram is zero outside the group ``blocks``: per
        group size, private (g, s) mode indices covering every mode once and
        their (g, s, s) Gram blocks.  Checks the spectrum and the Gram block
        by block and stores the blocks read-only."""
        eta, mu = _spectrum(eta, mu)
        if not all(np.isfinite(gram).all() for _, gram in blocks):
            raise NonFiniteStateError("damp_gram contains non-finite entries")
        scale, asym, lam_min = _gram_extremes(blocks)
        if scale > 0.0:
            if asym > _SYM_RTOL * scale:
                raise DomainError("damp_gram is not symmetric to 1e-14 relative")
            if lam_min < -_PSD_RTOL * scale:
                raise DomainError(
                    f"damp_gram not positive semidefinite: min eigenvalue {lam_min:g}"
                )
        diag = np.zeros(eta.size)
        for idx, gram in blocks:
            idx.setflags(write=False)  # each stack is private
            gram.setflags(write=False)
            diag[idx] = np.diagonal(gram, axis1=1, axis2=2)
        bstar = _readonly(np.sqrt(np.maximum(diag, 0.0)))

        if labels is None:
            labels = ()
        labels = tuple(labels)
        if labels and len(labels) != eta.size:
            raise DimensionMismatchError("labels", eta.size, len(labels))

        out = cls(eta=eta, mu=mu, bstar_norms=bstar, labels=labels)
        object.__setattr__(out, "blocks", tuple(blocks))
        return out


def _spectrum(eta, mu) -> tuple:
    """Validated read-only ``eta`` and ``mu`` (``sqrt(eta)`` if None)."""
    eta = _readonly(np.atleast_1d(eta))
    if eta.ndim != 1 or eta.size == 0:
        raise DomainError("eta must be a nonempty 1-d vector")
    if not np.all(np.isfinite(eta)):
        raise NonFiniteStateError("eta contains non-finite entries")
    if np.any(eta <= 0.0):
        raise DomainError("eta must be strictly positive")
    if np.any(np.diff(eta) < 0.0):
        raise DomainError("eta must be nondecreasing")
    if mu is None:
        return eta, _readonly(np.sqrt(eta))
    mu = np.asarray(mu, dtype=float)
    if mu.shape != eta.shape:
        raise DimensionMismatchError("mu", eta.size, mu.size)
    if np.max(np.abs(mu**2 - eta)) > 1e-12 * np.max(eta):
        raise DomainError("mu**2 inconsistent with eta")
    return eta, _readonly(mu)


def _places(n: int, by_size) -> tuple:
    """Per mode of the (g, s) index stacks ``by_size``: its stack, its
    group's row in that stack and its place in its group."""
    slot, row, pos = (np.zeros(n, dtype=int) for _ in range(3))
    for k, idx in enumerate(by_size):
        slot[idx], row[idx], pos[idx] = k, np.arange(idx.shape[0])[:, None], np.arange(idx.shape[1])
    return slot, row, pos


def _gram_extremes(blocks) -> tuple:
    """``max |D|``, ``max |D - D^T|`` and ``eigvalsh(D)[0]`` of a Gram that is
    zero outside its group blocks: one batched eigvalsh per group size."""
    grams = [gram for _, gram in blocks]
    return (max(np.abs(b).max() for b in grams),
            max(np.abs(b - b.transpose(0, 2, 1)).max() for b in grams),
            min(float(np.linalg.eigvalsh(b).min()) for b in grams))


def mode_groups(damp_gram) -> list:
    """Independent mode groups of a dense damping Gram: connected components
    of the symmetric sparsity pattern ``(D != 0) | (D.T != 0)``.

    Returns the groups as ascending index arrays, ordered by smallest mode.
    """
    D = np.asarray(damp_gram)
    return _components(D.shape[0], *np.nonzero(D))


def _components(n: int, i, j) -> list:
    """``mode_groups`` of the n-mode Gram whose nonzero entries are at
    ``(i, j)``.  Components are found by min-label propagation with pointer
    jumping along the entries, each also read as ``(j, i)``, until every
    entry joins two equal labels."""
    label = np.arange(n)
    while not np.array_equal(label[i], label[j]):
        np.minimum.at(label, i, label[j])
        np.minimum.at(label, j, label[i])
        label = label[label]
    order = np.argsort(label, kind="stable")
    order.setflags(write=False)  # the groups are read-only views
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), n]
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def groups_by_size(groups) -> list:
    """One (g, s) index array per group size s, in ascending s."""
    sizes = sorted({grp.size for grp in groups})
    return [np.array([grp for grp in groups if grp.size == s]) for s in sizes]


@dataclass(frozen=True)
class ModalState:
    """Real modal coefficient pair: displacement ``a`` and velocity ``b``."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _readonly(np.atleast_1d(self.a))
        b = _readonly(np.atleast_1d(self.b))
        if a.shape != b.shape or a.ndim != 1:
            raise DimensionMismatchError("velocity block", a.size, b.size)
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise NonFiniteStateError("state contains NaN or Inf entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @classmethod
    def zero(cls, n: int) -> "ModalState":
        return cls(np.zeros(n), np.zeros(n))

    def stacked(self) -> np.ndarray:
        """Return the stacked vector ``[a; b]`` (length 2n)."""
        return np.concatenate([self.a, self.b])

    @classmethod
    def from_stacked(cls, x) -> "ModalState":
        x = np.asarray(x, dtype=float)
        n = x.shape[0] // 2
        return cls(x[:n], x[n:])

    @classmethod
    def _wrap_stacked(cls, x: np.ndarray) -> "ModalState":
        """Read-only views of a finite stacked vector that only the caller
        holds: no copy and no finiteness scan."""
        x.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(a=x[: x.size // 2], b=x[x.size // 2:])
        return state


def _check_conforms(sys: ModalSystem, state: ModalState) -> None:
    if state.n != sys.n:
        raise DimensionMismatchError("state", sys.n, state.n)


def pair_norm_sq(sys: ModalSystem, a, b, beta: float):
    """Squared pair norm on the ``-beta`` scale; broadcasts over columns.

    ``a`` and ``b`` may be (n,) vectors or (n, m) column batches.
    """
    wa = sys.eta ** (-2.0 * beta)
    wb = sys.eta ** (-2.0 * beta - 1.0)
    if np.ndim(a) == 2:
        wa = wa[:, None]
        wb = wb[:, None]
    return np.sum(wa * np.square(a), axis=0) + np.sum(wb * np.square(b), axis=0)


def norm_domain(sys: ModalSystem, state: ModalState) -> float:
    """Generator-domain norm ``sqrt(sum eta^2 a^2 + sum eta b^2)``."""
    _check_conforms(sys, state)
    return float(np.sqrt(np.sum(sys.eta**2 * state.a**2) + np.sum(sys.eta * state.b**2)))


def energy(sys: ModalSystem, state: ModalState) -> float:
    """Energy ``(1/2)(sum eta a^2 + sum b^2)``; equals half the squared H-norm."""
    _check_conforms(sys, state)
    return 0.5 * float(np.sum(sys.eta * state.a**2) + np.sum(state.b**2))


def project_filter(sys: ModalSystem, state: ModalState, cutoff: float):
    """Split a state into (low, high) parts across a frequency cutoff.

    ``low`` keeps modes with ``mu_j <= cutoff``, ``high`` the rest.  The
    split is componentwise, so ``low + high`` reproduces the input bitwise
    and the parts are orthogonal in every graded norm.
    """
    _check_conforms(sys, state)
    if not (cutoff > 0.0):
        raise DomainError("cutoff must be positive")
    keep = sys.mu <= cutoff
    low = ModalState(np.where(keep, state.a, 0.0), np.where(keep, state.b, 0.0))
    high = ModalState(np.where(keep, 0.0, state.a), np.where(keep, 0.0, state.b))
    return low, high
