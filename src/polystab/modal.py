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
``D`` as its group blocks (one stack per group size).  The constructor
``ModalSystem(eta, blocks, labels, mu)`` is the one way a system is built:
it checks the spectrum, that the index stacks cover every mode exactly
once and each Gram block, and keeps read-only copies.
``build_coupled_waves`` gives its closed-form blocks and forms no (n, n)
array; ``build_boundary_coupled_waves`` gives its dense ``D`` as one block
of all modes; ``from_eta`` gathers the blocks of a dense ``D`` over the
connected components of ``(D != 0) | (D.T != 0)`` (``mode_groups``).  No
(n, n) array is kept: ``ModalSystem.damp_gram`` assembles one, O(n^2) in
memory, on request.

Everything in this module is pure; systems and states are immutable and
safe to share across threads.  They compare and hash by identity: two
systems or states are equal only when they are the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonFiniteStateError, check_finite

_SYM_RTOL = 1e-14
_PSD_RTOL = 1e-12


def _readonly(x) -> np.ndarray:
    out = np.array(x, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ModalSystem:
    """Finite modal truncation: eigenvalues, frequencies and damping Gram.

    The one way a system is built.  The damping Gram is stored per mode
    group only: ``blocks`` holds, per group size s, the stacked (g, s)
    integer mode indices of the g groups of that size and their (g, s, s)
    Gram blocks.  The index stacks must cover every mode exactly once;
    each block must be finite, symmetric to 1e-14 and positive
    semidefinite to 1e-12, relative to the largest entry of all blocks.
    ``groups`` and ``damp_gram`` are read from the blocks; no (n, n) array
    is kept, and ``damp_gram`` assembles one, O(n^2) in memory, each time
    it is read.

    Attributes
    ----------
    eta : (n,) positive eigenvalues of the spatial operator, nondecreasing.
    blocks : per group size, the ``(idx, gram)`` pair described above.
    labels : per-mode branch tags, e.g. ``("-", 3)``; empty tuple if unused.
    mu : (n,) positive frequencies, ``sqrt(eta)`` if None, else checked against it.
    bstar_norms : (n,) per-mode observation norms, ``sqrt(diag(damp_gram))``
        (derived, not passed).
    """

    eta: np.ndarray
    blocks: tuple = field(repr=False)
    labels: tuple = ()
    mu: np.ndarray | None = None
    bstar_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        eta = _readonly(np.atleast_1d(self.eta))
        if eta.ndim != 1 or eta.size == 0:
            raise DomainError("eta must be a nonempty 1-d vector")
        if not np.all(np.isfinite(eta)):
            raise NonFiniteStateError("eta contains non-finite entries")
        if np.any(eta <= 0.0):
            raise DomainError("eta must be strictly positive")
        if np.any(np.diff(eta) < 0.0):
            raise DomainError("eta must be nondecreasing")
        mu = np.sqrt(eta) if self.mu is None else np.asarray(self.mu, dtype=float)
        if mu.shape != eta.shape:
            raise DimensionMismatchError("mu", eta.size, mu.size)
        if not np.all(mu > 0.0):
            raise DomainError("mu must be strictly positive")
        if self.mu is not None and np.max(np.abs(mu**2 - eta)) > 1e-12 * np.max(eta):
            raise DomainError("mu**2 inconsistent with eta")

        blocks = tuple((np.array(idx), _readonly(gram)) for idx, gram in self.blocks)
        for idx, gram in blocks:
            if (not np.issubdtype(idx.dtype, np.integer) or idx.ndim != 2 or idx.size == 0
                    or gram.shape != (*idx.shape, idx.shape[1])):
                raise DomainError("each block must be a nonempty (g, s) integer index stack "
                                  "and its (g, s, s) Gram")
            idx.setflags(write=False)
        modes = np.sort(np.concatenate([idx.ravel() for idx, _ in blocks] or [[]]))
        if not np.array_equal(modes, np.arange(eta.size)):
            raise DomainError(
                f"the block index stacks must cover each of the {eta.size} modes exactly once")
        if not all(np.isfinite(gram).all() for _, gram in blocks):
            raise NonFiniteStateError("damp_gram contains non-finite entries")
        scale, asym, lam_min = _gram_extremes(blocks)
        if scale > 0.0:
            if asym > _SYM_RTOL * scale:
                raise DomainError("damp_gram is not symmetric to 1e-14 relative")
            if lam_min < -_PSD_RTOL * scale:
                raise DomainError(
                    f"damp_gram not positive semidefinite: min eigenvalue {lam_min:g}")
        diag = np.zeros(eta.size)
        for idx, gram in blocks:
            diag[idx] = np.diagonal(gram, axis1=1, axis2=2)

        labels = tuple(self.labels)
        if labels and len(labels) != eta.size:
            raise DimensionMismatchError("labels", eta.size, len(labels))
        self.__dict__.update(eta=eta, blocks=blocks, labels=labels, mu=_readonly(mu),
                             bstar_norms=_readonly(np.sqrt(np.maximum(diag, 0.0))))

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
    def from_eta(cls, eta, damp_gram=None, labels=(), mu=None) -> "ModalSystem":
        """The system of eigenvalues ``eta`` and a dense damping Gram (zero if
        omitted): its groups come from its nonzero entries (``mode_groups``)
        and each group's block is gathered from it."""
        n = np.size(eta)
        if damp_gram is None:
            return cls(eta, [(np.arange(n)[:, None], np.zeros((n, 1, 1)))], labels, mu)
        D = np.asarray(damp_gram, dtype=float)
        if D.shape != (n, n):
            raise DimensionMismatchError("damp_gram rows", n, D.shape[0] if D.ndim else 0)
        blocks = [(idx, D[idx[:, :, None], idx[:, None, :]])
                  for idx in groups_by_size(mode_groups(D))]
        return cls(eta, blocks, labels, mu)


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


@dataclass(frozen=True, eq=False)
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


def _pair_weights(eta: np.ndarray, beta: float):
    """The pair-norm weights ``eta^(-2 beta)`` of ``a`` and ``eta^(-2 beta - 1)``
    of ``b``.  A non-finite ``beta``, or one where either weight overflows to
    inf or underflows to 0 on some entry of ``eta``, raises DomainError."""
    check_finite("beta", beta)
    with np.errstate(over="ignore"):
        wa = eta ** (-2.0 * beta)
        wb = eta ** (-2.0 * beta - 1.0)
    if not all(np.all((w > 0.0) & (w < np.inf)) for w in (wa, wb)):
        raise DomainError(f"beta = {beta!r} is out of range: a pair-norm weight "
                          f"eta^(-2 beta) or eta^(-2 beta - 1) is inf or 0 on this system")
    return wa, wb


def pair_norm_sq(sys: ModalSystem, a, b, beta: float):
    """Squared pair norm on the ``-beta`` scale; broadcasts over columns.

    ``a`` and ``b`` may be (n,) vectors or (n, m) column batches.  A ``beta``
    whose weights ``_pair_weights`` refuses raises DomainError.
    """
    wa, wb = _pair_weights(sys.eta, beta)
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
