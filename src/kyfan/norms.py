"""Weighted k-norms on vectors, singular spectra, and column profiles.

A weight is a nonincreasing tuple w1 >= ... >= wk > 0 (zero tail entries
beyond position k are allowed).  The three norm families are

* ``weighted_vector_k_norm``:   sum_{i<=k} w_i |x|_i  (sorted absolute values),
* ``weighted_kyfan_norm``:      sum_{i<=k} w_i sigma_i(A),
* ``weighted_column_norm``:     sum_{i<=k} w_i c_i(A)  (sorted column lengths),

and ``dual_weighted_vector_k_norm`` evaluates the dual of the first family in
closed form.  The closed form is cross-validated against explicit candidate
enumeration in :mod:`kyfan.ensembles`, not assumed.

Tolerance rule
--------------
Every verdict kyfan reports is decided here.  An inequality lhs <= rhs is
violated when its margin exceeds the tolerance,

    lhs - rhs > tol * max(1, rhs),

an absolute slack up to rhs = 1 and a relative one above it
(``INEQUALITY_TOL`` = 1e-8 by default); :func:`inequality_holds` is the exact
negation.  A residual, such as the gap between two routes that must agree,
vanishes when residual <= tol * (1 + scale) (``RESIDUAL_TOL`` = 1e-10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixcore import as_matrix, as_vector, column_norms, singular_values

__all__ = [
    "INEQUALITY_TOL",
    "RESIDUAL_TOL",
    "Weight",
    "inequality_holds",
    "residual_vanishes",
    "weighted_vector_k_norm",
    "dual_weighted_vector_k_norm",
    "weighted_kyfan_norm",
    "weighted_column_norm",
    "kyfan_norm",
    "trace_norm",
]

INEQUALITY_TOL = 1e-8
RESIDUAL_TOL = 1e-10


def _violated(margin, rhs, tol: float = INEQUALITY_TOL):
    """margin > tol * max(1, rhs), elementwise: the tolerance rule above."""
    return margin > tol * np.maximum(1.0, rhs)


def inequality_holds(lhs, rhs, tol: float = INEQUALITY_TOL):
    """Whether lhs <= rhs holds within ``tol``, elementwise: the exact negation
    of lhs - rhs > tol * max(1, rhs)."""
    return ~_violated(lhs - rhs, rhs, tol)


def residual_vanishes(residual, scale=0.0, tol: float = RESIDUAL_TOL):
    """residual <= tol * (1 + scale), elementwise."""
    return residual <= tol * (1.0 + scale)


@dataclass(frozen=True)
class Weight:
    """Nonincreasing nonnegative weights with an active prefix of length k.

    ``entries`` may be longer than ``k`` (e.g. a zero tail); only the first k
    entries enter any norm, and the k-th entry must be strictly positive so
    the induced norms are nondegenerate.
    """

    entries: tuple[float, ...]
    k: int

    def __post_init__(self):
        entries = tuple(float(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        k = self.k
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise ValueError("k must be an integer")
        object.__setattr__(self, "k", int(k))
        if len(entries) == 0:
            raise ValueError("weight needs at least one entry")
        _check_weight_rows(np.array([entries]), np.array([self.k]), np.array([len(entries)]))

    @classmethod
    def ones(cls, k: int, n: int | None = None) -> "Weight":
        """Unit weights: the plain (unweighted) k-norm family."""
        return cls((1.0,) * (n if n is not None else k), k)

    def prefix_sums(self) -> np.ndarray:
        """Cumulative sums w1, w1+w2, ..., w1+...+wk."""
        return np.cumsum(self.entries[: self.k])


def _abs_sorted_desc(x, w: Weight, *, name: str) -> np.ndarray:
    v = np.abs(as_vector(x, name=name))
    if v.size < w.k:
        raise ValueError(f"{name} has length {v.size} < k={w.k}")
    return np.sort(v)[::-1]


def weighted_vector_k_norm(x, w: Weight) -> float:
    """sum_{i<=k} w_i |x|_i with |x|_1 >= |x|_2 >= ... the sorted moduli."""
    v = _abs_sorted_desc(x, w, name="x")
    return float(np.dot(v[: w.k], w.entries[: w.k]))


def dual_weighted_vector_k_norm(x, w: Weight) -> float:
    """Dual of the weighted vector k-norm.

    Equals the maximum of ||x||_(j) / (w1+...+wj) over j = 1..k-1 together
    with ||x||_(n) / (w1+...+wk), where ||x||_(j) is the sum of the j largest
    moduli.  For k = 1 only the last term applies.
    """
    v = as_vector(x, name="x")
    if v.size < w.k:
        raise ValueError(f"x has length {v.size} < k={w.k}")
    return float(_dual_norms(v[None], _prefix_table([w], v.size), np.array([w.k]))[0])


def _prefix_table(weights, n: int) -> np.ndarray:
    """(T, n) array whose row t starts with weights[t].prefix_sums().

    The entries past k are zero, so the rest of row t repeats w1+...+wk.  The
    row sums run in the same order as :meth:`Weight.prefix_sums`.
    """
    table = np.zeros((len(weights), n))
    for row, w in zip(table, weights):
        row[: w.k] = w.entries[: w.k]
    return np.cumsum(table, axis=-1)


def _check_weight_rows(entries: np.ndarray, ks: np.ndarray, lengths: np.ndarray) -> None:
    """:class:`Weight`'s checks on every row of a (T, m) stack of weights.

    Row t holds a weight of ``lengths[t]`` entries, zero-padded to m, with
    active length ``ks[t]``.  The checks run in the constructor's order and
    raise its messages, the k range naming the first row out of range.
    """
    if not np.isfinite(entries).all():
        raise ValueError("weight entries must be finite")
    if (entries < 0).any():
        raise ValueError("weight entries must be nonnegative")
    if (entries[:, :-1] < entries[:, 1:]).any():
        raise ValueError("weight entries must be nonincreasing")
    out_of_range = (ks < 1) | (ks > lengths)
    if out_of_range.any():
        t = int(np.argmax(out_of_range))
        raise ValueError(f"k={int(ks[t])} out of range for {int(lengths[t])} entries")
    if (entries[np.arange(len(ks)), ks - 1] <= 0).any():
        raise ValueError("the k-th weight entry must be strictly positive")


def _dual_norms(x, ws: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """The dual weighted k-norm of each row of a (T, n) stack.

    Row t is taken under the weight with prefix sums ``ws[t]`` (a
    :func:`_prefix_table` row) and active length ``ks[t]``.  The moduli are
    sorted and summed, and each quotient formed, as in the one-vector form,
    so every row gets the same bits.
    """
    cums = np.cumsum(np.sort(np.abs(x), axis=-1)[..., ::-1], axis=-1)
    best = cums[:, -1] / ws[np.arange(len(ks)), ks - 1]
    partial = np.where(np.arange(cums.shape[-1]) < ks[:, None] - 1, cums / ws, -np.inf)
    return np.maximum(best, partial.max(axis=-1))


def weighted_kyfan_norm(a, w: Weight) -> float:
    """sum_{i<=k} w_i sigma_i(A) for square A with n >= k."""
    m = as_matrix(a, square=True, name="A")
    if m.shape[0] < w.k:
        raise ValueError(f"matrix of size {m.shape[0]} < k={w.k}")
    s = singular_values(m)
    return float(np.dot(s[: w.k], w.entries[: w.k]))


def weighted_column_norm(a, w: Weight) -> float:
    """sum_{i<=k} w_i c_i(A) over the sorted Euclidean column lengths."""
    m = as_matrix(a, square=True, name="A")
    if m.shape[0] < w.k:
        raise ValueError(f"matrix of size {m.shape[0]} < k={w.k}")
    c = column_norms(m)
    return float(np.dot(c[: w.k], w.entries[: w.k]))


def kyfan_norm(a, k: int) -> float:
    """Sum of the k largest singular values (unweighted Ky Fan k-norm)."""
    s = singular_values(a)
    k = int(k)
    if not 1 <= k <= s.size:
        raise ValueError(f"k={k} out of range 1..{s.size}")
    return float(s[:k].sum())


def trace_norm(a) -> float:
    """Sum of all singular values."""
    return float(singular_values(a).sum())
