"""Masked entrywise bilinear forms and the column-block factorization maps.

An :class:`EntrywiseForm` multiplies matrices entrywise under a fixed
symmetric coefficient mask: ``(A . B)_{ij} = mask_{ij} a_{ij} b_{ij}``.  The
all-ones mask is the Hadamard product; the mask with -1 on the diagonal and
+1 elsewhere is the diagonal-negated ("fan") product.  Mask symmetry is what
makes the right-adjoint closed form ``B^T . C`` satisfy the trace identity
tr((A.B) C) = tr((B^T.C) A) exactly.

:func:`apply_form`, :func:`right_adjoint_apply` and :func:`fan_product` also
take ``(..., n, n)`` stacks of matrices and apply the form to each of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixcore import as_matrix, as_vector

__all__ = [
    "EntrywiseForm",
    "hadamard_form",
    "fan_form",
    "apply_form",
    "right_adjoint_apply",
    "fan_product",
    "theta",
    "phi",
    "psi",
    "column_scale_factorization",
]


@dataclass(frozen=True, eq=False)
class EntrywiseForm:
    """Symmetric coefficient mask defining (A . B)_{ij} = mask_{ij} a_{ij} b_{ij}."""

    mask: np.ndarray
    name: str = "masked"

    def __post_init__(self):
        if np.iscomplexobj(self.mask):
            raise ValueError("mask must be real")
        m = np.asarray(self.mask, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("mask must be a nonempty square matrix")
        if not np.isfinite(m).all():
            raise ValueError("mask must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("mask must be symmetric (the adjoint closed form needs it)")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @property
    def n(self) -> int:
        return self.mask.shape[0]


def hadamard_form(n: int) -> EntrywiseForm:
    """All-ones mask: the plain entrywise product."""
    return EntrywiseForm(np.ones((n, n)), name="hadamard")


def fan_form(n: int) -> EntrywiseForm:
    """Mask with -1 on the diagonal, +1 off it: the diagonal-negated product."""
    mask = np.ones((n, n))
    np.fill_diagonal(mask, -1.0)
    return EntrywiseForm(mask, name="fan")


def apply_form(f: EntrywiseForm, a, b) -> np.ndarray:
    ma = as_matrix(a, square=True, name="A", stacked=True)
    mb = as_matrix(b, square=True, name="B", stacked=True)
    if ma.shape != mb.shape or ma.shape[-2:] != f.mask.shape:
        raise ValueError(
            f"shape mismatch: mask {f.mask.shape}, A {ma.shape}, B {mb.shape}"
        )
    return f.mask * ma * mb


def right_adjoint_apply(f: EntrywiseForm, b, c) -> np.ndarray:
    """The form applied to (B^T, C); satisfies tr((A.B) C) = tr((B._R C) A).

    Valid because the mask is symmetric:
    tr((A.B) C) = sum_{ij} mask_{ij} a_{ij} b_{ij} c_{ji}
                = sum_{ij} (mask_{ji} b_{ij} c_{ji}) a_{ij} = tr((B^T . C) A).
    """
    mb = as_matrix(b, square=True, name="B", stacked=True)
    return apply_form(f, mb.swapaxes(-1, -2), c)


def fan_product(a, b) -> np.ndarray:
    """Entrywise product with the diagonal negated (mask-free fast path)."""
    ma = as_matrix(a, square=True, name="A", stacked=True)
    mb = as_matrix(b, square=True, name="B", stacked=True)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    p = ma * mb
    diag = np.arange(p.shape[-1])
    p[..., diag, diag] = -p[..., diag, diag]
    return p


def theta(x) -> np.ndarray:
    """Diagonal matrix of x with the first entry negated."""
    v = as_vector(x, name="x").astype(np.complex128)
    d = v.copy()
    d[0] = -d[0]
    return np.diag(d)


def phi(a) -> np.ndarray:
    """Row of diagonal blocks (n x n^2): block j holds column j of A on its
    diagonal with coordinate j negated.

    The per-block negation index makes ``phi(A) @ psi(B)`` reproduce the
    diagonal-negated entrywise product exactly — entry (i, j) of the product
    is the single scalar (+-1) A[i, j] B[i, j], so the factorization residual
    is zero in floating point, and contractivity still holds because
    phi(A) phi(A)* = diag(row norms of A squared) no matter which coordinate
    each block negates.
    """
    m = as_matrix(a, square=True, name="A")
    n = m.shape[0]
    out = np.zeros((n, n * n), dtype=np.complex128)
    rows = np.arange(n)
    for j in range(n):
        out[rows, j * n + rows] = m[:, j]
        out[j, j * n + j] = -m[j, j]
    return out


def psi(b) -> np.ndarray:
    """Column-diagonal stacking (n^2 x n): block j of column j holds b_j."""
    m = as_matrix(b, square=True, name="B")
    n = m.shape[0]
    out = np.zeros((n * n, n), dtype=np.complex128)
    for j in range(n):
        out[j * n : (j + 1) * n, j] = m[:, j]
    return out


def column_scale_factorization(x, y, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Scale columns of X, Y by conj(u), conj(v) so that
    Xs* Ys = (X* Y) o (u v*) entrywise.

    Entry (i, j) of Xs* Ys picks up u_i conj(v_j) = (u v*)_{ij}, which is the
    whole identity.  Requires unit u, v (their norms are exactly the scaling
    budget that keeps the factors' Hilbert-Schmidt norms at most those of X, Y).
    """
    mx = as_matrix(x, square=True, name="X")
    my = as_matrix(y, square=True, name="Y")
    if mx.shape != my.shape:
        raise ValueError(f"shape mismatch {mx.shape} vs {my.shape}")
    n = mx.shape[0]
    uu = as_vector(u, name="u").astype(np.complex128)
    vv = as_vector(v, name="v").astype(np.complex128)
    if uu.size != n or vv.size != n:
        raise ValueError("u and v must have length n")
    for nm, vec in (("u", uu), ("v", vv)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise ValueError(f"{nm} must be a unit vector")
    xs = mx * np.conj(uu)[None, :]
    ys = my * np.conj(vv)[None, :]
    return xs, ys
