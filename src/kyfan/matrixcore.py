"""Dense complex matrix primitives.

Everything downstream (norms, ensembles, inequality checkers) goes through
this module for SVD, column profiles, Kronecker products, and partial
traces.  All functions are pure: they validate, compute, and return fresh
arrays; inputs are never mutated.

The SVD, column-profile and square-root functions also take a stack of
matrices, an array of shape ``(..., m, n)``, and act on each matrix of it.
On a stack they give the same bits as calling them matrix by matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "svd",
    "singular_values",
    "column_norms",
    "column_norms_unsorted",
    "hadamard",
    "kronecker",
    "partial_trace_first",
    "factor_sqrt",
]


def as_matrix(a, *, square: bool = False, name: str = "matrix",
              stacked: bool = False) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array, validating shape.

    With ``stacked`` a ``(..., m, n)`` stack of matrices is accepted too, and
    the shape rules apply to its last two axes.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 and not (stacked and m.ndim > 2):
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[-2] == 0 or m.shape[-1] == 0:
        raise ValueError(f"{name} must be nonempty, got shape {m.shape}")
    if square and m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(x, *, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D array (real stays real, complex allowed)."""
    v = np.asarray(x)
    if v.dtype.kind not in "fiuc":
        v = v.astype(np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition ``A = U @ diag(S) @ V.conj().T``.

    Parameters
    ----------
    a : array_like
        n x m complex matrix with finite entries, or a ``(..., n, m)`` stack
        of them; the outputs then carry the same leading axes.

    Returns
    -------
    u : (n, r) ndarray
        Orthonormal columns, r = min(n, m).
    s : (r,) ndarray
        Singular values, nonincreasing and nonnegative.
    v : (m, r) ndarray
        Orthonormal columns.  Note this is V itself, not its adjoint:
        the reconstruction is ``u @ np.diag(s) @ v.conj().T``.

    Raises
    ------
    ValueError
        Non-finite or non-2-D input.
    numpy.linalg.LinAlgError
        The underlying iteration failed to converge (never silenced).
    """
    m = as_matrix(a, name="svd operand", stacked=True)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, _adjoint(vh)


def singular_values(a) -> np.ndarray:
    """Singular values of ``a``, sorted nonincreasing."""
    return np.linalg.svd(as_matrix(a, name="operand", stacked=True), compute_uv=False)


def column_norms_unsorted(a) -> np.ndarray:
    """Euclidean column lengths in original column order."""
    return np.linalg.norm(as_matrix(a, name="operand", stacked=True), axis=-2)


def column_norms(a) -> np.ndarray:
    """Euclidean column lengths sorted nonincreasing (the column profile)."""
    return np.sort(column_norms_unsorted(a), axis=-1)[..., ::-1].copy()


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two equal-shape matrices."""
    ma = as_matrix(a, name="left factor")
    mb = as_matrix(b, name="right factor")
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return ma * mb


def kronecker(a, b) -> np.ndarray:
    """Kronecker product of square matrices.

    With ``a`` n x n and ``b`` m x m the result is nm x nm and the entry at
    (i*m + k, j*m + l) equals ``a[i, j] * b[k, l]`` (0-based).  This is the
    convention :func:`partial_trace_first` inverts on the first factor.
    """
    ma = as_matrix(a, square=True, name="left factor")
    mb = as_matrix(b, square=True, name="right factor")
    return np.kron(ma, mb)


def partial_trace_first(m, n: int) -> np.ndarray:
    """Trace out the first tensor factor of an n^2 x n^2 matrix.

    Returns the n x n matrix ``T[k, l] = sum_i M[i*n + k, i*n + l]``, so that
    ``partial_trace_first(kronecker(A, B), n) == trace(A) * B``.
    """
    big = as_matrix(m, square=True, name="partial trace operand")
    n = int(n)
    if n < 1:
        raise ValueError("factor dimension must be positive")
    if big.shape[0] != n * n:
        raise ValueError(
            f"operand is {big.shape[0]} x {big.shape[0]}, expected {n * n} x {n * n}"
        )
    return np.einsum("ikil->kl", big.reshape(n, n, n, n))


def factor_sqrt(a) -> tuple[np.ndarray, np.ndarray]:
    """Split ``A`` as ``X.conj().T @ Y`` with balanced factors.

    Uses the SVD: X = diag(sqrt(S)) U*, Y = diag(sqrt(S)) V*, so both factors
    carry half of each singular value and X* Y reconstructs A to roundoff.
    """
    m = as_matrix(a, square=True, name="factor operand", stacked=True)
    u, s, v = svd(m)
    root = np.sqrt(s)[..., :, None]
    return root * _adjoint(u), root * _adjoint(v)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)
