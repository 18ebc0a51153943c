"""Seeded random ensembles and extreme-point candidate machinery.

Sampling is driven by explicit streams: a :class:`SeededStream` is a
(master_seed, stream_index) pair that deterministically opens a PCG64
generator, so trial t of a run uses stream_index = base + t and results are
independent of scheduling.  Every sampler also accepts an already-open
``numpy.random.Generator`` so several draws inside one trial chain off a
single stream instead of each restarting it.

The candidate machinery enumerates the scaled sign-vector families that
carry the extreme points of the weighted vector k-norm ball, and evaluates
support functions of the matrix-ball candidates (scaled partial isometries)
both through explicitly constructed maximizers and through the dual-norm
closed form — the agreement of the two routes is what the test suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .matrixcore import _adjoint, as_matrix, svd
from .norms import Weight, _dual_norms, _prefix_table, weighted_vector_k_norm

__all__ = [
    "GENERATOR_ID",
    "ENUMERATION_BUDGET",
    "BudgetError",
    "SeededStream",
    "as_generator",
    "ginibre",
    "haar_unitary",
    "random_hermitian",
    "random_contraction",
    "commuting_hermitian_pair",
    "random_subunit_columns",
    "random_unit_vector",
    "random_weight",
    "sample_partial_isometry",
    "sample_unit_columns",
    "sign_vectors",
    "CandidateSet",
    "vector_ball_candidates",
    "support_function_gap",
    "matrix_ball_support_gap",
]

#: recorded in every report so a replay can verify it uses the same bit source
GENERATOR_ID = f"numpy-pcg64-seedseq/{np.__version__}"

#: hard cap on enumerated candidate vectors per family
ENUMERATION_BUDGET = 10**6

#: most complex entries in one stacked (T, n, n) operand of a trial chunk
CHUNK_ENTRIES = 4096


class BudgetError(ValueError):
    """Requested enumeration exceeds the combinatorial guard."""


@dataclass(frozen=True)
class SeededStream:
    """Replayable random stream identified by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for field_name in ("master_seed", "stream_index"):
            value = getattr(self, field_name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{field_name} must be an integer")
            object.__setattr__(self, field_name, int(value))
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))

    def offset(self, delta: int) -> "SeededStream":
        """The stream ``delta`` indices further along (trial substreams)."""
        return SeededStream(self.master_seed, self.stream_index + int(delta))


def as_generator(s) -> np.random.Generator:
    """Open a generator from a SeededStream, an int master seed, or pass one through."""
    if isinstance(s, np.random.Generator):
        return s
    if isinstance(s, SeededStream):
        return s.generator()
    if isinstance(s, (int, np.integer)) and not isinstance(s, bool):
        return SeededStream(int(s)).generator()
    raise TypeError(f"expected SeededStream, Generator, or int, got {type(s).__name__}")


# ---------------------------------------------------------------------------
# matrix/vector samplers
#
# The samplers the checkers stack are split in two: an RNG step that makes
# one trial's generator calls in a fixed order, and a transform that takes
# the stacked results of many trials, ``(..., n, n)`` arrays, to the sampled
# matrices.  The public sampler is the transform of a batch of one.
# ---------------------------------------------------------------------------


def _gaussian(n: int, g: np.random.Generator) -> np.ndarray:
    """RNG step of the Gaussian samplers: (2, n, n) real, then imaginary parts.

    One call draws the same normals, in the same order, as two (n, n) calls.
    """
    return g.standard_normal((2, n, n))


def _complex(w: np.ndarray) -> np.ndarray:
    return w[..., 0, :, :] + 1j * w[..., 1, :, :]


def _ginibre(w: np.ndarray) -> np.ndarray:
    return _complex(w) / np.sqrt(2.0)


def _haar(w: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(_complex(w))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * (d / np.abs(d))[..., None, :]


def _contraction_draw(n: int, g: np.random.Generator) -> tuple:
    return _gaussian(n, g), _gaussian(n, g), g.uniform(0.0, 1.0, size=n)


def _contraction(wu: np.ndarray, wv: np.ndarray, t: np.ndarray) -> np.ndarray:
    return (_haar(wu) * t[..., None, :]) @ _adjoint(_haar(wv))


def _subunit_draw(n: int, g: np.random.Generator) -> tuple:
    return _gaussian(n, g), g.uniform(0.0, 1.0, size=n)


def _subunit(w: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    z = _complex(w)
    return z / np.linalg.norm(z, axis=-2)[..., None, :] * lengths[..., None, :]


def _normalized(z: np.ndarray) -> np.ndarray:
    """z / np.linalg.norm(z) for a 1-D complex z: the same BLAS dots, less dispatch."""
    re, im = z.real, z.imag
    return z / np.sqrt(re.dot(re) + im.dot(im))


def _unit_columns(n: int, j: int, g: np.random.Generator) -> np.ndarray:
    positions = g.choice(n, size=j, replace=False)
    w = g.standard_normal((j, 2, n))  # column by column: real, then imaginary parts
    out = np.zeros((n, n), dtype=np.complex128)
    for p, z in zip(positions, w[:, 0] + 1j * w[:, 1]):
        out[:, p] = _normalized(z)
    return out


def ginibre(n: int, s) -> np.ndarray:
    """n x n matrix of iid standard complex Gaussians (unit entry variance)."""
    return _ginibre(_gaussian(n, as_generator(s)))


def haar_unitary(n: int, s) -> np.ndarray:
    """Haar-distributed n x n unitary.

    Complex Gaussian sample, QR orthonormalization, then the Q columns are
    rotated by the phases of R's diagonal so the distribution is exactly
    rotation invariant rather than QR-convention dependent.
    """
    return _haar(_gaussian(n, as_generator(s)))


def random_hermitian(n: int, s) -> np.ndarray:
    """Hermitian matrix (G + G*)/2 with G a scaled complex Gaussian sample."""
    z = _complex(_gaussian(n, as_generator(s)))
    return (z + z.conj().T) / 2.0


def random_contraction(n: int, s) -> np.ndarray:
    """U diag(t) V* with Haar U, V and t uniform on [0, 1]; sigma_1 <= 1."""
    return _contraction(*_contraction_draw(n, as_generator(s)))


def commuting_hermitian_pair(n: int, s) -> tuple[np.ndarray, np.ndarray]:
    """Two Hermitian matrices sharing one Haar eigenbasis (so AB = BA)."""
    g = as_generator(s)
    q = haar_unitary(n, g)
    eigs_a = g.standard_normal(n)
    eigs_b = g.standard_normal(n)
    a = (q * eigs_a) @ q.conj().T
    b = (q * eigs_b) @ q.conj().T
    # exact Hermitian symmetrization so downstream validators accept them
    return (a + a.conj().T) / 2.0, (b + b.conj().T) / 2.0


def random_unit_vector(n: int, s) -> np.ndarray:
    g = as_generator(s)
    return _normalized(g.standard_normal(n) + 1j * g.standard_normal(n))


def random_subunit_columns(n: int, s) -> np.ndarray:
    """Matrix whose columns are independent with Euclidean lengths uniform in [0, 1]."""
    return _subunit(*_subunit_draw(n, as_generator(s)))


def random_weight(n: int, k: int, s) -> Weight:
    """Random nonincreasing weight with w_k bounded away from zero.

    With small probability returns the all-ones weight (the plain k-norm
    reduction case); otherwise k entries uniform in [0.05, 1], sorted, with a
    zero tail appended half the time to exercise tail handling.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    g = as_generator(s)
    if g.uniform() < 0.15:
        entries = (1.0,) * k
    else:
        entries = tuple(np.sort(g.uniform(0.05, 1.0, size=k))[::-1])
    if k < n and g.uniform() < 0.5:
        entries = entries + (0.0,) * (n - k)
    return Weight(entries, k)


def sample_partial_isometry(n: int, j: int, s) -> np.ndarray:
    """Random rank-j partial isometry U_j V_j* (singular values: j ones)."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    g = as_generator(s)
    u = haar_unitary(n, g)
    v = haar_unitary(n, g)
    return u[:, :j] @ v[:, :j].conj().T


def sample_unit_columns(n: int, j: int, s) -> np.ndarray:
    """Matrix with j random unit columns at uniformly chosen positions, rest zero."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    return _unit_columns(n, j, as_generator(s))


# ---------------------------------------------------------------------------
# candidate families and support functions
# ---------------------------------------------------------------------------


def _count_sign_vectors(n: int, j: int) -> int:
    return math.comb(n, j) * 2**j


@lru_cache(maxsize=None)
def _sign_matrix(n: int, j: int) -> np.ndarray:
    count = _count_sign_vectors(n, j)
    out = np.zeros((count, n))
    row = 0
    for support in combinations(range(n), j):
        cols = list(support)
        for signs in product((1.0, -1.0), repeat=j):
            out[row, cols] = signs
            row += 1
    out.setflags(write=False)
    return out


def sign_vectors(n: int, j: int) -> np.ndarray:
    """All vectors in R^n with exactly j nonzero coordinates, each +-1.

    Returned as a (count, n) array with count = C(n, j) * 2^j.  Raises
    :class:`BudgetError` when the count exceeds ``ENUMERATION_BUDGET``.
    """
    n, j = int(n), int(j)
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    count = _count_sign_vectors(n, j)
    if count > ENUMERATION_BUDGET:
        raise BudgetError(
            f"enumerating {count} sign vectors exceeds the budget of {ENUMERATION_BUDGET}"
        )
    return _sign_matrix(n, j).copy()


@dataclass(frozen=True)
class CandidateSet:
    """Explicit candidate extreme points plus tags naming their scaled family."""

    elements: tuple
    scale_tags: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.elements)


def vector_ball_candidates(w: Weight, n: int) -> CandidateSet:
    """Candidate extreme points of the weighted vector k-norm unit ball.

    The union over j = 1..k-1 of the j-sparse sign vectors scaled by
    1/(w1+...+wj), together with the full-support sign vectors scaled by
    1/(w1+...+wk).  Every element is verified to have weighted k-norm 1
    within 1e-12 before returning.
    """
    n = int(n)
    if n < w.k:
        raise ValueError(f"need n >= k, got n={n}, k={w.k}")
    ws = w.prefix_sums()
    elements: list[np.ndarray] = []
    tags: list[str] = []
    groups = [(j, ws[j - 1]) for j in range(1, w.k)] + [(n, ws[w.k - 1])]
    for j, scale in groups:
        for row in sign_vectors(n, j):
            candidate = row / scale
            norm = weighted_vector_k_norm(candidate, w)
            if abs(norm - 1.0) > 1e-12:
                raise ArithmeticError(
                    f"candidate from family E{j} has norm {norm!r}, expected 1"
                )
            elements.append(candidate)
            tags.append(f"E{j}")
    return CandidateSet(tuple(elements), tuple(tags))


def support_function_gap(c, w: Weight) -> float:
    """|candidate-set support value minus the dual-norm closed form| at c.

    The support value max <c, x> over the scaled sign-vector candidates is
    evaluated by literal enumeration (cached per (n, j)); the closed form is
    :func:`kyfan.norms.dual_weighted_vector_k_norm`.  A linear functional
    attains its unit-ball maximum on extreme points, so the two quantities
    must agree whenever the candidate families carry all extreme points.
    """
    vec = np.asarray(c, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0 or not np.isfinite(vec).all():
        raise ValueError("c must be a finite nonempty real vector")
    n = vec.size
    if n < w.k:
        raise ValueError(f"need len(c) >= k, got {n} < {w.k}")
    return float(_support_gaps(vec[None], [w])[0])


def _check_enumeration_budget(n: int, k: int) -> None:
    """Raise :class:`BudgetError` for the first family E1..E(k-1), En of dimension n over budget."""
    for j in list(range(1, k)) + [n]:
        if _count_sign_vectors(n, j) > ENUMERATION_BUDGET:
            raise BudgetError(f"family E{j} in dimension {n} exceeds the enumeration budget")


def _support_gaps(c: np.ndarray, weights) -> np.ndarray:
    """:func:`support_function_gap` of each row of a (T, n) stack, row t under weights[t].

    Every row's families are checked against ``ENUMERATION_BUDGET`` before
    any sign matrix is built.  The sign-matrix products stay one
    matrix-vector product per row: a stacked product changes the last bits
    of the row maxima.
    """
    n = c.shape[-1]
    for w in weights:
        _check_enumeration_budget(n, w.k)
    ws = _prefix_table(weights, n)
    ks = np.array([w.k for w in weights])
    best = np.empty(len(c))
    for t, (vec, w) in enumerate(zip(c, weights)):
        top = float((_sign_matrix(n, n) @ vec).max()) / ws[t, w.k - 1]
        for j in range(1, w.k):
            top = max(top, float((_sign_matrix(n, j) @ vec).max()) / ws[t, j - 1])
        best[t] = top
    return np.abs(best - _dual_norms(c, ws, ks))


def matrix_ball_support_gap(c, w: Weight, samples: int, s) -> float:
    """Support-function discrepancy for the weighted Ky Fan norm ball at C.

    Candidates are rank-j partial isometries scaled by 1/(w1+...+wj) for
    j < k plus full-rank ones scaled by 1/(w1+...+wk).  The best aligned
    candidate in each family is built from C's own singular vectors and
    scored via Re tr(C* X); the closed-form reference is the dual weighted
    k-norm of the singular value vector.  Additionally ``samples`` random
    scaled partial isometries are drawn and must not beat the aligned
    maximum.  Returns the largest discrepancy observed (either route).
    """
    m = as_matrix(c, square=True, name="C")
    n = m.shape[0]
    if n < w.k:
        raise ValueError(f"need n >= k, got n={n}, k={w.k}")
    samples = int(samples)
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    return float(_matrix_gaps(m[None], [w], samples, [as_generator(s)])[0])


def _alignments(c, trial, u, v, source, ranks, scales) -> np.ndarray:
    """Re tr(C_t^* X_i) for each candidate i, with C_t = c[trial[i]].

    X_i = (U[:, :j] @ V[:, :j]^*) / scales[i] for U = u[source[i]], V =
    v[source[i]] and j = ranks[i].  The candidates are built one rank at a
    time and scored straight away, so at most one rank group of them is held
    at once; each ``Re tr`` is one ``np.vdot``.
    """
    out = np.empty(len(trial))
    for j in sorted(set(ranks.tolist())):  # not np.unique: it imports numpy.ma
        sel = np.flatnonzero(ranks == j)
        pick = source[sel]
        x = (u[pick, :, :j] @ _adjoint(v[pick, :, :j])) / scales[sel, None, None]
        out[sel] = [np.real(np.vdot(c[t], xi)) for t, xi in zip(trial[sel], x)]
    return out


def _matrix_gaps(c: np.ndarray, weights, samples: int, generators) -> np.ndarray:
    """:func:`matrix_ball_support_gap` of each matrix of a (T, n, n) stack.

    Matrix t is scored under weights[t] and draws its ``samples`` candidates
    from generators[t], each as ``g.integers(k)`` then two (2, n, n) blocks
    of normals.  The candidates of family p of a weight with k entries have
    rank p + 1 for p < k - 1, else rank n, and are scaled by the p-th prefix
    sum.  Samples are drawn and scored in blocks that keep the stack of
    their U factors, and that of their V factors, within ``CHUNK_ENTRIES``
    complex entries where one matrix per trial fits.
    """
    trials, n = c.shape[0], c.shape[-1]
    u, sig, v = svd(c)
    ws = _prefix_table(weights, n)
    ks = np.array([w.k for w in weights])

    def rank(family, k):
        return np.where(family + 1 < k, family + 1, n)

    trial = np.repeat(np.arange(trials), ks)
    family = np.concatenate([np.arange(k) for k in ks])
    values = _alignments(c, trial, u, v, trial, rank(family, ks[trial]), ws[trial, family])
    aligned = np.maximum.reduceat(values, np.cumsum(ks) - ks)
    gaps = np.abs(aligned - _dual_norms(sig, ws, ks))

    excess = np.zeros(trials)
    block = max(1, CHUNK_ENTRIES // (trials * n * n))
    for start in range(0, samples, block):
        count = min(block, samples - start)
        picks = np.empty((trials, count), dtype=np.intp)
        normals = np.empty((trials, count, 2, 2, n, n))
        for t, (g, k) in enumerate(zip(generators, ks)):
            for i in range(count):
                picks[t, i] = g.integers(int(k))
                normals[t, i] = g.standard_normal((2, 2, n, n))
        h = _haar(normals).reshape(trials * count, 2, n, n)
        trial = np.repeat(np.arange(trials), count)
        family = picks.ravel()
        values = _alignments(c, trial, h[:, 0], h[:, 1], np.arange(trials * count),
                             rank(family, ks[trial]), ws[trial, family]).reshape(trials, count)
        excess = np.maximum(excess, (values - aligned[:, None]).max(axis=-1))
    return np.maximum(gaps, excess)
