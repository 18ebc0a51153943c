"""Seeded random ensembles and extreme-point candidate machinery.

Sampling is driven by explicit streams: a :class:`SeededStream` is a
(master_seed, stream_index) pair that deterministically opens a PCG64
generator, so results are independent of scheduling.  A run section based
at stream index ``base`` maps its trials to streams by the stream contract
named in ``GENERATOR_ID``.  Under contract v7, as under v6, the checker
engine and the ``extremal`` targets draw block b of their trials from stream
``base + b``, its size set by ``BLOCK_ENTRIES``, a checker block only the
normals of the trials it scores (see :mod:`kyfan.suite` and
:mod:`kyfan.extremal`); the ``ptrace`` loops and the searches open one
stream per trial or restart, base + t, and a search restart draws its
proposals in blocks (see :mod:`kyfan.ptrace`).  Every sampler also accepts an
already-open ``numpy.random.Generator`` so several draws inside one trial
chain off a single stream instead of each restarting it.

Stream (m, i) is numpy's own ``Generator(PCG64(SeedSequence(m, spawn_key=(i,))))``;
importing this module does not import ``numpy.random``, opening the first
stream does.

The candidate machinery enumerates the scaled sign-vector families that
carry the extreme points of the weighted vector k-norm ball, and evaluates
support functions of the matrix-ball candidates (scaled partial isometries)
both through explicitly constructed maximizers and through the dual-norm
closed form — the agreement of the two routes is what the test suite pins.
The ``extremal`` engine, :mod:`kyfan.extremal`, scores its stacks of trials
through the stacked forms of the same routes (``_support_gaps``,
``_aligned_gaps``, ``_sampled_values``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .matrixcore import _adjoint, _hermitian_part, as_matrix, svd
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

#: recorded in every report so a replay can verify it uses the same bit source:
#: the generator family, the stream contract (v7: block-drawn checker trials
#: whose blocks draw the normals of the scored trials only, and exact-size
#: extremal draws scored through diag(U* C V), see kyfan.suite and
#: kyfan.extremal, as in v6; block-drawn search proposals, and the Hermitian
#: factors' spectra of the search and ptrace kernel taken from eigvalsh, see
#: kyfan.ptrace) and the numpy version
GENERATOR_ID = f"numpy-pcg64-seedseq-v7/{np.__version__}"

#: hard cap on enumerated candidate vectors per family
ENUMERATION_BUDGET = 10**6

#: most complex entries in one stacked (T, n, n) operand of a trial chunk
CHUNK_ENTRIES = 4096

#: a checker block holds max(1, BLOCK_ENTRIES // n**2) trials, an extremal
#: block max(1, BLOCK_ENTRIES // n_max**2).  The block size is part of the
#: stream contract, so this constant moves every checker and extremal stream;
#: it is not a memory knob like CHUNK_ENTRIES
BLOCK_ENTRIES = 4096


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
        """A fresh ``Generator(PCG64(SeedSequence(master_seed, spawn_key=(stream_index,))))``.

        ``numpy.random`` is imported here, so that importing kyfan does not import it.
        """
        from numpy.random import PCG64, Generator, SeedSequence

        return Generator(PCG64(SeedSequence(self.master_seed, spawn_key=(self.stream_index,))))

    def offset(self, delta: int) -> "SeededStream":
        """The stream ``delta`` indices further along (trial substreams).

        ``delta`` must be an integer (not a float or bool) and the new index
        nonnegative.
        """
        if not isinstance(delta, (int, np.integer)) or isinstance(delta, bool):
            raise ValueError("delta must be an integer")
        return SeededStream(self.master_seed, self.stream_index + int(delta))


def _as_stream(s) -> SeededStream:
    """``s``, or ``SeededStream(s)`` of an int master seed (not a bool, float or str)."""
    if isinstance(s, SeededStream):
        return s
    if isinstance(s, (int, np.integer)) and not isinstance(s, bool):
        return SeededStream(int(s))
    raise TypeError(f"expected a SeededStream or an int master seed, got {type(s).__name__}")


def as_generator(s) -> np.random.Generator:
    """Open a generator from a SeededStream, an int master seed, or pass one through."""
    if isinstance(s, np.random.Generator):
        return s
    return _as_stream(s).generator()


# ---------------------------------------------------------------------------
# matrix/vector samplers
#
# The samplers the checkers stack are split in two: an RNG step that makes
# one trial's generator calls in a fixed order, and a transform that takes
# the stacked results of many trials, ``(..., n, n)`` arrays, to the sampled
# matrices.  The public sampler is the transform of a batch of one.  The
# checker engine (kyfan.suite), the commuting search and the ptrace regression
# draw their inputs by their own rules and stack them through the same transforms.
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


def _commuting(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The exactly Hermitian pairs Q diag(d[:n]) Q*, Q diag(d[n:]) Q* of ``(..., n, n)``
    bases Q and ``(..., 2 n)`` spectra d, as a ``(..., 2, n, n)`` stack."""
    q = q[..., None, :, :]
    pair = (q * d.reshape(d.shape[:-1] + (2, 1, q.shape[-1]))) @ _adjoint(q)
    return _hermitian_part(pair, out=pair)


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
    """Hermitian matrix (G + G*)/2 with G = X + iY, X and Y iid standard
    normal, so each entry of G has variance 2, unlike :func:`ginibre`'s."""
    return _hermitian_part(_complex(_gaussian(n, as_generator(s))))


def random_contraction(n: int, s) -> np.ndarray:
    """U diag(t) V* with Haar U, V and t uniform on [0, 1]; sigma_1 <= 1."""
    return _contraction(*_contraction_draw(n, as_generator(s)))


def commuting_hermitian_pair(n: int, s) -> tuple[np.ndarray, np.ndarray]:
    """Two Hermitian matrices sharing one Haar eigenbasis (so AB = BA)."""
    g = as_generator(s)
    return tuple(_commuting(haar_unitary(n, g), g.standard_normal(2 * n)))


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


#: largest sign-vector table, in entries, that :func:`_sign_matrix` keeps for
#: the life of the process.  Every family of dimension n <= 8 fits (the
#: largest, E5 and E6 at n = 8, holds 14336 entries), and all the tables that
#: fit come to 5.6 MB at most.  A larger table is built per call and freed
#: after it: the families of one n = 13 gap hold 166 MB
SIGN_CACHE_ENTRIES = 2**14


def _signs(n: int, j: int) -> np.ndarray:
    """The read-only sign matrix of family Ej in dimension n, cached if it is small."""
    if _count_sign_vectors(n, j) * n <= SIGN_CACHE_ENTRIES:
        return _sign_matrix(n, j)
    return _sign_matrix.__wrapped__(n, j)


@lru_cache(maxsize=None)
def _sign_matrix(n: int, j: int) -> np.ndarray:
    """Call through :func:`_signs`, which caches only the small tables."""
    out = np.zeros((_count_sign_vectors(n, j), n))
    signs = np.array(list(product((1.0, -1.0), repeat=j)))
    for s, support in enumerate(combinations(range(n), j)):
        out[s * len(signs) : (s + 1) * len(signs), support] = signs
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
    return _signs(n, j).copy()


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
    return float(_support_gaps(vec[None], _prefix_table([w], n), np.array([w.k]))[0])


def _check_enumeration_budgets(ns: np.ndarray, ks: np.ndarray) -> None:
    """Raise :class:`BudgetError` at the first (n, k) pair with E1..E(k-1) or En over budget."""
    for n, k in dict.fromkeys(zip(ns.tolist(), ks.tolist())):  # first-seen order
        for j in list(range(1, k)) + [n]:
            if _count_sign_vectors(n, j) > ENUMERATION_BUDGET:
                raise BudgetError(f"family E{j} in dimension {n} exceeds the enumeration budget")


def _support_gaps(c: np.ndarray, ws: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """:func:`support_function_gap` of each row of a (T, n) stack.

    Row t is taken under the weight with prefix sums ``ws[t]`` (a
    :func:`~kyfan.norms._prefix_table` row) and active length ``ks[t]``.
    Every row's families are checked against ``ENUMERATION_BUDGET`` before
    any sign matrix is built.  Each family is scored over all the rows that
    use it by :func:`_sign_maxima`, with the bits of one matrix-vector
    product per row.
    """
    n = c.shape[-1]
    _check_enumeration_budgets(np.full(len(ks), n), ks)
    best = _sign_maxima(c, n) / ws[np.arange(len(c)), ks - 1]
    for j in range(1, int(ks.max(initial=1))):
        rows = np.flatnonzero(ks > j)
        best[rows] = np.maximum(best[rows], _sign_maxima(c[rows], j) / ws[rows, j - 1])
    return np.abs(best - _dual_norms(c, ws, ks))


def _sign_maxima(c: np.ndarray, j: int) -> np.ndarray:
    """max of ``S @ vec`` for each row vec of a (T, n) stack, S the sign
    matrix of family Ej in dimension n.

    One broadcast ``np.matmul(S, rows[:, :, None])`` per chunk of rows,
    which numpy runs as one matrix-vector product per row and so gives the
    bits of ``S @ vec`` (one ``S @ C.T`` does not); a chunk's product and S
    together hold at most ``ENUMERATION_BUDGET`` entries where S allows.
    """
    signs = _signs(c.shape[-1], j)
    chunk = max(1, (ENUMERATION_BUDGET - signs.size) // len(signs))
    out = np.empty(len(c))
    for start in range(0, len(c), chunk):
        rows = c[start:start + chunk, :, None]
        out[start:start + chunk] = np.matmul(signs, rows).max(axis=(1, 2))
    return out


def matrix_ball_support_gap(c, w: Weight, samples: int, s) -> float:
    """Support-function discrepancy for the weighted Ky Fan norm ball at C.

    Candidates are rank-j partial isometries scaled by 1/(w1+...+wj) for
    j < k plus full-rank ones scaled by 1/(w1+...+wk).  The best aligned
    candidate in each family is built from C's own singular vectors and
    scored via Re tr(C* X), read off diag(U* C V) without forming X; the
    closed-form reference is the dual weighted k-norm of the singular value
    vector.  Additionally ``samples`` random scaled partial isometries are
    drawn and must not beat the aligned maximum: each draws
    ``g.integers(k)``, its family, then the (2, 2, n, n) normals of its two
    Haar factors.  Returns the largest discrepancy observed (either route).
    """
    m = as_matrix(c, square=True, name="C")
    n = m.shape[0]
    if n < w.k:
        raise ValueError(f"need n >= k, got n={n}, k={w.k}")
    samples = int(samples)
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    ws, ks = _prefix_table([w], n), np.array([w.k])
    gaps, aligned = _aligned_gaps(m[None], ws, ks)
    g = as_generator(s)
    for _ in range(samples):
        picks = np.array([g.integers(w.k)])
        values = _sampled_values(m[None], ws, ks, picks, g.standard_normal((1, 2, 2, n, n)))
        gaps = np.maximum(gaps, values - aligned)
    return float(gaps[0])


def _diagonal_inner(c: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag(U_t^* C_t V_t) of each matrix of a (T, n, n) stack, as a (T, n) view.

    Two stacked matmuls, ``(U^* C) V``, then the diagonal.  Entry i is
    u_i^* C v_i, so for a partial isometry X = U_j V_j^* the cumulative sum
    of the real parts up to j is Re tr(C^* X): no candidate is formed.
    """
    return np.diagonal(_adjoint(u) @ c @ v, axis1=-2, axis2=-1)


def _ranks(families: np.ndarray, ks: np.ndarray, n: int) -> np.ndarray:
    """Rank of the candidates of each family: p + 1 for p < k - 1, else n."""
    return np.where(families + 1 < ks, families + 1, n)


def _aligned_gaps(c: np.ndarray, ws: np.ndarray, ks: np.ndarray) -> tuple:
    """The aligned gap of each matrix of a (T, n, n) stack, and its best aligned value.

    Matrix t is taken under the weight with prefix sums ``ws[t]`` and active
    length ``ks[t]``.  Its family p < k is scored at the candidate built from
    its own singular vectors, of rank j = :func:`_ranks` and scaled by
    ws[t, p]: the value is the j-th cumulative sum of Re diag(U^* C V)
    divided by ws[t, p].
    """
    n = c.shape[-1]
    u, sig, v = svd(c)
    sums = np.cumsum(_diagonal_inner(c, u, v).real, axis=-1)
    families = np.arange(n)
    ranks = _ranks(families, ks[:, None], n)
    values = np.take_along_axis(sums, ranks - 1, axis=-1) / ws
    aligned = np.where(families < ks[:, None], values, -np.inf).max(axis=-1)
    return np.abs(aligned - _dual_norms(sig, ws, ks)), aligned


def _sampled_values(c, ws, ks, picks, normals) -> np.ndarray:
    """Re tr(C_t^* X_t) of one sampled candidate per matrix of a (T, n, n) stack.

    X_t is a partial isometry U_j V_j^* of family picks[t], with U and V the
    Haar unitaries of normals[t, 0] and normals[t, 1], scaled as the aligned
    candidate of that family; one QR call covers the stack.
    """
    h = _haar(normals)
    sums = np.cumsum(_diagonal_inner(c, h[:, 0], h[:, 1]).real, axis=-1)
    trial = np.arange(len(c))
    return sums[trial, _ranks(picks, ks, c.shape[-1]) - 1] / ws[trial, picks]
