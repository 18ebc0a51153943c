"""Partial-trace operators, commuting regressions, and counterexample search.

For Hermitian A, B the operator under study is

    T(A, B) = Tr_1[ (A ox I + I ox A)(B ox I - I ox B) ]
            = tr(AB) I - tr(A) B + tr(B) A - n AB,

where Tr_1 sums the first Kronecker factor.  The closed form on the right is
what search loops evaluate (n x n work); :func:`lhs_operator` additionally
runs the brute-force Kronecker route and raises if the two disagree, so the
closed form is never trusted silently.

The two open questions ask whether the k-norm of T is bounded by

    question 1:  2 sigma_1(A) ||tr(B) I - n B||_(k)
    question 2:  2 sum_{i<=k} sigma_i(A) sigma_i(tr(B) I - n B)

A pair is a counterexample candidate when its worst margin (lhs - rhs)
breaks the tolerance rule of :mod:`kyfan.norms` at that k, as a checker's
entry does; the searches only ever report "no counterexample found within
budget", never nonexistence.

The margin primitives take one pair of n x n matrices or ``(..., n, n)``
stacks of pairs, and on a stack give the same bits as pair by pair.  They,
the commuting regression and the search score through one kernel,
:func:`_pair_sides`: validate, take the Hermitian parts, closed form, one SVD
call on the operators T, one ``eigvalsh`` call on the Hermitian factors,
sides.  Since search contract v7 the singular values of A and of
tr(B) I - n B are the moduli of their eigenvalues sorted nonincreasing, as
they are for any Hermitian matrix.  ``eigvalsh`` reads one triangle only, so
the kernel scores the Hermitian part (P + P*) / 2 of each validated pair:
the pair itself, up to the sign of a zero, when it is exactly Hermitian, as
the search's, the regression's and stored witnesses' pairs are, and within
the relative tolerance ``HERMITIAN_TOL`` of :func:`require_hermitian` of it
otherwise.  Each pair's largest margin over k, the first k attaining it and
the rhs there come from one function over the kernel, :func:`_worst_margins`:
the search's start points and rounds, its witness decision, the regression
and :func:`worst_question_margin` all call it.

Lab sections
------------
``kyfan ptrace`` runs two loops of this module besides the search.  The
identity cross-check, :func:`_identity_residuals`, holds the closed form to
the Kronecker route and Tr_1(A ox B) to tr(A) B; the commuting regression,
:func:`_commuting_regression`, scores commuting pairs, which satisfy both
questions.  Both keep one stream per trial: trial t draws from
``stream.offset(t).generator()``, whatever the trial count, and the
regression scores its pairs in stacks.  They return numbers; ``kyfan.cli``
shapes them into report sections.

Search engine
-------------
A greedy step proposes one coordinate and one Gaussian move, of step
``STEP_INIT`` at first, halved after ``STALL_LIMIT`` consecutive rejections.
Since stream contract v4 restart r draws from its own generator
``stream.offset(r).generator()``: the shared eigenbasis first (commuting
strategy only: one stacked QR for a group, its pairs built by
``ensembles._commuting`` as the regression's are), then its start point
``g.standard_normal(dim)``, then its proposals in blocks of
``PROPOSAL_BLOCK`` = 256, each block two calls,
``g.integers(dim, size=PROPOSAL_BLOCK)`` then
``g.standard_normal(PROPOSAL_BLOCK)``.  Proposal i is entry i mod 256 of
block i // 256.  A restart draws a block only when it needs the block's
first proposal, and always draws all of it, so proposal i depends only on
the seed, r, dim and i, never on the budget or the restart count.

Which proposals are drawn does not depend on which earlier ones were
accepted; only the base point and the step size do.  A restart therefore
builds its next ``SEARCH_BATCH`` candidates at once from slices of its
drawn block, each from the current point with the step it would have if
every earlier candidate of the batch were rejected, and replays the
sequential accept/stall/halve rule over their scores.  The step is halved
one candidate at a time, so it keeps the bits of the sequential rule once
it is subnormal too.  The first acceptance ends the batch; the candidates
after it are discarded and their proposals reused, from the new point, in
the next batch.  Only consumed candidates count as evaluations, so the
trajectory, the best margin and the witness are those of a loop that
scores one proposal at a time.

The restarts are independent, each drawing from its own generator, so
they run in lockstep: a round scores the start points of a group of
restarts as one stack, then each round takes the next proposals of every
live restart, builds all their candidates in one call (under the commuting
strategy each candidate in its own restart's basis), scores them as one
stack and replays the rule on each restart's slice.  The restarts' drawn
proposals sit in one array, a row per restart, so a round gathers every
candidate's coordinate and normal with one index; the replay walks the
sorted indices of the candidates that beat their restart's point.  A
restart leaves the rounds once its quota is used, and the best result is
taken in restart order, so ties go to the earlier restart.  A group holds
at most max(1, ``CHUNK_ENTRIES`` // (``SEARCH_BATCH`` n^2)) consecutive
restarts, which keeps every operand of a round within ``CHUNK_ENTRIES``
entries.  Each generator makes the same calls as for a restart run alone,
so a restart's bits do not depend on which group it shares.  That lets
the search run in three steps: :class:`_SearchPlan` validates the inputs
and sets the quotas, :func:`_search_span` scores one contiguous span of
restarts in its lockstep groups and gives the span's first strict best,
and :func:`_search_result` takes the first strict best over the spans in
order and re-checks it as a witness.  :func:`search_counterexample` runs
all the restarts as one span, in one process; ``kyfan.cli`` deals a span
to each usable process, with the same bits.
Measured on numpy 2.4.6 with OpenBLAS 0.3.31, this rests on stacked
``svd``, ``eigvalsh``, ``matmul`` and ``trace(axis1=-2, axis2=-1)`` giving
the same bits as per-matrix calls, as elementwise arithmetic, ``sort`` and
``cumsum`` over the last axis do.

A candidate moves one coordinate, and the coordinates below ``dim // 2``
parameterise A and the others B, for both strategies.  So a candidate moves
A or B, never both, and the factor it leaves is built from the same numbers
by the same calls as the current point's: it is bit-identical, and so are
its singular values.  The search therefore carries sigma(A) and
sigma(tr(B) I - n B) of each restart's current point, takes a candidate's
over when it is accepted, and scores a stack of K candidates with one SVD
call on the K operators T and one ``eigvalsh`` call on the K factors that
moved, instead of on all 2 K.  What is fixed for a whole search is set up
once: the k set is validated when the search starts, and the unpacking's
gather maps and the identity are cached per n.  Each candidate stack is
still validated as Hermitian and finite before it is scored.  Between the
validation and the two LAPACK calls, the kernel works in one buffer: the
Hermitian parts, one ``matmul`` for the products AB, one ``trace`` call
for tr(A) and tr(B) and one for tr(AB), and T and tr(B) I - n B built in
place, each elementwise step one call for both where they share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensembles import CHUNK_ENTRIES, _as_stream, _commuting, _gaussian, _haar, random_hermitian
from .matrixcore import (
    _adjoint,
    _hermitian_part,
    as_matrix,
    kronecker,
    partial_trace_first,
    singular_values,
)
from .norms import INEQUALITY_TOL, _violated, residual_vanishes

__all__ = [
    "QuestionInstance",
    "SearchResult",
    "require_hermitian",
    "trace_deviation",
    "lhs_operator",
    "lhs_operator_brute",
    "question_margin",
    "question_margins_all_k",
    "worst_question_margin",
    "pack_hermitian_pair",
    "unpack_hermitian_pair",
    "search_counterexample",
]

#: candidates each restart of a search builds and scores per round.  ``kyfan
#: search --question 2 --n 3 --budget 3000``, its 8 restarts in lockstep,
#: scores 4057 candidates in 137 rounds at 4, 4425 in 120 at 5, 4803 in 109 at
#: 6 and 5651 in 98 at 8.  Run in process, interleaved 24 times on a shared
#: 2-core x86_64 VM, it made 35.7k, 35.2k, 35.4k and 34.3k evaluations/s at
#: 4, 5, 6 and 8 (medians; 36.0k, 36.7k, 35.6k and 33.6k at seed 161803):
#: 4 to 6 are equal within noise and 8 is slower.  These figures were
#: measured with all 8 restarts in one process, before ``kyfan search`` cut
#: them into a span a process; they were not re-measured with 4 restarts a
#: lockstep.  Report bytes do not depend on it.
SEARCH_BATCH = 5

#: proposals a search restart draws per pair of generator calls, part of the
#: stream contract (see the module docstring); at least ``SEARCH_BATCH``
PROPOSAL_BLOCK = 256

#: the Gaussian step a search restart starts from
STEP_INIT = 0.5

#: consecutive rejections after which a search restart halves its step
STALL_LIMIT = 50

#: the relative deviation from Hermitian that :func:`require_hermitian` accepts
HERMITIAN_TOL = 1e-12


def require_hermitian(a, *, name: str = "matrix") -> np.ndarray:
    """Validate a Hermitian matrix, or each matrix of a ``(..., n, n)`` stack."""
    m = as_matrix(a, square=True, name=name, stacked=True)
    difference = m - _adjoint(m)
    if not difference.any():  # exactly Hermitian, whatever the scale
        return m
    deviation = np.linalg.norm(difference, axis=(-2, -1))
    bad = np.ravel(~residual_vanishes(deviation, np.linalg.norm(m, axis=(-2, -1)), HERMITIAN_TOL))
    if bad.any():
        first = int(np.argmax(bad))
        where = "" if m.ndim == 2 else f" (matrix {first} of the stack)"
        raise ValueError(
            f"{name} is not Hermitian{where} (deviation {np.ravel(deviation)[first]:.3e})"
        )
    return m


def _hermitian_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """A and B validated as Hermitian matrices or stacks of one shape."""
    a, b = require_hermitian(a, name="A"), require_hermitian(b, name="B")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


@dataclass(frozen=True, eq=False)
class QuestionInstance:
    """A Hermitian pair together with the question number and the k under test."""

    A: np.ndarray
    B: np.ndarray
    n: int
    question: int
    k: int

    def __post_init__(self):
        a, b = _hermitian_pair(as_matrix(self.A, name="A"), as_matrix(self.B, name="B"))
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "question", int(self.question))
        object.__setattr__(self, "k", int(self.k))
        if self.n != a.shape[0]:
            raise ValueError(f"n={self.n} does not match matrices of size {a.shape[0]}")
        if self.question not in (1, 2):
            raise ValueError("question must be 1 or 2")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k={self.k} out of range 1..{self.n}")


@dataclass(frozen=True, eq=False)
class SearchResult:
    best_margin: float
    witness: QuestionInstance | None
    evaluations: int
    strategy: str
    master_seed: int
    question: int
    n: int
    restarts: int


def trace_deviation(b) -> np.ndarray:
    """tr(B) I - n B, the first-factor partial trace of B ox I - I ox B."""
    m = as_matrix(b, square=True, name="B", stacked=True)
    n = m.shape[-1]
    tr = np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    return tr * np.eye(n, dtype=np.complex128) - n * m


def _closed_form(work: np.ndarray) -> np.ndarray:
    """T(A, B) and tr(B) I - n B of validated pairs, in place in a ``(5, ..., n,
    n)`` buffer whose slots 2 and 3 hold the As and Bs: the products AB go to
    slot 4, T to slot 0 and tr(B) I - n B to slot 1, so that on a ``(5, K, n,
    n)`` buffer slots 1 and 2 are one ``(2 K, n, n)`` stack.  Each entry has
    the bits of ``tr(AB) I - tr(A) B + tr(B) A - n AB`` and ``tr(B) I - n B``
    (as :func:`trace_deviation` gives it) evaluated left to right on one
    pair; each ufunc call does one step of both where they share it."""
    n = work.shape[-1]
    traces = np.empty((3,) + work.shape[1:-2] + (1, 1), dtype=np.complex128)
    np.trace(work[2:4], axis1=-2, axis2=-1, out=traces[:2, ..., 0, 0])
    products = traces[:2] * work[3:1:-1]  # tr(A) B, tr(B) A
    np.matmul(work[2], work[3], out=work[4])
    # a complex ufunc between the matmul and the trace: with OpenBLAS 0.3.31
    # the trace of 40 3 x 3 products took 33 us straight after the matmul, 7 us
    # after a complex multiply
    scaled = n * work[4:2:-1]  # n AB, n B
    np.trace(work[4], axis1=-2, axis2=-1, out=traces[2, ..., 0, 0])
    sides = work[:2]
    np.multiply(traces[:0:-1], _constants(n)[-1], out=sides)  # tr(AB) I, tr(B) I
    sides[0] -= products[0]
    sides[0] += products[1]
    sides -= scaled
    return work


def lhs_operator_brute(a, b) -> np.ndarray:
    """The Kronecker route: build the n^2 x n^2 product and trace out factor one."""
    a, b = _hermitian_pair(a, b)
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    left = kronecker(a, eye) + kronecker(eye, a)
    right = kronecker(b, eye) - kronecker(eye, b)
    return partial_trace_first(left @ right, n)


def lhs_operator(a, b, *, cross_check: bool = True) -> np.ndarray:
    """tr(AB) I - tr(A) B + tr(B) A - n AB, optionally verified against the
    brute-force Kronecker/partial-trace route.

    With ``cross_check`` their residual must vanish at the scale of the closed
    form's norm, or an ArithmeticError is raised; search loops pass
    ``cross_check=False`` and rely on the suite-level verification.
    """
    a, b = _hermitian_pair(a, b)
    work = np.empty((5,) + a.shape, dtype=np.complex128)
    work[2], work[3] = a, b
    closed = _closed_form(work)[0]
    if cross_check:
        brute = lhs_operator_brute(a, b)
        residual = float(np.linalg.norm(brute - closed))
        if not residual_vanishes(residual, float(np.linalg.norm(closed))):
            raise ArithmeticError(
                f"closed form disagrees with the Kronecker route: residual {residual:.3e}"
            )
    return closed


def _pair_sides(pairs, question: int, moved_b=None, sa=None, sd=None):
    """lhs and rhs for k = 1..n (index k-1) of each pair of a ``(..., 2, n, n)``
    stack, and the singular values of its A and tr(B) I - n B, all of shape
    ``(K, n)`` over the K pairs of the flattened stack.  The pairs are
    validated as Hermitian and scored as their Hermitian parts (P + P*) / 2:
    one SVD call on the K operators T and one :func:`_hermitian_spectra` call
    on the 2 K factors.  Given ``moved_b``, that call is on the search's K
    moved factors: a candidate takes the spectrum of the factor it did not
    move from the current point's ``sa`` or ``sd`` (see the module docstring).
    """
    if question not in (1, 2):
        raise ValueError("question must be 1 or 2")
    pairs = require_hermitian(pairs, name="A or B")
    n = pairs.shape[-1]
    pairs = _hermitian_part(pairs).reshape(-1, 2, n, n)
    k = len(pairs)
    work = np.empty((5, k, n, n), dtype=np.complex128)
    work[2:4] = pairs.swapaxes(0, 1)
    _closed_form(work)
    st = singular_values(work[0])
    if moved_b is None:
        spectra = _hermitian_spectra(work[1:3].reshape(2 * k, n, n))
        sd, sa = spectra[:k], spectra[k:]
    else:
        moved = moved_b[:, None]
        spectra = _hermitian_spectra(np.where(moved[..., None], work[1], work[2]))
        sa, sd = np.where(moved, sa, spectra), np.where(moved, spectra, sd)
    if question == 1:
        rhs = 2.0 * sa[:, :1] * np.cumsum(sd, axis=-1)
    else:
        rhs = 2.0 * np.cumsum(sa * sd, axis=-1)
    return np.cumsum(st, axis=-1), rhs, sa, sd


def _hermitian_spectra(h: np.ndarray) -> np.ndarray:
    """Singular values of each matrix of an exactly Hermitian ``(K, n, n)``
    stack, nonincreasing: the moduli of its eigenvalues, sorted.  ``eigvalsh``
    reads one triangle only, hence the exactness.  Non-finite entries, such
    as an overflowed tr(B) I - n B, raise ``ValueError`` as in
    :func:`~kyfan.matrixcore.singular_values`."""
    w = np.linalg.eigvalsh(as_matrix(h, name="operand", stacked=True))
    return np.sort(np.abs(w), axis=-1)[:, ::-1]


def _worst_margins(pairs, question: int, ks=None, moved_b=None, sa=None, sd=None):
    """Each pair's largest margin over ``ks`` (an array of k values, or None
    for all of 1..n), the first k in ``ks`` order attaining it and the rhs at
    that k, of shape ``(K,)``, and the spectra of A and tr(B) I - n B to carry,
    from one :func:`_pair_sides` pass over a ``(..., 2, n, n)`` stack of K
    pairs.  A verdict is :func:`~kyfan.norms._violated` of margin and rhs."""
    lhs, rhs, sa, sd = _pair_sides(pairs, question, moved_b, sa, sd)
    margins = lhs - rhs
    if ks is not None:
        n = margins.shape[-1]
        if ks.size == 0 or ks.min() < 1 or ks.max() > n:
            raise ValueError(f"k values {ks.tolist()} not in 1..{n}")
        margins = margins[:, ks - 1]
    first = np.argmax(margins, axis=-1)
    rows = np.arange(len(first))
    k = first + 1 if ks is None else ks[first]
    return margins[rows, first], k, rhs[rows, k - 1], sa, sd


def _identity_residuals(n: int, trials: int, stream) -> tuple[float, float]:
    """The worst residuals, over ``trials`` random Hermitian pairs at n, of
    the closed form against the Kronecker route and of Tr_1(A ox B) against
    tr(A) B.  Trial t draws A, then B, from ``stream.offset(t).generator()``.
    Each residual must vanish at the scale of its route's result, as in
    :func:`lhs_operator`, or an ArithmeticError is raised."""
    residuals, scales = np.zeros((2, trials)), np.zeros((2, trials))
    for t in range(trials):
        g = stream.offset(t).generator()
        a, b = random_hermitian(n, g), random_hermitian(n, g)
        closed, traced = lhs_operator(a, b, cross_check=False), np.trace(a) * b
        residuals[:, t] = (np.linalg.norm(lhs_operator_brute(a, b) - closed),
                           np.linalg.norm(partial_trace_first(kronecker(a, b), n) - traced))
        scales[:, t] = np.linalg.norm(closed), np.linalg.norm(traced)
    worst_closed, worst_kron = residuals.max(axis=1, initial=0.0).tolist()
    if not residual_vanishes(residuals, scales).all():
        raise ArithmeticError(
            f"partial-trace identities failed: closed-form residual {worst_closed:.3e}, "
            f"kron identity residual {worst_kron:.3e}"
        )
    return worst_closed, worst_kron


def _commuting_regression(question: int, n: int, trials: int, stream, k_policy="all",
                          tolerance: float = INEQUALITY_TOL) -> tuple[float, int]:
    """The worst margin over ``trials`` commuting Hermitian pairs at n, each at
    its worst k of ``k_policy`` ("all" or one k), and how many break the
    tolerance rule.  Trial t draws its eigenbasis normals, then its two
    spectra, from ``stream.offset(t).generator()``; the pairs are scored in
    stacks of at most ``CHUNK_ENTRIES`` entries per operand."""
    ks = None if k_policy == "all" else np.array([int(k_policy)])
    worst, violations = -np.inf, 0
    chunk = max(1, CHUNK_ENTRIES // (n * n))
    for start in range(0, trials, chunk):
        gens = [stream.offset(t).generator() for t in range(start, min(trials, start + chunk))]
        pairs = _commuting(_haar(np.stack([_gaussian(n, g) for g in gens])),
                           np.stack([g.standard_normal(2 * n) for g in gens]))
        margins, _, rhs, _, _ = _worst_margins(pairs, question, ks)
        worst = max(worst, float(margins.max()))
        violations += int(np.count_nonzero(_violated(margins, rhs, tolerance)))
    return worst, violations


def question_margins_all_k(a, b, question: int) -> np.ndarray:
    """Margins lhs - rhs for k = 1..n (index k-1) using the closed form."""
    pairs = np.stack([a, b], axis=-3)
    lhs, rhs = _pair_sides(pairs, question)[:2]
    return (lhs - rhs).reshape(pairs.shape[:-3] + lhs.shape[-1:])


def question_margin(inst: QuestionInstance) -> float:
    """Margin of one instance at its own k (positive = counterexample candidate)."""
    return float(question_margins_all_k(inst.A, inst.B, inst.question)[inst.k - 1])


def worst_question_margin(a, b, question: int, k_values=None):
    """Largest margin over the requested k values (default: all of 1..n) and
    the first k in ``k_values`` order attaining it: floats for one pair,
    arrays over the leading axes for a stack."""
    pairs = np.stack([a, b], axis=-3)
    ks = None if k_values is None else np.array([int(k) for k in k_values])
    best, k = _worst_margins(pairs, question, ks)[:2]
    lead = pairs.shape[:-3]
    if not lead:
        return float(best[0]), int(k[0])
    return best.reshape(lead), k.reshape(lead)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def pack_hermitian_pair(a, b) -> np.ndarray:
    """Flatten a Hermitian pair into 2 n^2 reals (diagonal, then upper re/im)."""
    a, b = _hermitian_pair(as_matrix(a, name="A"), as_matrix(b, name="B"))
    return np.concatenate([_pack_one(a), _pack_one(b)])


def _pack_one(h: np.ndarray) -> np.ndarray:
    n = h.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([np.diagonal(h).real, h[iu].real, h[iu].imag])


def unpack_hermitian_pair(theta, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_hermitian_pair`; a ``(..., 2 n^2)`` stack of
    parameter vectors gives ``(..., n, n)`` stacks of pairs."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim == 0 or theta.shape[-1] != 2 * n * n:
        raise ValueError(f"expected {2 * n * n} parameters, got {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("theta contains non-finite entries")
    pair = _unpack_pair(theta, n)
    return pair[..., 0, :, :], pair[..., 1, :, :]


@lru_cache(maxsize=None)
def _constants(n: int) -> tuple[np.ndarray, ...]:
    """What :func:`_unpack_pair` reads at size n, and the identity; read only,
    as every caller at that size shares them.  Float f of an n x n complex
    matrix (entry f // 2, real part if f is even) is parameter ``source[f]``
    of its half, times ``sign[f]``, plus ``zero[f]``."""
    rows, cols = np.nonzero(~np.tri(n, dtype=bool))  # row-major, as np.triu_indices(n, 1)
    offdiag, diagonal = np.arange(len(rows)), np.arange(n)
    source = np.zeros((n, n, 2), dtype=np.intp)
    sign = np.ones((n, n, 2))
    zero = np.zeros((n, n, 2))
    source[diagonal, diagonal] = diagonal[:, None]
    sign[diagonal, diagonal, 1] = 0.0  # a zero imaginary part
    zero[diagonal, diagonal, 0] = -0.0  # d + (-0.0) is d, signed zeros included
    for i, j in ((rows, cols), (cols, rows)):
        source[i, j, 0] = n + offdiag
        source[i, j, 1] = n + len(rows) + offdiag
    sign[cols, rows, 1] = -1.0  # the lower triangle is the conjugate
    maps = source.ravel(), sign.ravel(), zero.ravel(), np.eye(n, dtype=np.complex128)
    for m in maps:
        m.flags.writeable = False
    return maps


def _unpack_pair(theta: np.ndarray, n: int) -> np.ndarray:
    """``(..., 2 n^2)`` finite parameter vectors to a ``(..., 2, n, n)`` stack
    of pairs; the two halves are unpacked independently, entry by entry, by
    one gather of the parameters.  The entries have the bits, signed zeros
    included, of ``h[np.triu_indices(n, 1)] = re + 1j * im; h += h*;
    h[diagonal] = d`` on a zero h: an off-diagonal float is its parameter, or
    its negative, plus +0.0, a diagonal one its parameter plus -0.0, which
    leaves it as it is, and a diagonal imaginary part is +0.0."""
    part = theta.reshape(theta.shape[:-1] + (2, n * n))
    source, sign, zero, _ = _constants(n)
    h = np.take(part, source, axis=-1)
    h *= sign
    h += zero
    return h.view(np.complex128).reshape(part.shape[:-1] + (n, n))


def _builder(strategy: str, n: int, gens):
    """The map ``build(theta, owner)`` from ``(K, dim)`` parameter vectors, row
    i belonging to restart ``owner[i]``, to a ``(K, 2, n, n)`` stack of
    Hermitian pairs, and dim; the commuting strategy draws each restart's
    shared eigenbasis from its generator in ``gens`` here, one stacked QR for
    all of them.  Parameters below dim // 2 give A, the others B."""
    if strategy == "commuting":
        bases = _haar(np.stack([_gaussian(n, g) for g in gens]))
        return (lambda theta, owner: _commuting(bases[owner], theta)), 2 * n
    return (lambda theta, owner: _unpack_pair(theta, n)), 2 * n * n


class _Restart:
    """One restart's greedy state: its generator and quota, its point's step
    and stall count, and its rows of the search's drawn proposals, whose
    columns ``next`` to ``filled`` are drawn and not yet consumed."""

    def __init__(self, g, quota: int, coords: np.ndarray, normals: np.ndarray):
        self.g, self.quota, self.step = g, quota, STEP_INIT
        self.used, self.stalls, self.next, self.filled = 1, 0, 0, 0
        self.coords, self.normals = coords, normals

    def propose(self, dim: int) -> list:
        """The step of each of the next min(``SEARCH_BATCH``, quota - used)
        proposals if every earlier one is rejected, leaving step and stalls as
        they would be after rejecting them all.  The proposals are the columns
        from ``next`` on; when they reach past the drawn ones, the next block
        of ``PROPOSAL_BLOCK`` proposals is drawn after the unconsumed columns,
        moved to the front."""
        size = min(SEARCH_BATCH, self.quota - self.used)
        if self.next + size > self.filled:
            left = self.filled - self.next
            for row, block in ((self.coords, self.g.integers(dim, size=PROPOSAL_BLOCK)),
                               (self.normals, self.g.standard_normal(PROPOSAL_BLOCK))):
                row[:left] = row[self.next:self.filled]
                row[left:left + PROPOSAL_BLOCK] = block
            self.next, self.filled = 0, left + PROPOSAL_BLOCK
        steps = []
        while len(steps) < size:  # halved one step at a time, exact when subnormal too
            run = min(size - len(steps), STALL_LIMIT - self.stalls)
            steps += [self.step] * run
            self.stalls += run
            if self.stalls >= STALL_LIMIT:
                self.step *= 0.5
                self.stalls = 0
        return steps


def _climb(gens, quotas, question: int, n: int, ks, strategy: str):
    """Restarts of the greedy search run in lockstep, restart r scoring
    ``quotas[r]`` >= 1 pairs drawn from ``gens[r]`` over the k values ``ks``
    (None for all of 1..n).  Each round scores the pending proposals of every
    live restart as one stack; see the module docstring.  Returns, per
    restart, the final pair, its margin and k, and the carried spectra of the
    final A and tr(B) I - n B."""
    build, dim = _builder(strategy, n, gens)
    half = dim // 2
    every = np.arange(len(gens))
    thetas = np.stack([g.standard_normal(dim) for g in gens])
    values, value_ks, _, sa, sd = _worst_margins(build(thetas, every), question, ks)
    current, current_k = values.copy(), value_ks.copy()
    width = PROPOSAL_BLOCK + SEARCH_BATCH  # holds a block after the unconsumed columns
    coords = np.zeros((len(gens), width), dtype=np.int64)
    normals = np.zeros((len(gens), width))
    restarts = [_Restart(g, quota, coords[r], normals[r])
                for r, (g, quota) in enumerate(zip(gens, quotas))]
    live = [r for r in range(len(gens)) if quotas[r] > 1]
    while live:
        steps, sizes, starts, offsets = [], [], [], []
        for r in live:
            proposed = restarts[r].propose(dim)
            # flat index in coords of the restart's next proposal, less its start
            offsets.append(r * width + restarts[r].next - len(steps))
            starts.append(len(steps))
            sizes.append(len(proposed))
            steps += proposed
        # the flat index in coords and normals of each candidate's proposal
        at = np.repeat(offsets, sizes) + np.arange(len(steps))
        owner, moved = at // width, coords.take(at)
        candidates = thetas[owner]
        candidates[np.arange(len(at)), moved] += np.multiply(steps, normals.take(at))
        values, value_ks, _, sas, sds = _worst_margins(
            build(candidates, owner), question, ks, moved >= half, sa[owner], sd[owner])
        better = np.flatnonzero(values > current[owner]).tolist() + [len(steps)]
        h, still = 0, []
        for r, size, start in zip(live, sizes, starts):
            while better[h] < start:
                h += 1
            i, restart = better[h], restarts[r]
            if i < start + size:  # the restart's first acceptance
                thetas[r], sa[r], sd[r] = candidates[i], sas[i], sds[i]
                current[r], current_k[r] = values[i], value_ks[i]
                size = i - start + 1
                restart.step, restart.stalls = steps[i], 0
            restart.used += size
            restart.next += size
            if restart.used < restart.quota:
                still.append(r)
        live = still
    return list(zip(build(thetas, every), current.tolist(), current_k.tolist(), sa, sd))


def search_counterexample(
    question: int,
    n: int,
    k_policy="all",
    budget: int = 20000,
    restarts: int = 8,
    s=None,
    *,
    strategy: str = "general",
    tolerance: float = INEQUALITY_TOL,
) -> SearchResult:
    """Multi-restart greedy search maximizing the question margin.

    Each restart draws a random Hermitian pair (parameterized by 2 n^2 reals,
    or by two spectra in a shared random eigenbasis when
    ``strategy="commuting"``), then repeatedly perturbs one coordinate by a
    Gaussian step of ``STEP_INIT`` at first, keeping improvements and halving
    the step after ``STALL_LIMIT`` consecutive rejections.  ``budget`` counts
    margin evaluations across all restarts; ties in best margin resolve to the
    earlier restart.  A witness is attached only when the best pair breaks the
    tolerance rule of :mod:`kyfan.norms` at its k under ``tolerance``, as
    :func:`_worst_margins` re-scores it; a negative result never claims
    nonexistence.  ``s`` is a SeededStream or an int master seed.  The
    restarts run in lockstep, each scoring its proposals ``SEARCH_BATCH`` at
    a time (see the module docstring): here all of them form one span, as
    :func:`_search_span` scores it.
    """
    plan = _SearchPlan(question, n, k_policy, budget, restarts, strategy, tolerance)
    if s is None:
        raise ValueError("a seed stream is required")
    stream = _as_stream(s)
    return _search_result(plan, [_search_span(plan, 0, plan.restarts, stream)],
                          stream.master_seed)


class _SearchPlan:
    """A search's inputs, validated, and ``budget`` dealt over its restarts:
    restart r's quota of evaluations is budget // restarts, plus one if
    r < budget % restarts.  ``ks`` holds the k values, None for all of 1..n.
    (A plain class: a dataclass would compile its methods at import.)"""

    def __init__(self, question, n, k_policy, budget, restarts, strategy, tolerance):
        question = int(question)
        if question not in (1, 2):
            raise ValueError("question must be 1 or 2")
        n = int(n)
        if n < 1:
            raise ValueError("n must be positive")
        budget = int(budget)
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        restarts = int(restarts)
        if restarts < 1:
            raise ValueError("restarts must be positive")
        if strategy not in ("general", "commuting"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if k_policy != "all":
            k_policy = int(k_policy)
            if not 1 <= k_policy <= n:
                raise ValueError(f"k={k_policy} out of range 1..{n}")
        self.question, self.n, self.strategy, self.tolerance = question, n, strategy, tolerance
        self.ks = None if k_policy == "all" else np.array([k_policy])
        self.restarts = restarts
        base, rem = divmod(budget, restarts)
        self.quotas = [base + (1 if r < rem else 0) for r in range(restarts)]


def _search_span(plan: _SearchPlan, first: int, stop: int, stream):
    """Restarts ``first`` to ``stop`` - 1 of ``plan``, drawing from ``stream``:
    the first strict best (margin, pair, k) among their final points, or
    (-inf, None, 1) if none has a quota.  They run in lockstep groups of at
    most max(1, ``CHUNK_ENTRIES`` // (``SEARCH_BATCH`` n^2)) consecutive
    restarts; a restart's bits do not depend on the group it shares (see the
    module docstring), so neither do the span's."""
    finals = []
    group = max(1, CHUNK_ENTRIES // (SEARCH_BATCH * plan.n * plan.n))
    for start in range(first, stop, group):
        members = [r for r in range(start, min(stop, start + group)) if plan.quotas[r] > 0]
        if members:
            finals += _climb([stream.offset(r).generator() for r in members],
                             [plan.quotas[r] for r in members], plan.question, plan.n,
                             plan.ks, plan.strategy)
    return _first_best((margin, pair, k) for pair, margin, k, _, _ in finals)


def _first_best(bests):
    """The first of ``(margin, pair, k)`` triples whose margin beats every
    earlier one, or (-inf, None, 1) for none."""
    return max([(-math.inf, None, 1), *bests], key=lambda best: best[0])


def _search_result(plan: _SearchPlan, bests, master_seed: int) -> SearchResult:
    """The search's result from its spans' :func:`_search_span` bests, in
    restart order: the first strict best of them, its pair a witness if it
    breaks the tolerance rule at its k as :func:`_worst_margins` re-scores
    it."""
    best_margin, best_pair, best_k = _first_best(bests)
    witness = None
    if best_pair is not None:
        margin, _, rhs, _, _ = _worst_margins(best_pair, plan.question, np.array([best_k]))
        if _violated(margin[0], rhs[0], plan.tolerance):
            witness = QuestionInstance(
                A=best_pair[0], B=best_pair[1], n=plan.n, question=plan.question, k=best_k
            )
    return SearchResult(
        best_margin=float(best_margin),
        witness=witness,
        evaluations=sum(plan.quotas),
        strategy=plan.strategy,
        master_seed=master_seed,
        question=plan.question,
        n=plan.n,
        restarts=plan.restarts,
    )
