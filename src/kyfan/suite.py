"""Randomized inequality checkers with replayable reports.

Each checker draws seeded trials, evaluates one inequality family at every
requested k, and counts as violations the (trial, k) entries whose margin
lhs - rhs breaks the tolerance rule of :mod:`kyfan.norms`.  The worst trial
is kept as a :class:`~kyfan.reports.Witness` whose matrices re-evaluate to
its margin.

Each inequality family is declared once, by its entry in :data:`FAMILIES`:
its report id, ``check --ineq`` group, help line, one-trial draw, build and
parts functions, scored k values and form.  ``kyfan check``, its help text and
:func:`reevaluate_margin` read the table, so a family is added by one entry.
A ``kyfan check`` section, one family at one n, runs through
:func:`_check_section`, the check dispatch: it calls the family's public
``check_*`` function, or :func:`_check` for a family that has none.

Trial engine (stream contract v6)
---------------------------------
The trials of a run section based at stream index ``base`` come in blocks
of ``B_n = max(1, BLOCK_ENTRIES // n**2)`` trials, ``BLOCK_ENTRIES = 4096``.
Block b is drawn from the one generator ``stream.offset(b).generator()``.
A family declares the generator calls of one trial once, as its
:attr:`Family.draw`: each call draws either normals or uniforms on [0, 1)
of a shape set by n.  Where the section scores the block's first c trials
(c = B_n except in its last block), :func:`_draw_block` makes, in order:

1. every uniform call, in the one-trial order, each as one
   ``g.uniform(0.0, 1.0, (B_n, *shape))`` over all B_n trials;
2. one ``g.standard_normal((c, m))``, m the number of normals of one
   trial: row t holds trial t's normals, its normal calls in the one-trial
   order, each call's entries row-major.

ahj-given, for example, draws one ``g.standard_normal((c, 6 n**2))``, the
(2, n, n) real and imaginary parts of X, then Y, then B.  lemma31 draws the
(B_n, n) column lengths of X, then of Y, then the singular values of S, and
then one ``(c, 8 n**2)`` row per trial: X's, Y's and the two Haar factors
of S's normals.  lemma32 draws only normals, ``(c, 4 n**2 + 4 n)``: X's n
columns as (n, 2, n) (column j's real then imaginary parts), Y's, then u's
and v's real and imaginary parts, n each; it normalises its columns and
vectors with last-axis norms of the block.  So a block draws only the
normals of the trials it scores, and trial t's inputs still depend only on
the seed, the section base, n and t, never on the trial count.  A section
of T trials opens ``ceil(T / B_n)`` streams, at ``base`` up to
``base + ceil(T / B_n) - 1``.  The ``extremal`` engine below also draws
block j from stream ``base + j``, by calls of its own; the ``ptrace`` loops
and the searches keep one stream per trial or restart, and a search restart
draws its proposals in blocks of its own (see :mod:`kyfan.ptrace`).

Everything after the draws runs in :func:`_check`, the one engine entry, on
the block's stacks: the block is transformed, evaluated and scored as
``(T, n, n)`` arrays of at most ``BLOCK_ENTRIES`` complex entries per
operand, so memory stays flat at large n.  The ``_parts_*`` evaluators take
one trial's matrices or a stack and give one column per k of
``Family.scored_ks``, the one declaration of a family's k values.

Scoring a stack gives the bits of scoring each trial alone.  Measured on
numpy 2.4.6 with OpenBLAS 0.3.31, the bit-exactness rules are:

- stacked ``svd``, ``qr``, ``matmul``, ``trace(axis1=-2, axis2=-1)`` and
  axis norms give the same bits as per-matrix calls, as do elementwise
  arithmetic and ``cumsum``/``sum``/``sort`` over the last axis;
- array ``np.abs`` of complex128 does not give the bits of scalar ``abs()``:
  it differs in the last bit for about 35 % of inputs.  ``von-neumann``
  therefore takes each trial's ``abs(trace)`` as a scalar;
- 1-D BLAS reductions stay per trial: ``np.dot`` of the spectra in
  ``von-neumann``.

Aggregation is that of a trial-by-trial loop: only the ``k_values`` are
scored, each entry by the tolerance rule; the worst margin is the first
strict maximum in trial order, then k order; extra trials are scored after
the drawn ones, each as a block of one.

Extremal engine (stream contract v5, unchanged in v6)
----------------------------------------------------
The ``kyfan extremal`` targets are scored one chunk of
``EXTREMAL_CHUNK_BLOCKS`` blocks at a time, by :func:`_extremal_chunk_gaps`.
``kyfan.cli`` deals a section's chunks over its processes as the section's
parts and folds their gaps in chunk order; :func:`_extremal_gaps` is the
same concatenation in one process.  Block j of a section holds
``B = max(1, BLOCK_ENTRIES // n_max**2)`` trials (64 at n_max = 8) and is
drawn from ``stream.offset(j).generator()``, each draw one call over the
whole block, in this order:

- n, as ``g.integers(2, n_max + 1, size=B)``;
- for ``vector`` and ``matrix``, k as ``g.integers(1, n + 1)`` over the
  block's n, then the weight: the ones-mask ``g.uniform(size=B) < 0.15``,
  the entries ``g.uniform(0.05, 1, (B, n_max))``, the tail mask
  ``g.uniform(size=B) < 0.5``.  Trial t's weight is k ones or its first k
  entries sorted nonincreasing, followed by n - k zeros where k < n and the
  tail mask is set, as ``random_weight`` builds it;
- the normals, exact-size, one flat draw whose runs are the trials' in
  order: ``g.standard_normal(sum(n))``, trial t's n entries of c, or
  ``g.standard_normal(2 * sum(n**2))``, trial t's n x n real part of C or
  B, then its n x n imaginary part, both row-major;
- for ``matrix``, once per sample index: each trial's family
  ``g.integers(k)``, then ``g.standard_normal(4 * sum(n**2))``, trial t's
  (2, 2, n, n) normals of the two Haar factors U and V of its sampled
  candidate (U's real and imaginary parts, then V's).

Trial t uses exactly its own runs.  A block draws all B trials, so trial
t's n, weight and C depend only on the seed, the section base, n_max and t,
never on ``--trials`` or ``--samples``, and a section of T trials opens
``ceil(T / B)`` streams.  The weights stay a ``(B, n_max)``
array of prefix sums; :class:`~kyfan.norms.Weight`'s checks run on it row by
row.  Every vector trial's families are checked against
``ENUMERATION_BUDGET`` before any trial of its chunk is scored, naming the
first over-budget trial in trial order; a run raises its earliest failing
chunk's error, so that trial is the section's first over-budget trial.

A chunk opens only its own blocks' streams, so its gaps do not depend on
which chunks run before it or in which process.  Its blocks' trials are
scored together, grouped by n into ``(T, n, n)`` stacks: one ``svd`` of the
C or B stack and one Haar QR per sample index.  No candidate matrix is
formed.  For a partial isometry X = U_j V_j* the value Re tr(C* X) equals
the sum of the real parts of the first j entries of diag(U* C V), so every
candidate is scored through ``_diagonal_inner``, two stacked matmuls
``(U* C) V`` and their diagonal:

- aligned: U and V are C's singular vectors, and family p < k scores
  ``cumsum(diag.real)[rank - 1] / ws[p]``, rank p + 1 for p < k - 1 and n
  for p = k - 1;
- sampled: U and V are the two Haar factors, scored the same way at the
  trial's drawn family;
- equality: the gap is | abs(u1* B v1) - sigma_1(B) |, u1* B v1 being the
  first diagonal entry and tr(AB) at A = ``von_neumann_equality_witness(B)``.

The public ``support_function_gap``, ``matrix_ball_support_gap`` and
``von_neumann_equality_witness`` are these same helpers on one input.
Beyond the rules above:

- each diagonal comes from stacked matmuls and each cumulative sum runs
  over the last axis, so a trial's value does not depend on its stack: the
  reference loop of the tests, which scores every trial alone in 2-D, gets
  the same bits;
- the sign-matrix products of the vector target are one broadcast
  ``np.matmul(S, C[:, :, None])`` per family over the trials that use it,
  at most ``ENUMERATION_BUDGET`` entries a product with S, which numpy
  runs as one matrix-vector product per trial: no row maximum changed in
  17,500 (n, j, vector) checks (n = 2..8, every j, 250 vectors each,
  twice), where one matrix-matrix product ``S @ C.T`` changed 1345 of 8750;
- ``abs`` of each equality trace is taken as a scalar;
- the dual norm sorts and sums each row and forms the same quotients as
  the one-vector form, so its maximum is the same number.

The per-trial gaps are then reduced to a maximum and a violation count,
neither of which depends on order, so grouping by n changes no byte.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .ensembles import (
    GENERATOR_ID,
    _aligned_gaps,
    _as_stream,
    _check_enumeration_budgets,
    _diagonal_inner,
    _contraction,
    _ginibre,
    _sampled_values,
    _subunit,
    _support_gaps,
)
from .forms import (
    EntrywiseForm,
    apply_form,
    fan_form,
    fan_product,
    hadamard_form,
    right_adjoint_apply,
)
from .matrixcore import (
    _adjoint,
    as_matrix,
    column_norms,
    factor_sqrt,
    singular_values,
    svd,
)
from .norms import INEQUALITY_TOL, _check_weight_rows, _violated, residual_vanishes
from .reports import Witness

__all__ = [
    "Witness",
    "CheckReport",
    "check_von_neumann",
    "check_product_family",
    "check_hadamard_family",
    "check_ahj",
    "check_lemma31",
    "check_lemma32",
    "check_hmn",
    "check_fan_sigma1",
    "reproduce_fan_counterexample",
    "von_neumann_equality_witness",
    "reevaluate_margin",
    "Family",
    "FAMILIES",
    "INEQUALITY_IDS",
]

@dataclass(frozen=True, eq=False)
class CheckReport:
    inequality_id: str
    n: int
    k_range: tuple[int, ...]
    trials: int
    violations: int
    worst_margin: float
    tolerance: float
    master_seed: int
    elapsed_seconds: float
    generator_id: str = GENERATOR_ID
    per_k_worst: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    witness: Witness | None = None

#: a checker block holds max(1, BLOCK_ENTRIES // n**2) trials.  The block size
#: is part of the stream contract, so this constant moves every checker and
#: extremal stream; it is not a memory knob like ensembles.CHUNK_ENTRIES
BLOCK_ENTRIES = 4096


# ---------------------------------------------------------------------------
# trial draws and their stacked transforms.  A draw is the generator calls of
# one trial, in order, each a kind ("normal" or "uniform") and its shape at n;
# _draw_block makes them for a block by the contract v6 rule
# ---------------------------------------------------------------------------

_GAUSSIAN = ("normal", lambda n: (2, n, n))  # a complex matrix: real, then imaginary part
_UNIFORMS = ("uniform", lambda n: (n,))  # column lengths or singular values
_COLUMNS = ("normal", lambda n: (n, 2, n))  # n complex columns, each real then imaginary part
_VECTOR = ("normal", lambda n: (n,))  # a vector's real or imaginary part

_draw_two = (_GAUSSIAN, _GAUSSIAN)
_draw_three = (_GAUSSIAN, _GAUSSIAN, _GAUSSIAN)
_draw_lemma31 = (_GAUSSIAN, _UNIFORMS, _GAUSSIAN, _UNIFORMS, _GAUSSIAN, _GAUSSIAN, _UNIFORMS)
_draw_lemma32 = (_COLUMNS, _COLUMNS, _VECTOR, _VECTOR, _VECTOR, _VECTOR)
_draw_contractions = (_GAUSSIAN, _GAUSSIAN, _UNIFORMS) * 2


def _draw_block(draw, n, size, count, g):
    """The calls of ``draw`` for a block of ``size`` trials whose first ``count`` are scored.

    Every uniform call is made over all ``size`` trials, in the order of
    ``draw``; then one ``g.standard_normal((count, m))`` holds, row by row,
    each scored trial's m normals, its normal calls in order, each
    row-major.  Returns one array per call, in the order of ``draw``, each
    with a leading axis of ``count`` trials.
    """
    calls = [(kind, shape(n)) for kind, shape in draw]
    uniforms = [g.uniform(0.0, 1.0, (size, *shape))[:count]
                for kind, shape in calls if kind == "uniform"]
    shapes = [shape for kind, shape in calls if kind == "normal"]
    widths = [math.prod(shape) for shape in shapes]
    rows = np.split(g.standard_normal((count, sum(widths))), np.cumsum(widths)[:-1], axis=1)
    arrays = {"uniform": iter(uniforms),
              "normal": (w.reshape(count, *shape) for w, shape in zip(rows, shapes))}
    return tuple(next(arrays[kind]) for kind, _ in calls)


def _ginibre_pair(wa, wb):
    return {"A": _ginibre(wa), "B": _ginibre(wb)}


def _ahj_given(wx, wy, wb):
    return {"X": _ginibre(wx), "Y": _ginibre(wy), "B": _ginibre(wb)}


def _ahj_sqrt(wa, wb):
    x, y = factor_sqrt(_ginibre(wa))
    return {"X": x, "Y": y, "B": _ginibre(wb)}


def _lemma31_inputs(wx, lx, wy, ly, wu, wv, t):
    return {"X": _subunit(wx, lx), "Y": _subunit(wy, ly), "S": _contraction(wu, wv, t)}


def _unit_rows(z):
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _unit_columns(w):
    """Matrix t has the normalised column j of ``w[t]``, (n, 2, n): column by
    column, real then imaginary parts, at column j."""
    z = _unit_rows(w[..., 0, :] + 1j * w[..., 1, :])
    return np.ascontiguousarray(np.swapaxes(z, -1, -2))


def _lemma32_inputs(wx, wy, ur, ui, vr, vi):
    u, v = _unit_rows(ur + 1j * ui), _unit_rows(vr + 1j * vi)
    return {"X": _unit_columns(wx), "Y": _unit_columns(wy), "u": u[..., None], "v": v[..., None]}


def _contraction_pair(wua, wva, ta, wub, wvb, tb):
    return {"A": _contraction(wua, wva, ta), "B": _contraction(wub, wvb, tb)}


# ---------------------------------------------------------------------------
# per-family evaluation (shared by checkers and witness re-evaluation); each
# takes one trial's matrices or (T, ...) stacks at n and returns lhs, rhs of
# shape (..., len(scored_ks(n))), one column per k its family scores
# ---------------------------------------------------------------------------


def _parts_von_neumann(mats):
    a, b = mats["A"], mats["B"]
    products = a @ b
    sa, sb = singular_values(a), singular_values(b)
    # traced after the SVDs: straight after the stacked complex matmul, np.trace
    # ran 5-7x slower (on 1024 2 x 2 products), for the same bits
    traces = np.trace(products, axis1=-2, axis2=-1)
    # scalar abs and 1-D BLAS dots, trial by trial: the array forms change last bits
    lhs = [abs(t) for t in np.ravel(traces)]
    rhs = [float(np.dot(x, y)) for x, y in zip(sa.reshape(-1, sa.shape[-1]),
                                               sb.reshape(-1, sb.shape[-1]))]
    shape = np.shape(traces) + (1,)
    return np.reshape(lhs, shape), np.reshape(rhs, shape)


def _pair_sums(product, a, b):
    """cumsum sigma(product) against cumsum sigma(A) sigma(B): both sides at every k."""
    return (np.cumsum(singular_values(product), axis=-1),
            np.cumsum(singular_values(a) * singular_values(b), axis=-1))


def _parts_product_family(mats):
    a, b = mats["A"], mats["B"]
    return _pair_sums(a @ b, a, b)


def _parts_hadamard_family(mats):
    a, b = mats["A"], mats["B"]
    return _pair_sums(a * b, a, b)


def _parts_ahj(mats):
    x, y, b = mats["X"], mats["Y"], mats["B"]
    lhs = np.cumsum(singular_values((_adjoint(x) @ y) * b), axis=-1)
    rhs = np.cumsum(column_norms(x) * column_norms(y) * singular_values(b), axis=-1)
    return lhs, rhs


def _parts_lemma31(mats):
    form = EntrywiseForm(mats["mask"])
    x, y, s = mats["X"], mats["Y"], mats["S"]
    lhs = singular_values(apply_form(form, _adjoint(x) @ y, s))[..., :1]
    return lhs, np.ones_like(lhs)


def _parts_lemma32(mats):
    x, y = mats["X"], mats["Y"]
    vectors = np.shape(x)[:-1]  # one length-n vector per trial
    u = np.reshape(mats["u"], vectors)
    v = np.reshape(mats["v"], vectors)
    q = u[..., :, None] * np.conj(v)[..., None, :]
    lhs = singular_values((_adjoint(x) @ y) * q).sum(axis=-1)[..., None]
    return lhs, np.ones_like(lhs)


def _parts_hmn(mats):
    a, b = mats["A"], mats["B"]
    return _pair_sums(apply_form(EntrywiseForm(mats["mask"]), a, b), a, b)


def _parts_fan_sigma1(mats):
    a, b = mats["A"], mats["B"]
    lhs = np.maximum(
        singular_values(fan_product(a, b))[..., :1],
        singular_values(fan_product(np.swapaxes(a, -1, -2), b))[..., :1],
    )
    rhs = singular_values(a)[..., :1] * singular_values(b)[..., :1]
    return lhs, rhs


def _every_k(n):
    return range(1, n + 1)


def _top_k(n):
    return (1,)


def _last_k(n):
    return (n,)


@dataclass(frozen=True)
class Family:
    """One checked inequality, declared once.

    ``id`` is its report id and ``ineq`` the ``check --ineq`` group that runs
    it; a group's help line is its first family's.  ``draw`` is the generator
    calls of one trial, which :func:`_draw_block` makes for a block, and
    ``build`` and ``parts`` are the stacked transform and evaluator that
    :func:`_check`, the one engine entry, runs.  ``scored_ks(n)`` is the one
    declaration of the k values a section at n scores: ``parts`` returns one
    column per k of it.  Where ``form`` is set, the family runs with the mask
    of ``form(n)``, shared by every trial.
    """

    id: str
    ineq: str
    help: str | None
    draw: Callable
    build: Callable
    parts: Callable
    scored_ks: Callable
    form: Callable | None = None


#: every checked family, in ``check --ineq all`` order, by report id
FAMILIES = {family.id: family for family in (
    Family("von-neumann", "von-neumann", "|tr(AB)| <= sum_i s_i(A) s_i(B)",
           _draw_two, _ginibre_pair, _parts_von_neumann, _last_k),
    Family("product-family", "product-family",
           "sum_{i<=k} s_i(AB) <= sum_{i<=k} s_i(A) s_i(B), every k",
           _draw_two, _ginibre_pair, _parts_product_family, _every_k),
    Family("hadamard-family", "hadamard-family",
           "sum_{i<=k} s_i(A o B) <= sum_{i<=k} s_i(A) s_i(B), every k",
           _draw_two, _ginibre_pair, _parts_hadamard_family, _every_k),
    Family("ahj-given", "ahj",
           "sum_{i<=k} s_i(X*Y o B) <= sum_{i<=k} c_i(X) c_i(Y) s_i(B); runs both factor modes",
           _draw_three, _ahj_given, _parts_ahj, _every_k),
    Family("ahj-sqrt", "ahj", None, _draw_two, _ahj_sqrt, _parts_ahj, _every_k),
    Family("lemma31", "lemma31",
           "s_1((X*Y) o S) <= 1 for subunit-column X, Y and a contraction S",
           _draw_lemma31, _lemma31_inputs, _parts_lemma31, _top_k, hadamard_form),
    Family("lemma32", "lemma32",
           "trace norm of (X*Y) o (u v*) <= 1 for unit-column X, Y and unit u, v",
           _draw_lemma32, _lemma32_inputs, _parts_lemma32, _top_k),
    Family("hmn-hadamard", "hmn-hadamard",
           "s_1-ratio probe plus the k-family for the all-ones mask",
           _draw_contractions, _contraction_pair, _parts_hmn, _every_k, hadamard_form),
    Family("hmn-fan", "hmn-fan",
           "s_1-ratio probe plus the k-family for the diagonal-negated mask",
           _draw_contractions, _contraction_pair, _parts_hmn, _every_k, fan_form),
    Family("fan-sigma1", "fan-sigma1",
           "s_1 of the diagonal-negated product <= s_1(A) s_1(B), also with A transposed",
           _draw_two, _ginibre_pair, _parts_fan_sigma1, _top_k),
)}

#: the ``check --ineq`` groups, in ``FAMILIES`` order
INEQUALITY_IDS = tuple(dict.fromkeys(family.ineq for family in FAMILIES.values()))


def _family(report_id: str) -> Family:
    """The family whose checker writes reports named ``report_id``.

    A masked checker names its report after its form (``hmn-<form>``,
    ``lemma31-<form>``), so an id outside the table resolves to the masked
    family of the same stem.
    """
    if report_id in FAMILIES:
        return FAMILIES[report_id]
    stem = report_id.partition("-")[0]
    for family in FAMILIES.values():
        if family.form is not None and family.id.partition("-")[0] == stem:
            return family
    raise KeyError(f"no inequality family writes report id {report_id!r}")


def _scored_columns(family: Family, report_id: str, n: int, k_values=None):
    """The k values of ``family.scored_ks(n)`` that ``k_values`` selects, and
    their columns of ``parts``; ``ValueError`` for an empty selection or a k outside them."""
    ks = [int(k) for k in family.scored_ks(n)]
    wanted = ks if k_values is None else [int(k) for k in k_values]
    if not wanted:
        raise ValueError(f"no k value to score for {report_id} at n={n}")
    for k in wanted:
        if k not in ks:
            raise ValueError(f"k={k} scores no margin for {report_id} at n={n} "
                             f"(it scores k in {ks})")
    cols = [j for j, k in enumerate(ks) if k in wanted]
    return [ks[j] for j in cols], cols


def reevaluate_margin(inequality_id: str, witness: Witness) -> float:
    """Recompute a stored witness's margin from its matrices."""
    family = _family(inequality_id)
    n = np.shape(next(iter(witness.matrices.values())))[0]  # every input has n rows
    _, (j,) = _scored_columns(family, inequality_id, n, (witness.k,))
    lhs, rhs = family.parts(witness.matrices)
    return float(lhs[j]) - float(rhs[j])


# ---------------------------------------------------------------------------
# the engine, and the checkers: each runs the table's family through it
# ---------------------------------------------------------------------------


def _check(report_id, n, trials, s, form=None, *, tolerance=INEQUALITY_TOL, k_values=None,
           extra_trials=(), observe=None) -> CheckReport:
    """Run ``trials`` seeded trials plus ``extra_trials`` of the family of ``report_id``.

    Each block's draws go through the family's ``build`` and ``parts``; each
    extra trial, a dict of matrices, is then scored as a block of one.  A
    ``form``'s mask is the same for every trial: it joins each block and
    each witness unstacked.  ``observe(mats, lhs, rhs)`` sees every scored
    block before the k filter.  A section that would score no trial or no k
    raises ``ValueError`` before any block is drawn.
    """
    n = int(n)
    trials = int(trials)
    if n < 1:
        raise ValueError("n must be positive")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if form is not None and n != form.n:
        raise ValueError(f"form is {form.n} x {form.n} but n={n}")
    stream = _as_stream(s)
    family = _family(report_id)
    ks, cols = _scored_columns(family, report_id, n, k_values)
    extra_trials = list(extra_trials)
    if trials == 0 and not extra_trials:
        raise ValueError(f"{report_id} at n={n} has no trial to score")
    shared = {} if form is None else {"mask": form.mask}
    t0 = time.perf_counter()

    size = max(1, BLOCK_ENTRIES // (n * n))
    blocks = (family.build(*_draw_block(family.draw, n, size, min(size, trials - start),
                                        stream.offset(block).generator()))
              for block, start in enumerate(range(0, trials, size)))
    extras = ({name: as_matrix(m, name=name)[None] for name, m in extra.items()
               if name not in shared} for extra in extra_trials)
    violations = 0
    worst = -math.inf
    witness = None
    per_k: dict[int, float] = {}
    for stacked in itertools.chain(blocks, extras):
        mats = dict(stacked, **shared)
        lhs, rhs = family.parts(mats)
        if observe is not None:
            observe(mats, lhs, rhs)
        rhs = rhs[:, cols]
        margins = lhs[:, cols] - rhs
        violations += int(np.count_nonzero(_violated(margins, rhs, tolerance)))
        for k, top in zip(ks, margins.max(axis=0)):
            if k not in per_k or top > per_k[k]:
                per_k[k] = float(top)
        first = int(np.argmax(margins))  # row-major: trial order, then k order
        if margins.flat[first] > worst:
            trial, j = divmod(first, len(cols))
            worst = float(margins.flat[first])
            matrices = {name: m[trial].copy() for name, m in stacked.items()}
            witness = Witness(matrices=dict(matrices, **shared), k=ks[j], margin=worst)
        del stacked, mats, lhs, rhs, margins  # free this block before the next is drawn

    return CheckReport(
        inequality_id=report_id,
        n=n,
        k_range=tuple(sorted(per_k)),
        trials=trials + len(extra_trials),
        violations=violations,
        worst_margin=worst,
        tolerance=float(tolerance),
        master_seed=stream.master_seed,
        elapsed_seconds=time.perf_counter() - t0,
        per_k_worst=dict(sorted(per_k.items())),
        witness=witness,
    )


def check_von_neumann(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """|tr(AB)| <= sum_i sigma_i(A) sigma_i(B) on complex Gaussian pairs."""
    return _check("von-neumann", n, trials, s, tolerance=tolerance, k_values=k_values)


def check_product_family(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """sum_{i<=k} sigma_i(AB) <= sum_{i<=k} sigma_i(A) sigma_i(B), every k."""
    return _check("product-family", n, trials, s, tolerance=tolerance, k_values=k_values)


def check_hadamard_family(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """sum_{i<=k} sigma_i(A o B) <= sum_{i<=k} sigma_i(A) sigma_i(B), every k."""
    return _check("hadamard-family", n, trials, s, tolerance=tolerance, k_values=k_values)


def check_ahj(n, trials, s, factorization="given", *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """sum_{i<=k} sigma_i(X*Y o B) <= sum_{i<=k} c_i(X) c_i(Y) sigma_i(B).

    factorization="given" samples X, Y, B independently; "sqrt" samples a
    single A, splits it into balanced factors X* Y = A, and tests the same
    bound for that induced factorization.
    """
    if factorization not in ("given", "sqrt"):
        raise ValueError(f"unknown factorization {factorization!r}")
    return _check(f"ahj-{factorization}", n, trials, s, tolerance=tolerance, k_values=k_values)


def check_lemma31(form: EntrywiseForm, n, trials, s, *, tolerance=INEQUALITY_TOL,
                  k_values=None, extra_trials=()) -> CheckReport:
    """sigma_1((X*Y) . S) <= 1 for subunit-column X, Y and a contraction S.

    A theorem for the all-ones mask; for the diagonal-negated mask explicit
    violations exist, and deterministic inputs (e.g. the known 3x3 violating
    triple) can be appended through ``extra_trials`` as {"X","Y","S"} dicts.
    """
    return _check("lemma31" if form.name == "hadamard" else f"lemma31-{form.name}",
                  n, trials, s, form, tolerance=tolerance, k_values=k_values,
                  extra_trials=extra_trials)


def check_lemma32(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """trace norm of (X*Y) o (u v*) <= 1 for unit-column X, Y and unit u, v."""
    return _check("lemma32", n, trials, s, tolerance=tolerance, k_values=k_values)


def check_hmn(form: EntrywiseForm, n, trials, s, *, tolerance=INEQUALITY_TOL,
              k_values=None, extra_trials=()) -> CheckReport:
    """Two-phase check of the masked-product norm transfer.

    Hypothesis probe: over the sampled pairs, record the largest ratios
    sigma_1(A . B) / (sigma_1(A) sigma_1(B)) and the same for the adjoint
    form B^T . C.  Conclusion: for every k,
    sum_{i<=k} sigma_i(A . B) <= sum_{i<=k} sigma_i(A) sigma_i(B).
    The hypothesis holds when no probed sigma_1 breaks the tolerance rule
    against sigma_1(A) sigma_1(B).  The report's details flag whether the
    observations are consistent with "the hypothesis holds exactly when the
    family holds" — observed, not proved.
    """
    hyp = {"max_sigma1_ratio": 0.0, "max_adjoint_sigma1_ratio": 0.0}
    hypothesis_ok = True

    def observe(mats, lhs, rhs):
        # the k = 1 parts are sigma_1(A . B) and sigma_1(A) sigma_1(B): reuse them
        nonlocal hypothesis_ok
        denom = rhs[:, 0]
        probed = ~(denom < 1e-12)
        if not probed.any():
            return
        denom = denom[probed]
        adjoint = right_adjoint_apply(form, mats["A"][probed], mats["B"][probed])
        for key, top in (("max_sigma1_ratio", lhs[probed, 0]),
                         ("max_adjoint_sigma1_ratio", singular_values(adjoint)[:, 0])):
            hyp[key] = max(hyp[key], float((top / denom).max()))
            hypothesis_ok = hypothesis_ok and not _violated(top - denom, denom, tolerance).any()

    report = _check(f"hmn-{form.name}", n, trials, s, form, tolerance=tolerance,
                    k_values=k_values, extra_trials=extra_trials, observe=observe)
    details = dict(hyp, hypothesis_ok=hypothesis_ok)
    details["hypothesis_status"] = (
        "no violation observed" if hypothesis_ok else "violation observed"
    )
    details["consistent_with_iff"] = hypothesis_ok == (report.violations == 0)
    return dataclasses.replace(report, details=details)


def check_fan_sigma1(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """Top singular value of the diagonal-negated product stays below
    sigma_1(A) sigma_1(B), applied both to (A, B) and to (A^T, B)."""
    return _check("fan-sigma1", n, trials, s, tolerance=tolerance, k_values=k_values)


def _check_section(family: Family, n, trials, s, tolerance=INEQUALITY_TOL,
                   k_values=None) -> CheckReport:
    """One ``kyfan check`` section: ``family`` at n, run through its public ``check_*``.

    A masked family's checker is named by its id's stem and takes the form
    at n first; one of an ``--ineq`` group's several families, by the group,
    taking the rest of its id last; any other family's, by its id.  Each is
    called by its name in this module, looked up as the section runs, so
    that a wrapper put on the name after import (a tracer's) sees the
    section.  A family with no checker runs through :func:`_check`.
    """
    stem, _, variant = family.id.partition("-")
    form = None if family.form is None else family.form(n)
    kw = {"tolerance": tolerance, "k_values": k_values}
    checker = {"von-neumann": check_von_neumann, "product-family": check_product_family,
               "hadamard-family": check_hadamard_family, "ahj": check_ahj,
               "lemma31": check_lemma31, "lemma32": check_lemma32, "hmn": check_hmn,
               "fan-sigma1": check_fan_sigma1}.get(family.ineq if form is None else stem)
    if checker is None:
        return _check(family.id, n, trials, s, form, **kw)
    if form is not None:
        return checker(form, n, trials, s, **kw)
    if family.ineq != family.id:
        return checker(n, trials, s, variant, **kw)
    return checker(n, trials, s, **kw)


# ---------------------------------------------------------------------------
# exact constructions
# ---------------------------------------------------------------------------


#: how far S* S of the fixed triple may be from the identity, in Frobenius norm
UNITARY_TOL = 1e-12


def counterexample_inputs() -> dict:
    """The fixed 3x3 violating triple: X = Y with all columns (1,1,1)/sqrt(3),
    and a rational unitary S whose diagonal-negated product with X*Y has top
    singular value sqrt(13)/3 > 1."""
    x = np.full((3, 3), 1.0 / np.sqrt(3.0), dtype=np.complex128)
    s = np.array([[2, 1, 2], [-2, 2, 1], [1, 2, -2]], dtype=np.complex128) / 3.0
    return {"X": x, "Y": x.copy(), "S": s}


def reproduce_fan_counterexample() -> Witness:
    """Reproduce the explicit contraction-norm violation for the
    diagonal-negated product.

    Builds the fixed triple from :func:`counterexample_inputs`, verifies S is
    unitary to ``UNITARY_TOL``, forms the diagonal-negated product of X*Y
    (an all-ones matrix) with S, and returns a witness whose margin is the
    k = 1 excess sigma_1(product) - c_1(X) c_1(Y) sigma_1(S), i.e.
    sigma_1 - 1.  Raises if the construction unexpectedly fails to violate.
    """
    return _fan_counterexample()[0]


def _fan_counterexample() -> tuple[Witness, np.ndarray, float]:
    """:func:`reproduce_fan_counterexample`'s witness, with the product's
    singular values and S's unitary residual it was decided on."""
    mats = counterexample_inputs()
    x, s = mats["X"], mats["S"]
    unitary_residual = float(np.linalg.norm(s.conj().T @ s - np.eye(3)))
    if not residual_vanishes(unitary_residual, tol=UNITARY_TOL):
        raise ArithmeticError(f"S is not unitary: residual {unitary_residual}")
    gram = x.conj().T @ mats["Y"]
    product = fan_product(gram, s)
    spectrum = singular_values(product)
    rhs = float(column_norms(x)[0] * column_norms(mats["Y"])[0] * singular_values(s)[0])
    margin = float(spectrum[0]) - rhs
    if margin <= 0:
        raise ArithmeticError("expected a violation, found none")
    matrices = dict(mats, product=product)
    return Witness(matrices=matrices, k=1, margin=margin), spectrum, unitary_residual


def von_neumann_equality_witness(b) -> np.ndarray:
    """Rank-one A built from B's top singular pair with |tr(AB)| = sigma_1(B).

    A = v1 u1* has singular values (1, 0, ..., 0) and tr(AB) = u1* B v1
    = sigma_1(B), so the trace bound is attained exactly.  ``b`` may also be
    a (T, n, n) stack, giving a stack of witnesses.
    """
    u, _, v = svd(b)
    return v[..., :, :1] * np.conj(u[..., :, 0])[..., None, :]


# ---------------------------------------------------------------------------
# extremal targets
# ---------------------------------------------------------------------------

EXTREMAL_TARGETS = ("vector", "matrix", "equality")

#: blocks of extremal trials drawn and scored together: one chunk, also the
#: unit that ``kyfan.cli`` deals over a run's processes.  A trial's draws
#: depend only on its block, so this is a speed and memory knob, not part of
#: the stream contract.  Measured when a run scored all its chunks in one
#: process, on ``perfbench/run.py --workload extremal`` (n_max = 8, 64
#: trials a block, 2-vCPU x86_64 VM, 4 alternated 10 s runs each) 4, 8 and
#: 16 blocks ran 42.9k-45.2k, 47.6k-50.5k and 49.2k-51.3k trials/s at
#: 39.75, 40.8 and 42.4 MB peak RSS, against 40.5 MB for contract v4's
#: engine at 4 blocks: 8 is the largest of these within 1 MB of it
EXTREMAL_CHUNK_BLOCKS = 8


def _draw_extremal(target, n_max, size, g):
    """Block RNG step of an extremal target: n, k, the weights, then the normals.

    Returns n and k as ``(size,)`` arrays, the weights as a ``(size, n_max)``
    table of prefix sums, checked as :class:`~kyfan.norms.Weight` checks
    them, and the block's normals as one flat array: trial t's n entries of
    c, or its 2 n**2 entries of C or B (the n x n real part, then the
    imaginary part), follow those of trial t - 1.  ``equality`` draws no k
    or weight.
    """
    n = g.integers(2, n_max + 1, size=size)
    lengths = n if target == "vector" else 2 * n * n
    if target == "equality":
        return n, None, None, g.standard_normal(int(lengths.sum()))
    k = g.integers(1, n + 1)
    ones = g.uniform(size=size) < 0.15
    entries = g.uniform(0.05, 1.0, (size, n_max))
    tail = g.uniform(size=size) < 0.5
    normals = g.standard_normal(int(lengths.sum()))
    active = np.arange(n_max) < k[:, None]
    # every drawn entry is at least 0.05, so a descending sort puts the k active ones first
    rows = np.sort(np.where(active, entries, 0.0), axis=-1)[:, ::-1]
    rows = np.where(active, np.where(ones[:, None], 1.0, rows), 0.0)
    # the tail only sets the weight's length: its zero entries enter no norm
    _check_weight_rows(rows, k, np.where(tail & (k < n), n, k))
    return n, k, np.cumsum(rows, axis=-1), normals


def _gather(flat, starts, shape):
    """The trials' contiguous runs of ``flat`` from ``starts``, as a (T, *shape) stack."""
    return flat[starts[:, None] + np.arange(math.prod(shape))].reshape(-1, *shape)


def _equality_gaps(b):
    """| |u1* B v1| - sigma_1(B) | for each B of a stack: the trace bound at
    :func:`von_neumann_equality_witness`, whose tr(AB) is u1* B v1."""
    u, sig, v = svd(b)
    traces = _diagonal_inner(b, u, v)[:, 0]
    # scalar abs of each trace: the array form's bits depend on the element's position
    return np.abs(np.array([abs(t) for t in traces]) - sig[:, 0])


def _extremal_chunks(n_max, trials, samples) -> range:
    """The chunk indices of an extremal section of ``trials`` trials: chunk c
    holds blocks ``c * EXTREMAL_CHUNK_BLOCKS`` onward, at most
    ``EXTREMAL_CHUNK_BLOCKS`` of them.  Raises ``ValueError`` for an
    ``n_max`` below 2 or a negative trial or sample count."""
    n_max, trials, samples = int(n_max), int(trials), int(samples)
    if n_max < 2:
        raise ValueError(f"the extremal targets sample n >= 2, got a maximum of {n_max}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    size = max(1, BLOCK_ENTRIES // (n_max * n_max))
    return range(-(-trials // (size * EXTREMAL_CHUNK_BLOCKS)))


def _extremal_gaps(target: str, n_max: int, trials: int, s, samples: int) -> np.ndarray:
    """The gap of every trial of one extremal target, in trial order: the
    gaps of its chunks (:func:`_extremal_chunk_gaps`), one after another."""
    stream = _as_stream(s)
    return np.concatenate([np.empty(0)] + [
        _extremal_chunk_gaps(target, n_max, trials, stream, samples, chunk)
        for chunk in _extremal_chunks(n_max, trials, samples)])


def _extremal_chunk_gaps(target: str, n_max: int, trials: int, s, samples: int,
                         chunk: int) -> np.ndarray:
    """The gaps of the trials of chunk ``chunk`` of one extremal target, in trial order.

    Block j of ``max(1, BLOCK_ENTRIES // n_max**2)`` trials is drawn from
    ``stream.offset(j).generator()`` by :func:`_draw_extremal`, then, for
    ``matrix``, once per sample index, each trial's family ``g.integers(k)``
    and one flat draw of the 4 n**2 normals of each trial's two Haar
    factors, trial after trial.  The gaps are those of
    :func:`~kyfan.ensembles.support_function_gap`,
    :func:`~kyfan.ensembles.matrix_ball_support_gap` and the trace bound at
    :func:`von_neumann_equality_witness`, scored on stacks of the chunk's
    trials that share n.  A chunk opens only its own blocks' streams, so
    its gaps do not depend on which chunks are scored before it, or where.
    """
    chunks = _extremal_chunks(n_max, trials, samples)
    if chunk not in chunks:
        raise ValueError(f"chunk {chunk} is not one of the section's {len(chunks)} chunks")
    n_max, trials, samples = int(n_max), int(trials), int(samples)
    stream = _as_stream(s)
    size = max(1, BLOCK_ENTRIES // (n_max * n_max))
    first = chunk * EXTREMAL_CHUNK_BLOCKS
    # a block draws all its trials even where the run ends inside it, so
    # trial t's inputs depend on neither the trial nor the sample count
    generators = [stream.offset(b).generator()
                  for b in range(first, min(-(-trials // size), first + EXTREMAL_CHUNK_BLOCKS))]
    draws = [_draw_extremal(target, n_max, size, g) for g in generators]
    # per sample index, each block draws the 4 n**2 Haar normals of all its trials
    sampling = [(g, k, 4 * int((n * n).sum())) for g, (n, k, _, _) in zip(generators, draws)]
    n, k, ws, normals = (None if column[0] is None else np.concatenate(column)
                         for column in zip(*draws))
    del draws
    n = n[:trials - first * size]
    out = np.empty(len(n))
    if target == "vector":
        # name the first over-budget trial before any is scored
        _check_enumeration_budgets(n, k[:len(n)])
    per_trial = n if target == "vector" else 2 * n * n
    starts = np.cumsum(per_trial) - per_trial
    groups = [(dim, np.flatnonzero(n == dim)) for dim in sorted(set(n.tolist()))]
    if target == "vector":
        for dim, idx in groups:
            out[idx] = _support_gaps(_gather(normals, starts[idx], (dim,)),
                                     ws[idx, :dim], k[idx])
        return out
    mats = [_ginibre(_gather(normals, starts[idx], (2, dim, dim))) for dim, idx in groups]
    del normals  # the stacks hold what the trials use of it
    if target == "equality":
        for (_, idx), b in zip(groups, mats):
            out[idx] = _equality_gaps(b)
        return out
    aligned = []
    for (dim, idx), c in zip(groups, mats):
        out[idx], best = _aligned_gaps(c, ws[idx, :dim], k[idx])
        aligned.append(best)
    for _ in range(samples):
        picks, haar = zip(*((g.integers(block_k), g.standard_normal(entries))
                            for g, block_k, entries in sampling))
        picks, haar = np.concatenate(picks), np.concatenate(haar)
        for (dim, idx), c, best in zip(groups, mats, aligned):
            # a trial's Haar normals start at twice the offset of its normals of C
            values = _sampled_values(c, ws[idx, :dim], k[idx], picks[idx],
                                     _gather(haar, 2 * starts[idx], (2, 2, dim, dim)))
            out[idx] = np.maximum(out[idx], values - best)
    return out
