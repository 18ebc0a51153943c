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
of ``B_n = max(1, BLOCK_ENTRIES // n**2)`` trials, ``BLOCK_ENTRIES = 4096``
(declared in :mod:`kyfan.ensembles`, which both block engines read).
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
``base + ceil(T / B_n) - 1``.  The ``extremal`` engine,
:mod:`kyfan.extremal`, also draws block j from stream ``base + j``, by calls
of its own; the ``ptrace`` loops and the searches keep one stream per trial
or restart, and a search restart draws its proposals in blocks of its own
(see :mod:`kyfan.ptrace`).

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
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .ensembles import BLOCK_ENTRIES, GENERATOR_ID, _as_stream, _contraction, _ginibre, _subunit
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
from .norms import INEQUALITY_TOL, _violated, residual_vanishes
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
