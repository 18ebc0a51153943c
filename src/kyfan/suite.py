"""Randomized inequality checkers with replayable reports.

Each checker draws seeded trials, evaluates one inequality family at every
requested k, and aggregates violations under the repo tolerance policy:
a trial violates when lhs - rhs > tol * max(1, rhs).  Margins are lhs - rhs,
so positive beyond tolerance means "violated".  The worst trial is kept as a
:class:`Witness` whose matrices re-evaluate to the recorded margin.

Checker ids double as report ids: von-neumann, product-family,
hadamard-family, ahj-given, ahj-sqrt, lemma31, lemma32, hmn-<mask>,
fan-sigma1.

Trial engine
------------
Trial t of a run opens ``stream.offset(t).generator()`` and draws the same
variates from it, in the same order, as the one-matrix samplers (stream
contract v1); where those drew adjacent blocks of normals in two calls, one
call of the joint shape draws the same numbers.  Everything after the
draws runs on stacks: a chunk of trials is stacked into ``(T, n, n)`` arrays
that are transformed, evaluated and scored together.  A chunk holds at most
``CHUNK_ENTRIES`` complex entries per operand, ``max(1, CHUNK_ENTRIES //
n**2)`` trials, so memory stays flat at large n.  The ``_parts_*``
evaluators take one trial's matrices or a stack.

Stacking changes no report byte.  Measured on numpy 2.4.6 with OpenBLAS
0.3.31, the bit-exactness rules are:

- stacked ``svd``, ``qr``, ``matmul``, ``trace(axis1=-2, axis2=-1)`` and
  axis norms give the same bits as per-matrix calls, as do elementwise
  arithmetic and ``cumsum``/``sum``/``sort`` over the last axis;
- array ``np.abs`` of complex128 does not give the bits of scalar ``abs()``:
  it differs in the last bit for about 35 % of inputs.  ``von-neumann``
  therefore takes each trial's ``abs(trace)`` as a scalar;
- 1-D BLAS reductions stay per trial: ``np.dot`` of the spectra in
  ``von-neumann`` and the norm of each unit vector that ``lemma32`` draws.

Aggregation is that of a trial-by-trial loop: a violation is
``margin > tol * max(1, rhs)``; only the ``k_values`` are scored; the worst
margin is the first strict maximum in trial order, then k order; extra
trials are scored after the drawn ones.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ensembles import (
    GENERATOR_ID,
    SeededStream,
    _contraction,
    _contraction_draw,
    _gaussian,
    _ginibre,
    _subunit,
    _subunit_draw,
    _unit_columns,
    random_unit_vector,
)
from .forms import EntrywiseForm, apply_form, fan_product, right_adjoint_apply
from .matrixcore import (
    _adjoint,
    as_matrix,
    column_norms,
    factor_sqrt,
    singular_values,
    svd,
)
from .norms import INEQUALITY_TOL

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
    "PARTS_BY_ID",
]

#: most complex entries in one stacked (T, n, n) operand of a trial chunk
CHUNK_ENTRIES = 4096


@dataclass(frozen=True, eq=False)
class Witness:
    """Inputs of one trial plus the k and margin they produced."""

    matrices: dict
    k: int
    margin: float


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


def _as_stream(s) -> SeededStream:
    if isinstance(s, SeededStream):
        return s
    if isinstance(s, (int, np.integer)) and not isinstance(s, bool):
        return SeededStream(int(s))
    raise TypeError("checker seeds must be a SeededStream or an int master seed")


def _run_checker(
    inequality_id: str,
    n: int,
    trials: int,
    s,
    draw,
    build,
    parts,
    *,
    tolerance: float = INEQUALITY_TOL,
    k_values=None,
    shared=None,
    extra_trials=(),
    observe=None,
) -> CheckReport:
    """Run ``trials`` seeded trials plus ``extra_trials`` through the chunked engine.

    ``draw(n, g)`` is one trial's RNG step and returns a tuple of arrays;
    ``build`` maps the stacked tuple to a dict of ``(T, ...)`` matrix stacks;
    ``parts`` evaluates such a dict to ``(ks, lhs, rhs)`` with lhs and rhs of
    shape ``(T, len(ks))``.  ``shared`` entries (a form's mask) are the same
    for every trial: they join each chunk and each witness unstacked.
    ``observe(mats, lhs, rhs)`` sees every scored chunk before the k filter.
    """
    n = int(n)
    trials = int(trials)
    if n < 1:
        raise ValueError("n must be positive")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    stream = _as_stream(s)
    k_filter = None if k_values is None else {int(k) for k in k_values}
    shared = dict(shared or {})
    extras = [dict(mats) for mats in extra_trials]
    t0 = time.perf_counter()

    violations = 0
    worst = -math.inf
    worst_k = 0
    worst_mats = None
    per_k: dict[int, float] = {}

    def score(stacked, extra=None):
        """Score one chunk; ``extra`` is the caller's dict for an extra trial."""
        nonlocal violations, worst, worst_k, worst_mats
        mats = dict(stacked, **shared)
        ks, lhs, rhs = parts(mats)
        if observe is not None:
            observe(mats, lhs, rhs)
        ks = [int(k) for k in ks]
        cols = [j for j, k in enumerate(ks) if k_filter is None or k in k_filter]
        if not cols:
            return
        rhs = rhs[:, cols]
        margins = lhs[:, cols] - rhs
        violations += int(np.count_nonzero(margins > tolerance * np.maximum(1.0, rhs)))
        for j, top in zip(cols, margins.max(axis=0)):
            if ks[j] not in per_k or top > per_k[ks[j]]:
                per_k[ks[j]] = float(top)
        first = int(np.argmax(margins))  # row-major: trial order, then k order
        if margins.flat[first] > worst:
            trial, j = divmod(first, len(cols))
            if extra is None:
                extra = {name: m[trial].copy() for name, m in stacked.items()}
            worst, worst_k = float(margins.flat[first]), ks[cols[j]]
            worst_mats = dict(extra, **shared)

    chunk = max(1, CHUNK_ENTRIES // (n * n))
    for start in range(0, trials, chunk):
        stop = min(trials, start + chunk)
        draws = [draw(n, stream.offset(t).generator()) for t in range(start, stop)]
        score(build(*(np.stack(column) for column in zip(*draws))))
    for extra in extras:
        score({name: as_matrix(m, name=name)[None]
               for name, m in extra.items() if name not in shared}, extra)

    witness = None
    if worst_mats is not None:
        witness = Witness(matrices=worst_mats, k=worst_k, margin=worst)
    return CheckReport(
        inequality_id=inequality_id,
        n=n,
        k_range=tuple(sorted(per_k)),
        trials=trials + len(extras),
        violations=violations,
        worst_margin=worst,
        tolerance=float(tolerance),
        master_seed=stream.master_seed,
        elapsed_seconds=time.perf_counter() - t0,
        per_k_worst=dict(sorted(per_k.items())),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# trial draws: RNG steps (one trial) and their stacked transforms
# ---------------------------------------------------------------------------


def _draw_two(n, g):
    return _gaussian(n, g), _gaussian(n, g)


def _ginibre_pair(wa, wb):
    return {"A": _ginibre(wa), "B": _ginibre(wb)}


def _draw_three(n, g):
    return _gaussian(n, g), _gaussian(n, g), _gaussian(n, g)


def _ahj_given(wx, wy, wb):
    return {"X": _ginibre(wx), "Y": _ginibre(wy), "B": _ginibre(wb)}


def _ahj_sqrt(wa, wb):
    x, y = factor_sqrt(_ginibre(wa))
    return {"X": x, "Y": y, "B": _ginibre(wb)}


def _draw_lemma31(n, g):
    return (*_subunit_draw(n, g), *_subunit_draw(n, g), *_contraction_draw(n, g))


def _lemma31_inputs(wx, lx, wy, ly, wu, wv, t):
    return {"X": _subunit(wx, lx), "Y": _subunit(wy, ly), "S": _contraction(wu, wv, t)}


def _draw_lemma32(n, g):
    return (_unit_columns(n, n, g), _unit_columns(n, n, g),
            random_unit_vector(n, g), random_unit_vector(n, g))


def _lemma32_inputs(x, y, u, v):
    return {"X": x, "Y": y, "u": u[..., None], "v": v[..., None]}


def _draw_contractions(n, g):
    return (*_contraction_draw(n, g), *_contraction_draw(n, g))


def _contraction_pair(wua, wva, ta, wub, wvb, tb):
    return {"A": _contraction(wua, wva, ta), "B": _contraction(wub, wvb, tb)}


# ---------------------------------------------------------------------------
# per-family evaluation (shared by checkers and witness re-evaluation); each
# takes one trial's matrices or (T, ...) stacks and returns lhs, rhs of shape
# (..., len(ks))
# ---------------------------------------------------------------------------


def _parts_von_neumann(mats):
    a, b = mats["A"], mats["B"]
    traces = np.trace(a @ b, axis1=-2, axis2=-1)
    sa, sb = singular_values(a), singular_values(b)
    # scalar abs and 1-D BLAS dots, trial by trial: the array forms change last bits
    lhs = [abs(t) for t in np.ravel(traces)]
    rhs = [float(np.dot(x, y)) for x, y in zip(sa.reshape(-1, sa.shape[-1]),
                                               sb.reshape(-1, sb.shape[-1]))]
    shape = np.shape(traces) + (1,)
    return (a.shape[-1],), np.reshape(lhs, shape), np.reshape(rhs, shape)


def _parts_product_family(mats):
    a, b = mats["A"], mats["B"]
    lhs = np.cumsum(singular_values(a @ b), axis=-1)
    rhs = np.cumsum(singular_values(a) * singular_values(b), axis=-1)
    return range(1, a.shape[-1] + 1), lhs, rhs


def _parts_hadamard_family(mats):
    a, b = mats["A"], mats["B"]
    lhs = np.cumsum(singular_values(a * b), axis=-1)
    rhs = np.cumsum(singular_values(a) * singular_values(b), axis=-1)
    return range(1, a.shape[-1] + 1), lhs, rhs


def _parts_ahj(mats):
    x, y, b = mats["X"], mats["Y"], mats["B"]
    lhs = np.cumsum(singular_values((_adjoint(x) @ y) * b), axis=-1)
    rhs = np.cumsum(column_norms(x) * column_norms(y) * singular_values(b), axis=-1)
    return range(1, b.shape[-1] + 1), lhs, rhs


def _parts_lemma31(mats):
    form = EntrywiseForm(mats["mask"])
    x, y, s = mats["X"], mats["Y"], mats["S"]
    lhs = singular_values(apply_form(form, _adjoint(x) @ y, s))[..., :1]
    return (1,), lhs, np.ones_like(lhs)


def _parts_lemma32(mats):
    x, y = mats["X"], mats["Y"]
    vectors = np.shape(x)[:-1]  # one length-n vector per trial
    u = np.reshape(mats["u"], vectors)
    v = np.reshape(mats["v"], vectors)
    q = u[..., :, None] * np.conj(v)[..., None, :]
    lhs = singular_values((_adjoint(x) @ y) * q).sum(axis=-1)[..., None]
    return (1,), lhs, np.ones_like(lhs)


def _parts_hmn(mats):
    form = EntrywiseForm(mats["mask"])
    a, b = mats["A"], mats["B"]
    lhs = np.cumsum(singular_values(apply_form(form, a, b)), axis=-1)
    rhs = np.cumsum(singular_values(a) * singular_values(b), axis=-1)
    return range(1, a.shape[-1] + 1), lhs, rhs


def _parts_fan_sigma1(mats):
    a, b = mats["A"], mats["B"]
    lhs = np.maximum(
        singular_values(fan_product(a, b))[..., :1],
        singular_values(fan_product(np.swapaxes(a, -1, -2), b))[..., :1],
    )
    rhs = singular_values(a)[..., :1] * singular_values(b)[..., :1]
    return (1,), lhs, rhs


PARTS_BY_ID = {
    "von-neumann": _parts_von_neumann,
    "product-family": _parts_product_family,
    "hadamard-family": _parts_hadamard_family,
    "ahj-given": _parts_ahj,
    "ahj-sqrt": _parts_ahj,
    "lemma31": _parts_lemma31,
    "lemma31-fan": _parts_lemma31,
    "lemma32": _parts_lemma32,
    "hmn-hadamard": _parts_hmn,
    "hmn-fan": _parts_hmn,
    "hmn-masked": _parts_hmn,
    "fan-sigma1": _parts_fan_sigma1,
}


def reevaluate_margin(inequality_id: str, witness: Witness) -> float:
    """Recompute a stored witness's margin from its matrices."""
    parts = PARTS_BY_ID[inequality_id]
    ks, lhs, rhs = parts(witness.matrices)
    for i, k in enumerate(ks):
        if int(k) == witness.k:
            return float(lhs[i]) - float(rhs[i])
    raise ValueError(f"witness k={witness.k} not produced by {inequality_id}")


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_von_neumann(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """|tr(AB)| <= sum_i sigma_i(A) sigma_i(B) on complex Gaussian pairs."""
    return _run_checker(
        "von-neumann", n, trials, s, _draw_two, _ginibre_pair, _parts_von_neumann,
        tolerance=tolerance, k_values=k_values,
    )


def check_product_family(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """sum_{i<=k} sigma_i(AB) <= sum_{i<=k} sigma_i(A) sigma_i(B), every k."""
    return _run_checker(
        "product-family", n, trials, s, _draw_two, _ginibre_pair, _parts_product_family,
        tolerance=tolerance, k_values=k_values,
    )


def check_hadamard_family(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """sum_{i<=k} sigma_i(A o B) <= sum_{i<=k} sigma_i(A) sigma_i(B), every k."""
    return _run_checker(
        "hadamard-family", n, trials, s, _draw_two, _ginibre_pair, _parts_hadamard_family,
        tolerance=tolerance, k_values=k_values,
    )


def check_ahj(n, trials, s, factorization="given", *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """sum_{i<=k} sigma_i(X*Y o B) <= sum_{i<=k} c_i(X) c_i(Y) sigma_i(B).

    factorization="given" samples X, Y, B independently; "sqrt" samples a
    single A, splits it into balanced factors X* Y = A, and tests the same
    bound for that induced factorization.
    """
    if factorization not in ("given", "sqrt"):
        raise ValueError(f"unknown factorization {factorization!r}")
    draw, build = (_draw_three, _ahj_given) if factorization == "given" else (_draw_two, _ahj_sqrt)
    return _run_checker(
        f"ahj-{factorization}", n, trials, s, draw, build, _parts_ahj,
        tolerance=tolerance, k_values=k_values,
    )


def check_lemma31(form: EntrywiseForm, n, trials, s, *, tolerance=INEQUALITY_TOL,
                  k_values=None, extra_trials=()) -> CheckReport:
    """sigma_1((X*Y) . S) <= 1 for subunit-column X, Y and a contraction S.

    A theorem for the all-ones mask; for the diagonal-negated mask explicit
    violations exist, and deterministic inputs (e.g. the known 3x3 violating
    triple) can be appended through ``extra_trials`` as {"X","Y","S"} dicts.
    """
    if int(n) != form.n:
        raise ValueError(f"form is {form.n} x {form.n} but n={n}")
    ineq_id = "lemma31" if form.name == "hadamard" else f"lemma31-{form.name}"
    return _run_checker(
        ineq_id, n, trials, s, _draw_lemma31, _lemma31_inputs, _parts_lemma31,
        tolerance=tolerance, k_values=k_values, shared={"mask": form.mask},
        extra_trials=extra_trials,
    )


def check_lemma32(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """trace norm of (X*Y) o (u v*) <= 1 for unit-column X, Y and unit u, v."""
    return _run_checker(
        "lemma32", n, trials, s, _draw_lemma32, _lemma32_inputs, _parts_lemma32,
        tolerance=tolerance, k_values=k_values,
    )


def check_hmn(form: EntrywiseForm, n, trials, s, *, tolerance=INEQUALITY_TOL,
              k_values=None, extra_trials=()) -> CheckReport:
    """Two-phase check of the masked-product norm transfer.

    Hypothesis probe: over the sampled pairs, record the largest ratios
    sigma_1(A . B) / (sigma_1(A) sigma_1(B)) and the same for the adjoint
    form B^T . C.  Conclusion: for every k,
    sum_{i<=k} sigma_i(A . B) <= sum_{i<=k} sigma_i(A) sigma_i(B).
    The report's details flag whether the observations are consistent with
    "ratios stay <= 1 exactly when the family holds" — observed, not proved.
    """
    if int(n) != form.n:
        raise ValueError(f"form is {form.n} x {form.n} but n={n}")
    hyp = {"max_sigma1_ratio": 0.0, "max_adjoint_sigma1_ratio": 0.0}

    def observe(mats, lhs, rhs):
        # the k = 1 parts are sigma_1(A . B) and sigma_1(A) sigma_1(B): reuse them
        denom = rhs[:, 0]
        probed = ~(denom < 1e-12)
        if not probed.any():
            return
        denom = denom[probed]
        fwd = lhs[probed, 0] / denom
        adjoint = right_adjoint_apply(form, mats["A"][probed], mats["B"][probed])
        adj = singular_values(adjoint)[:, 0] / denom
        hyp["max_sigma1_ratio"] = max(hyp["max_sigma1_ratio"], float(fwd.max()))
        hyp["max_adjoint_sigma1_ratio"] = max(hyp["max_adjoint_sigma1_ratio"], float(adj.max()))

    report = _run_checker(
        f"hmn-{form.name}", n, trials, s, _draw_contractions, _contraction_pair, _parts_hmn,
        tolerance=tolerance, k_values=k_values, shared={"mask": form.mask},
        extra_trials=extra_trials, observe=observe,
    )
    hypothesis_ok = (
        hyp["max_sigma1_ratio"] <= 1.0 + tolerance
        and hyp["max_adjoint_sigma1_ratio"] <= 1.0 + tolerance
    )
    details = dict(hyp)
    details["hypothesis_ok"] = hypothesis_ok
    details["hypothesis_status"] = (
        "no violation observed" if hypothesis_ok else "violation observed"
    )
    details["consistent_with_iff"] = hypothesis_ok == (report.violations == 0)
    return dataclasses.replace(report, details=details)


def check_fan_sigma1(n, trials, s, *, tolerance=INEQUALITY_TOL, k_values=None) -> CheckReport:
    """Top singular value of the diagonal-negated product stays below
    sigma_1(A) sigma_1(B), applied both to (A, B) and to (A^T, B)."""
    return _run_checker(
        "fan-sigma1", n, trials, s, _draw_two, _ginibre_pair, _parts_fan_sigma1,
        tolerance=tolerance, k_values=k_values,
    )


# ---------------------------------------------------------------------------
# exact constructions
# ---------------------------------------------------------------------------


def counterexample_inputs() -> dict:
    """The fixed 3x3 violating triple: X = Y with all columns (1,1,1)/sqrt(3),
    and a rational unitary S whose diagonal-negated product with X*Y has top
    singular value sqrt(13)/3 > 1."""
    x = np.full((3, 3), 1.0 / np.sqrt(3.0), dtype=np.complex128)
    s = np.array([[2, 1, 2], [-2, 2, 1], [1, 2, -2]], dtype=np.complex128) / 3.0
    return {"X": x, "Y": x.copy(), "S": s}


def reproduce_fan_counterexample(*, unitary_tol: float = 1e-12) -> Witness:
    """Reproduce the explicit contraction-norm violation for the
    diagonal-negated product.

    Builds the fixed triple from :func:`counterexample_inputs`, verifies S is
    unitary to ``unitary_tol``, forms the diagonal-negated product of X*Y
    (an all-ones matrix) with S, and returns a witness whose margin is the
    k = 1 excess sigma_1(product) - c_1(X) c_1(Y) sigma_1(S), i.e.
    sigma_1 - 1.  Raises if the construction unexpectedly fails to violate.
    """
    mats = counterexample_inputs()
    x, s = mats["X"], mats["S"]
    unitary_residual = float(np.linalg.norm(s.conj().T @ s - np.eye(3)))
    if unitary_residual > unitary_tol:
        raise ArithmeticError(f"S is not unitary: residual {unitary_residual}")
    gram = x.conj().T @ mats["Y"]
    product = fan_product(gram, s)
    top = float(singular_values(product)[0])
    rhs = float(column_norms(x)[0] * column_norms(mats["Y"])[0] * singular_values(s)[0])
    margin = top - rhs
    if margin <= 0:
        raise ArithmeticError("expected a violation, found none")
    matrices = dict(mats, product=product)
    return Witness(matrices=matrices, k=1, margin=margin)


def von_neumann_equality_witness(b) -> np.ndarray:
    """Rank-one A built from B's top singular pair with |tr(AB)| = sigma_1(B).

    A = v1 u1* has singular values (1, 0, ..., 0) and tr(AB) = u1* B v1
    = sigma_1(B), so the trace bound is attained exactly.
    """
    u, _, v = svd(b)
    return np.outer(v[:, 0], u[:, 0].conj())
