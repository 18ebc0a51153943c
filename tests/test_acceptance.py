"""Acceptance gate: eight end-to-end criteria, one test and one printed
PASS/FAIL line each.

The printed lines bypass pytest capture so the verdicts always reach the
terminal; every line states the measured quantity next to its threshold.
All randomness is drawn from ACCEPTANCE_SEED through per-criterion stream
sections, so the whole gate is reproducible bit for bit.
"""

import functools
import operator

import numpy as np

import extremal_reference as reference
from kyfan import cli
from kyfan.ensembles import (
    SeededStream,
    commuting_hermitian_pair,
    ginibre,
    random_hermitian,
    support_function_gap,
)
from kyfan.extremal import _extremal_gaps
from kyfan.forms import fan_product, phi, psi
from kyfan.matrixcore import kronecker, partial_trace_first, singular_values
from kyfan.ptrace import lhs_operator, lhs_operator_brute, question_margins_all_k, search_counterexample
from kyfan.reports import check_report_document, report_body_bytes, run_document
from kyfan.suite import (
    FAMILIES,
    _check_section,
    check_hadamard_family,
    reproduce_fan_counterexample,
    von_neumann_equality_witness,
)

ACCEPTANCE_SEED = 314159
SECTION = 2**30  # per-criterion stream spacing
STRIDE = 2**24  # per-run spacing inside a criterion

RT13_3 = np.sqrt(13.0) / 3.0


def _announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _per_trial_extremal_gaps(target, base, trials):
    """The first trials' gaps, each drawn from the stream contract v5 text and scored alone.

    A vector trial is scored by the public ``support_function_gap``.  A
    matrix trial's samples come from its block's stacked draws, which the
    public ``matrix_ball_support_gap`` cannot take, so it is scored by the
    reference's spelled-out form of that function.
    """
    gaps = []
    for _, w, x, draws in reference.trial_draws(target, base, 8, trials, 2):
        if target == "vector":
            gaps.append(support_function_gap(x, w))
        else:
            gaps.append(reference.matrix_gap(reference.ginibre(x), w, draws))
    return np.array(gaps)


def test_criterion_1_support_function_extreme_points(capsys):
    # the extremal engine draws blocks of trials and scores stacks; its gaps
    # are those of trial-by-trial scoring to the bit
    vec_base = SeededStream(ACCEPTANCE_SEED, 1 * SECTION)
    mat_base = SeededStream(ACCEPTANCE_SEED, 1 * SECTION + STRIDE)
    vec_gaps = _extremal_gaps("vector", 8, 100_000, vec_base, 2)
    mat_gaps = _extremal_gaps("matrix", 8, 10_000, mat_base, 2)
    for target, base, gaps in (("vector", vec_base, vec_gaps), ("matrix", mat_base, mat_gaps)):
        assert np.array_equal(gaps[:1000], _per_trial_extremal_gaps(target, base, 1000)), target
    worst_vec = float(vec_gaps.max())
    worst_mat = float(mat_gaps.max())
    ok = worst_vec <= 1e-10 and worst_mat <= 1e-10
    detail = (
        f"vector gap {worst_vec:.3e} (1e5 trials), "
        f"matrix gap {worst_mat:.3e} (1e4 trials), threshold 1e-10"
    )
    _announce(capsys, 1, ok, detail)
    assert ok, detail


def test_criterion_2_theorem_suites_zero_violations(capsys):
    # the nine theorem checkers through the check dispatch and the runner that
    # `kyfan check` uses, one section per (checker, n) on its own stream base
    names = ("von-neumann", "product-family", "hadamard-family", "ahj-given", "ahj-sqrt",
             "lemma31", "lemma32", "hmn-hadamard", "hmn-fan")
    trials = 10_000
    tolerance = 1e-8
    cells = [(name, n) for name in names for n in range(2, 9)]
    reports, _, _ = cli._run([
        (SeededStream(ACCEPTANCE_SEED, 2 * SECTION + section * STRIDE),
         (functools.partial(_check_section, FAMILIES[name], n, trials, tolerance=tolerance),),
         operator.itemgetter(0))
        for section, (name, n) in enumerate(cells)])
    violations = 0
    worst = -np.inf
    worst_at = ""
    for (name, n), report in zip(cells, reports):
        violations += report.violations
        if report.worst_margin > worst:
            worst = report.worst_margin
            worst_at = f"{name} n={n}"
    ok = violations == 0
    detail = (
        f"{violations} violations over 9 checkers x n=2..8 x {trials} trials "
        f"at tolerance {tolerance:.0e}; worst margin {worst:.3e} ({worst_at})"
    )
    _announce(capsys, 2, ok, detail)
    assert ok, detail


def test_criterion_3_exact_counterexample(capsys):
    witness = reproduce_fan_counterexample()
    spectrum = singular_values(witness.matrices["product"])
    s = witness.matrices["S"]
    unitary_residual = float(np.linalg.norm(s.conj().T @ s - np.eye(3)))
    expected = np.array([RT13_3, RT13_3, 1.0 / 3.0])
    checks = {
        "sigma1": abs(spectrum[0] - RT13_3) <= 1e-9,
        "spectrum": bool(np.all(np.abs(spectrum - expected) <= 1e-9)),
        "unitarity": unitary_residual <= 1e-12,
        "margin": abs(witness.margin - (RT13_3 - 1.0)) <= 1e-9,
    }
    ok = all(checks.values())
    detail = (
        f"sigma1 err {abs(spectrum[0] - RT13_3):.2e}, spectrum err "
        f"{np.abs(spectrum - expected).max():.2e}, unitary residual "
        f"{unitary_residual:.2e}, margin err {abs(witness.margin - (RT13_3 - 1.0)):.2e}"
    )
    _announce(capsys, 3, ok, detail)
    assert ok, detail


def test_criterion_4_factorization_and_contractivity(capsys):
    base = SeededStream(ACCEPTANCE_SEED, 4 * SECTION)
    worst_residual = 0.0
    worst_phi = -np.inf
    worst_psi = -np.inf
    for t in range(10_000):
        g = base.offset(t).generator()
        n = int(g.integers(2, 9))
        a, b = ginibre(n, g), ginibre(n, g)
        residual = np.linalg.norm(phi(a) @ psi(b) - fan_product(a, b))
        bound = 1e-12 * (1.0 + np.linalg.norm(a) * np.linalg.norm(b))
        worst_residual = max(worst_residual, residual / bound)
        worst_phi = max(worst_phi, singular_values(phi(a))[0] - singular_values(a)[0])
        worst_psi = max(worst_psi, singular_values(psi(b))[0] - singular_values(b)[0])
    ok = worst_residual <= 1.0 and worst_phi <= 1e-10 and worst_psi <= 1e-10
    detail = (
        f"max scaled residual {worst_residual:.3e} (<=1), "
        f"max sigma1 excess phi {worst_phi:.3e}, psi {worst_psi:.3e} (<=1e-10), 1e4 pairs"
    )
    _announce(capsys, 4, ok, detail)
    assert ok, detail


def test_criterion_5_partial_trace_identities(capsys):
    base = SeededStream(ACCEPTANCE_SEED, 5 * SECTION)
    worst_closed = 0.0
    worst_kron = 0.0
    for t in range(10_000):
        g = base.offset(t).generator()
        n = int(g.integers(2, 7))
        a, b = random_hermitian(n, g), random_hermitian(n, g)
        closed = lhs_operator(a, b, cross_check=False)
        worst_closed = max(
            worst_closed, float(np.linalg.norm(lhs_operator_brute(a, b) - closed))
        )
        worst_kron = max(
            worst_kron,
            float(np.linalg.norm(partial_trace_first(kronecker(a, b), n) - np.trace(a) * b)),
        )
    ok = worst_closed <= 1e-10 and worst_kron <= 1e-10
    detail = (
        f"closed-vs-brute residual {worst_closed:.3e}, kron-trace residual "
        f"{worst_kron:.3e} over 1e4 pairs, threshold 1e-10"
    )
    _announce(capsys, 5, ok, detail)
    assert ok, detail


def test_criterion_6_commuting_regression(capsys):
    base = SeededStream(ACCEPTANCE_SEED, 6 * SECTION)
    worst = -np.inf
    for t in range(1_000):
        g = base.offset(t).generator()
        n = int(g.integers(2, 7))
        a, b = commuting_hermitian_pair(n, g)
        for question in (1, 2):
            worst = max(worst, float(question_margins_all_k(a, b, question).max()))
    ok = worst <= 1e-8
    detail = f"worst margin {worst:.3e} over 1e3 commuting pairs, both questions, all k (<=1e-8)"
    _announce(capsys, 6, ok, detail)
    assert ok, detail


def test_criterion_7_deterministic_report_bodies(capsys):
    def build():
        report = check_hadamard_family(5, 2_000, SeededStream(ACCEPTANCE_SEED, 7 * SECTION))
        search = search_counterexample(
            1, 3, budget=200, restarts=2, s=SeededStream(ACCEPTANCE_SEED, 7 * SECTION + STRIDE)
        )
        return run_document(
            "check",
            config={"seed": ACCEPTANCE_SEED},
            results=[
                check_report_document(report),
                {"target": "search", "best_margin": search.best_margin,
                 "evaluations": search.evaluations},
            ],
            violations_total=report.violations,
            exit_status=0,
            elapsed_seconds=float(np.random.random()),  # wall time: must not matter
        )

    first, second = report_body_bytes(build()), report_body_bytes(build())
    ok = first == second
    detail = f"two identically seeded runs, body bytes {'identical' if ok else 'DIFFER'} ({len(first)} bytes)"
    _announce(capsys, 7, ok, detail)
    assert ok, detail


def test_criterion_8_rank_one_equality(capsys):
    base = SeededStream(ACCEPTANCE_SEED, 8 * SECTION)
    worst = 0.0
    for t in range(1_000):
        g = base.offset(t).generator()
        n = int(g.integers(2, 9))
        b = ginibre(n, g)
        a = von_neumann_equality_witness(b)
        worst = max(worst, abs(abs(np.trace(a @ b)) - singular_values(b)[0]))
    ok = worst <= 1e-10
    detail = f"worst |trace - sigma1| {worst:.3e} over 1e3 rank-one constructions (<=1e-10)"
    _announce(capsys, 8, ok, detail)
    assert ok, detail
