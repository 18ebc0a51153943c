"""The extremal targets against a trial-by-trial reference loop.

``_reference_gaps`` is a copy of the per-trial loop that ``kyfan extremal``
ran before its trials were scored in stacks, with the gap formulas of
``support_function_gap``, ``matrix_ball_support_gap`` and
``von_neumann_equality_witness`` inlined as they were then.  Every gap the
command reports must equal the loop's bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from kyfan.cli import STREAM_STRIDE, _execute_extremal, parse_arguments
from kyfan.ensembles import (
    BudgetError,
    SeededStream,
    _sign_matrix,
    _support_gaps,
    ginibre,
    matrix_ball_support_gap,
    random_weight,
    sample_partial_isometry,
    sign_vectors,
    support_function_gap,
)
from kyfan.matrixcore import singular_values, svd
from kyfan.norms import Weight, dual_weighted_vector_k_norm
from kyfan.suite import _extremal_gaps, von_neumann_equality_witness

TARGETS = ("vector", "matrix", "equality")
SEED = 7

# every n_max and sample count at 1 and 20 trials, plus two runs that span
# several trial chunks
CONFIGS = [(n_max, samples, trials)
           for n_max in range(2, 9) for samples in (0, 1, 3) for trials in (1, 20)]
CONFIGS += [(2, 1, 1100), (8, 3, 150)]


def _vector_gap(c, w):
    n = c.size
    ws = w.prefix_sums()
    best = float((sign_vectors(n, n) @ c).max()) / ws[w.k - 1]
    for j in range(1, w.k):
        best = max(best, float((sign_vectors(n, j) @ c).max()) / ws[j - 1])
    return abs(best - dual_weighted_vector_k_norm(c, w))


def _matrix_gap(m, w, samples, g):
    n = m.shape[0]
    u, sig, v = svd(m)
    ws = w.prefix_sums()
    groups = [(j, ws[j - 1]) for j in range(1, w.k)] + [(n, ws[w.k - 1])]
    aligned = -np.inf
    for j, scale in groups:
        x = (u[:, :j] @ v[:, :j].conj().T) / scale
        aligned = max(aligned, float(np.real(np.vdot(m, x))))
    gap = abs(aligned - dual_weighted_vector_k_norm(sig, w))
    excess = 0.0
    for _ in range(samples):
        j, scale = groups[g.integers(len(groups))]
        q = sample_partial_isometry(n, j, g) / scale
        excess = max(excess, float(np.real(np.vdot(m, q))) - aligned)
    return float(max(gap, excess))


def _equality_gap(b):
    u, _, v = svd(b)
    a = np.outer(v[:, 0], u[:, 0].conj())
    return abs(abs(np.trace(a @ b)) - singular_values(b)[0])


def _reference_gaps(target, n_max, trials, samples, seed=SEED):
    base = SeededStream(seed, TARGETS.index(target) * STREAM_STRIDE)
    gaps = []
    for t in range(trials):
        g = base.offset(t).generator()
        n = int(g.integers(2, n_max + 1))
        if target == "vector":
            w = random_weight(n, int(g.integers(1, n + 1)), g)
            gaps.append(_vector_gap(g.standard_normal(n), w))
        elif target == "matrix":
            w = random_weight(n, int(g.integers(1, n + 1)), g)
            gaps.append(_matrix_gap(ginibre(n, g), w, samples, g))
        else:
            gaps.append(_equality_gap(ginibre(n, g)))
    return np.array(gaps, dtype=np.float64)


@pytest.mark.parametrize("n_max, samples, trials", CONFIGS)
def test_report_matches_the_reference_loop(n_max, samples, trials):
    cfg = parse_arguments(["extremal", "--n", str(n_max), "--samples", str(samples),
                           "--trials", str(trials), "--seed", str(SEED)])
    _, results, _, _ = _execute_extremal(cfg)
    assert [r["trials"] for r in results] == [trials] * 3
    for target, result in zip(TARGETS, results):
        gaps = _reference_gaps(target, n_max, trials, samples)
        assert result["worst_gap"] == max(0.0, *gaps)
        assert result["violations"] == int(np.count_nonzero(gaps > cfg.tolerance))


@pytest.mark.parametrize("target", TARGETS)
# the last run scores its samples in several blocks of the matrix engine
@pytest.mark.parametrize("n_max, samples, trials", CONFIGS + [(8, 20, 70)])
def test_engine_gaps_match_the_reference_loop_trial_by_trial(target, n_max, samples, trials):
    base = SeededStream(SEED, TARGETS.index(target) * STREAM_STRIDE)
    gaps = _extremal_gaps(target, n_max, trials, base, samples)
    assert gaps.tobytes() == _reference_gaps(target, n_max, trials, samples).tobytes()


def test_engine_rejects_dimensions_below_two():
    with pytest.raises(ValueError, match="n >= 2"):
        _extremal_gaps("vector", 1, 5, SeededStream(SEED), 2)


def test_vector_gaps_check_every_row_against_the_budget_before_enumerating():
    # E9 in dimension 14 holds C(14, 9) * 2^9 > 10^6 sign vectors
    rows = np.ones((2, 14))
    weights = [Weight.ones(1, 14), Weight.ones(10, 14)]
    _sign_matrix.cache_clear()
    with pytest.raises(BudgetError, match="family E9 in dimension 14"):
        _support_gaps(rows, weights)
    assert _sign_matrix.cache_info().currsize == 0


def test_full_rank_weight_in_a_large_dimension_keeps_memory_quadratic():
    # k = n gives one aligned candidate of every rank 1..n; building them all
    # at once would hold n^3 complex entries
    n = 128
    g, h = SeededStream(13, 0).generator(), SeededStream(13, 0).generator()
    m = ginibre(n, g)
    w = Weight(tuple(np.sort(g.random(n) + 0.1)[::-1]), n)
    tracemalloc.start()
    try:
        gap = matrix_ball_support_gap(m, w, 2, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * n * n * 16
    ginibre(n, h)
    h.random(n)
    assert gap == _matrix_gap(m, w, 2, h)


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("samples", [0, 3])
def test_public_gap_functions_match_the_reference_formulas(n, samples):
    for t in range(12):
        g, h = SeededStream(11, t).generator(), SeededStream(11, t).generator()
        w = random_weight(n, 1 + t % n, g)
        assert random_weight(n, 1 + t % n, h) == w
        c = g.standard_normal(n)
        assert support_function_gap(c, w) == _vector_gap(h.standard_normal(n), w)
        m = ginibre(n, g)
        assert ginibre(n, h).tobytes() == m.tobytes()
        assert matrix_ball_support_gap(m, w, samples, g) == _matrix_gap(m, w, samples, h)
        a = von_neumann_equality_witness(m)
        u, _, v = svd(m)
        assert a.tobytes() == np.outer(v[:, 0], u[:, 0].conj()).tobytes()
