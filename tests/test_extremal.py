"""The extremal targets against a trial-by-trial reference loop.

``extremal_reference`` draws each trial from the stream contract v5 text,
one block at a time, and scores it alone in 2-D with the gap formulas of
``support_function_gap``, ``matrix_ball_support_gap`` and
``von_neumann_equality_witness`` spelled out.  Every gap the command
reports must equal the loop's bit for bit.
"""

import functools
import math
import os
import tracemalloc

import numpy as np
import pytest

import kyfan.extremal as extremal
from extremal_reference import block_size, matrix_gap, reference_gaps, vector_gap
from kyfan.cli import STREAM_STRIDE, _sections, execute, parse_arguments
from kyfan.ensembles import (
    ENUMERATION_BUDGET,
    BudgetError,
    SeededStream,
    _diagonal_inner,
    _haar,
    _sign_matrix,
    _sign_maxima,
    _support_gaps,
    ginibre,
    matrix_ball_support_gap,
    random_weight,
    sign_vectors,
    support_function_gap,
)
from kyfan.extremal import _extremal_gaps
from kyfan.matrixcore import _adjoint, svd
from kyfan.norms import Weight, _prefix_table
from kyfan.suite import von_neumann_equality_witness

TARGETS = ("vector", "matrix", "equality")
SEED = 7

# every n_max and sample count at 1 and 20 trials, plus runs that span
# several blocks and several chunks of blocks
CONFIGS = [(n_max, samples, trials)
           for n_max in range(2, 9) for samples in (0, 1, 3) for trials in (1, 20)]
CONFIGS += [(2, 1, 1100), (8, 3, 150), (8, 2, 600), (3, 1, 2000)]


def _base(target):
    """The section the command line runs ``target`` in."""
    return SeededStream(SEED, TARGETS.index(target) * STREAM_STRIDE)


def _reference_gaps(target, n_max, trials, samples):
    return reference_gaps(target, _base(target), n_max, trials, samples)


def _public_draws(w, n, samples, g):
    """The sample draws ``matrix_ball_support_gap`` makes from g."""
    return [(int(g.integers(w.k)), g.standard_normal((2, 2, n, n))) for _ in range(samples)]


@pytest.mark.parametrize("n_max, samples, trials", CONFIGS)
def test_report_matches_the_reference_loop(n_max, samples, trials):
    cfg = parse_arguments(["extremal", "--n", str(n_max), "--samples", str(samples),
                           "--trials", str(trials), "--seed", str(SEED)])
    results = []
    for s, parts, fold in _sections(cfg):  # each part in order, as in one process
        stream = SeededStream(SEED, s * STREAM_STRIDE)
        results.append(fold([part(stream) for part in parts])[0])
    assert [r["trials"] for r in results] == [trials] * 3
    for target, result in zip(TARGETS, results):
        gaps = _reference_gaps(target, n_max, trials, samples)
        assert result["worst_gap"] == max(0.0, *gaps)
        assert result["violations"] == int(np.count_nonzero(gaps > cfg.tolerance))


@pytest.mark.parametrize("target", TARGETS)
# the last run draws many sample indices per block
@pytest.mark.parametrize("n_max, samples, trials", CONFIGS + [(8, 20, 70)])
def test_engine_gaps_match_the_reference_loop_trial_by_trial(target, n_max, samples, trials):
    gaps = _extremal_gaps(target, n_max, trials, _base(target), samples)
    assert gaps.tobytes() == _reference_gaps(target, n_max, trials, samples).tobytes()


@pytest.mark.parametrize("target", TARGETS)
def test_gaps_are_the_chunks_scored_one_at_a_time(target):
    # a run deals the chunks over processes: each must score alone, in any order
    chunks = extremal._extremal_chunks(8, 2000, 2)
    assert len(chunks) == 4
    alone = {c: extremal._extremal_chunk_gaps(target, 8, 2000, _base(target), 2, c)
             for c in reversed(chunks)}
    joined = np.concatenate([alone[c] for c in chunks])
    assert joined.tobytes() == _extremal_gaps(target, 8, 2000, _base(target), 2).tobytes()
    with pytest.raises(ValueError, match="chunk 4 is not one of the section's 4 chunks"):
        extremal._extremal_chunk_gaps(target, 8, 2000, _base(target), 2, 4)


@pytest.mark.parametrize("target", TARGETS)
def test_leading_trials_do_not_depend_on_the_trial_count(target):
    long = _extremal_gaps(target, 8, 2000, _base(target), 2)
    assert long[:50].tobytes() == _extremal_gaps(target, 8, 50, _base(target), 2).tobytes()


def test_matrices_and_weights_do_not_depend_on_the_sample_count(monkeypatch):
    seen = []

    def recording(c, ws, ks):
        seen[-1].append((c.tobytes(), ws.tobytes(), ks.tobytes()))
        return aligned_gaps(c, ws, ks)

    aligned_gaps = extremal._aligned_gaps
    monkeypatch.setattr(extremal, "_aligned_gaps", recording)
    for samples in (0, 1, 7):
        seen.append([])
        _extremal_gaps("matrix", 8, 300, _base("matrix"), samples)
    assert len(seen[0]) > 1
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("n_max, trials", [(8, 2000), (3, 1000), (2, 1100)])
def test_a_run_opens_one_stream_per_block(monkeypatch, capsys, n_max, trials):
    opened = []
    generator = SeededStream.generator

    def counting(self):
        opened.append(self.stream_index)
        return generator(self)

    monkeypatch.setattr(SeededStream, "generator", counting)
    cfg = parse_arguments(["extremal", "--n", str(n_max), "--trials", str(trials),
                           "--seed", str(SEED)])
    # one CPU: every section in this process, where the streams are counted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert execute(cfg) == 0
    blocks = math.ceil(trials / block_size(n_max))
    assert opened == [section * STREAM_STRIDE + j for section in range(3) for j in range(blocks)]


def test_peak_memory_is_flat_in_the_sample_count():
    _extremal_gaps("matrix", 8, 600, _base("matrix"), 1)  # a first call fills the stream caches
    peaks = []
    for samples in (1, 16):
        tracemalloc.start()
        try:
            _extremal_gaps("matrix", 8, 600, _base("matrix"), samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_engine_rejects_dimensions_below_two():
    with pytest.raises(ValueError, match="n >= 2"):
        _extremal_gaps("vector", 1, 5, SeededStream(SEED), 2)


def test_vector_gaps_check_every_row_against_the_budget_before_enumerating():
    # E9 in dimension 14 holds C(14, 9) * 2^9 > 10^6 sign vectors
    rows = np.ones((2, 14))
    weights = [Weight.ones(1, 14), Weight.ones(10, 14)]
    _sign_matrix.cache_clear()
    with pytest.raises(BudgetError, match="family E9 in dimension 14"):
        _support_gaps(rows, _prefix_table(weights, 14), np.array([1, 10]))
    assert _sign_matrix.cache_info().currsize == 0


def test_large_sign_tables_are_not_kept_after_the_call():
    # the families E1..E11 and E12 of n = 12 hold (3^12 - 1) * 12 entries,
    # 51 MB; only those of at most SIGN_CACHE_ENTRIES entries stay cached
    c = SeededStream(16).generator().standard_normal(12)
    tracemalloc.start()
    try:
        support_function_gap(c, Weight.ones(12, 12))
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 5 * 2**20, current


@pytest.mark.parametrize("n", range(1, 9))
def test_sign_maxima_match_one_matrix_vector_product_per_row(n):
    c = SeededStream(14, n).generator().standard_normal((250, n))
    for j in range(1, n + 1):
        signs = _sign_matrix(n, j)
        reference = np.array([float((signs @ vec).max()) for vec in c])
        assert _sign_maxima(c, j).tobytes() == reference.tobytes()


def test_vector_gaps_hold_at_most_the_enumeration_budget_per_product():
    # E13 holds 8192 sign vectors, so one product over 1000 rows would hold
    # 8.2e6 entries; each holds at most ENUMERATION_BUDGET = 10^6 (8 MB)
    n, count = 13, 1000
    g = SeededStream(15).generator()
    c = g.standard_normal((count, n))
    weights = [random_weight(n, 1 + t % 2, g) for t in range(count)]
    ws, ks = _prefix_table(weights, n), np.array([w.k for w in weights])
    _support_gaps(c[:2], ws[:2], ks[:2])  # builds the sign matrices of E1 and E13
    tracemalloc.start()
    try:
        gaps = _support_gaps(c, ws, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * ENUMERATION_BUDGET, peak
    tables = functools.cache(sign_vectors)  # E13 takes ~10 ms to build
    reference = [vector_gap(vec, w, tables) for vec, w in zip(c, weights)]
    assert gaps.tobytes() == np.array(reference).tobytes()


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
    assert gap == matrix_gap(m, w, _public_draws(w, n, 2, h))


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("samples", [0, 3])
def test_public_gap_functions_match_the_reference_formulas(n, samples):
    for t in range(12):
        g, h = SeededStream(11, t).generator(), SeededStream(11, t).generator()
        w = random_weight(n, 1 + t % n, g)
        assert random_weight(n, 1 + t % n, h) == w
        c = g.standard_normal(n)
        assert support_function_gap(c, w) == vector_gap(h.standard_normal(n), w)
        m = ginibre(n, g)
        assert ginibre(n, h).tobytes() == m.tobytes()
        assert matrix_ball_support_gap(m, w, samples, g) == matrix_gap(
            m, w, _public_draws(w, n, samples, h))
        a = von_neumann_equality_witness(m)
        u, _, v = svd(m)
        assert a.tobytes() == np.outer(v[:, 0], u[:, 0].conj()).tobytes()


def _gamma(m):
    """Higham's gamma_m = m u / (1 - m u) for double precision, u = 2^-53."""
    u = 2.0**-53
    return m * u / (1 - m * u)


@pytest.mark.parametrize("factors", ["svd", "haar"])
@pytest.mark.parametrize("n", range(2, 9))
def test_diagonal_sums_equal_the_explicit_candidate_values(n, factors):
    """The v5 value of rank j, the j-th cumulative sum of Re diag(U^* C V),
    against Re tr(C^* X) with X = U_j V_j^* formed explicitly (the v4 formula).

    Both are V_j = sum over i <= j and entries a, b of
    Re(conj(u_ai) c_ab v_bi), exactly, for the stored U, C and V, by the
    cyclic trace identity.  They differ only in rounding.  With u = 2^-53,
    gamma_m = m u / (1 - m u) and a complex inner product of length m
    rounded within gamma_(m+2) of the sum of its term moduli (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sections 3.1 and
    3.6), and with S_j = sum over i <= j of (|U|^T |C| |V|)_ii:

    - v5 forms U^* C and then (U^* C) V, two inner products of length n,
      and sums j real parts: within gamma_(2n+j+4) S_j of V_j;
    - v4 forms X, inner products of length j, multiplies each entry by C's
      (two products and a sum) and sums the n^2 results: within
      gamma_(n^2+j+4) S_j of V_j.

    So |v5 - v4| <= (gamma_(2n+j+4) + gamma_(n^2+j+4)) S_j.  S_j is itself
    summed from nonnegative terms, within gamma_(2n+j) of its exact value,
    so the computed bound is inflated by 1 + gamma_(2n+j).
    """
    g = SeededStream(17, n).generator()
    w = g.standard_normal((200, 2, n, n))
    c = (w[:, 0] + 1j * w[:, 1]) / np.sqrt(2.0)
    if factors == "svd":
        u, _, v = svd(c)
    else:
        h = _haar(g.standard_normal((200, 2, 2, n, n)))
        u, v = h[:, 0], h[:, 1]
    sums = np.cumsum(_diagonal_inner(c, u, v).real, axis=-1)
    moduli = np.cumsum(np.diagonal(np.abs(_adjoint(u)) @ np.abs(c) @ np.abs(v),
                                   axis1=-2, axis2=-1), axis=-1)
    for j in range(1, n + 1):
        x = u[:, :, :j] @ _adjoint(v[:, :, :j])
        explicit = (c.real * x.real + c.imag * x.imag).reshape(len(c), -1).sum(axis=-1)
        bound = ((_gamma(2 * n + j + 4) + _gamma(n * n + j + 4)) * (1 + _gamma(2 * n + j))
                 * moduli[:, j - 1])
        excess = np.abs(sums[:, j - 1] - explicit) / bound
        assert excess.max() <= 1.0, (j, excess.max())
