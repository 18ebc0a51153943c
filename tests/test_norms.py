import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyfan.ensembles import SeededStream, ginibre, haar_unitary, random_weight
from kyfan.norms import (
    Weight,
    dual_weighted_vector_k_norm,
    inequality_holds,
    kyfan_norm,
    trace_norm,
    weighted_column_norm,
    weighted_kyfan_norm,
    weighted_vector_k_norm,
)

RT13_3 = np.sqrt(13.0) / 3.0


class TestWeight:
    def test_valid(self):
        w = Weight((2.0, 1.0, 0.0), 2)
        assert w.entries == (2.0, 1.0, 0.0)
        assert np.allclose(w.prefix_sums(), [2.0, 3.0], atol=0)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Weight((1.0, 2.0), 2)

    def test_rejects_zero_kth(self):
        with pytest.raises(ValueError):
            Weight((1.0, 0.0), 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Weight((1.0, -1.0), 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            Weight((1.0,), 2)
        with pytest.raises(ValueError):
            Weight((1.0,), 0)

    def test_zero_tail_allowed(self):
        Weight((1.0, 1.0, 0.0, 0.0), 2)

    def test_ones(self):
        assert Weight.ones(2, 4).entries == (1.0, 1.0, 1.0, 1.0)


class TestVectorNorm:
    def test_unit_weights(self):
        assert weighted_vector_k_norm([3.0, -1.0, 2.0], Weight((1.0, 1.0), 2)) == 5.0

    def test_graded_weights(self):
        assert weighted_vector_k_norm([3.0, -1.0, 2.0], Weight((2.0, 1.0), 2)) == 8.0

    def test_l1_reduction(self):
        assert weighted_vector_k_norm([1.0, -1.0, 1.0], Weight.ones(3)) == 3.0

    def test_linf_reduction(self):
        assert weighted_vector_k_norm([1.0, -4.0, 2.0], Weight.ones(1)) == 4.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            weighted_vector_k_norm([1.0], Weight((1.0, 1.0), 2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_and_triangle(self, seed):
        g = SeededStream(seed).generator()
        n = int(g.integers(2, 9))
        w = random_weight(n, int(g.integers(1, n + 1)), g)
        x = g.standard_normal(n)
        y = g.standard_normal(n)
        lam = float(g.standard_normal())
        nx = weighted_vector_k_norm(x, w)
        assert abs(weighted_vector_k_norm(lam * x, w) - abs(lam) * nx) <= 1e-12 * (1 + abs(lam) * nx)
        assert weighted_vector_k_norm(x + y, w) <= nx + weighted_vector_k_norm(y, w) + 1e-10


class TestDualNorm:
    def test_reduced_formula_example(self):
        assert dual_weighted_vector_k_norm([3.0, 1.0, 1.0], Weight((1.0, 1.0), 2)) == 3.0

    def test_flat_vector(self):
        assert dual_weighted_vector_k_norm([2.0, 2.0, 2.0], Weight((1.0, 1.0), 2)) == 3.0

    def test_k_equals_one(self):
        # only the full-sum term applies
        assert dual_weighted_vector_k_norm([3.0, 1.0, 1.0], Weight((2.0,), 1)) == 2.5

    def test_matches_the_one_vector_formula_bit_for_bit(self):
        # the formula as it stood before the dual was computed on stacks
        def one_vector(x, w):
            cums = np.cumsum(np.sort(np.abs(x))[::-1])
            ws = w.prefix_sums()
            best = cums[-1] / ws[w.k - 1]
            if w.k > 1:
                best = max(best, float((cums[: w.k - 1] / ws[: w.k - 1]).max()))
            return float(best)

        for t in range(300):
            g = SeededStream(23, t).generator()
            n = int(g.integers(1, 9))
            w = random_weight(n, int(g.integers(1, n + 1)), g)
            x = g.standard_normal(n) + (1j * g.standard_normal(n) if t % 2 else 0.0)
            assert dual_weighted_vector_k_norm(x, w) == one_vector(x, w)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_unit_weight_reduction(self, seed):
        g = SeededStream(seed).generator()
        n = int(g.integers(2, 9))
        k = int(g.integers(1, n + 1))
        x = g.standard_normal(n)
        got = dual_weighted_vector_k_norm(x, Weight.ones(k))
        v = np.sort(np.abs(x))[::-1]
        expected = max(v[0], v.sum() / k)
        assert abs(got - expected) <= 1e-12 * (1 + expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_duality_pairing(self, seed):
        g = SeededStream(seed).generator()
        n = int(g.integers(2, 9))
        w = random_weight(n, int(g.integers(1, n + 1)), g)
        x = g.standard_normal(n)
        dual = dual_weighted_vector_k_norm(x, w)
        for _ in range(20):
            y = g.standard_normal(n)
            primal = weighted_vector_k_norm(y, w)
            if primal > 1e-12:
                assert float(np.dot(x, y / primal)) <= dual + 1e-10


class TestMatrixNorms:
    def test_weighted_kyfan_diag(self):
        assert weighted_kyfan_norm(np.diag([3.0, 2.0, 1.0]), Weight((2.0, 1.0), 2)) == 8.0

    def test_operator_norm_case(self):
        m = np.array([[-2, 1, 2], [-2, -2, 1], [1, 2, 2]], dtype=complex) / 3.0
        assert abs(weighted_kyfan_norm(m, Weight.ones(1)) - RT13_3) <= 1e-12

    def test_unitary_invariance(self):
        g = SeededStream(33).generator()
        a = ginibre(5, g)
        u, v = haar_unitary(5, g), haar_unitary(5, g)
        w = Weight((3.0, 2.0, 1.0), 3)
        lhs = weighted_kyfan_norm(a, w)
        assert abs(weighted_kyfan_norm(u @ a @ v, w) - lhs) <= 1e-10 * (1 + lhs)

    def test_trace_norm_reduction(self):
        a = ginibre(4, SeededStream(34))
        assert abs(weighted_kyfan_norm(a, Weight.ones(4)) - trace_norm(a)) <= 1e-12

    def test_kyfan_norm_bounds(self):
        a = ginibre(4, SeededStream(35))
        with pytest.raises(ValueError):
            kyfan_norm(a, 5)
        with pytest.raises(ValueError):
            kyfan_norm(a, 0)

    def test_weighted_column_norm_topk(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert weighted_column_norm(a, Weight((1.0, 1.0), 1)) == 2.0

    def test_weighted_column_norm_all_ones_matrix(self):
        x = np.full((3, 3), 1.0 / np.sqrt(3.0))
        assert abs(weighted_column_norm(x, Weight.ones(3)) - 3.0) <= 1e-12

    def test_column_permutation_invariance(self):
        a = ginibre(4, SeededStream(36))
        w = Weight((2.0, 1.0), 2)
        assert weighted_column_norm(a, w) == weighted_column_norm(a[:, ::-1], w)

    def test_k_exceeds_dimension(self):
        with pytest.raises(ValueError):
            weighted_kyfan_norm(np.eye(2), Weight.ones(3))


def test_tolerance_policy():
    assert inequality_holds(1.0, 1.0)
    assert inequality_holds(1.0 + 5e-9, 1.0)
    assert not inequality_holds(1.1, 1.0)
    assert inequality_holds(100.0 + 5e-7, 100.0)  # relative slack for large rhs
