from itertools import combinations, product

import numpy as np
import pytest

from kyfan.ensembles import (
    BudgetError,
    SeededStream,
    as_generator,
    commuting_hermitian_pair,
    ginibre,
    haar_unitary,
    matrix_ball_support_gap,
    random_contraction,
    random_hermitian,
    random_subunit_columns,
    random_unit_vector,
    random_weight,
    sample_partial_isometry,
    sample_unit_columns,
    sign_vectors,
    support_function_gap,
    vector_ball_candidates,
)
from kyfan.norms import Weight


class TestSeededStream:
    def test_replay_is_bitwise(self):
        a = ginibre(5, SeededStream(99, 3))
        b = ginibre(5, SeededStream(99, 3))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = ginibre(5, SeededStream(99, 3))
        b = ginibre(5, SeededStream(99, 4))
        assert not np.array_equal(a, b)

    def test_offset(self):
        s = SeededStream(7, 10)
        assert s.offset(5) == SeededStream(7, 15)

    @pytest.mark.parametrize("delta", [1.5, 2.0, "2", True, None])
    def test_offset_rejects_a_non_integer_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            SeededStream(7, 10).offset(delta)

    def test_offset_rejects_a_negative_index(self):
        s = SeededStream(7, 10)
        assert s.offset(np.int64(-10)) == SeededStream(7, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            s.offset(-11)

    def test_as_generator_accepts_int(self):
        g = as_generator(42)
        h = as_generator(42)
        assert np.array_equal(g.standard_normal(4), h.standard_normal(4))

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            as_generator("seed")


#: master seeds of the stream derivation test: small, 32-bit edges, and seeds
#: of two and seven 32-bit words
DERIVATION_SEEDS = [0, 1, 271828, 161803, 2**32 - 1, 2**32, 2**64 + 12345, 2**200 + 7]
#: stream indices: every section base the CLI uses (k * 2**24) and its next
#: index, 1023 and 1024, and the points where the spawn key gains a word
DERIVATION_INDICES = (
    list(range(301))
    + [k * 2**24 + d for k in range(1, 71) for d in (0, 1)]
    + [1023, 1024, 2**32 - 1, 2**32, 2**33 + 5, 2**64 - 1, 2**64]
)


class TestStreamMatchesSeedSequence:
    @pytest.mark.parametrize("master_seed", DERIVATION_SEEDS)
    def test_state_and_draws(self, master_seed):
        for index in DERIVATION_INDICES:
            got = SeededStream(master_seed, index).generator()
            ref = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(index,)))
            )
            assert got.bit_generator.state == ref.bit_generator.state, index
            assert np.array_equal(got.standard_normal(3), ref.standard_normal(3)), index
            assert got.integers(2**62) == ref.integers(2**62), index

    def test_the_generator_is_numpys_own(self):
        g = SeededStream(7, 3).generator()
        seq = g.bit_generator.seed_seq
        assert isinstance(seq, np.random.SeedSequence)
        assert seq.entropy == 7 and seq.spawn_key == (3,)
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(3,))))
        assert g.spawn(1)[0].standard_normal() == ref.spawn(1)[0].standard_normal()

    def test_each_call_opens_a_fresh_generator(self):
        s = SeededStream(5, 7)
        g, h = s.generator(), s.generator()
        assert g is not h
        assert g.standard_normal() == h.standard_normal()


class TestSamplers:
    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(6, SeededStream(1))
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-12

    def test_hermitian_is_exact(self):
        h = random_hermitian(6, SeededStream(2))
        assert np.array_equal(h, h.conj().T)

    def test_contraction_is_subunit(self):
        c = random_contraction(6, SeededStream(3))
        assert np.linalg.svd(c, compute_uv=False)[0] <= 1.0 + 1e-12

    def test_commuting_pair_commutes(self):
        a, b = commuting_hermitian_pair(5, SeededStream(4))
        assert np.linalg.norm(a @ b - b @ a) <= 1e-12 * (1 + np.linalg.norm(a) * np.linalg.norm(b))
        assert np.array_equal(a, a.conj().T)
        assert np.array_equal(b, b.conj().T)

    def test_unit_vector(self):
        v = random_unit_vector(7, SeededStream(5))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_subunit_columns(self):
        x = random_subunit_columns(4, SeededStream(6))
        assert np.all(np.linalg.norm(x, axis=0) <= 1.0 + 1e-12)

    def test_partial_isometry_rank(self):
        p = sample_partial_isometry(5, 3, SeededStream(7))
        s = np.linalg.svd(p, compute_uv=False)
        assert np.allclose(s[:3], 1.0, atol=1e-12)
        assert np.allclose(s[3:], 0.0, atol=1e-12)

    def test_unit_columns_sample(self):
        x = sample_unit_columns(4, 2, SeededStream(8))
        norms = np.linalg.norm(x, axis=0)
        assert np.allclose(np.sort(norms)[::-1][:2], 1.0, atol=1e-12)
        assert np.allclose(np.sort(norms)[:2], 0.0, atol=1e-12)

    def test_random_weight_valid(self):
        for i in range(50):
            w = random_weight(6, 3, SeededStream(9, i))
            assert isinstance(w, Weight)
            assert w.k == 3


class TestSignVectors:
    def test_counts_n2(self):
        vs = sign_vectors(2, 1)
        assert vs.shape == (4, 2)  # 2 supports x 2 signs

    def test_counts_n4_j2(self):
        vs = sign_vectors(4, 2)
        assert vs.shape == (24, 4)  # C(4,2)=6 supports x 4 sign patterns

    def test_rows_have_j_nonzeros(self):
        vs = sign_vectors(5, 3)
        assert np.all(np.count_nonzero(vs, axis=1) == 3)
        assert set(np.unique(vs)) == {-1.0, 0.0, 1.0}

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            sign_vectors(40, 20)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_are_the_support_then_sign_enumeration(self, n):
        # supports in combinations order, each with its signs in product order
        for j in range(1, n + 1):
            rows = []
            for support in combinations(range(n), j):
                for signs in product((1.0, -1.0), repeat=j):
                    row = np.zeros(n)
                    row[list(support)] = signs
                    rows.append(row)
            assert sign_vectors(n, j).tobytes() == np.array(rows).tobytes()


class TestCandidates:
    def test_counts(self):
        cands = vector_ball_candidates(Weight((1.0, 1.0), 2), 2)
        assert len(cands) == 8  # E_1 gives 4, E_2 gives 4

    def test_candidates_have_unit_norm(self):
        w = Weight((3.0, 2.0, 1.0), 3)
        cands = vector_ball_candidates(w, 4)
        from kyfan.norms import weighted_vector_k_norm

        for row in cands.elements:
            assert abs(weighted_vector_k_norm(row, w) - 1.0) <= 1e-12

    def test_scale_tags_cover_families(self):
        cands = vector_ball_candidates(Weight((2.0, 1.0), 2), 3)
        assert {"E1", "E3"} <= set(cands.scale_tags)


class TestSupportGaps:
    def test_zero_for_fixed_example(self):
        gap = support_function_gap(np.array([3.0, -1.0, 0.5]), Weight((2.0, 1.0), 2))
        assert abs(gap) <= 1e-12

    def test_zero_over_random_sweep(self):
        for i in range(200):
            g = SeededStream(11, i).generator()
            n = int(g.integers(2, 7))
            w = random_weight(n, int(g.integers(1, n + 1)), g)
            c = g.standard_normal(n)
            assert abs(support_function_gap(c, w)) <= 1e-10 * (1 + np.abs(c).sum())

    def test_matrix_gap_zero_over_random_sweep(self):
        for i in range(60):
            g = SeededStream(12, i).generator()
            n = int(g.integers(2, 6))
            w = random_weight(n, int(g.integers(1, n + 1)), g)
            c = ginibre(n, g)
            gap = matrix_ball_support_gap(c, w, samples=2, s=g)
            assert abs(gap) <= 1e-10 * (1 + np.linalg.norm(c))


def _reference_haar(n, g):
    z = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _reference_contraction(n, g):
    u = _reference_haar(n, g)
    v = _reference_haar(n, g)
    t = g.uniform(0.0, 1.0, size=n)
    return (u * t) @ v.conj().T


def _reference_subunit(n, g):
    z = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    lengths = g.uniform(0.0, 1.0, size=n)
    return z / np.linalg.norm(z, axis=0) * lengths


def _reference_unit_vector(n, g):
    z = g.standard_normal(n) + 1j * g.standard_normal(n)
    return z / np.linalg.norm(z)


REFERENCE_SAMPLERS = {
    # the one-matrix formulas the samplers had before the RNG step and the
    # transform were split; the split must reproduce them bit for bit
    "ginibre": (ginibre, lambda n, g: (
        g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)),
    "haar": (haar_unitary, _reference_haar),
    "contraction": (random_contraction, _reference_contraction),
    "subunit": (random_subunit_columns, _reference_subunit),
    "unit-vector": (random_unit_vector, _reference_unit_vector),
}


class TestSamplersMatchReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_SAMPLERS))
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 17])
    def test_bitwise(self, name, n):
        sampler, reference = REFERENCE_SAMPLERS[name]
        for t in range(10):
            stream = SeededStream(41, t)
            assert np.array_equal(sampler(n, stream), reference(n, stream.generator()))

    @pytest.mark.parametrize("n", [2, 6])
    def test_unit_columns_bitwise(self, n):
        for t in range(10):
            g = SeededStream(43, t).generator()
            expected = np.zeros((n, n), dtype=np.complex128)
            for p in g.choice(n, size=n - 1, replace=False):
                expected[:, p] = _reference_unit_vector(n, g)
            assert np.array_equal(sample_unit_columns(n, n - 1, SeededStream(43, t)), expected)

    def test_stacked_transforms_match_one_matrix_samplers(self):
        from kyfan.ensembles import _contraction, _contraction_draw, _subunit, _subunit_draw

        for n in (2, 5):
            streams = [SeededStream(47, t) for t in range(9)]
            draws = [_contraction_draw(n, s.generator()) for s in streams]
            stacked = _contraction(*(np.stack(c) for c in zip(*draws)))
            for s, got in zip(streams, stacked):
                assert np.array_equal(got, random_contraction(n, s))
            draws = [_subunit_draw(n, s.generator()) for s in streams]
            stacked = _subunit(*(np.stack(c) for c in zip(*draws)))
            for s, got in zip(streams, stacked):
                assert np.array_equal(got, random_subunit_columns(n, s))
