import numpy as np
import pytest

from kyfan import ptrace
from kyfan.ensembles import (
    CHUNK_ENTRIES,
    SeededStream,
    commuting_hermitian_pair,
    ginibre,
    haar_unitary,
    random_hermitian,
)
from kyfan.matrixcore import singular_values
from kyfan.norms import _violated, inequality_holds
from kyfan.ptrace import (
    QuestionInstance,
    _worst_margins,
    lhs_operator,
    lhs_operator_brute,
    pack_hermitian_pair,
    question_margin,
    question_margins_all_k,
    require_hermitian,
    search_counterexample,
    trace_deviation,
    unpack_hermitian_pair,
    worst_question_margin,
)


class TestOperatorIdentities:
    def test_identity_left_slot(self):
        b = random_hermitian(4, SeededStream(40))
        t = lhs_operator(np.eye(4, dtype=complex), b)
        assert np.allclose(t, 2.0 * trace_deviation(b), atol=1e-12)

    def test_identity_right_slot_vanishes(self):
        a = random_hermitian(4, SeededStream(41))
        t = lhs_operator(a, np.eye(4, dtype=complex))
        assert np.linalg.norm(t) <= 1e-12

    def test_brute_matches_closed_form_sweep(self):
        for i in range(120):
            g = SeededStream(42, i).generator()
            n = int(g.integers(2, 7))
            a = random_hermitian(n, g)
            b = random_hermitian(n, g)
            brute = lhs_operator_brute(a, b)
            closed = lhs_operator(a, b, cross_check=False)
            assert np.linalg.norm(brute - closed) <= 1e-10 * (1 + np.linalg.norm(closed))

    def test_cross_check_runs_clean(self):
        g = SeededStream(43).generator()
        lhs_operator(random_hermitian(5, g), random_hermitian(5, g), cross_check=True)

    def test_output_is_traceless(self):
        # tr T = n tr(AB) - tr(A)tr(B) + tr(B)tr(A) - n tr(AB) = 0
        g = SeededStream(44).generator()
        t = lhs_operator(random_hermitian(5, g), random_hermitian(5, g))
        assert abs(np.trace(t)) <= 1e-12 * (1 + np.linalg.norm(t))

    def test_trace_deviation_traceless_case(self):
        b = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(trace_deviation(b), -2.0 * b, atol=0)

    def test_rejects_non_hermitian(self):
        g = SeededStream(45).generator()
        with pytest.raises(ValueError):
            lhs_operator(ginibre(3, g), random_hermitian(3, g))
        with pytest.raises(ValueError):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMargins:
    def test_question2_majorizes_question1(self):
        # rhs_2 uses sum sigma_i(A) sigma_i(D) <= sigma_1(A) sum sigma_i(D) = rhs_1,
        # so margins for question 2 are at least those for question 1
        for i in range(60):
            g = SeededStream(46, i).generator()
            n = int(g.integers(2, 7))
            a, b = random_hermitian(n, g), random_hermitian(n, g)
            m1 = question_margins_all_k(a, b, 1)
            m2 = question_margins_all_k(a, b, 2)
            assert np.all(m2 >= m1 - 1e-12)

    def test_unitary_covariance(self):
        g = SeededStream(47).generator()
        a, b = random_hermitian(5, g), random_hermitian(5, g)
        u = haar_unitary(5, g)
        ua, ub = u @ a @ u.conj().T, u @ b @ u.conj().T
        for q in (1, 2):
            base = question_margins_all_k(a, b, q)
            rot = question_margins_all_k(ua, ub, q)
            assert np.allclose(base, rot, atol=1e-9 * (1 + np.abs(base).max()))

    def test_commuting_pairs_never_violate(self):
        for i in range(150):
            g = SeededStream(48, i).generator()
            n = int(g.integers(2, 7))
            a, b = commuting_hermitian_pair(n, g)
            for q in (1, 2):
                assert question_margins_all_k(a, b, q).max() <= 1e-8

    def test_zero_pair_margin_zero(self):
        z = np.zeros((3, 3), dtype=complex)
        margin, k = worst_question_margin(z, z, 1)
        assert margin == 0.0 and k == 1

    def test_a_tie_goes_to_the_first_k_in_k_values_order(self):
        z = np.zeros((3, 3), dtype=complex)
        assert worst_question_margin(z, z, 1, [3, 1, 2]) == (0.0, 3)
        margins, ks = worst_question_margin(np.stack([z, z]), np.stack([z, z]), 1, [3, 1, 2])
        assert margins.tolist() == [0.0, 0.0] and ks.tolist() == [3, 3]

    def test_worst_margin_selects_argmax(self):
        g = SeededStream(49).generator()
        a, b = random_hermitian(4, g), random_hermitian(4, g)
        margins = question_margins_all_k(a, b, 2)
        margin, k = worst_question_margin(a, b, 2)
        assert margin == margins.max()
        assert margins[k - 1] == margin

    def test_question_margin_instance(self):
        g = SeededStream(50).generator()
        a, b = random_hermitian(3, g), random_hermitian(3, g)
        inst = QuestionInstance(A=a, B=b, n=3, question=1, k=2)
        assert question_margin(inst) == float(question_margins_all_k(a, b, 1)[1])

    def test_instance_validation(self):
        a = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            QuestionInstance(A=a, B=a, n=2, question=3, k=1)
        with pytest.raises(ValueError):
            QuestionInstance(A=a, B=a, n=2, question=1, k=3)
        with pytest.raises(ValueError):
            QuestionInstance(A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=a, n=2, question=1, k=1)
        with pytest.raises(ValueError):
            QuestionInstance(A=a, B=np.eye(3, dtype=complex), n=2, question=1, k=1)


class TestPacking:
    def test_roundtrip_is_exact(self):
        g = SeededStream(51).generator()
        a, b = random_hermitian(5, g), random_hermitian(5, g)
        theta = pack_hermitian_pair(a, b)
        assert theta.shape == (50,)
        a2, b2 = unpack_hermitian_pair(theta, 5)
        assert np.array_equal(a, a2)
        assert np.array_equal(b, b2)

    def test_unpack_always_hermitian(self):
        g = SeededStream(52).generator()
        for _ in range(20):
            a, b = unpack_hermitian_pair(g.standard_normal(2 * 16), 4)
            assert np.array_equal(a, a.conj().T)
            assert np.array_equal(b, b.conj().T)

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            unpack_hermitian_pair(np.zeros(7), 2)

    def test_pack_rejects_a_pair_of_two_sizes(self):
        # 4 + 9 parameters would fit no n, so unpack_hermitian_pair could not invert them
        with pytest.raises(ValueError, match=r"shape mismatch \(2, 2\) vs \(3, 3\)"):
            pack_hermitian_pair(np.eye(2), np.eye(3))

    def test_brute_route_rejects_a_pair_of_two_sizes(self):
        # refused as lhs_operator refuses it, not by a matmul inside the Kronecker products
        with pytest.raises(ValueError, match=r"shape mismatch \(2, 2\) vs \(3, 3\)"):
            lhs_operator_brute(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_unpack_rejects_non_finite_parameters(self, bad):
        # refused, as pack_hermitian_pair refuses them, not unpacked to NaN entries
        theta = np.zeros(8)
        theta[[0, 3]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            unpack_hermitian_pair(theta, 2)
        with pytest.raises(ValueError, match="non-finite"):
            pack_hermitian_pair(np.diag([bad, 0.0]), np.eye(2))


class TestStackedPrimitives:
    def _pairs(self, seed, count, n):
        g = SeededStream(seed).generator()
        pairs = [(random_hermitian(n, g), random_hermitian(n, g)) for _ in range(count)]
        return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_stack_matches_pair_by_pair(self, n):
        a, b = self._pairs(60 + n, 7, n)
        for q in (1, 2):
            margins = question_margins_all_k(a, b, q)
            worst, ks = worst_question_margin(a, b, q)
            worst2, ks2 = worst_question_margin(a, b, q, [2, 1] if n > 1 else [1])
            assert margins.shape == (7, n)
            for i in range(7):
                assert np.array_equal(margins[i], question_margins_all_k(a[i], b[i], q))
                assert (worst[i], ks[i]) == worst_question_margin(a[i], b[i], q)
                assert (worst2[i], ks2[i]) == worst_question_margin(
                    a[i], b[i], q, [2, 1] if n > 1 else [1])
        assert np.array_equal(trace_deviation(b)[4], trace_deviation(b[4]))

    def test_unpack_stack_matches_rows(self):
        theta = SeededStream(61).generator().standard_normal((3, 2, 32))
        a, b = unpack_hermitian_pair(theta, 4)
        assert a.shape == b.shape == (3, 2, 4, 4)
        a2, b2 = unpack_hermitian_pair(theta[2, 1], 4)
        assert np.array_equal(a[2, 1], a2) and np.array_equal(b[2, 1], b2)

    def test_require_hermitian_checks_every_matrix(self):
        a, _ = self._pairs(62, 4, 3)
        assert np.array_equal(require_hermitian(a), a)
        a[2, 0, 1] += 1.0
        with pytest.raises(ValueError, match="matrix 2 of the stack"):
            require_hermitian(a)
        with pytest.raises(ValueError):
            question_margins_all_k(a, a, 1)

    def test_worst_margin_rejects_k_out_of_range(self):
        a, b = self._pairs(63, 1, 3)
        with pytest.raises(ValueError):
            worst_question_margin(a[0], b[0], 1, [4])
        with pytest.raises(ValueError):
            worst_question_margin(a[0], b[0], 1, [0])

    def test_instance_rejects_stacks(self):
        a, b = self._pairs(64, 3, 2)
        with pytest.raises(ValueError):
            QuestionInstance(A=a, B=b, n=2, question=1, k=1)

    def test_violates_is_the_relative_rule(self):
        a, b = self._pairs(65, 9, 4)
        margins, ks = worst_question_margin(a, b, 2)
        worst, _, rhs_at_k, _, _ = _worst_margins(np.stack([a, b], axis=-3), 2)
        for tol in (1e-8, -0.5, -5.0):
            flags = _violated(worst, rhs_at_k, tol)
            for i in range(9):
                lhs = np.cumsum(singular_values(lhs_operator(a[i], b[i])))[ks[i] - 1]
                rhs = lhs - margins[i]
                assert flags[i] == (not inequality_holds(lhs, rhs, tol))


class TestHermitianSpectra:
    """Search contract v7: sigma(A) and sigma(tr(B) I - n B) are the moduli of
    their eigenvalues, taken by one stacked ``eigvalsh`` call, sorted."""

    @staticmethod
    def _hermitian_stack(seed, count, n):
        g = SeededStream(seed).generator()
        return np.stack([random_hermitian(n, g) for _ in range(count)])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacked_spectra_are_the_per_matrix_bits(self, n):
        for count in (1, 2, 7, 40, 200):
            h = self._hermitian_stack(90 + n, count, n)
            spectra = ptrace._hermitian_spectra(h)
            assert spectra.shape == (count, n)
            for i in range(count):
                assert spectra[i].tobytes() == _reference_spectrum(h[i]).tobytes()

    def test_spectra_agree_with_singular_values(self):
        g = SeededStream(98).generator()
        u = haar_unitary(6, g)
        cases = [
            np.diag([2.0, 2.0, -2.0, 1.0, -1.0, 1.0]),  # ties, of both signs
            np.diag([3.0, 0.0, 0.0, -1.5, 0.0, 0.0]),    # rank 2
            np.zeros((6, 6)),
            -1.7 * np.eye(6),                            # A = cI, the equality point
            np.eye(6) * 1e-300,
        ]
        stack = np.stack([u @ c @ u.conj().T for c in cases] + cases)
        stack = (stack + stack.conj().swapaxes(-1, -2)) / 2.0
        spectra = ptrace._hermitian_spectra(stack)
        reference = singular_values(stack)
        assert np.all(spectra >= 0)
        assert np.all(np.diff(spectra, axis=-1) <= 0)
        ulps = 6 * np.finfo(float).eps  # n ulps of sigma_1
        for got, want in zip(spectra, reference):
            assert np.all(np.abs(got - want) <= ulps * want[0])
        assert not spectra[2].any() and not spectra[len(cases) + 2].any()

    def test_scalar_a_meets_question_2_with_equality(self):
        # T(cI, B) = 2c (tr(B) I - nB), so both sides are 2|c| ||tr(B) I - nB||_(k)
        g = SeededStream(99).generator()
        for n in range(1, 9):
            b = random_hermitian(n, g)
            pair = np.stack([-1.7 * np.eye(n), b])
            scored = [_worst_margins(pair, 2, np.array([k])) for k in range(1, n + 1)]
            lhs_minus_rhs = np.concatenate([margin for margin, _, _, _, _ in scored])
            rhs = np.concatenate([rhs_k for _, _, rhs_k, _, _ in scored])
            assert np.all(np.abs(lhs_minus_rhs) <= 8 * n * np.finfo(float).eps * rhs[-1])

    def test_an_overflowed_factor_is_refused(self):
        # T stays finite, while n B overflows in tr(B) I - n B
        a = 1e-300 * np.eye(3, dtype=complex)
        b = np.diag([8e307, -8e307, 8e307]).astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(lhs_operator(a, b, cross_check=False)).all()
            with pytest.raises(ValueError, match="non-finite"):
                question_margins_all_k(a, b, 2)

    def test_a_near_hermitian_pair_is_scored_as_its_hermitian_part(self):
        g = SeededStream(100).generator()
        a, b = random_hermitian(4, g), random_hermitian(4, g)
        skew = 1e-14 * ginibre(4, g)
        near = a + skew
        assert not np.array_equal(near, near.conj().T)
        require_hermitian(near)  # inside the tolerance
        part = (near + near.conj().T) / 2.0
        for q in (1, 2):
            scored = question_margins_all_k(near, b, q)
            assert scored.tobytes() == question_margins_all_k(part, b, q).tobytes()
            assert scored.tobytes() == _reference_margins(part, b, q).tobytes()


class TestSearch:
    def test_witness_uses_the_relative_rule(self):
        # a tolerance t < 0 with t * rhs < margin <= t: the absolute rule
        # margin > t attaches nothing, the relative rule attaches the pair
        forced = search_counterexample(2, 3, budget=200, restarts=2, s=SeededStream(66),
                                       tolerance=-np.inf)
        inst, m = forced.witness, forced.best_margin
        lhs = np.cumsum(singular_values(lhs_operator(inst.A, inst.B)))[inst.k - 1]
        rhs = lhs - m
        assert m < 0 and rhs > 1
        t = (m + m / rhs) / 2.0
        res = search_counterexample(2, 3, budget=200, restarts=2, s=SeededStream(66),
                                    tolerance=t)
        assert not res.best_margin > t
        assert res.witness is not None and res.witness.k == inst.k

    def test_budget_zero_sentinel(self):
        res = search_counterexample(1, 3, budget=0, restarts=4, s=SeededStream(53))
        assert res.best_margin == -np.inf
        assert res.evaluations == 0
        assert res.witness is None

    def test_deterministic_replay(self):
        a = search_counterexample(1, 3, budget=300, restarts=3, s=SeededStream(54))
        b = search_counterexample(1, 3, budget=300, restarts=3, s=SeededStream(54))
        assert a.best_margin == b.best_margin
        assert a.evaluations == b.evaluations

    def test_respects_budget(self):
        res = search_counterexample(2, 3, budget=257, restarts=4, s=SeededStream(55))
        assert res.evaluations <= 257

    def test_commuting_strategy_stays_clean(self):
        res = search_counterexample(
            1, 4, budget=400, restarts=2, s=SeededStream(56), strategy="commuting"
        )
        assert res.best_margin <= 1e-8
        assert res.witness is None

    def test_fixed_k_policy(self):
        res = search_counterexample(2, 3, k_policy=2, budget=120, restarts=2, s=SeededStream(57))
        assert res.evaluations <= 120

    def test_argument_validation(self):
        s = SeededStream(58)
        with pytest.raises(ValueError):
            search_counterexample(3, 3, budget=10, s=s)
        with pytest.raises(ValueError):
            search_counterexample(1, 3, budget=-1, s=s)
        with pytest.raises(ValueError):
            search_counterexample(1, 3, budget=10, restarts=0, s=s)
        with pytest.raises(ValueError):
            search_counterexample(1, 3, budget=10, strategy="annealing", s=s)
        with pytest.raises(ValueError):
            search_counterexample(1, 3, k_policy=9, budget=10, s=s)
        with pytest.raises(ValueError):
            search_counterexample(1, 3, budget=10)  # seed required

    def test_witness_margin_reproduces(self):
        # force a "witness" by setting the bar below zero: any best pair attaches
        res = search_counterexample(
            1, 2, budget=60, restarts=2, s=SeededStream(59), tolerance=-np.inf
        )
        assert res.witness is not None
        assert abs(question_margin(res.witness) - res.best_margin) <= 1e-10


# ---------------------------------------------------------------------------
# reference: the one-proposal-at-a-time search loop, with per-pair numerics
# ---------------------------------------------------------------------------


def _reference_spectrum(h):
    """Singular values of one Hermitian matrix by search contract v7: the
    moduli of its eigenvalues, sorted nonincreasing."""
    return np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]


def _reference_margins(a, b, question):
    n = a.shape[0]
    a, b = (a + a.conj().T) / 2.0, (b + b.conj().T) / 2.0
    eye = np.eye(n, dtype=np.complex128)
    ab = a @ b
    t = np.trace(ab) * eye - np.trace(a) * b + np.trace(b) * a - n * ab
    d = np.trace(b) * eye - n * b
    lhs = np.cumsum(np.linalg.svd(t, compute_uv=False))
    sd = _reference_spectrum(d)
    sa = _reference_spectrum(a)
    if question == 1:
        rhs = 2.0 * sa[0] * np.cumsum(sd)
    else:
        rhs = 2.0 * np.cumsum(sa * sd)
    return lhs - rhs


def _reference_unpack(part, n):
    h = np.zeros((n, n), dtype=np.complex128)
    offdiag = (n * (n - 1)) // 2
    diag, re, im = part[:n], part[n : n + offdiag], part[n + offdiag :]
    iu = np.triu_indices(n, k=1)
    h[iu] = re + 1j * im
    h += h.conj().T
    h[np.diag_indices(n)] = diag
    return h


def _reference_search(question, n, k_policy, budget, restarts, stream, strategy,
                      step_init=0.5, stall_limit=50):
    """Greedy search scoring one proposal per step; returns margin, evaluations,
    and the best pair with its k."""
    k_values = range(1, n + 1) if k_policy == "all" else [k_policy]
    base, rem = divmod(budget, restarts)
    best_margin, best_pair, best_k, evaluations = -np.inf, None, 1, 0
    for r in range(restarts):
        quota = base + (1 if r < rem else 0)
        if quota <= 0:
            continue
        g = stream.offset(r).generator()
        if strategy == "commuting":
            basis = haar_unitary(n, g)
            dim = 2 * n

            def build(theta):
                a = (basis * theta[:n]) @ basis.conj().T
                b = (basis * theta[n:]) @ basis.conj().T
                return (a + a.conj().T) / 2.0, (b + b.conj().T) / 2.0
        else:
            dim = 2 * n * n

            def build(theta):
                return _reference_unpack(theta[: n * n], n), _reference_unpack(theta[n * n :], n)

        def margin_of(theta):
            margins = _reference_margins(*build(theta), question)
            k = max(k_values, key=lambda k: margins[k - 1])
            return float(margins[k - 1]), k

        theta = g.standard_normal(dim)
        current, current_k = margin_of(theta)
        used, step, stalls = 1, step_init, 0
        while used < quota:
            i = (used - 1) % ptrace.PROPOSAL_BLOCK  # proposal used - 1 of the restart
            if i == 0:
                coords = g.integers(dim, size=ptrace.PROPOSAL_BLOCK)
                normals = g.standard_normal(ptrace.PROPOSAL_BLOCK)
            candidate = theta.copy()
            candidate[coords[i]] += step * normals[i]
            value, value_k = margin_of(candidate)
            used += 1
            if value > current:
                theta, current, current_k = candidate, value, value_k
                stalls = 0
            else:
                stalls += 1
                if stalls >= stall_limit:
                    step *= 0.5
                    stalls = 0
        evaluations += used
        if current > best_margin:
            best_margin, best_pair, best_k = current, build(theta), current_k
    return best_margin, evaluations, best_pair, best_k


# (question, n, k_policy, budget, restarts, strategy, stall_limit)
REFERENCE_CONFIGS = [
    (q, n, "all", 157, 3, strategy, 50)
    for q in (1, 2) for n in range(1, 7) for strategy in ("general", "commuting")
] + [
    (2, 3, 2, 203, 2, "general", 50),
    (1, 4, 1, 131, 3, "general", 50),
    (2, 5, 5, 97, 1, "commuting", 50),
    (1, 3, 3, 61, 4, "commuting", 50),
    (2, 3, "all", 401, 1, "general", 3),     # step halvings inside one batch
    (1, 4, "all", 299, 2, "commuting", 2),
    (2, 2, "all", 7, 3, "general", 50),      # quotas 3, 2, 2: below any batch size
    (1, 3, "all", 5, 8, "general", 50),      # quotas of 1 and 0
    (2, 6, "all", 1, 1, "commuting", 50),
    (1, 2, "all", 0, 2, "general", 50),
]
# the A/B split of a candidate is coordinate < dim // 2; at n = 1 dim // 2 = 1
# for both strategies
HALF_SPLIT_CONFIGS = [
    (2, 1, 1, 64, 2, "general", 3),
    (1, 1, "all", 64, 2, "commuting", 3),
]
# each has a full batch whose proposals all move the same half, the one named
ONE_SIDED_CONFIGS = {
    (2, 2, "all", 1500, 1, "general", 50): "A",
    (1, 2, "all", 1500, 1, "general", 50): "B",
    (2, 2, "all", 1500, 1, "commuting", 50): "A",
}
# question 1 reads only sigma_1(A), however many of A's values are carried
QUESTION1_CONFIGS = [
    (1, 4, "all", 450, 2, "general", 10),
    (1, 4, 4, 333, 3, "commuting", 50),
]
# every rejection halves the step, which passes through the subnormals to 0
SUBNORMAL_CONFIGS = [(2, 3, "all", 1400, 1, "general", 1)]
# the closed form's trace and matmul at a size past the configs above (n <= 6):
# a trace of 9 complex entries sums them in two unrolled blocks and a remainder
LARGE_N_CONFIGS = [(2, 9, "all", 60, 2, "general", 50), (1, 9, "all", 60, 2, "commuting", 50)]
REFERENCE_CONFIGS += (HALF_SPLIT_CONFIGS + list(ONE_SIDED_CONFIGS) + QUESTION1_CONFIGS
                      + SUBNORMAL_CONFIGS + LARGE_N_CONFIGS)


class TestSearchMatchesReference:
    @pytest.mark.parametrize("config", REFERENCE_CONFIGS,
                             ids=lambda c: "q{}-n{}-k{}-b{}-r{}-{}-s{}".format(*c))
    def test_bitwise(self, monkeypatch, config):
        question, n, k_policy, budget, restarts, strategy, stall_limit = config
        seed = 1000 + 7 * n + question
        ref_margin, ref_evaluations, ref_pair, ref_k = _reference_search(
            question, n, k_policy, budget, restarts, SeededStream(seed), strategy,
            stall_limit=stall_limit,
        )
        monkeypatch.setattr(ptrace, "STALL_LIMIT", stall_limit)
        res = search_counterexample(
            question, n, k_policy, budget, restarts, SeededStream(seed),
            strategy=strategy, tolerance=-np.inf,
        )
        assert res.evaluations == ref_evaluations
        assert np.array_equal(res.best_margin, ref_margin)
        if ref_pair is None:
            assert res.witness is None
            return
        assert res.witness.k == ref_k
        assert np.array_equal(res.witness.A, ref_pair[0])
        assert np.array_equal(res.witness.B, ref_pair[1])

    @pytest.mark.parametrize("config", list(ONE_SIDED_CONFIGS),
                             ids=lambda c: "q{}-n{}-k{}-b{}-r{}-{}-s{}".format(*c))
    def test_one_sided_configs_have_a_one_sided_full_batch(self, monkeypatch, config):
        question, n, k_policy, budget, restarts, strategy, stall_limit = config
        real, sides = ptrace._worst_margins, []

        def recording(pairs, question, ks, moved_b=None, sa=None, sd=None):
            if moved_b is not None and len(moved_b) == ptrace.SEARCH_BATCH:
                sides.append(set(moved_b.tolist()))
            return real(pairs, question, ks, moved_b, sa, sd)

        monkeypatch.setattr(ptrace, "_worst_margins", recording)
        monkeypatch.setattr(ptrace, "STALL_LIMIT", stall_limit)
        search_counterexample(question, n, k_policy, budget, restarts,
                              SeededStream(1000 + 7 * n + question), strategy=strategy)
        assert {ONE_SIDED_CONFIGS[config] == "B"} in sides


# the benchmark's search at its two seeds, a full round and more restarts
# than one round holds (at n = 8 a round takes 4096 // (5 * 64) = 12
# restarts), and the commuting strategy, each basis its own restart's:
# (question, n, k_policy, budget, restarts, strategy, stall_limit, seed)
LOCKSTEP_CONFIGS = [
    (2, 3, "all", 3000, 8, "general", 50, 271828),
    (2, 3, "all", 3000, 8, "general", 50, 161803),
    (2, 8, "all", 600, 12, "general", 50, 75),
    (1, 8, "all", 600, 12, "commuting", 5, 76),
    (2, 8, "all", 600, 16, "general", 50, 75),
    (1, 8, "all", 600, 16, "commuting", 5, 76),
    (1, 4, "all", 1200, 8, "commuting", 10, 77),
    (2, 5, 3, 700, 6, "commuting", 50, 78),
]


class TestLockstepMatchesReference:
    @pytest.mark.parametrize("config", LOCKSTEP_CONFIGS,
                             ids=lambda c: "q{}-n{}-k{}-b{}-r{}-{}-s{}-seed{}".format(*c))
    def test_bitwise(self, monkeypatch, config):
        question, n, k_policy, budget, restarts, strategy, stall_limit, seed = config
        ref_margin, ref_evaluations, ref_pair, ref_k = _reference_search(
            question, n, k_policy, budget, restarts, SeededStream(seed), strategy,
            stall_limit=stall_limit,
        )
        monkeypatch.setattr(ptrace, "STALL_LIMIT", stall_limit)
        res = search_counterexample(
            question, n, k_policy, budget, restarts, SeededStream(seed),
            strategy=strategy, tolerance=-np.inf,
        )
        assert res.evaluations == ref_evaluations
        assert np.array_equal(res.best_margin, ref_margin)
        assert res.witness.k == ref_k
        assert np.array_equal(res.witness.A, ref_pair[0])
        assert np.array_equal(res.witness.B, ref_pair[1])

    @pytest.mark.parametrize("strategy", ["general", "commuting"])
    def test_restarts_finishing_in_different_rounds(self, monkeypatch, strategy):
        # quota 1 scores only its start point and joins no round; the others
        # leave the rounds at different times
        question, n, quotas, stall_limit = 2, 4, [300, 5, 1, 120, 41], 7
        stream = SeededStream(73)
        monkeypatch.setattr(ptrace, "STALL_LIMIT", stall_limit)
        finals = ptrace._climb([stream.offset(r).generator() for r in range(len(quotas))],
                               quotas, question, n, np.arange(1, n + 1), strategy)
        assert len(finals) == len(quotas)
        for r, (quota, (pair, margin, k, _, _)) in enumerate(zip(quotas, finals)):
            ref_margin, _, ref_pair, ref_k = _reference_search(
                question, n, "all", quota, 1, stream.offset(r), strategy,
                stall_limit=stall_limit,
            )
            assert np.array_equal(margin, ref_margin) and k == ref_k
            assert np.array_equal(pair[0], ref_pair[0])
            assert np.array_equal(pair[1], ref_pair[1])

    @pytest.mark.parametrize("strategy", ["general", "commuting"])
    def test_no_round_stack_exceeds_chunk_entries(self, monkeypatch, strategy):
        n = 8
        group = CHUNK_ENTRIES // (ptrace.SEARCH_BATCH * n * n)  # restarts a round takes
        restarts = group + 4
        real, stacks = ptrace._worst_margins, []

        def recording(pairs, *args):
            stacks.append(pairs.shape[0])
            return real(pairs, *args)

        monkeypatch.setattr(ptrace, "_worst_margins", recording)
        search_counterexample(2, n, budget=restarts * 40, restarts=restarts,
                              s=SeededStream(74), strategy=strategy)
        # each operand (the Ts, the As, the Bs, the moved factors) holds one
        # n x n matrix per pair; a full round of a full group is the largest
        assert all(size * n * n <= CHUNK_ENTRIES for size in stacks)
        assert max(stacks) == group * ptrace.SEARCH_BATCH


class TestSearchKernel:
    """The restarts of a search run in lockstep: each round scores the
    pending candidates of every live restart as one stack and reuses the
    spectrum of the factor a candidate did not move, so a round of K_r
    candidates from each live restart r makes one SVD call on its sum K_r
    operators and one eigvalsh call on its sum K_r moved factors."""

    @staticmethod
    def _lone_stacks(monkeypatch, strategy, stream, quota):
        """The stack sizes of one restart run alone, each checked to be
        min(batch, quota - used) by replaying the accept rule on its scores."""
        real, scores = ptrace._worst_margins, []

        def recording(pairs, *args):
            out = real(pairs, *args)
            scores.append(out[0])
            return out

        monkeypatch.setattr(ptrace, "_worst_margins", recording)
        search_counterexample(2, 3, budget=quota, restarts=1, s=stream, strategy=strategy)
        monkeypatch.setattr(ptrace, "_worst_margins", real)
        current, used, sizes = scores[0][0], 1, []
        for values in scores[1:-1]:  # the last call is the witness decision
            assert len(values) == min(ptrace.SEARCH_BATCH, quota - used)
            accepted = np.flatnonzero(values > current)
            if accepted.size:
                current = values[accepted[0]]
            used += int(accepted[0]) + 1 if accepted.size else len(values)
            sizes.append(len(values))
        assert used == quota
        return sizes

    @pytest.mark.parametrize("strategy", ["general", "commuting"])
    def test_one_svd_call_on_2k_matrices_per_stack(self, monkeypatch, strategy):
        restarts, quota, stream = 3, 101, SeededStream(71)
        lone = [self._lone_stacks(monkeypatch, strategy, stream.offset(r), quota)
                for r in range(restarts)]
        assert len({len(stacks) for stacks in lone}) > 1  # they end in different rounds
        calls = []

        def counting(name, real):
            def call(a):
                a = np.asarray(a)
                calls.append((name, a.shape[0] if a.ndim == 3 else 1))
                return real(a)
            return call

        monkeypatch.setattr(ptrace, "singular_values",
                            counting("svd", ptrace.singular_values))
        monkeypatch.setattr(ptrace, "_hermitian_spectra",
                            counting("eigvalsh", ptrace._hermitian_spectra))
        res = search_counterexample(2, 3, budget=restarts * quota, restarts=restarts,
                                    s=stream, strategy=strategy)
        assert res.evaluations == restarts * quota
        # every start point (T, then tr(B) I - nB and A), then round j with the
        # j-th stack of each restart still live (T, then the moved factors);
        # last, the witness check
        rounds = [sum(stacks[j] for stacks in lone if j < len(stacks))
                  for j in range(max(map(len, lone)))]
        assert calls == [("svd", restarts), ("eigvalsh", 2 * restarts),
                         *[call for size in rounds
                           for call in (("svd", size), ("eigvalsh", size))],
                         ("svd", 1), ("eigvalsh", 2)]

    @pytest.mark.parametrize("strategy", ["general", "commuting"])
    @pytest.mark.parametrize("question", [1, 2])
    def test_carried_spectra_are_those_of_the_final_pair(self, strategy, question):
        n = 4
        gens = [SeededStream(72, r).generator() for r in range(3)]
        finals = ptrace._climb(gens, [400, 150, 1], question, n, np.arange(1, n + 1),
                               strategy)
        assert len(finals) == 3
        for (a, b), margin, k, sa, sd in finals:
            assert sa.tobytes() == _reference_spectrum(a).tobytes()
            assert sd.tobytes() == _reference_spectrum(trace_deviation(b)).tobytes()
            assert (margin, k) == worst_question_margin(a, b, question)


class _RecordingGenerator(np.random.Generator):
    """A generator that keeps the arguments and results of its draws."""

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self.calls.append(("integers", args, kwargs, out))
        return out

    def standard_normal(self, *args, **kwargs):
        out = super().standard_normal(*args, **kwargs)
        self.calls.append(("standard_normal", args, kwargs, out))
        return out


def _recording(g):
    g = _RecordingGenerator(g.bit_generator)
    g.calls = []
    return g


class TestProposalBlocks:
    """Stream contract v4: after its start point (and, under the commuting
    strategy, its basis before that) a restart draws its proposals in blocks
    of ``PROPOSAL_BLOCK``, each ``g.integers(dim, size=P)`` then
    ``g.standard_normal(P)``, and only when it needs a block's first one."""

    @staticmethod
    def _draws(monkeypatch, strategy, budget, restarts):
        """Each restart's generator calls in one search, by restart."""
        gens = {}
        real = SeededStream.generator

        def recording(stream):
            gens[stream.stream_index] = g = _recording(real(stream))
            return g

        monkeypatch.setattr(SeededStream, "generator", recording)
        search_counterexample(2, 3, budget=budget, restarts=restarts, s=SeededStream(78),
                              strategy=strategy)
        monkeypatch.setattr(SeededStream, "generator", real)
        return {r: g.calls for r, g in gens.items()}

    @pytest.mark.parametrize("strategy", ["general", "commuting"])
    def test_proposals_do_not_depend_on_budget_or_restarts(self, monkeypatch, strategy):
        p = ptrace.PROPOSAL_BLOCK
        dim = 18 if strategy == "general" else 6
        head = 2 if strategy == "commuting" else 1  # the basis normals, the start point
        # quotas of restarts 0 and 1: 375 (2 blocks), 601 (3 blocks), 100 (1 block)
        runs = [self._draws(monkeypatch, strategy, budget, restarts)
                for budget, restarts in [(3000, 8), (1202, 2), (200, 2)]]
        for r in (0, 1):
            calls = [run[r] for run in runs]
            assert [len(c) for c in calls] == [head + 2 * 2, head + 2 * 3, head + 2 * 1]
            longest = calls[1]
            for shorter in calls:
                for (name, args, kwargs, out), (name2, args2, kwargs2, out2) in zip(shorter,
                                                                                    longest):
                    assert (name, args, kwargs) == (name2, args2, kwargs2)
                    assert np.array_equal(out, out2)
            assert [(name, args, kwargs) for name, args, kwargs, _ in longest[head:]] == [
                ("integers", (dim,), {"size": p}), ("standard_normal", (p,), {})] * 3

    @pytest.mark.parametrize("strategy", ["general", "commuting"])
    def test_a_block_is_drawn_when_its_first_proposal_is_needed(self, strategy):
        # quota q scores its start point and q - 1 proposals
        p, n = ptrace.PROPOSAL_BLOCK, 2
        quotas = [1, 2, p + 1, p + 2, 2 * p + 1]
        gens = [_recording(SeededStream(79, r).generator()) for r in range(len(quotas))]
        ptrace._climb(gens, quotas, 2, n, np.arange(1, n + 1), strategy)
        head = 2 if strategy == "commuting" else 1
        assert [(len(g.calls) - head) // 2 for g in gens] == [0, 1, 1, 2, 2]

    def test_step_halving_stays_exact_when_subnormal(self, monkeypatch):
        # five times the smallest subnormal u, halved one candidate at a time, is
        # 2u (2.5u rounds to even), u, then 0 (0.5u rounds to even); a single
        # product 5u * 0.5**3 would round 0.625u to u
        u = 2.0**-1074
        monkeypatch.setattr(ptrace, "STEP_INIT", 5 * u)
        monkeypatch.setattr(ptrace, "STALL_LIMIT", 1)
        width = ptrace.PROPOSAL_BLOCK + ptrace.SEARCH_BATCH
        restart = ptrace._Restart(SeededStream(80).generator(), 50,
                                  np.zeros(width, dtype=np.int64), np.zeros(width))
        steps = restart.propose(8)
        assert steps == [5 * u, 2 * u, u, 0.0, 0.0, 0.0][: ptrace.SEARCH_BATCH]
        assert restart.step == 0.0 and restart.stalls == 0
