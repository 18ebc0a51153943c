import dataclasses

import numpy as np
import pytest

from kyfan.ensembles import GENERATOR_ID, SeededStream, ginibre
from kyfan.forms import fan_form, hadamard_form
from kyfan.matrixcore import singular_values
from kyfan.suite import (
    PARTS_BY_ID,
    CheckReport,
    Witness,
    check_ahj,
    check_fan_sigma1,
    check_hadamard_family,
    check_hmn,
    check_lemma31,
    check_lemma32,
    check_product_family,
    check_von_neumann,
    counterexample_inputs,
    reevaluate_margin,
    reproduce_fan_counterexample,
    von_neumann_equality_witness,
)

RT13_3 = np.sqrt(13.0) / 3.0


def _zero_violation_checkers():
    yield lambda n, t, s: check_von_neumann(n, t, s)
    yield lambda n, t, s: check_product_family(n, t, s)
    yield lambda n, t, s: check_hadamard_family(n, t, s)
    yield lambda n, t, s: check_ahj(n, t, s, "given")
    yield lambda n, t, s: check_ahj(n, t, s, "sqrt")
    yield lambda n, t, s: check_lemma31(hadamard_form(n), n, t, s)
    yield lambda n, t, s: check_lemma32(n, t, s)
    yield lambda n, t, s: check_hmn(hadamard_form(n), n, t, s)
    yield lambda n, t, s: check_hmn(fan_form(n), n, t, s)
    yield lambda n, t, s: check_fan_sigma1(n, t, s)


class TestCheckersHold:
    @pytest.mark.parametrize("idx", range(10))
    def test_no_violations_small_sweep(self, idx):
        runner = list(_zero_violation_checkers())[idx]
        for n in (2, 4):
            report = runner(n, 150, SeededStream(1000 + idx, 7 * n))
            assert report.violations == 0, report.inequality_id
            assert report.worst_margin <= report.tolerance
            assert report.trials == 150
            assert report.generator_id == GENERATOR_ID

    def test_k_range_covers_all_orders(self):
        report = check_product_family(5, 20, SeededStream(2))
        assert report.k_range == (1, 2, 3, 4, 5)

    def test_k_filter(self):
        report = check_product_family(5, 20, SeededStream(2), k_values=[1, 3])
        assert report.k_range == (1, 3)
        assert set(report.per_k_worst) == {1, 3}

    def test_replay_same_seed_same_margins(self):
        a = check_von_neumann(4, 60, SeededStream(3))
        b = check_von_neumann(4, 60, SeededStream(3))
        assert a.worst_margin == b.worst_margin
        assert a.per_k_worst == b.per_k_worst

    def test_trials_zero(self):
        report = check_von_neumann(4, 0, SeededStream(4))
        assert report.trials == 0
        assert report.violations == 0
        assert report.witness is None
        assert report.worst_margin == -np.inf

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            check_von_neumann(0, 10, SeededStream(5))
        with pytest.raises(ValueError):
            check_von_neumann(3, -1, SeededStream(5))
        with pytest.raises(TypeError):
            check_von_neumann(3, 10, "seed")
        with pytest.raises(ValueError):
            check_ahj(3, 10, SeededStream(5), "cube")

    def test_form_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_lemma31(hadamard_form(3), 4, 10, SeededStream(6))
        with pytest.raises(ValueError):
            check_hmn(fan_form(2), 3, 10, SeededStream(6))


class TestEqualityCases:
    def test_product_family_identity_pair_margin_zero(self):
        eye = np.eye(3, dtype=complex)
        ks, lhs, rhs = PARTS_BY_ID["product-family"]({"A": eye, "B": eye})
        assert np.array_equal(np.asarray(lhs), np.asarray(rhs))

    def test_von_neumann_witness_attains_bound(self):
        for i in range(25):
            b = ginibre(5, SeededStream(7, i))
            a = von_neumann_equality_witness(b)
            s = singular_values(a)
            assert abs(s[0] - 1.0) <= 1e-12 and np.all(s[1:] <= 1e-12)
            assert abs(abs(np.trace(a @ b)) - singular_values(b)[0]) <= 1e-10

    def test_hadamard_family_diagonal_equality(self):
        d = np.diag([3.0, 2.0, 1.0]).astype(complex)
        ks, lhs, rhs = PARTS_BY_ID["hadamard-family"]({"A": d, "B": d})
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestFanCounterexample:
    def test_repro_margin(self):
        w = reproduce_fan_counterexample()
        assert abs(w.margin - (RT13_3 - 1.0)) <= 1e-12
        assert w.k == 1

    def test_repro_spectrum(self):
        w = reproduce_fan_counterexample()
        s = singular_values(w.matrices["product"])
        assert np.allclose(s, [RT13_3, RT13_3, 1.0 / 3.0], atol=1e-12)

    def test_inputs_are_feasible_for_the_hadamard_theorem(self):
        mats = counterexample_inputs()
        assert np.allclose(np.linalg.norm(mats["X"], axis=0), 1.0, atol=1e-14)
        assert np.allclose(np.linalg.norm(mats["Y"], axis=0), 1.0, atol=1e-14)
        u = mats["S"]
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-12

    def test_checker_flags_injected_counterexample(self):
        report = check_lemma31(
            fan_form(3), 3, 0, SeededStream(8), extra_trials=[counterexample_inputs()]
        )
        assert report.inequality_id == "lemma31-fan"
        assert report.violations == 1
        assert abs(report.worst_margin - (RT13_3 - 1.0)) <= 1e-9
        assert report.witness is not None
        assert report.witness.k == 1

    def test_injected_counterexample_survives_random_trials(self):
        report = check_lemma31(
            fan_form(3), 3, 40, SeededStream(9), extra_trials=[counterexample_inputs()]
        )
        assert report.violations >= 1
        assert report.worst_margin >= RT13_3 - 1.0 - 1e-9


class TestWitnessRoundTrip:
    def test_reevaluation_matches_recorded_margin(self):
        for ineq_id, runner in {
            "von-neumann": lambda: check_von_neumann(4, 50, SeededStream(10)),
            "product-family": lambda: check_product_family(4, 50, SeededStream(11)),
            "hadamard-family": lambda: check_hadamard_family(4, 50, SeededStream(12)),
            "ahj-given": lambda: check_ahj(4, 50, SeededStream(13), "given"),
            "ahj-sqrt": lambda: check_ahj(4, 50, SeededStream(14), "sqrt"),
            "lemma31": lambda: check_lemma31(hadamard_form(4), 4, 50, SeededStream(15)),
            "lemma32": lambda: check_lemma32(4, 50, SeededStream(16)),
            "hmn-fan": lambda: check_hmn(fan_form(4), 4, 50, SeededStream(17)),
            "fan-sigma1": lambda: check_fan_sigma1(4, 50, SeededStream(18)),
        }.items():
            report = runner()
            assert report.inequality_id == ineq_id
            assert report.witness is not None
            again = reevaluate_margin(ineq_id, report.witness)
            assert abs(again - report.witness.margin) <= 1e-12, ineq_id

    def test_reevaluate_rejects_foreign_k(self):
        w = Witness(matrices={"A": np.eye(2, dtype=complex), "B": np.eye(2, dtype=complex)}, k=9, margin=0.0)
        with pytest.raises(ValueError):
            reevaluate_margin("von-neumann", w)

    def test_witness_matrices_are_self_contained(self):
        report = check_hmn(fan_form(3), 3, 30, SeededStream(19))
        assert "mask" in report.witness.matrices


class TestHmnDetails:
    def test_hadamard_mask_consistent(self):
        report = check_hmn(hadamard_form(3), 3, 120, SeededStream(20))
        d = report.details
        assert d["hypothesis_ok"] is True
        assert d["hypothesis_status"] == "no violation observed"
        assert d["consistent_with_iff"] is True
        assert 0.0 < d["max_sigma1_ratio"] <= 1.0 + report.tolerance

    def test_doubling_mask_flags_both_sides(self):
        # mask of all 2s scales sigma_1 by 2: hypothesis fails and the family
        # is violated, so the observed iff-link still holds
        from kyfan.forms import EntrywiseForm

        e1 = np.zeros((3, 3), dtype=complex)
        e1[0, 0] = 1.0
        report = check_hmn(
            EntrywiseForm(np.full((3, 3), 2.0), name="double"),
            3,
            0,
            SeededStream(21),
            extra_trials=[{"A": e1, "B": e1.copy()}],
        )
        d = report.details
        assert report.violations == 3  # sigma(2 e1 e1*) = (2,0,0) breaks every k
        assert d["hypothesis_ok"] is False
        assert d["consistent_with_iff"] is True
        assert abs(report.worst_margin - 1.0) <= 1e-12  # sigma_1 = 2 vs bound 1


class TestReportShape:
    def test_dataclass_fields(self):
        report = check_von_neumann(3, 10, SeededStream(22))
        assert isinstance(report, CheckReport)
        assert report.master_seed == 22
        assert report.elapsed_seconds >= 0.0
        clone = dataclasses.replace(report, elapsed_seconds=0.0)
        assert clone.worst_margin == report.worst_margin


def _trial_inputs(ineq_id, n, g):
    """One trial's matrices for ``ineq_id``, drawn with the public samplers."""
    from kyfan.ensembles import (
        random_contraction, random_subunit_columns, random_unit_vector, sample_unit_columns,
    )

    mask = (fan_form(n) if ineq_id.endswith("fan") else hadamard_form(n)).mask
    if ineq_id.startswith("ahj"):
        return {"X": ginibre(n, g), "Y": ginibre(n, g), "B": ginibre(n, g)}
    if ineq_id.startswith("lemma31"):
        return {"X": random_subunit_columns(n, g), "Y": random_subunit_columns(n, g),
                "S": random_contraction(n, g), "mask": mask}
    if ineq_id == "lemma32":
        return {"X": sample_unit_columns(n, n, g), "Y": sample_unit_columns(n, n, g),
                "u": random_unit_vector(n, g)[:, None], "v": random_unit_vector(n, g)[:, None]}
    if ineq_id.startswith("hmn"):
        return {"A": random_contraction(n, g), "B": random_contraction(n, g), "mask": mask}
    return {"A": ginibre(n, g), "B": ginibre(n, g)}


def _stack(trials):
    return {name: value if name == "mask" else np.stack([t[name] for t in trials])
            for name, value in trials[0].items()}


class TestStackedEngine:
    @pytest.mark.parametrize("ineq_id", sorted(PARTS_BY_ID))
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_parts_of_a_stack_are_the_parts_of_each_trial(self, ineq_id, n):
        parts = PARTS_BY_ID[ineq_id]
        trials = [_trial_inputs(ineq_id, n, SeededStream(50, t).generator()) for t in range(7)]
        ks, lhs, rhs = parts(_stack(trials))
        assert lhs.shape == rhs.shape == (7, len(ks))
        for i, mats in enumerate(trials):
            ks_one, lhs_one, rhs_one = parts(mats)
            assert list(ks_one) == list(ks)
            assert np.array_equal(lhs[i], np.asarray(lhs_one, dtype=float))
            assert np.array_equal(rhs[i], np.asarray(rhs_one, dtype=float))

    @pytest.mark.parametrize("ineq_id, run", [
        ("product-family", lambda t, s, tol, kv: check_product_family(2, t, s, tolerance=tol, k_values=kv)),
        ("von-neumann", lambda t, s, tol, kv: check_von_neumann(2, t, s, tolerance=tol, k_values=kv)),
        ("hmn-fan", lambda t, s, tol, kv: check_hmn(fan_form(2), 2, t, s, tolerance=tol, k_values=kv)),
    ])
    @pytest.mark.parametrize("tolerance, k_values", [(1e-8, None), (-0.2, None), (-0.2, [2])])
    def test_report_matches_a_trial_by_trial_loop(self, ineq_id, run, tolerance, k_values):
        # 1100 trials at n = 2 span two chunks of the engine
        trials, stream = 1100, SeededStream(51, 3)
        report = run(trials, stream, tolerance, k_values)
        parts = PARTS_BY_ID[ineq_id]
        violations, worst, worst_k, worst_mats, per_k = 0, -np.inf, 0, None, {}
        for t in range(trials):
            mats = _trial_inputs(ineq_id, 2, stream.offset(t).generator())
            ks, lhs, rhs = parts(mats)
            for i, k in enumerate(ks):
                if k_values is not None and k not in k_values:
                    continue
                m = float(lhs[i]) - float(rhs[i])
                violations += m > tolerance * max(1.0, float(rhs[i]))
                per_k[k] = max(per_k.get(k, m), m)
                if m > worst:
                    worst, worst_k, worst_mats = m, k, mats
        assert report.violations == violations
        assert report.worst_margin == worst
        assert report.per_k_worst == per_k
        assert report.witness.k == worst_k
        assert report.witness.matrices.keys() == worst_mats.keys()
        for name, value in worst_mats.items():
            assert np.array_equal(report.witness.matrices[name], value)
