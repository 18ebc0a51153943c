import dataclasses

import numpy as np
import pytest

from kyfan import suite
from kyfan.ensembles import GENERATOR_ID, SeededStream, ginibre
from kyfan.forms import EntrywiseForm, fan_form, hadamard_form
from kyfan.matrixcore import factor_sqrt, singular_values
from kyfan.norms import inequality_holds
from kyfan.ptrace import search_counterexample
from kyfan.suite import (
    BLOCK_ENTRIES,
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
    _check,
    _family,
    _draw_block,
    _draw_two,
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

    @pytest.mark.parametrize("run", [
        lambda s: check_product_family(3, 10, s, k_values=[7]),
        lambda s: check_product_family(3, 10, s, k_values=[0]),
        lambda s: check_product_family(3, 10, s, k_values=[]),
        lambda s: check_von_neumann(3, 0, s),
        lambda s: check_lemma31(hadamard_form(3), 3, 5, s, k_values=[2]),
    ], ids=["k-above-n", "k-zero", "no-k", "no-trial", "lemma31-k2"])
    def test_a_section_that_scores_nothing_is_refused(self, monkeypatch, run):
        opened = []
        monkeypatch.setattr(SeededStream, "generator", lambda s: opened.append(s))
        with pytest.raises(ValueError):
            run(SeededStream(1))
        assert opened == []  # refused before any block was drawn

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
        lhs, rhs = _family("product-family").parts({"A": eye, "B": eye})
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
        lhs, rhs = _family("hadamard-family").parts({"A": d, "B": d})
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
            # a form's checker names the report after the form
            "hmn-double": lambda: check_hmn(
                EntrywiseForm(np.full((4, 4), 2.0), name="double"), 4, 50, SeededStream(23)),
            "lemma31-masked": lambda: check_lemma31(
                EntrywiseForm(np.eye(4) + 0.5), 4, 50, SeededStream(24)),
        }.items():
            report = runner()
            assert report.inequality_id == ineq_id
            assert report.witness is not None
            again = reevaluate_margin(ineq_id, report.witness)
            assert abs(again - report.witness.margin) <= 1e-12, ineq_id

    def test_reevaluate_rejects_an_id_no_family_writes(self):
        w = Witness(matrices={"A": np.eye(2, dtype=complex), "B": np.eye(2, dtype=complex)},
                    k=1, margin=0.0)
        with pytest.raises(KeyError):
            reevaluate_margin("ahj-cube", w)

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
    # the masked evaluators also run under the masks of lemma31-fan and hmn-masked
    @pytest.mark.parametrize("ineq_id", sorted([*suite.FAMILIES, "lemma31-fan", "hmn-masked"]))
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_parts_of_a_stack_are_the_parts_of_each_trial(self, ineq_id, n):
        family = _family(ineq_id)
        parts = family.parts
        trials = [_trial_inputs(ineq_id, n, SeededStream(50, t).generator()) for t in range(7)]
        lhs, rhs = parts(_stack(trials))
        assert lhs.shape == rhs.shape == (7, len(family.scored_ks(n)))
        for i, mats in enumerate(trials):
            lhs_one, rhs_one = parts(mats)
            assert np.array_equal(lhs[i], np.asarray(lhs_one, dtype=float))
            assert np.array_equal(rhs[i], np.asarray(rhs_one, dtype=float))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_von_neumann_parts_match_the_trace_taken_before_the_svds(self, n):
        # a full block of trials at n; the evaluator takes the trace last
        trials = BLOCK_ENTRIES // (n * n)
        g = SeededStream(53, n).generator()
        a, b = g.standard_normal((2, trials, n, n)) + 1j * g.standard_normal((2, trials, n, n))
        traces = np.trace(a @ b, axis1=-2, axis2=-1)
        sa, sb = singular_values(a), singular_values(b)
        lhs, rhs = suite._parts_von_neumann({"A": a, "B": b})
        assert np.array_equal(lhs[:, 0], [abs(t) for t in traces])
        assert np.array_equal(rhs[:, 0], [float(np.dot(x, y)) for x, y in zip(sa, sb)])

    @pytest.mark.parametrize("ineq_id, run", [
        ("product-family", lambda t, s, tol, kv: check_product_family(2, t, s, tolerance=tol, k_values=kv)),
        ("von-neumann", lambda t, s, tol, kv: check_von_neumann(2, t, s, tolerance=tol, k_values=kv)),
        ("hmn-fan", lambda t, s, tol, kv: check_hmn(fan_form(2), 2, t, s, tolerance=tol, k_values=kv)),
    ])
    @pytest.mark.parametrize("tolerance, k_values", [(1e-8, None), (-0.2, None), (-0.2, [2])])
    def test_report_matches_a_trial_by_trial_loop(self, ineq_id, run, tolerance, k_values):
        # 1100 trials at n = 2 span two blocks of the engine
        trials, stream = 1100, SeededStream(51, 3)
        report = run(trials, stream, tolerance, k_values)
        _assert_report_is_the_reference(report, ineq_id, 2, trials, stream, tolerance, k_values)

    @pytest.mark.parametrize("ineq_id", ["ahj-given", "ahj-sqrt", "lemma31-fan", "lemma32"])
    def test_report_of_every_draw_matches_a_trial_by_trial_loop(self, ineq_id):
        # 500 trials at n = 3 span two blocks of 455
        trials, stream = 500, SeededStream(52, 2**24)
        report = _run_family(ineq_id, 3, trials, stream, tolerance=-0.2)
        _assert_report_is_the_reference(report, ineq_id, 3, trials, stream, -0.2, None)


# ---------------------------------------------------------------------------
# stream contract v6: block b of a section is drawn from stream base + b by
# the documented generator calls, written out here call by call
# ---------------------------------------------------------------------------


def _block_size(n):
    return max(1, BLOCK_ENTRIES // n**2)


def _uniforms(n, b, g):
    """One uniform call over all b trials of the block."""
    return g.uniform(0.0, 1.0, size=(b, n))


def _rows(normals, *shapes):
    """Each scored trial's row of normals, cut into its normal calls in order, each row-major."""
    c, out, start = len(normals), [], 0
    for shape in shapes:
        width = int(np.prod(shape))
        out.append(normals[:, start:start + width].reshape(c, *shape))
        start += width
    return out


def _lemma31_calls(n, b, c, g):
    lx, ly, ts = _uniforms(n, b, g)[:c], _uniforms(n, b, g)[:c], _uniforms(n, b, g)[:c]
    wx, wy, wu, wv = _rows(g.standard_normal((c, 8 * n * n)), *[(2, n, n)] * 4)
    return wx, lx, wy, ly, wu, wv, ts


def _contraction_calls(n, b, c, g):
    ta, tb = _uniforms(n, b, g)[:c], _uniforms(n, b, g)[:c]
    wua, wva, wub, wvb = _rows(g.standard_normal((c, 8 * n * n)), *[(2, n, n)] * 4)
    return wua, wva, ta, wub, wvb, tb


DOCUMENTED_CALLS = {
    # draw: the generator calls of a block of b trials whose first c are
    # scored, in order, cut into the arrays of the one-trial calls
    "_draw_two": lambda n, b, c, g: _rows(g.standard_normal((c, 4 * n * n)),
                                          (2, n, n), (2, n, n)),
    "_draw_three": lambda n, b, c, g: _rows(g.standard_normal((c, 6 * n * n)),
                                            (2, n, n), (2, n, n), (2, n, n)),
    "_draw_lemma31": _lemma31_calls,
    "_draw_lemma32": lambda n, b, c, g: _rows(g.standard_normal((c, 4 * n * n + 4 * n)),
                                              (n, 2, n), (n, 2, n), (n,), (n,), (n,), (n,)),
    "_draw_contractions": _contraction_calls,
}


def _form(ineq_id, n):
    return fan_form(n) if ineq_id.endswith("fan") else hadamard_form(n)


#: id -> (name of its one-trial draw, whether the family has a mask)
FAMILIES = {
    "von-neumann": ("_draw_two", False),
    "product-family": ("_draw_two", False),
    "hadamard-family": ("_draw_two", False),
    "fan-sigma1": ("_draw_two", False),
    "ahj-given": ("_draw_three", False),
    "ahj-sqrt": ("_draw_two", False),
    "lemma31": ("_draw_lemma31", True),
    "lemma31-fan": ("_draw_lemma31", True),
    "lemma32": ("_draw_lemma32", False),
    "hmn-hadamard": ("_draw_contractions", True),
    "hmn-fan": ("_draw_contractions", True),
    "hmn-masked": ("_draw_contractions", True),
}


def _run_family(ineq_id, n, trials, stream, **kwargs):
    form = _form(ineq_id, n) if FAMILIES[ineq_id][1] else None
    return _check(ineq_id, n, trials, stream, form, **kwargs)


def _ginibre_one(w):
    return (w[0] + 1j * w[1]) / np.sqrt(2.0)


def _haar_one(w):
    q, r = np.linalg.qr(w[0] + 1j * w[1])
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _contraction_one(wu, wv, t):
    return (_haar_one(wu) * t) @ _haar_one(wv).conj().T


def _subunit_one(w, lengths):
    z = w[0] + 1j * w[1]
    return z / np.linalg.norm(z, axis=0) * lengths


def _unit_one(z):
    return z / np.linalg.norm(z, axis=-1)  # the contract's last-axis norm, not a 1-D BLAS norm


def _unit_columns_one(w):
    x = np.zeros((len(w), len(w)), dtype=np.complex128)
    for j, column in enumerate(w):
        x[:, j] = _unit_one(column[0] + 1j * column[1])
    return x


def _reference_trial(ineq_id, n, drawn, t):
    """Trial t's matrices, built alone from the arrays its block drew."""
    d = [column[t] for column in drawn]
    if ineq_id == "ahj-given":
        mats = {"X": _ginibre_one(d[0]), "Y": _ginibre_one(d[1]), "B": _ginibre_one(d[2])}
    elif ineq_id == "ahj-sqrt":
        x, y = factor_sqrt(_ginibre_one(d[0]))
        mats = {"X": x, "Y": y, "B": _ginibre_one(d[1])}
    elif ineq_id.startswith("lemma31"):
        mats = {"X": _subunit_one(d[0], d[1]), "Y": _subunit_one(d[2], d[3]),
                "S": _contraction_one(d[4], d[5], d[6])}
    elif ineq_id == "lemma32":
        mats = {"X": _unit_columns_one(d[0]), "Y": _unit_columns_one(d[1]),
                "u": _unit_one(d[2] + 1j * d[3])[:, None], "v": _unit_one(d[4] + 1j * d[5])[:, None]}
    elif ineq_id.startswith("hmn"):
        mats = {"A": _contraction_one(*d[:3]), "B": _contraction_one(*d[3:])}
    else:
        mats = {"A": _ginibre_one(d[0]), "B": _ginibre_one(d[1])}
    if FAMILIES[ineq_id][1]:
        mats["mask"] = _form(ineq_id, n).mask
    return mats


def _assert_report_is_the_reference(report, ineq_id, n, trials, stream, tolerance, k_values):
    """Block b draws from stream base + b by the documented calls; each trial is scored alone."""
    size = _block_size(n)
    calls = DOCUMENTED_CALLS[FAMILIES[ineq_id][0]]
    parts = _family(ineq_id).parts
    ks = _family(ineq_id).scored_ks(n)
    violations, worst, worst_k, worst_mats, per_k = 0, -np.inf, 0, None, {}
    for block in range(-(-trials // size)):
        count = min(size, trials - block * size)
        drawn = calls(n, size, count, stream.offset(block).generator())
        for t in range(count):
            mats = _reference_trial(ineq_id, n, drawn, t)
            lhs, rhs = parts(mats)
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


def _per_trial_scores(ineq_id, n, trials, stream):
    """Every trial's lhs and rhs rows, in trial order, as the engine scored them."""
    rows = []
    _run_family(ineq_id, n, trials, stream,
                observe=lambda mats, lhs, rhs: rows.append(np.concatenate([lhs, rhs], axis=1)))
    return np.concatenate(rows)


class TestStreamContractV2:
    @pytest.mark.parametrize("draw", list(DOCUMENTED_CALLS))
    @pytest.mark.parametrize("n, size", [(1, 3), (3, 455), (5, 1)])
    def test_block_draw_is_its_documented_generator_calls(self, draw, n, size):
        # a whole block, and the last block of a section that ends inside it
        for count in sorted({size, max(1, size // 10), max(1, size - 1)}):
            g, reference = SeededStream(60, 9).generator(), SeededStream(60, 9).generator()
            got = _draw_block(getattr(suite, draw), n, size, count, g)
            want = DOCUMENTED_CALLS[draw](n, size, count, reference)
            assert len(got) == len(want) == len(getattr(suite, draw))
            for a, b in zip(got, want):
                assert a.shape[0] == count
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert g.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("ineq_id", sorted(FAMILIES))
    def test_first_trials_of_a_longer_run_are_scored_the_same(self, ineq_id):
        n, stream = 5, SeededStream(61, 5 * 2**24)
        size = _block_size(n)
        longer = _per_trial_scores(ineq_id, n, 2 * size + 7, stream)
        for m in (1, 50, size - 1, size, size + 1):
            assert np.array_equal(_per_trial_scores(ineq_id, n, m, stream), longer[:m]), m

    @pytest.mark.parametrize("n, trials", [(2, 1), (2, 1024), (2, 1025), (5, 162), (5, 164),
                                           (5, 500), (64, 3), (70, 2)])
    def test_a_section_opens_one_stream_per_block(self, monkeypatch, n, trials):
        opened = []
        generator = SeededStream.generator

        def record(stream):
            opened.append(stream.stream_index)
            return generator(stream)

        monkeypatch.setattr(SeededStream, "generator", record)
        base = 7 * 2**24
        check_product_family(n, trials, SeededStream(62, base))
        assert opened == list(range(base, base + -(-trials // _block_size(n))))

    @pytest.mark.parametrize("ineq_id", sorted(FAMILIES))
    def test_a_section_draws_nothing_beyond_its_documented_calls(self, monkeypatch, ineq_id):
        # at n = 3 a block holds 455 trials: the section ends 45 into its second
        n, trials, stream = 3, 500, SeededStream(63, 3 * 2**24)
        size = _block_size(n)
        opened = []
        generator = SeededStream.generator

        def record(s):
            opened.append(generator(s))
            return opened[-1]

        monkeypatch.setattr(SeededStream, "generator", record)
        _run_family(ineq_id, n, trials, stream)
        assert len(opened) == 2
        for block, g in enumerate(opened):
            reference = generator(stream.offset(block))
            DOCUMENTED_CALLS[FAMILIES[ineq_id][0]](n, size, min(size, trials - block * size),
                                                   reference)
            assert g.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("seed", [3.7, True, "5"])
def test_a_seed_that_is_not_a_stream_or_an_int_is_refused(seed):
    # int() would silently run 3.7 as seed 3 and True as seed 1
    with pytest.raises(TypeError):
        check_von_neumann(2, 1, seed)
    with pytest.raises(TypeError):
        search_counterexample(1, 2, budget=2, restarts=1, s=seed)


def test_an_int_seed_is_its_stream():
    for seed in (5, np.int64(5)):
        assert (check_von_neumann(2, 3, seed).worst_margin
                == check_von_neumann(2, 3, SeededStream(5)).worst_margin)
        assert (search_counterexample(1, 2, budget=4, restarts=1, s=seed).best_margin
                == search_counterexample(1, 2, budget=4, restarts=1, s=SeededStream(5)).best_margin)


#: (lhs, rhs) pairs within a few ulps of lhs - rhs = 1e-8 max(1, rhs), where the
#: forms lhs - rhs > 1e-8 max(1, rhs) and lhs > rhs + 1e-8 max(1, rhs) disagree
BOUNDARY_PAIRS = [
    (3.0532379939763743, 3.0532379634439946),
    (0.7004270140932435, 0.7004270040932434),
    (42.461644830028256, 42.46164440541181),
]


class TestOneToleranceRule:
    """A checker's entries, :func:`inequality_holds` and the hmn hypothesis
    reach one verdict on one (lhs, rhs) pair, also at the threshold."""

    @staticmethod
    def _synthetic(lhs, rhs):
        """A build of zero 1 x 1 inputs and parts that score every trial at k = 1
        as (lhs, rhs)."""

        def build(*drawn):
            zeros = np.zeros((len(drawn[0]), 1, 1), dtype=complex)
            return {"A": zeros, "B": zeros}

        def parts(mats):
            shape = (len(mats["A"]), 1)
            return np.full(shape, lhs), np.full(shape, rhs)

        return build, parts

    @pytest.mark.parametrize("lhs, rhs", BOUNDARY_PAIRS)
    def test_every_verdict_agrees_at_the_threshold(self, monkeypatch, lhs, rhs):
        tol = 1e-8
        holds = bool(inequality_holds(lhs, rhs, tol))
        assert not holds  # the margin is past the threshold
        build, parts = self._synthetic(lhs, rhs)
        monkeypatch.setitem(suite.FAMILIES, "synthetic", suite.Family(
            "synthetic", "synthetic", None, _draw_two, build, parts, lambda n: (1,)))
        report = _check("synthetic", 1, 1, SeededStream(7), tolerance=tol)
        assert report.worst_margin == lhs - rhs
        assert (report.violations == 0) == holds
        # the hmn probe reads its k = 1 parts, so the forward sigma_1 is lhs
        # against rhs; the adjoint of zero inputs is 0
        family = suite.FAMILIES["hmn-hadamard"]
        monkeypatch.setitem(suite.FAMILIES, "hmn-hadamard",
                            dataclasses.replace(family, build=build, parts=parts))
        hmn = check_hmn(hadamard_form(1), 1, 1, SeededStream(7), tolerance=tol)
        assert (hmn.violations == 0) == holds
        assert hmn.details["hypothesis_ok"] == holds
        assert hmn.details["max_sigma1_ratio"] == lhs / rhs
