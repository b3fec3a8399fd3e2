import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from inv3sat import (
    CapExceeded,
    InputTooSmall,
    ModelSet,
    candidate_formula,
    decide,
    evaluate,
    oracle,
    oracle_decide,
    verify_witness,
)
from inv3sat.formula import satisfying_mask
from inv3sat.oracle import candidate_models

from conftest import WORKED_EXTRAS, WORKED_WITNESS
from strategies import model_sets


class TestOracleDecide:
    def test_golden_worked_instance(self, worked_models):
        verdict = oracle_decide(worked_models)
        assert verdict.extra_models == WORKED_EXTRAS
        assert verdict.extra_model_exists()
        assert verdict.checked_count == 32

    def test_extras_are_sorted(self, worked_models):
        verdict = oracle_decide(worked_models)
        assert list(verdict.extra_models) == sorted(verdict.extra_models)

    def test_exact_set_has_no_extras(self):
        models = tuple(
            s for s in (format(a, "03b") for a in range(8)) if s != "000"
        )
        verdict = oracle_decide(ModelSet(3, models))
        assert not verdict.extra_model_exists()
        assert verdict.extra_models == ()

    def test_every_n3_subset_is_representable(self):
        # With three variables every non-member is excluded by one
        # full-width clause, so no subset has an extra model.
        for bits in range(1, 256):
            models = tuple(
                format(a, "03b") for a in range(8) if bits >> a & 1
            )
            verdict = oracle_decide(ModelSet(3, models))
            assert verdict.extra_models == (), models

    def test_cap_enforced(self, worked_models):
        with pytest.raises(CapExceeded):
            oracle_decide(worked_models, cap=4)

    def test_two_variables_are_too_few(self):
        small = ModelSet(2, ("01", "10"))
        with pytest.raises(InputTooSmall):
            oracle_decide(small)
        # the cap is checked first
        with pytest.raises(CapExceeded):
            oracle_decide(small, cap=1)

    @given(model_sets(5))
    @settings(max_examples=200, deadline=None)
    def test_extras_satisfy_candidate_and_are_non_members(self, ms):
        verdict = oracle_decide(ms)
        f = candidate_formula(ms)
        members = ms.member_set()
        for extra in verdict.extra_models:
            assert extra not in members
            assert evaluate(f, extra)

    @given(model_sets(4))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_decide(self, ms):
        verdict = oracle_decide(ms)
        report = decide(ms)
        assert report.exactly_representable() == (
            not verdict.extra_model_exists()
        )


class TestVerifyWitness:
    def test_golden_witness(self, worked_models):
        assert verify_witness(worked_models, WORKED_WITNESS)

    def test_member_is_not_a_witness(self, worked_models):
        assert not verify_witness(worked_models, "00111")

    def test_falsifying_assignment_is_not_a_witness(self, worked_models):
        # 00000 falsifies (3 4 5) from the candidate formula.
        assert not verify_witness(worked_models, "00000")

    def test_all_golden_extras_verify(self, worked_models):
        for extra in WORKED_EXTRAS:
            assert verify_witness(worked_models, extra)


def _subset(n: int, bits: int) -> ModelSet:
    return ModelSet(n, tuple(format(a, f"0{n}b") for a in range(1 << n) if bits >> a & 1))


def _random_sets(seed: int):
    """Seeded model sets at n = 5..12, with m = 1 and m = 2^n among them."""
    rng = random.Random(seed)
    for n in range(5, 13):
        for m in (1, 2, 1 << n, *(rng.randint(1, min(60, 1 << n)) for _ in range(20))):
            yield ModelSet(n, tuple(format(a, f"0{n}b") for a in rng.sample(range(1 << n), m)))


class TestCandidateModels:
    """The oracle's truth table, read off the definition, against the one
    the raw candidate formula gives clause by clause."""

    def test_every_n3_set(self):
        for bits in range(1, 256):
            ms = _subset(3, bits)
            assert candidate_models(ms) == satisfying_mask(candidate_formula(ms)), ms

    def test_sampled_n4_sets(self):
        for bits in random.Random(4).sample(range(1, 1 << 16), 2000):
            ms = _subset(4, bits)
            assert candidate_models(ms) == satisfying_mask(candidate_formula(ms)), ms

    def test_random_sets_n5_to_12(self):
        for ms in _random_sets(12):
            assert candidate_models(ms) == satisfying_mask(candidate_formula(ms)), ms

    def test_two_variables_are_too_few(self):
        with pytest.raises(InputTooSmall):
            candidate_models(ModelSet(2, ("01",)))


class TestVerifyWitnessAgainstTheFormula:
    def test_random_assignments(self):
        rng = random.Random(7)
        for ms in _random_sets(7):
            f, members, n = candidate_formula(ms), ms.member_set(), ms.n
            for w in [*ms.models[:2], *(format(rng.getrandbits(n), f"0{n}b") for _ in range(20))]:
                assert verify_witness(ms, w) == (w not in members and evaluate(f, w)), (ms, w)


def test_oracle_shares_no_code_with_the_pipeline():
    # the oracle is the pipeline's independent reference: it may import
    # from formula, never from the modules that compute the answer
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {m for m in imported if m and m.split(".")[-1] in ("inverse", "closure")}
    assert "formula" in imported
