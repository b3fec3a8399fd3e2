import pytest
from hypothesis import given, settings

from inv3sat import (
    CapExceeded,
    ModelSet,
    candidate_formula,
    decide,
    evaluate,
    oracle_decide,
    verify_witness,
)

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
        report = decide(ms, kmin=1)
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
