import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inv3sat import (
    Cnf,
    ModelSet,
    TautologyRejected,
    candidate_formula,
    cnf_of,
    evaluate,
    mk_clause,
    three_limited_closure,
)
from inv3sat.closure import (
    decode_mask,
    encode_clause,
    prefix_literal_masks,
    restrict_mask_clauses,
    saturate_masks,
)
from inv3sat.formula import (
    _true_masks,
    assignment_mask,
    clause_sort_key,
    mask_to_models,
    prefix_window,
    satisfies_clause,
    satisfying_mask,
)
from inv3sat.inverse import analyze

from conftest import restrict
from strategies import assignments, clauses, formulas, model_sets


class TestMkClause:
    def test_sorts_by_variable(self):
        assert mk_clause((5, -2, 1)) == (1, -2, 5)

    def test_negative_before_nothing_special(self):
        # Sign does not reorder: sorting is on the variable index alone.
        assert mk_clause((-3, 1)) == (1, -3)

    def test_deduplicates(self):
        assert mk_clause((2, 2, -1)) == (-1, 2)

    def test_empty_clause_allowed(self):
        assert mk_clause(()) == ()

    def test_rejects_tautology(self):
        with pytest.raises(TautologyRejected):
            mk_clause((1, -1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mk_clause((0, 1))

    @given(clauses(6))
    def test_idempotent(self, c):
        assert mk_clause(c) == c


def test_clause_sort_key_orders_positive_before_negative():
    cs = [(-1,), (1,), (1, 2), (-1, 2), (2,)]
    cs.sort(key=clause_sort_key)
    assert cs == [(1,), (1, 2), (-1,), (-1, 2), (2,)]


class TestCnf:
    def test_coerces_raw_clauses(self):
        f = cnf_of(3, [(3, -1), (2,)])
        assert f.clauses == frozenset({(-1, 3), (2,)})

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(ValueError):
            cnf_of(2, [(3,)])

    @pytest.mark.parametrize("raw", [(1, -1), (0, 2), (-4,)])
    def test_cnf_of_rejects_tautology_zero_and_out_of_range(self, raw):
        with pytest.raises((TautologyRejected, ValueError)):
            cnf_of(3, [(1,), raw])

    @given(
        st.integers(min_value=3, max_value=6).flatmap(
            lambda n: st.tuples(model_sets(n), assignments(n), st.integers(0, n))
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_pipeline_builds_only_canonical_clauses(self, case):
        # Cnf does not re-check its clauses, so every producer inside the
        # pipeline must emit them canonical and within range
        models, assignment, k = case
        n = models.n
        raw = candidate_formula(models)
        closed = three_limited_closure(raw).closed_formula
        direct = analyze(models).closed
        true_mask, false_mask = prefix_literal_masks(assignment[:k])
        masks = restrict_mask_clauses(map(encode_clause, closed.clauses), true_mask, false_mask)
        restricted = [decode_mask(m) for m in masks]
        saturated = [decode_mask(m) for m in saturate_masks(masks, n)[0]]
        for clause in (*raw.clauses, *closed.clauses, *direct.clauses, *restricted, *saturated):
            assert clause == mk_clause(clause)
            assert all(abs(lit) <= n for lit in clause)

    def test_ordered_is_deterministic(self):
        f = cnf_of(3, [(2,), (1, 2), (-1,), (1,)])
        assert f.ordered() == ((1,), (1, 2), (-1,), (2,))

    def test_len_and_iteration(self):
        f = cnf_of(3, [(1,), (2, 3)])
        assert len(f.clauses) == 2


class TestModelSet:
    def test_preserves_presentation_order(self):
        ms = ModelSet(2, ("10", "01"))
        assert ms.models == ("10", "01")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ModelSet(2, ("10", "10"))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ModelSet(3, ("10",))

    def test_rejects_bad_characters(self):
        with pytest.raises(ValueError):
            ModelSet(2, ("1x",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ModelSet(2, ())

    def test_member_set(self):
        ms = ModelSet(2, ("10", "01"))
        assert ms.member_set() == {"10", "01"}
        assert len(ms) == 2


class TestValues:
    # Cnf and ModelSet are plain classes that behave like the frozen
    # dataclasses they replaced: equal, hashed, pickled and shown by their
    # fields, and immutable

    @pytest.mark.parametrize("value", [cnf_of(3, [(1, -2), (3,)]), Cnf(2), ModelSet(3, ("011", "100"))])
    def test_pickle_round_trip(self, value):
        # campaign workers with jobs > 1 receive ModelSets
        again = pickle.loads(pickle.dumps(value))
        assert type(again) is type(value) and again == value and hash(again) == hash(value)

    def test_equality_and_hash_follow_the_fields(self):
        assert ModelSet(2, ["10", "01"]) == ModelSet(2, ("10", "01")) != ModelSet(2, ("01", "10"))
        assert Cnf(3, [(1,)]) == Cnf(3, frozenset({(1,)})) != Cnf(4, [(1,)])
        assert hash(Cnf(3, [(1,)])) == hash(Cnf(3, frozenset({(1,)})))
        assert Cnf(1) != ModelSet(1, ("1",)) and Cnf(3) != (3, frozenset())

    def test_fields_cannot_be_set_or_deleted(self):
        ms, f = ModelSet(2, ("10",)), Cnf(2)
        for value, name in ((ms, "n"), (ms, "models"), (f, "num_vars"), (f, "clauses"), (ms, "other")):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert ms == ModelSet(2, ("10",)) and f == Cnf(2)

    def test_repr_names_the_fields(self):
        assert repr(ModelSet(2, ("10",))) == "ModelSet(n=2, models=('10',))"
        assert repr(Cnf(1, [(1,)])) == "Cnf(num_vars=1, clauses=frozenset({(1,)}))"


class TestEvaluation:
    def test_satisfies_clause(self):
        assert satisfies_clause((1, -3), "100")
        assert satisfies_clause((1, -3), "001") is False
        assert satisfies_clause((), "01") is False

    def test_evaluate(self):
        f = cnf_of(3, [(1, 2), (-3,)])
        assert evaluate(f, "100")
        assert not evaluate(f, "001")

    @given(formulas(4), assignments(4))
    def test_evaluate_matches_mask(self, f, a):
        mask = satisfying_mask(f)
        assert evaluate(f, a) == bool(mask >> int(a, 2) & 1)


class TestRestriction:
    # the restriction the pipeline runs, on clause masks (see conftest.restrict)

    def test_satisfied_clause_drops(self):
        assert restrict(cnf_of(2, [(1, 2)]), "1").clauses == set()

    def test_false_literal_removed(self):
        assert restrict(cnf_of(2, [(1, 2)]), "0").clauses == {(2,)}

    def test_unbound_clause_untouched(self):
        assert restrict(cnf_of(4, [(3, 4)]), "10").clauses == {(3, 4)}

    def test_fully_false_gives_empty(self):
        assert restrict(cnf_of(2, [(1, -2)]), "01").clauses == {()}

    def test_empty_prefix_is_identity(self):
        f = cnf_of(3, [(1, 2), (-3,)])
        assert restrict(f, "") == f

    @given(formulas(5), st.integers(min_value=0, max_value=5))
    def test_restriction_semantics(self, f, k):
        # a satisfies F|I exactly when a with its first k bits overridden
        # by I satisfies F.
        prefix = format(3, "05b")[:k]
        restricted = restrict(f, prefix)
        for a in range(2**5):
            s = format(a, "05b")
            overridden = prefix + s[k:]
            assert evaluate(restricted, s) == evaluate(f, overridden)

    @given(formulas(5))
    def test_restricted_formula_never_mentions_bound_variables(self, f):
        restricted = restrict(f, "10")
        for c in restricted.clauses:
            assert all(abs(l) > 2 for l in c)


class TestTruthTables:
    def test_satisfying_mask_single_clause(self):
        # (x1) over n=2: satisfied by 10 and 11, i.e. assignment indices 2, 3.
        f = cnf_of(2, [(1,)])
        assert satisfying_mask(f) == 0b1100

    def test_satisfying_mask_empty_formula_is_everything(self):
        f = Cnf(2, frozenset())
        assert satisfying_mask(f) == 0b1111

    def test_satisfying_mask_empty_clause_is_nothing(self):
        f = cnf_of(2, [()])
        assert satisfying_mask(f) == 0

    def test_assignment_mask_round_trip(self):
        ms = ModelSet(3, ("101", "000", "111"))
        mask = assignment_mask(ms)
        assert mask_to_models(mask, 3) == ("000", "101", "111")

    @given(model_sets(4))
    def test_mask_round_trip_sorts(self, ms):
        got = mask_to_models(assignment_mask(ms), 4)
        assert got == tuple(sorted(ms.models))

    @given(formulas(4))
    def test_mask_against_pointwise_evaluation(self, f):
        mask = satisfying_mask(f)
        for a in range(2**4):
            assert bool(mask >> a & 1) == evaluate(f, format(a, "04b"))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_and_empty_tables_round_trip(self, n):
        everything = tuple(format(a, f"0{n}b") for a in range(1 << n))
        full = (1 << (1 << n)) - 1
        assert mask_to_models(full, n) == everything
        assert assignment_mask(everything) == full
        assert mask_to_models(0, n) == ()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_true_masks_against_pointwise_definition(self, n):
        for v, mask in enumerate(_true_masks(n), 1):
            assert all((mask >> a & 1) == (a >> (n - v) & 1) for a in range(1 << n)), v

    @given(formulas(4))
    def test_prefix_window_against_pointwise_evaluation(self, f):
        mask = satisfying_mask(f)
        for k in range(5):
            for p in range(1 << k):
                prefix = format(p, f"0{k}b") if k else ""
                window = prefix_window(mask, prefix, 4)
                for a in range(1 << (4 - k)):
                    rest = format(a, f"0{4 - k}b") if k < 4 else ""
                    assert bool(window >> a & 1) == evaluate(f, prefix + rest)
                assert window >> (1 << (4 - k)) == 0
