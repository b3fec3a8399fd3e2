import random

import pytest
from hypothesis import given, settings

from inv3sat import (
    Cnf,
    cnf_of,
    is_closed_3limited,
    three_limited_closure,
)
from inv3sat.closure import (
    decode_mask,
    encode_clause,
    prefix_literal_masks,
    restrict_mask_clauses,
    saturate_masks,
)
from inv3sat.formula import prefix_window, satisfying_mask

from conftest import WORKED_CANDIDATE, WORKED_CLOSURE
from strategies import formulas


class TestMaskCodec:
    def test_round_trip(self):
        for c in [(), (1,), (-1,), (1, -2, 5), (-3, 4)]:
            assert decode_mask(encode_clause(c)) == c

    def test_distinct_clauses_distinct_masks(self):
        masks = {encode_clause(c) for c in [(1,), (-1,), (2,), (1, 2), (1, -2)]}
        assert len(masks) == 5


class TestSaturate:
    def test_golden_worked_candidate(self):
        f = cnf_of(5, WORKED_CANDIDATE)
        result = three_limited_closure(f)
        assert result.closed_formula == cnf_of(5, WORKED_CLOSURE)
        assert result.resolution_steps > 0

    def test_unit_pair_resolves_units(self):
        # (x1)(-x1 x2) saturates to (x1)(x2).
        f = cnf_of(2, [(1,), (-1, 2)])
        result = three_limited_closure(f)
        assert result.closed_formula == cnf_of(2, [(1,), (2,)])

    def test_unit_conflict_short_circuits_to_empty(self):
        f = cnf_of(2, [(1,), (-1,), (2,)])
        result = three_limited_closure(f)
        assert result.closed_formula.clauses == frozenset({()})
        assert () in result.closed_formula.clauses

    def test_empty_input_clause_short_circuits(self):
        f = cnf_of(2, [(), (1, 2)])
        result = three_limited_closure(f)
        assert result.closed_formula.clauses == frozenset({()})

    def test_wide_resolvents_are_not_kept(self):
        # Resolving (1 2 3) with (-3 4 5) would give four literals; the
        # width bound forbids keeping it, so the input is already closed.
        f = cnf_of(5, [(1, 2, 3), (-3, 4, 5)])
        result = three_limited_closure(f)
        assert result.closed_formula == f
        assert result.resolution_steps == 0

    def test_rejects_wide_input(self):
        with pytest.raises(ValueError):
            three_limited_closure(cnf_of(4, [(1, 2, 3, 4)]))

    def test_idempotent_with_zero_work(self):
        f = cnf_of(5, WORKED_CANDIDATE)
        once = three_limited_closure(f)
        again = three_limited_closure(once.closed_formula)
        assert again.closed_formula == once.closed_formula
        assert again.resolution_steps == 0
        assert again.subsumption_deletions == 0

    @given(formulas(5))
    @settings(max_examples=300, deadline=None)
    def test_closure_preserves_models(self, f):
        closed = three_limited_closure(f).closed_formula
        assert satisfying_mask(closed) == satisfying_mask(f)

    @given(formulas(5))
    @settings(max_examples=300, deadline=None)
    def test_closure_is_closed(self, f):
        closed = three_limited_closure(f).closed_formula
        assert is_closed_3limited(closed)

    @given(formulas(6))
    @settings(max_examples=200, deadline=None)
    def test_closure_idempotent(self, f):
        once = three_limited_closure(f).closed_formula
        again = three_limited_closure(once)
        assert again.closed_formula == once
        assert again.resolution_steps == 0
        assert again.subsumption_deletions == 0

    def test_closure_is_order_independent(self):
        # The public type holds clauses as a set, so permuting the input
        # listing cannot matter; check the engine agrees after relabeling
        # the variables, which genuinely reshuffles its work order.
        rng = random.Random(11)
        for _ in range(50):
            n = 6
            raw = [
                tuple(
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), rng.randint(1, 3))
                )
                for _ in range(rng.randint(1, 8))
            ]
            perm = list(range(1, n + 1))
            rng.shuffle(perm)

            def relabel(clause, table):
                return tuple(
                    table[abs(l) - 1] * (1 if l > 0 else -1) for l in clause
                )

            f = cnf_of(n, raw)
            g = cnf_of(n, [relabel(c, perm) for c in f.clauses])
            closed_f = three_limited_closure(f).closed_formula
            closed_g = three_limited_closure(g).closed_formula
            relabeled = cnf_of(n, [relabel(c, perm) for c in closed_f.clauses])
            assert relabeled == closed_g


class TestIsClosed:
    def test_open_formula_detected(self):
        assert not is_closed_3limited(cnf_of(2, [(1,), (-1, 2)]))

    def test_subsumed_pair_detected(self):
        assert not is_closed_3limited(cnf_of(2, [(1,), (1, 2)]))

    def test_closed_formula_accepted(self):
        assert is_closed_3limited(cnf_of(5, WORKED_CLOSURE))


class TestMaskRestriction:
    def test_matches_clause_restriction(self):
        # over the free variables, the restriction's models are the window
        # of the formula's truth table at the prefix, for every nonempty prefix
        f = cnf_of(5, WORKED_CANDIDATE)
        masks = [encode_clause(c) for c in f.ordered()]
        full = satisfying_mask(f)
        for k in range(1, 6):
            for a in range(1 << k):
                prefix = format(a, f"0{k}b")
                t, fa = prefix_literal_masks(prefix)
                restricted = restrict_mask_clauses(masks, t, fa)
                assert not any(m & (t | fa) for m in restricted), prefix
                free = Cnf(5 - k, frozenset(decode_mask(m >> 2 * k) for m in restricted))
                assert satisfying_mask(free) == prefix_window(full, prefix, 5), prefix

    def test_satisfied_clauses_drop(self):
        masks = [encode_clause((1, 2))]
        t, fa = prefix_literal_masks("1")
        assert restrict_mask_clauses(masks, t, fa) == set()

    def test_falsified_clause_becomes_empty_mask(self):
        masks = [encode_clause((1, 2))]
        t, fa = prefix_literal_masks("00")
        assert restrict_mask_clauses(masks, t, fa) == {0}


def test_saturate_masks_counts_deletions():
    # (1 2) is subsumed once (2) appears by resolving (1 2) with (-1 2).
    masks = [encode_clause(c) for c in [(1, 2), (-1, 2)]]
    closed, steps, deletions = saturate_masks(set(masks), 2)
    assert {decode_mask(m) for m in closed} == {(2,)}
    assert steps >= 1
    assert deletions >= 1
