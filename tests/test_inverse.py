import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inv3sat import (
    Answer,
    ClosureTestFailed,
    Cnf,
    ModelSet,
    WitnessExtractionFailed,
    candidate_formula,
    cnf_of,
    decide,
    evaluate,
    extract_witness,
    is_closed_3limited,
    prefix_cover,
    three_limited_closure,
)
from inv3sat import harness, inverse
from inv3sat.closure import decode_mask, prefix_literal_masks, restrict_mask_clauses, saturate_masks
from inv3sat.formula import InputTooSmall, prefix_window, satisfies_clause, satisfying_mask
from inv3sat.harness import EXHAUSTIVE, RANDOM_SUBSET, InstanceSpec, examine_instance, generate
from inv3sat.inverse import _projections_occur, analyze, open_prefixes, probe

from conftest import (
    WORKED_CANDIDATE,
    WORKED_CLOSURE,
    WORKED_STRATUM_3,
    WORKED_STRATUM_4,
    WORKED_STRATUM_5,
    WORKED_MODELS,
    WORKED_WITNESS,
    PARITY_EQUATIONS,
    STRATUM4_MODELS,
    STRATUM4_WITNESS,
    affine_models,
    parity_models,
)
from strategies import assignments, formulas, model_sets


class TestCandidateFormula:
    def test_golden_worked_instance(self, worked_models, worked_candidate):
        assert candidate_formula(worked_models) == worked_candidate

    def test_single_model_all_triples(self):
        # One model over three variables leaves seven of the eight clauses
        # on the only triple.
        ms = ModelSet(3, ("111",))
        f = candidate_formula(ms)
        assert len(f.clauses) == 7
        assert all(len(c) == 3 for c in f.clauses)
        assert (1, 2, 3) in f.clauses
        assert (-1, -2, -3) not in f.clauses

    def test_full_cube_leaves_nothing(self):
        ms = ModelSet(3, tuple(format(a, "03b") for a in range(8)))
        assert candidate_formula(ms).clauses == frozenset()

    def test_rejects_small_n(self):
        with pytest.raises(InputTooSmall):
            candidate_formula(ModelSet(2, ("00",)))

    def test_every_clause_satisfied_by_every_model(self, worked_models):
        f = candidate_formula(worked_models)
        for c in f.clauses:
            for m in worked_models.models:
                assert satisfies_clause(c, m)

    @given(st.integers(min_value=3, max_value=7).flatmap(model_sets))
    @settings(max_examples=200, deadline=None)
    def test_maximality(self, ms):
        # A 3-clause over distinct variables is in the candidate exactly
        # when every input model satisfies it, and the candidate holds
        # nothing else.
        f = candidate_formula(ms)
        want = set()
        for vars3 in itertools.combinations(range(1, ms.n + 1), 3):
            for signs in itertools.product((1, -1), repeat=3):
                clause = tuple(v * s for v, s in zip(vars3, signs))
                if all(satisfies_clause(clause, m) for m in ms.models):
                    want.add(clause)
        assert f.clauses == want

    def test_closed_candidate_golden(self, worked_models):
        assert analyze(worked_models).closed == cnf_of(5, WORKED_CLOSURE)

    def test_single_model_closure_is_units(self):
        closed = analyze(ModelSet(3, ("111",))).closed
        assert closed.clauses == frozenset({(1,), (2,), (3,)})


def _minimal_satisfied_clauses(ms):
    # Read off phi directly: a clause of width <= 3 that every model
    # satisfies while no proper sub-clause (the empty one included) does.
    def satisfied(clause):
        return all(satisfies_clause(clause, m) for m in ms.models)

    out = set()
    for width in (1, 2, 3):
        for vs in itertools.combinations(range(1, ms.n + 1), width):
            for signs in itertools.product((1, -1), repeat=width):
                clause = tuple(v * s for v, s in zip(vs, signs))
                if satisfied(clause) and not any(
                    satisfied(sub)
                    for size in range(width)
                    for sub in itertools.combinations(clause, size)
                ):
                    out.add(clause)
    return out


def _assert_closure_is_resolution(ms):
    expect = three_limited_closure(candidate_formula(ms)).closed_formula
    assert analyze(ms).closed == expect, ms.models


def _biased_models(rng, n, m, one):
    """m distinct assignments whose bits are 1 with probability `one`, so
    that some patterns with two or three 0s stay unshown."""
    picks = {}
    while len(picks) < m:
        picks[sum((rng.random() < one) << v for v in range(n))] = None
    return ModelSet(n, tuple(format(a, f"0{n}b") for a in picks))


class TestClosedCandidate:
    # analyze builds the closure straight from the model bitsets; bounded
    # resolution over the candidate is the independent reference.

    def test_exhaustive_n3_matches_resolution(self):
        for ms in generate(InstanceSpec(EXHAUSTIVE, 3)):
            _assert_closure_is_resolution(ms)

    def test_random_n4_to_n9_matches_resolution(self):
        for n in range(4, 10):
            for ms in generate(InstanceSpec(RANDOM_SUBSET, n, count=167, seed=20261019)):
                _assert_closure_is_resolution(ms)

    def test_dense_n14_to_n18_matches_resolution(self):
        # few models over many variables: most triples close because the
        # pair pattern's models all give the third variable one value
        rng = random.Random(20261018)
        for t in range(12):
            n, m = 14 + t % 5, 3 + t % 4
            models = tuple(format(a, f"0{n}b") for a in rng.sample(range(1 << n), m))
            _assert_closure_is_resolution(ModelSet(n, models))

    # Past LANE_MODELS models the lanes hold a sample, which only filters:
    # the sets below cross that boundary.

    @pytest.mark.parametrize("m", [63, 64, 65])
    def test_lane_boundary_matches_resolution(self, m):
        rng = random.Random(20261019 + m)
        for n in (12, 20):
            _assert_closure_is_resolution(_biased_models(rng, n, m, 0.8))

    @pytest.mark.parametrize("n, m, one", [(40, 100, 0.8), (32, 300, 0.8), (24, 1000, 0.9), (40, 1000, 0.5)])
    def test_many_models_match_resolution(self, n, m, one):
        _assert_closure_is_resolution(_biased_models(random.Random(n * m), n, m, one))

    @pytest.mark.parametrize("n, d", [(24, 9), (30, 10)])
    def test_affine_sets_match_resolution(self, n, d):
        ms = affine_models(n, d, seed=1)
        expect = three_limited_closure(candidate_formula(ms)).closed_formula
        assert len(ms) == 1 << d
        assert {len(c) for c in expect.clauses} >= {2, 3}
        assert analyze(ms).closed == expect
        assert analyze(ModelSet(n, ms.models[::-1])).closed == expect

    def test_rare_pair_off_the_lane_sample(self):
        # x1 = x2 = 1 only in three models the lanes do not hold, so every
        # lane of that pair pattern reads empty: the full columns must keep
        # the one triple it closes, -1 -2 -4, and drop the false ones on x3
        m, n = 100, 8
        held = {t * 2654435761 % m for t in range(inverse.LANE_MODELS)}
        rare = [r for r in range(m) if r not in held][:3]
        rng = random.Random(20261019)
        rows = [None] * m
        for t, (r, x3) in enumerate(zip(rare, "010")):
            rows[r] = f"11{x3}0{t:04b}"
        seen = set(rows)
        for r in range(m):
            while rows[r] is None:
                row = format(rng.getrandbits(n), f"0{n}b")
                if not row.startswith("11") and row not in seen:
                    rows[r] = row
                    seen.add(row)
        ms = ModelSet(n, tuple(rows))
        assert not any(row.startswith("11") for row in inverse._lane_rows(ms))
        closed = analyze(ms).closed.clauses
        assert (-1, -2, -4) in closed
        assert (-1, -2, 3) not in closed and (-1, -2, -3) not in closed
        _assert_closure_is_resolution(ms)

    def test_exhaustive_n3_matches_definition(self):
        for ms in generate(InstanceSpec(EXHAUSTIVE, 3)):
            assert analyze(ms).closed.clauses == _minimal_satisfied_clauses(ms), ms.models

    @given(st.integers(min_value=3, max_value=7).flatmap(model_sets))
    @settings(max_examples=200, deadline=None)
    def test_matches_definition(self, ms):
        assert analyze(ms).closed.clauses == _minimal_satisfied_clauses(ms)

    @given(st.integers(min_value=7, max_value=8).flatmap(lambda n: model_sets(n, max_models=100, min_models=40)))
    @settings(max_examples=40, deadline=None)
    def test_matches_definition_past_the_lanes(self, ms):
        assert analyze(ms).closed.clauses == _minimal_satisfied_clauses(ms)


def _assert_closure_outputs(ms):
    """`_closure`'s clause masks and refuter table against their definitions,
    the refuters computed from the model strings (first model in the top bit);
    `analyze(ms).closed` decodes the masks."""
    masks, refute = inverse._closure(ms, inverse._columns(ms))
    closed = {decode_mask(mask) for mask in masks}
    assert len(masks) == len(closed) and all(0 < mask.bit_count() <= 3 for mask in masks)
    assert analyze(ms).closed.clauses == closed
    m, want = len(ms), [0] * (2 * ms.n + 2)
    for *lower, top in closed:
        for r, model in enumerate(ms.models):
            if not any(satisfies_clause((x,), model) for x in lower):  # all models for a unit
                want[2 * abs(top) + (top < 0)] |= 1 << m - 1 - r
    assert refute == want, ms.models


class TestClosureKernel:
    # step 1's pair tables come in groups of four lane models, past
    # LANE_MODELS models the lanes hold a sample, and its constants are
    # cached per n: the sets below cross each of those boundaries.

    def test_outputs_exhaustive_n3(self):
        for ms in generate(InstanceSpec(EXHAUSTIVE, 3)):
            _assert_closure_outputs(ms)

    def test_outputs_random_n4_to_n10(self):
        for n in range(4, 11):
            for ms in generate(InstanceSpec(RANDOM_SUBSET, n, count=30, seed=20261020)):
                _assert_closure_outputs(ms)

    def test_outputs_affine_and_parity(self):
        for n in range(5, 17, 3):
            for d in range(1, min(n - 1, 9), 2):
                _assert_closure_outputs(affine_models(n, d, seed=2))
        _assert_closure_outputs(parity_models())

    @pytest.mark.parametrize("m", range(1, 10))
    def test_partial_table_groups_match_definition(self, m):
        rng = random.Random(20261020 + m)
        for n in (3, 7, 12):
            if m <= 1 << n:
                ms = _biased_models(rng, n, m, 0.5)
                assert analyze(ms).closed.clauses == _minimal_satisfied_clauses(ms), ms.models
                _assert_closure_outputs(ms)

    @pytest.mark.parametrize("m", [63, 64, 65, 100, 300])
    def test_sample_sizes_match_resolution(self, m):
        rng = random.Random(20261021 + m)
        for n, one in ((12, 0.8), (16, 0.9), (24, 0.5)):
            ms = _biased_models(rng, n, m, one)
            _assert_closure_is_resolution(ms)
            _assert_closure_outputs(ms)

    def test_alternating_sizes_in_one_process(self):
        rng = random.Random(20261022)
        inverse._pair_constants.cache_clear()
        for n, m in ((5, 20), (40, 100), (5, 12), (12, 80)):
            ms = _biased_models(rng, n, m, 0.5)
            _assert_closure_is_resolution(ms)
            _assert_closure_outputs(ms)
        assert inverse._pair_constants.cache_info().misses == 3  # the second n = 5 set reuses the first one's

    def test_a_campaign_plans_variable_counts_stay_cached(self):
        # a campaign plan spans n = 5..12: a second pass over them misses nothing
        rng = random.Random(20261026)
        inverse._pair_constants.cache_clear()
        sets = [_biased_models(rng, n, 20, 0.5) for n in range(5, 13)]
        for ms in sets + sets:
            analyze(ms)
        assert inverse._pair_constants.cache_info().misses == 8


def _columns_by_row(rows):
    # the definition: variable v's ones have bit m - 1 - r for each row r with a 1 at v
    m = len(rows)
    ones = [sum(1 << m - 1 - r for r, row in enumerate(rows) if row[v] == "1") for v in range(len(rows[0]))]
    return [((1 << m) - 1 ^ o, o) for o in ones]


def _strata_by_slicing(ms):
    # the definition: flip the last bit of each model's k-prefix and keep
    # the flips that start no model, in first-occurrence order
    strata = {}
    for k in range(1, ms.n + 1):
        present = dict.fromkeys(row[:k] for row in ms.models)
        strata[k] = tuple(f for f in (p[:-1] + "10"[p[-1] == "1"] for p in present) if f not in present)
    return strata


def _random_sets(rng, count, n_max, m_max):
    for _ in range(count):
        n = rng.randint(1, n_max)
        m = rng.randint(1, min(1 << n, m_max))
        yield ModelSet(n, tuple(format(a, f"0{n}b") for a in rng.sample(range(1 << n), m)))


class TestBitsets:
    # `_bitsets` takes each column as one strided slice of the joined rows

    def test_exhaustive_n1_to_n4(self):
        for n in range(1, 5):
            for ms in generate(InstanceSpec(EXHAUSTIVE, n)):
                assert inverse._bitsets(ms.models) == _columns_by_row(ms.models), ms.models

    @pytest.mark.parametrize("m_max", [1, 64, 300])
    def test_random_sets(self, m_max):
        rng = random.Random(20261027 + m_max)
        for ms in _random_sets(rng, 200, 40, m_max):
            assert inverse._bitsets(ms.models) == _columns_by_row(ms.models), ms.models
        wide = ModelSet(40, tuple(format(a, "040b") for a in rng.sample(range(1 << 40), m_max)))
        assert inverse._bitsets(wide.models) == _columns_by_row(wide.models)


class TestStrataOffBitsets:
    # a stratum is read off the refinement's split bitset; it must be the
    # slicing definition, in the same order, whether the cover came from
    # prefix_cover or from analyze's columns

    def test_exhaustive_n1_to_n4(self):
        for n in range(1, 5):
            for ms in generate(InstanceSpec(EXHAUSTIVE, n)):
                assert dict(prefix_cover(ms).strata) == _strata_by_slicing(ms), ms.models

    def test_exhaustive_n3_through_analyze(self):
        for ms in generate(InstanceSpec(EXHAUSTIVE, 3)):
            assert dict(analyze(ms).cover.strata) == _strata_by_slicing(ms), ms.models

    def test_random_sets(self):
        rng = random.Random(20261028)
        for ms in (ms for m_max in (4, 40, 300) for ms in _random_sets(rng, 150, 12, m_max)):
            assert dict(prefix_cover(ms).strata) == _strata_by_slicing(ms), ms.models
            if ms.n >= 3:
                assert dict(analyze(ms).cover.strata) == _strata_by_slicing(ms), ms.models

    def test_affine_sets(self):
        for n in range(4, 17):
            for d in range(1, min(n, 9)):
                ms = affine_models(n, d, seed=n + d)
                assert dict(analyze(ms).cover.strata) == _strata_by_slicing(ms), (n, d)

    def test_equality_builds_no_stratum(self, worked_models):
        # the strata are a function of the model set: two reports compare
        # by it, and comparing them builds none of the 16 strata
        rng = random.Random(20261029)
        ms = ModelSet(16, tuple(format(a, "016b") for a in rng.sample(range(1 << 16), 100)))
        first, second = analyze(ms), analyze(ModelSet(16, ms.models))
        assert decide(first)._replace(timings={}) == decide(second)._replace(timings={})
        assert first.cover.strata._built == second.cover.strata._built == {}
        assert first.cover.strata != analyze(ModelSet(16, ms.models[::-1])).cover.strata
        # against another mapping, the strata are built and compared
        assert prefix_cover(worked_models).strata == {
            1: (), 2: (), 3: WORKED_STRATUM_3, 4: WORKED_STRATUM_4, 5: WORKED_STRATUM_5}


def _flips_by_definition(rows, k, bits):
    # the reference definition: dict.fromkeys over the 1s of the row digit string
    digits = format(bits, f"0{len(rows)}b") if bits else ""
    return tuple(dict.fromkeys(rows[r][:k - 1] + "10"[rows[r][k - 1] == "1"] for r in inverse._ones(digits)))


def _dense_models(seed):
    # the benchmark's dense regime: three random models over 18 variables
    rng = random.Random(seed)
    return ModelSet(18, tuple(format(a, "018b") for a in rng.sample(range(1 << 18), 3)))


class TestFlips:
    # `_flips` scans one digit string; it must give the dict.fromkeys
    # definition's prefixes in the same order

    def _check(self, rows, rng):
        m, n = len(rows), len(rows[0])
        full = (1 << m) - 1
        for k in range(1, n + 1):
            for bits in (0, full, rng.getrandbits(m), rng.getrandbits(m) & rng.getrandbits(m), 1, 1 << m - 1):
                assert inverse._flips(rows, k, bits) == _flips_by_definition(rows, k, bits), (m, k)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 65, 300, 5000])
    def test_random_rows(self, m):
        rng = random.Random(20261033 + m)
        n = max(3, m.bit_length() + 2)
        self._check([format(a, f"0{n}b") for a in rng.sample(range(1 << n), m)], rng)

    @pytest.mark.parametrize("m", [2, 40, 5000])
    def test_rows_with_shared_prefixes(self, m):
        # few distinct prefixes, so most flips repeat one seen before
        rng = random.Random(20261034 + m)
        heads = [format(a, "06b") for a in rng.sample(range(64), 3)]
        rows = list(dict.fromkeys(rng.choice(heads) + format(rng.getrandbits(14), "014b") for _ in range(m)))
        self._check(rows, rng)

    def test_dense_and_worked_sets(self, worked_models):
        rng = random.Random(20261035)
        for ms in (worked_models, _dense_models(20261036), affine_models(16, 6, seed=0)):
            self._check(list(ms.models), rng)


class TestPrefixSets:
    def test_model_prefixes(self, worked_models):
        # the length-4 strings that extend no cover prefix start a model
        strata = prefix_cover(worked_models).strata
        covered = {p for k in range(1, 5) for p in strata[k]}
        starts = {
            s for s in (format(a, "04b") for a in range(16))
            if not any(s[:k] in covered for k in range(1, 5))
        }
        assert starts == {"0011", "0101", "1010", "1110", "1111", "1001", "0110", "0010"}

    def test_stratum_golden_k4(self, worked_models):
        assert prefix_cover(worked_models).strata[4] == WORKED_STRATUM_4

    def test_stratum_golden_k5(self, worked_models):
        assert prefix_cover(worked_models).strata[5] == WORKED_STRATUM_5

    def test_stratum_golden_k3(self, worked_models):
        assert prefix_cover(worked_models).strata[3] == WORKED_STRATUM_3

    def test_strata_k1_k2_empty_here(self, worked_models):
        strata = prefix_cover(worked_models).strata
        assert strata[1] == ()
        assert strata[2] == ()

    def test_stratum_preserves_presentation_order(self):
        # Flipping the last bit of each model, first-seen order wins.
        ms = ModelSet(3, ("111", "000"))
        assert prefix_cover(ms).strata[3] == ("110", "001")
        swapped = ModelSet(3, ("000", "111"))
        assert prefix_cover(swapped).strata[3] == ("001", "110")


class TestPrefixCover:
    def test_full_cover_strata(self, worked_models):
        cover = prefix_cover(worked_models)
        nonempty = {k: v for k, v in cover.strata.items() if v}
        assert nonempty == {
            3: WORKED_STRATUM_3,
            4: WORKED_STRATUM_4,
            5: WORKED_STRATUM_5,
        }

    def test_entries_order(self, worked_models):
        cover = prefix_cover(worked_models)
        assert cover.entries() == (
            WORKED_STRATUM_3 + WORKED_STRATUM_4 + WORKED_STRATUM_5
        )

    def test_kmin_bounds(self, worked_models, monkeypatch):
        # every cover starts at stratum 1: any other kmin is refused
        # before a stratum is set up
        def unexpected(*args):
            raise AssertionError("set up strata")

        monkeypatch.setattr(inverse, "_Strata", unexpected)
        for kmin in (0, 2, 4, 6):
            with pytest.raises(ValueError, match="kmin"):
                prefix_cover(worked_models, kmin)

    def test_size_bound(self, worked_models):
        cover = prefix_cover(worked_models)
        assert cover.total() <= worked_models.n * len(worked_models)

    @given(model_sets(5))
    @settings(max_examples=300, deadline=None)
    def test_cover_is_exact(self, ms):
        # Non-members are covered by exactly one prefix, taken at the
        # first position where they leave the model tree; members by none.
        cover = prefix_cover(ms)
        members = ms.member_set()
        entries = set(cover.entries())
        for a in range(2**5):
            s = format(a, "05b")
            hits = [k for k in range(1, 6) if s[:k] in entries]
            if s in members:
                assert hits == []
            else:
                assert len(hits) == 1

    @given(model_sets(5))
    @settings(max_examples=200, deadline=None)
    def test_cover_entries_are_distinct(self, ms):
        cover = prefix_cover(ms)
        entries = cover.entries()
        assert len(entries) == len(set(entries))
        assert cover.total() == len(entries)


class TestCoverSize:
    # decide counts the cover from the refinement's group counts and never
    # builds a stratum its trace does not read

    def test_counted_size_is_the_built_size(self):
        rng = random.Random(20261020)
        for _ in range(3000):
            n = rng.randint(3, 14)
            m = rng.randint(1, min(1 << n, 40))
            # sample draws the models in random order, not sorted
            ms = ModelSet(n, tuple(format(a, f"0{n}b") for a in rng.sample(range(1 << n), m)))
            cover = prefix_cover(ms)
            assert cover.total() == len(cover.entries()), ms.models

    def test_wide_walk_builds_strata_up_to_its_first_prefix(self):
        rng = random.Random(20261021)
        ms = ModelSet(40, tuple(format(a, "040b") for a in rng.sample(range(1 << 40), 100)))
        analysis = analyze(ms)
        report = decide(analysis)
        assert report.answer is Answer.EXTRA_MODEL_EXISTS
        first = len(report.trace[0].prefix)
        assert sorted(analysis.cover.strata._built) == list(range(1, first + 1))
        assert report.cover_size == prefix_cover(ms).total()


class TestDecide:
    def test_golden_paper_walk(self, worked_models):
        # the paper walks from stratum 4: the slice of the trace at or past it
        report = decide(worked_models)
        assert report.answer is Answer.EXTRA_MODEL_EXISTS
        assert report.witness == WORKED_WITNESS
        assert not report.exactly_representable()
        assert sum(len(p) >= 4 for p in prefix_cover(worked_models).entries()) == 12
        paper = [r for r in report.trace if len(r.prefix) >= 4]
        assert [r.prefix for r in paper] == ["0100", "1011"]
        first, second = paper
        assert first.contains_empty and first.closure_clauses == ((),)
        assert not second.contains_empty
        assert second.closure_clauses == ((5,),)

    def test_golden_full_cover_walk(self, worked_models):
        report = decide(worked_models)
        assert report.witness == WORKED_WITNESS
        assert [r.prefix for r in report.trace] == [
            "000",
            "110",
            "0100",
            "1011",
        ]

    def test_timings_present(self, worked_models):
        report = decide(worked_models)
        assert set(report.timings) == {
            "step1_candidate_closure",
            "step2_prefix_cover",
            "step3_prefix_walk",
        }

    def test_exactly_representable_set(self):
        # Models of (x1 v x2 v x3) form an exact 3-CNF model set.
        models = tuple(
            s for s in (format(a, "03b") for a in range(8)) if s != "000"
        )
        report = decide(ModelSet(3, models))
        assert report.answer is Answer.NO_EXTRA_MODEL
        assert report.witness is None
        assert report.exactly_representable()

    def test_full_cube_has_empty_cover(self):
        ms = ModelSet(3, tuple(format(a, "03b") for a in range(8)))
        report = decide(ms)
        assert report.answer is Answer.NO_EXTRA_MODEL
        assert report.cover_size == 0
        assert report.trace == ()

    def test_analysis_gives_the_same_report(self, worked_models):
        direct = decide(worked_models)
        shared = decide(analyze(worked_models))
        assert shared.answer == direct.answer
        assert shared.witness == direct.witness
        assert shared.trace == direct.trace

    def test_stratum4_witness_after_refuted_short_strata(self):
        # the walk from stratum 1 refutes every shorter prefix and stops
        # in stratum 4, where the paper's walk starts
        report = decide(ModelSet(5, STRATUM4_MODELS))
        assert report.witness == STRATUM4_WITNESS
        assert len(report.trace[-1].prefix) == 4
        assert all(r.contains_empty for r in report.trace if len(r.prefix) < 4)

    def test_walks_the_analysis_cover(self, worked_models, monkeypatch):
        analysis = analyze(worked_models)

        def unexpected(*args):
            raise AssertionError("decide built a cover of its own")

        monkeypatch.setattr(inverse, "prefix_cover", unexpected)
        assert decide(analysis).cover_size == analysis.cover.total() == 14

    def test_deadline_expiry_raises(self, worked_models):
        with pytest.raises(TimeoutError):
            decide(worked_models, deadline=0.0)

    def test_deadline_is_checked_without_an_open_prefix(self):
        # the deadline is checked once per stratum, not only before a probe,
        # so also on sets that open no stratum and so call no `_flips`:
        # an affine set and three models over 18 variables
        for ms in (affine_models(40, 10, seed=0), _dense_models(20261030)):
            analysis = analyze(ms)
            assert not any(analysis.opened)
            with pytest.raises(TimeoutError):
                next(open_prefixes(analysis, deadline=0.0))
            with pytest.raises(TimeoutError):
                decide(analysis, deadline=0.0)
            assert analysis.probes == {}
            assert decide(analysis).answer is Answer.NO_EXTRA_MODEL

    def test_witness_is_verified_against_raw_candidate(self, worked_models):
        report = decide(worked_models)
        raw = candidate_formula(worked_models)
        assert evaluate(raw, report.witness)
        assert report.witness not in worked_models.member_set()

    def test_witness_that_is_a_model_is_rejected(self, worked_models, monkeypatch):
        monkeypatch.setattr(inverse, "extract_witness", lambda formula, prefix: WORKED_MODELS[0])
        with pytest.raises(WitnessExtractionFailed, match="failed verification") as exc:
            decide(worked_models)
        assert not isinstance(exc.value, ClosureTestFailed)

    def test_witness_falsifying_a_candidate_clause_is_rejected(self, worked_models, monkeypatch):
        # 00000 is no model, but it falsifies the candidate clause (1, 2, 3)
        assert "00000" not in worked_models.member_set()
        assert not evaluate(candidate_formula(worked_models), "00000")
        monkeypatch.setattr(inverse, "extract_witness", lambda formula, prefix: "00000")
        with pytest.raises(WitnessExtractionFailed, match="failed verification") as exc:
            decide(worked_models)
        assert not isinstance(exc.value, ClosureTestFailed)


class TestProjectionCheck:
    # decide checks a witness against the candidate's definition instead
    # of the raw formula: an assignment satisfies the candidate iff each of
    # its 3-projections occurs in some model.

    @given(st.integers(min_value=3, max_value=6).flatmap(model_sets))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_raw_candidate(self, ms):
        columns = analyze(ms).columns
        raw = candidate_formula(ms)
        for a in range(1 << ms.n):
            w = format(a, f"0{ms.n}b")
            assert _projections_occur(columns, len(ms), w) == evaluate(raw, w), (ms.models, w)

    # The lanes are m + 1 bits wide: one model, 64 and 65 models, and more,
    # over skewed sets with unshown triple patterns.

    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("m", [1, 64, 65, 100, 130])
    def test_flipped_models_and_witnesses_match_the_candidate(self, m, n):
        rng = random.Random(m * n)
        ms = _biased_models(rng, n, m, 0.8)
        analysis, raw = analyze(ms), candidate_formula(ms)
        flipped = []
        for x in ms.models:
            v = rng.randrange(n)
            flipped.append(x[:v] + ("0" if x[v] == "1" else "1") + x[v + 1 :])
        witness = decide(analysis).witness
        assert (m > 1) == bool(witness)
        for a in [*ms.models, *flipped] + ([witness] if witness else []):
            assert _projections_occur(analysis.columns, m, a) == evaluate(raw, a), (m, n, a)

    def test_pattern_shown_only_off_the_lane_sample(self):
        # x1 = x2 = x3 = 1 only in one model that step 1's lane sample does
        # not hold, though each pair of it shows in held models: the test
        # reads every model, and a table over the sample refutes that model
        m, n = 100, 10
        held = {t * 2654435761 % m for t in range(inverse.LANE_MODELS)}
        rare = next(r for r in range(m) if r not in held)
        rng = random.Random(20261019)
        rows, seen = [], set()
        while len(rows) < m:
            if len(rows) == rare:
                row = "111" + format(rng.getrandbits(n - 3), f"0{n - 3}b")
            else:
                row = format(rng.getrandbits(n), f"0{n}b")
                if row.startswith("111"):
                    continue
            if row not in seen:
                rows.append(row)
                seen.add(row)
        ms, model = ModelSet(n, tuple(rows)), rows[rare]
        sample = inverse._lane_rows(ms)
        assert model not in sample and not any(r.startswith("111") for r in sample)
        assert all(any(r[i] == r[j] == "1" for r in sample) for i, j in ((0, 1), (0, 2), (1, 2)))
        assert not _projections_occur(inverse._bitsets(sample), len(sample), model)

        columns, raw = analyze(ms).columns, candidate_formula(ms)
        assert all(_projections_occur(columns, m, model[:k]) for k in range(n + 1))
        for v in range(3, n):
            flip = model[:v] + ("0" if model[v] == "1" else "1") + model[v + 1 :]
            assert _projections_occur(columns, m, flip) == evaluate(raw, flip), flip

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("top", [False, True], ids=["bottom", "top"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_pattern_missing_only_at_an_end(self, n, top, width, monkeypatch):
        # every assignment but those showing 1, 0, 1 (cut to `width`) on
        # the first or the last variables: the one unshown pattern sits in
        # lane 0 or at the last position, so a cut, low or guard off by one
        # at either end misses it
        where = range(n - width, n) if top else range(width)
        pattern = "101"[:width]
        everything = [format(a, f"0{n}b") for a in range(1 << n)]
        ms = ModelSet(n, tuple(a for a in everything if "".join(a[v] for v in where) != pattern))
        columns, raw = analyze(ms).columns, candidate_formula(ms)
        for a in everything:
            shown = "".join(a[v] for v in where) != pattern
            assert _projections_occur(columns, len(ms), a) == evaluate(raw, a) == shown, a
        _probe_matches_saturation(ms, _count_restrictions(monkeypatch))


class TestExtractWitness:
    def test_prefix_is_kept(self):
        f = cnf_of(5, WORKED_CLOSURE)
        w = extract_witness(f, "1011")
        assert w == WORKED_WITNESS

    def test_zero_preferred_on_free_variables(self):
        f = cnf_of(4, [(1, 2)])
        assert extract_witness(f, "") == "0100"

    def test_unmentioned_variables_default_to_zero(self):
        f = cnf_of(4, [(2,)])
        assert extract_witness(f, "") == "0100"

    def test_unsatisfiable_restriction_raises(self):
        f = cnf_of(3, [(1,), (-1,)])
        with pytest.raises(ClosureTestFailed):
            extract_witness(f, "")

    def test_falsified_by_prefix_raises(self):
        f = cnf_of(3, [(1,)])
        with pytest.raises(WitnessExtractionFailed):
            extract_witness(f, "0")

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(formulas(n, max_clauses=3 * n), st.integers(1, n).flatmap(assignments))))
    @settings(max_examples=200, deadline=None)
    def test_witness_is_the_least_extension(self, case):
        f, prefix = case
        n, free = f.num_vars, f.num_vars - len(prefix)
        window = prefix_window(satisfying_mask(f), prefix, n)
        if not window:
            with pytest.raises(ClosureTestFailed):
                extract_witness(f, prefix)
        else:
            least = (int(prefix, 2) << free) + (window & -window).bit_length() - 1
            assert extract_witness(f, prefix) == format(least, f"0{n}b")

    def test_search_deeper_than_the_recursion_limit(self):
        # each pair clause turns into a unit once its first variable is 0,
        # so the search goes 800 levels deep
        f = cnf_of(800, [(2 * i - 1, 2 * i) for i in range(1, 401)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            assert extract_witness(f, "") == "01" * 400
        finally:
            sys.setrecursionlimit(limit)

    @given(st.integers(min_value=3, max_value=8).flatmap(model_sets))
    @settings(max_examples=200, deadline=None)
    def test_decide_witness_is_the_closed_formulas(self, ms):
        # decide searches the saturated restriction, which keeps the models
        # of the restriction of the whole closed formula
        analysis = analyze(ms)
        report = decide(analysis)
        if report.witness is not None:
            assert report.witness == extract_witness(analysis.closed, report.trace[-1].prefix)

    @given(model_sets(5), st.integers(min_value=0, max_value=31))
    @settings(max_examples=200, deadline=None)
    def test_extracted_witness_satisfies_closure(self, ms, a):
        closed = analyze(ms).closed
        prefix = format(a, "05b")[: ms.n // 2]
        try:
            w = extract_witness(closed, prefix)
        except WitnessExtractionFailed:
            return
        assert w.startswith(prefix)
        assert evaluate(closed, w)


class TestOpenPrefixes:
    def test_probes_answer_for_the_whole_cover(self):
        # a cover prefix that open_prefixes skips probes to the empty clause
        # alone, and an open one's probe is what a fresh probe gives
        rng = random.Random(20261022)
        for _ in range(200):
            n = rng.randint(3, 10)
            m = rng.randint(1, min(1 << n, 30))
            ms = ModelSet(n, tuple(format(a, f"0{n}b") for a in rng.sample(range(1 << n), m)))
            reference, analysis = analyze(ms), analyze(ms)
            opened = set(open_prefixes(analysis))
            for p in prefix_cover(ms).entries():
                got = probe(analysis, p) if p in opened else (frozenset({0}), 0, 0)
                assert got == probe(reference, p), (ms.models, p)

    def test_expired_deadline_yields_nothing(self, worked_models):
        analysis = analyze(worked_models)
        with pytest.raises(TimeoutError):
            next(open_prefixes(analysis, deadline=0.0))
        assert analysis.probes == {}

    def test_flips_only_the_open_strata(self, monkeypatch):
        # a stratum whose `opened` bitset is 0 costs a deadline check, no `_flips`
        calls, flips = [], inverse._flips

        def counted(rows, k, bits):
            calls.append(k)
            return flips(rows, k, bits)

        monkeypatch.setattr(inverse, "_flips", counted)
        rng, mixed = random.Random(20261031), 0
        for ms in [_dense_models(20261032)] + [ms for ms in _random_sets(rng, 200, 10, 30) if ms.n >= 3]:
            analysis = analyze(ms)
            calls.clear()
            got = list(open_prefixes(analysis))
            assert calls == [k for k, bits in enumerate(analysis.opened, 1) if bits], ms.models
            assert got == [p for k in calls for p in flips(ms.models, k, analysis.opened[k - 1])]
            mixed += any(analysis.opened) and not all(analysis.opened)
        assert mixed


class TestProbe:
    def test_memoised_per_prefix(self, worked_models):
        analysis = analyze(worked_models)
        first = probe(analysis, "1011")
        assert probe(analysis, "1011") is first
        assert list(analysis.probes) == ["1011"]
        assert 0 not in first[0]

    def test_walks_share_probes(self, worked_models, monkeypatch):
        # the harness's closedness and quine pass runs after decide, over its probes
        analysis = analyze(worked_models)
        decide(analysis)
        walked = dict(analysis.probes)
        monkeypatch.setattr(harness, "analyze", lambda models: analysis)
        exam = examine_instance("worked", 0, worked_models, quine_probe=True, closedness_stats=True)
        assert exam.agree and exam.quine_mismatch_prefixes == ()
        assert len(walked) < len(analysis.probes)
        assert all(analysis.probes[p] is result for p, result in walked.items())
        assert list(analysis.probes) == list(open_prefixes(analysis))

    # probe always restricts and saturates; open_prefixes skips the cover
    # prefixes whose restriction holds the empty clause, so none is probed.
    # A probe must return what restricting and saturating would.

    def test_exhaustive_n3_every_prefix(self, monkeypatch):
        calls = _count_restrictions(monkeypatch)
        for ms in generate(InstanceSpec(EXHAUSTIVE, 3)):
            _probe_matches_saturation(ms, calls)

    def test_random_n4_to_n9_every_prefix(self, monkeypatch):
        calls = _count_restrictions(monkeypatch)
        for n in range(4, 10):
            for ms in generate(InstanceSpec(RANDOM_SUBSET, n, count=30, seed=20261019)):
                _probe_matches_saturation(ms, calls)


class TestRefuters:
    # open_prefixes reads each cover prefix's verdict off one bit of the refuter
    # table that step 1 fills: it must equal whether the restriction of the
    # closed formula holds the empty clause

    def test_random_sets(self, monkeypatch):
        calls = _count_restrictions(monkeypatch)
        rng = random.Random(20261025)
        for _ in range(400):
            n = rng.randint(3, 12)
            m = rng.randint(1, min(1 << n, rng.choice([4, 40, 300])))
            ms = ModelSet(n, tuple(format(a, f"0{n}b") for a in rng.sample(range(1 << n), m)))
            _probes_restrict_only_open_prefixes(ms, calls)

    def test_affine_sets(self, monkeypatch):
        calls = _count_restrictions(monkeypatch)
        for n in range(4, 17):
            for d in range(1, min(n, 9)):
                _probes_restrict_only_open_prefixes(affine_models(n, d, seed=n * d), calls)

    def test_parity_instance(self, monkeypatch):
        calls = _count_restrictions(monkeypatch)
        _probes_restrict_only_open_prefixes(parity_models(), calls)

    def test_exhaustive_open_bitsets(self):
        for n in (3, 4):
            for ms in generate(InstanceSpec(EXHAUSTIVE, n)):
                _open_prefixes_are_the_unrefuted(ms)

    def test_affine_n100_answers_off_the_bitsets(self, monkeypatch):
        # no cover prefix is open: decide restricts nothing and builds no
        # stratum before its trace is read (0.8-0.9 s when it walked them)
        calls = _count_restrictions(monkeypatch)
        ms = affine_models(100, 12, seed=0)
        start = time.perf_counter()
        analysis = analyze(ms)
        report = decide(analysis)
        elapsed = time.perf_counter() - start
        assert report.answer is Answer.NO_EXTRA_MODEL
        assert calls == [] and analysis.probes == {}
        assert analysis.cover.strata._built == {}
        assert elapsed < 0.25

    def test_affine_n60_walks_without_restricting(self, monkeypatch):
        # 196 608 cover prefixes, every one refuted by its bit
        calls = _count_restrictions(monkeypatch)
        analysis = analyze(affine_models(60, 12, seed=0))
        report = decide(analysis)
        assert report.answer is Answer.NO_EXTRA_MODEL
        assert len(report.trace) == 196_608
        assert calls == []
        assert analysis.probes == {}


def _count_restrictions(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return restrict_mask_clauses(*args)

    monkeypatch.setattr(inverse, "restrict_mask_clauses", counted)
    return calls


def _probe_matches_saturation(ms, calls):
    # the projection test passes exactly when no closed clause is falsified
    # outright, the probe returns what restricting and saturating returns,
    # and only the open cover prefixes are probed
    analysis = analyze(ms)
    for k in range(ms.n + 1):
        for a in range(1 << k):
            prefix = format(a, f"0{k}b") if k else ""
            restricted = restrict_mask_clauses(analysis.masks, *prefix_literal_masks(prefix))
            assert _projections_occur(analysis.columns, len(ms), prefix) == (0 not in restricted), (
                ms.models, prefix)
            assert probe(analysis, prefix) == saturate_masks(restricted, ms.n), (ms.models, prefix)
    _probes_restrict_only_open_prefixes(ms, calls)


def _probes_restrict_only_open_prefixes(ms, calls):
    # open_prefixes lists exactly the cover prefixes whose restriction lacks
    # the empty clause, which each stratum's open bitset gives, and probing
    # one restricts it once and returns what restricting and saturating
    # returns; every other cover prefix's restriction holds the empty clause
    analysis, opened = analyze(ms), []
    for prefix in prefix_cover(ms).entries():
        restricted = restrict_mask_clauses(analysis.masks, *prefix_literal_masks(prefix))
        if 0 not in restricted:
            opened.append(prefix)
    assert list(open_prefixes(analysis)) == opened, ms.models
    for prefix in opened:
        restricted = restrict_mask_clauses(analysis.masks, *prefix_literal_masks(prefix))
        calls.clear()
        assert probe(analysis, prefix) == saturate_masks(restricted, ms.n), (ms.models, prefix)
        assert len(calls) == 1, (ms.models, prefix)
    assert list(analysis.probes) == opened
    assert analysis.opened == _open_bitsets(ms, opened)
    _refuter_bit_is_the_groups(ms)


class TestParityCounterexample:
    # ROADMAP open item 1: at n = 14 the closure test misses an
    # unsatisfiable restriction.  decide must fail loudly at prefix 0001,
    # and two certificates that do not use the failing code show why: the
    # saturated restriction is closed (no width-3 refutation exists) and no
    # completion of the prefix satisfies the closed formula.

    @pytest.fixture(scope="class")
    def analysis(self):
        return analyze(parity_models())

    def test_models_start_with_every_even_parity_prefix(self, analysis):
        starts = {m[:4] for m in analysis.models.models}
        assert starts == {format(a, "04b") for a in range(16) if a.bit_count() % 2 == 0}

    def test_decide_fails_at_0001(self, analysis):
        with pytest.raises(ClosureTestFailed, match="prefix 0001:"):
            decide(analysis)

    def test_restriction_saturates_without_the_empty_clause(self, analysis):
        masks, _, _ = probe(analysis, "0001")
        assert len(masks) == 72
        assert 0 not in masks
        assert is_closed_3limited(Cnf(14, frozenset(map(decode_mask, masks))))

    def test_closure_is_the_parity_clauses(self, analysis):
        # each equation forbids the four patterns of the wrong parity
        want = {
            tuple(-v if (bits >> (2 - p)) & 1 else v for p, v in enumerate(vs))
            for vs, r in PARITY_EQUATIONS
            for bits in range(8)
            if bits.bit_count() % 2 != r
        }
        assert len(want) == 32
        assert analysis.closed.clauses == want

    def test_no_completion_satisfies_the_closure(self, analysis):
        assert not any(evaluate(analysis.closed, "0001" + format(a, "010b")) for a in range(1024))


def _short_prefixes_hit_empty_clause(ms):
    analysis = analyze(ms)
    for prefix in prefix_cover(ms).entries():
        if len(prefix) > 3:
            break
        restricted = restrict_mask_clauses(analysis.masks, *prefix_literal_masks(prefix))
        assert 0 in restricted, (ms.models, prefix)


class TestShortStrataNeedNoSaturation:
    # A cover prefix p of length <= 3 starts no model, so every model
    # satisfies the clause falsified exactly by p.  That clause has width
    # <= 3, so the closed candidate holds it or a clause subsuming it, and
    # restricting by p leaves the empty clause before any saturation.  The
    # strata below 4 therefore never answer yes, which is why every walk
    # starts at stratum 1 and the paper's walk from stratum 4 is its slice.

    def test_exhaustive_n3(self):
        for ms in generate(InstanceSpec(EXHAUSTIVE, 3)):
            _short_prefixes_hit_empty_clause(ms)

    def test_random_n4_to_n9(self):
        for n in range(4, 10):
            for ms in generate(InstanceSpec(RANDOM_SUBSET, n, count=167, seed=20261018)):
                _short_prefixes_hit_empty_clause(ms)


def _open_bitsets(ms, opened):
    # model r's stratum-k bit is set iff its flipped k-prefix is open
    want, m = set(opened), len(ms)
    return [
        sum(1 << m - 1 - r for r, row in enumerate(ms.models) if row[:k - 1] + "10"[row[k - 1] == "1"] in want)
        for k in range(1, ms.n + 1)
    ]


def _open_prefixes_are_the_unrefuted(ms):
    # open_prefixes lists, in walk order, exactly the cover prefixes whose
    # restriction lacks the empty clause, and each stratum's bitset holds
    # exactly the models whose flipped prefix is one of them
    analysis = analyze(ms)
    want = [
        p for p in prefix_cover(ms).entries()
        if 0 not in restrict_mask_clauses(analysis.masks, *prefix_literal_masks(p))
    ]
    assert list(open_prefixes(analysis)) == want, ms.models
    assert analysis.opened == _open_bitsets(ms, want), ms.models


def _refuter_bit_is_the_groups(ms):
    # within a group of models sharing a (k-1)-prefix that takes one value c
    # at xk, every model has the same bit in refuters[2k + 1 - c]
    refute = inverse._closure(ms, inverse._columns(ms))[1]
    m = len(ms)
    for k in range(1, ms.n + 1):
        groups = {}
        for r, row in enumerate(ms.models):
            groups.setdefault(row[:k - 1], []).append((r, row[k - 1]))
        for members in groups.values():
            values = {c for _, c in members}
            if len(values) == 1:
                table = refute[2 * k + 1 - int(values.pop())]
                assert len({table >> m - 1 - r & 1 for r, _ in members}) == 1, (ms.models, k)
