"""Acceptance gate: one test per headline requirement.

Each test prints a single PASS line on success (visible with -s, and in
the -v listing as the test outcome), covering in order: the three golden
walkthrough results, the closure and restriction batteries, cover
exactness, witness soundness, the differential headline campaign, the
per-prefix satisfiability cross-check, a sweep of random instances up
to n = 30 under a 60 s prefix-walk deadline each, and the direct closure
against bounded resolution over every n = 4 model set.
"""

import random
import time

import pytest

from inv3sat import (
    Answer,
    ModelSet,
    candidate_formula,
    cnf_of,
    decide,
    prefix_cover,
    three_limited_closure,
    verify_witness,
)
from inv3sat.formula import satisfying_mask
from inv3sat.harness import (
    EXHAUSTIVE,
    InstanceSpec,
    RANDOM_3CNF_MODELS,
    RANDOM_SUBSET,
    derive_seed,
    differential_run,
    generate,
)
from inv3sat.inverse import analyze

from conftest import (
    WORKED_CANDIDATE,
    WORKED_CLOSURE,
    WORKED_MODELS,
    WORKED_STRATUM_4,
    WORKED_STRATUM_5,
    WORKED_WITNESS,
    restrict,
)

CAMPAIGN_SEED = 20260822

# Fixed rather than cpu_count: campaign reports do not depend on jobs
# (test_harness checks serial against parallel), and two workers halve the
# gate's wall time without oversubscribing a small host.
CAMPAIGN_JOBS = 2

# Sampled volume per variable count; 100000 instances total, weighted
# toward the cheap sizes so the whole sweep stays inside a coffee break.
SAMPLED_PLAN = {
    5: 40000,
    6: 20000,
    7: 12000,
    8: 9000,
    9: 7000,
    10: 5000,
    11: 4000,
    12: 3000,
}


@pytest.fixture(scope="module")
def campaign_n3():
    return differential_run(
        [InstanceSpec(EXHAUSTIVE, 3)], kmin=1, jobs=CAMPAIGN_JOBS, quine_probe=True
    )


@pytest.fixture(scope="module")
def campaign_n4():
    return differential_run(
        [InstanceSpec(EXHAUSTIVE, 4)], kmin=1, jobs=CAMPAIGN_JOBS, quine_probe=True
    )


@pytest.fixture(scope="module")
def campaign_sampled():
    specs = []
    for n, count in sorted(SAMPLED_PLAN.items()):
        subset = count - count // 5
        specs.append(
            InstanceSpec(
                RANDOM_SUBSET, n, count=subset, seed=CAMPAIGN_SEED + n
            )
        )
        specs.append(
            InstanceSpec(
                RANDOM_3CNF_MODELS,
                n,
                count=count // 5,
                seed=CAMPAIGN_SEED + 100 + n,
            )
        )
    return differential_run(specs, kmin=1, jobs=CAMPAIGN_JOBS, closedness_sample=50)


def _random_narrow_formula(rng, n, max_clauses=8):
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, 3)
        vars_ = rng.sample(range(1, n + 1), width)
        clauses.append(
            tuple(v if rng.random() < 0.5 else -v for v in vars_)
        )
    return cnf_of(n, clauses)


def test_c01_golden_candidate_and_closure(worked_models):
    started = time.perf_counter()
    f = candidate_formula(worked_models)
    assert f == cnf_of(5, WORKED_CANDIDATE)
    assert len(f.clauses) == 20
    closed = three_limited_closure(f).closed_formula
    assert closed == cnf_of(5, WORKED_CLOSURE)
    assert len(closed.clauses) == 7
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS golden candidate+closure (20 -> 7 clauses, {elapsed:.3f}s)")


def test_c02_golden_cover_strata(worked_models):
    cover = prefix_cover(worked_models, kmin=4)
    assert cover.strata.get(4) == WORKED_STRATUM_4
    assert cover.strata.get(5) == WORKED_STRATUM_5
    assert sorted(cover.strata) == [4, 5]
    print("PASS golden cover strata (4 + 8 prefixes, listed order)")


def test_c03_golden_decision_walk(worked_models):
    report = decide(worked_models, kmin=4)
    assert report.answer is Answer.EXTRA_MODEL_EXISTS
    assert report.witness == WORKED_WITNESS
    by_prefix = {rec.prefix: rec for rec in report.trace}
    assert by_prefix["0100"].contains_empty
    assert not by_prefix["1011"].contains_empty
    assert by_prefix["1011"].closure_clauses == ((5,),)
    assert verify_witness(worked_models, report.witness)
    print(f"PASS golden decision walk (witness {report.witness})")


def test_c04_closure_battery():
    rng = random.Random(CAMPAIGN_SEED)
    cases = 10000
    for case in range(cases):
        n = rng.randint(3, 8)
        f = _random_narrow_formula(rng, n)

        result = three_limited_closure(f)
        closed = result.closed_formula

        # Same clauses fed in any listing order give the same set, and a
        # variable relabeling commutes with closure.
        perm = list(range(1, n + 1))
        rng.shuffle(perm)

        def relabel(clause):
            return tuple(
                perm[abs(l) - 1] * (1 if l > 0 else -1) for l in clause
            )

        shuffled = list(f.clauses)
        rng.shuffle(shuffled)
        assert three_limited_closure(
            cnf_of(n, shuffled)
        ).closed_formula == closed, f"case {case}: listing order changed the closure"
        conjugated = three_limited_closure(
            cnf_of(n, [relabel(c) for c in f.clauses])
        ).closed_formula
        assert conjugated == cnf_of(
            n, [relabel(c) for c in closed.clauses]
        ), f"case {case}: relabeling changed the closure"

        again = three_limited_closure(closed)
        assert again.closed_formula == closed, f"case {case}: not idempotent"
        assert again.resolution_steps == 0
        assert again.subsumption_deletions == 0

        assert satisfying_mask(closed) == satisfying_mask(
            f
        ), f"case {case}: closure changed the model set"
    print(f"PASS closure battery ({cases} cases, n <= 8)")


def test_c05_restriction_battery():
    rng = random.Random(CAMPAIGN_SEED + 1)
    cases = 10000
    for case in range(cases):
        n = rng.randint(3, 10)
        f = _random_narrow_formula(rng, n, max_clauses=10)
        k = rng.randint(0, n)
        prefix = "".join(rng.choice("01") for _ in range(k))

        got = satisfying_mask(restrict(f, prefix))

        expect = 0
        full = satisfying_mask(f)
        for a in range(1 << n):
            s = format(a, f"0{n}b")
            overridden = int(prefix + s[k:], 2) if k else a
            if full >> overridden & 1:
                expect |= 1 << a
        assert got == expect, f"case {case}: restriction semantics broken"
    print(f"PASS restriction battery ({cases} cases, n <= 10)")


def test_c06_cover_exactness_exhaustive_n4():
    n = 4
    assignments = [format(a, f"0{n}b") for a in range(1 << n)]
    checked = 0
    for subset in range(1, 1 << (1 << n)):
        models = tuple(
            a for i, a in enumerate(assignments) if subset >> i & 1
        )
        ms = ModelSet(n, models)
        cover = prefix_cover(ms, kmin=1)
        entries = set(cover.entries())
        assert cover.total() <= n * len(models), f"subset {subset}: size bound"
        members = ms.member_set()
        for s in assignments:
            hits = sum(1 for k in range(1, n + 1) if s[:k] in entries)
            if s in members:
                assert hits == 0, f"subset {subset}: member {s} covered"
            else:
                assert hits == 1, f"subset {subset}: {s} covered {hits} times"
        checked += 1
    assert checked == 65535
    print(f"PASS cover exactness ({checked} model sets, n=4)")


def test_c07_witness_soundness(campaign_n3, campaign_n4, campaign_sampled):
    total_yes = 0
    for result in (campaign_n3, campaign_n4, campaign_sampled):
        assert result.witnesses_verified == result.yes_answers
        total_yes += result.yes_answers
    assert total_yes > 0
    print(f"PASS witness soundness ({total_yes} verified witnesses)")


def test_c08_differential_headline(campaign_n3, campaign_n4, campaign_sampled):
    assert campaign_n3.instances == 255
    assert campaign_n4.instances == 65535
    assert campaign_sampled.instances == sum(SAMPLED_PLAN.values())
    assert campaign_sampled.instances >= 100000

    for result in (campaign_n3, campaign_n4, campaign_sampled):
        assert result.agreements + result.disagreements == result.instances
        assert result.errors == 0, "pipeline raised on some instance"
        for report in result.reports:
            assert report.classification in ("PAPER-CLAIM", "IMPLEMENTATION-BUG")
            assert report.classification != "IMPLEMENTATION-BUG", (
                "harness indicts the implementation: " + report.detail
            )
            assert report.minimized_models
            assert len(report.minimized_formula_models) <= 32
        assert len(result.reports) >= result.disagreements

    total = (
        campaign_n3.instances
        + campaign_n4.instances
        + campaign_sampled.instances
    )
    found = sum(
        len(r.reports) for r in (campaign_n3, campaign_n4, campaign_sampled)
    )
    print(
        f"PASS differential headline ({total} instances, "
        f"{found} discrepancy reports, all classified)"
    )


def test_c09_per_prefix_satisfiability_cross_check(campaign_n3, campaign_n4):
    checked = campaign_n3.quine_pairs_checked + campaign_n4.quine_pairs_checked
    assert checked > 0
    mismatches = (
        campaign_n3.quine_mismatch_count + campaign_n4.quine_mismatch_count
    )
    reported = sum(
        1
        for result in (campaign_n3, campaign_n4)
        for report in result.reports
        if report.kind == "closure-sat-mismatch"
    )
    # A mismatch may only surface as a vetted report, never silently.
    assert mismatches == reported
    print(
        f"PASS per-prefix satisfiability cross-check "
        f"({checked} pairs, {mismatches} mismatches)"
    )


def test_c10_scaling_bench():
    # three draws of 2n random models for each n = 5, 10, ..., 30
    yes = 0
    for n in range(5, 31, 5):
        for t in range(3):
            spec = InstanceSpec(RANDOM_SUBSET, n, m=2 * n, seed=derive_seed(CAMPAIGN_SEED, n * 1000 + t))
            ms = next(generate(spec))
            report = decide(ms, deadline=time.perf_counter() + 60.0)  # a TimeoutError fails the test
            if report.answer is Answer.EXTRA_MODEL_EXISTS:
                assert verify_witness(ms, report.witness), f"n={n} t={t}: witness fails"
                yes += 1
    print(f"PASS scaling sweep (18 instances, n up to 30, no timeouts, {yes} witnesses verified)")


def test_c11_direct_closure_exhaustive_n4():
    started = time.perf_counter()
    checked = 0
    for ms in generate(InstanceSpec(EXHAUSTIVE, 4)):
        expect = three_limited_closure(candidate_formula(ms)).closed_formula
        assert analyze(ms).closed == expect, f"{ms.models}: direct closure differs"
        checked += 1
    assert checked == 65535
    elapsed = time.perf_counter() - started
    print(
        f"PASS direct closure equals resolution closure "
        f"({checked} model sets, n=4, {elapsed:.1f}s)"
    )
