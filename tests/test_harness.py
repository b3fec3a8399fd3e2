import json
import multiprocessing
import random
import time

import pytest

from inv3sat import (
    Answer, Cnf, ModelSet, candidate_formula, decide, harness, inverse, oracle_decide,
)
from inv3sat.formula import mask_to_models, prefix_window, satisfying_mask
from inv3sat.inverse import analyze
from inv3sat.harness import (
    EXHAUSTIVE,
    InstanceSpec,
    RANDOM_3CNF_MODELS,
    RANDOM_SUBSET,
    classify,
    derive_seed,
    differential_run,
    examine_instance,
    generate,
    generate_with_ids,
    invariant_battery,
    render_records,
    render_summary,
    shrink,
)

from conftest import WORKED_EXTRAS, WORKED_MODELS, parity_models


class TestSeeds:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(s, i) for s in range(10) for i in range(10)}
        assert len(seeds) == 100


class TestGenerators:
    def test_exhaustive_n3_yields_all_nonempty_subsets(self):
        instances = list(generate(InstanceSpec(EXHAUSTIVE, 3)))
        assert len(instances) == 255
        assert len({ms.models for ms in instances}) == 255
        assert instances[0].models == ("000",)
        assert instances[-1].models == tuple(format(a, "03b") for a in range(8))

    def test_exhaustive_rejects_large_n(self):
        with pytest.raises(ValueError):
            list(generate(InstanceSpec(EXHAUSTIVE, 5)))

    def test_random_subset_is_deterministic(self):
        spec = InstanceSpec(RANDOM_SUBSET, 6, count=20, seed=42)
        first = list(generate_with_ids(spec))
        second = list(generate_with_ids(spec))
        assert first == second

    def test_random_subset_seed_changes_instances(self):
        a = [ms.models for ms in generate(InstanceSpec(RANDOM_SUBSET, 6, count=20, seed=1))]
        b = [ms.models for ms in generate(InstanceSpec(RANDOM_SUBSET, 6, count=20, seed=2))]
        assert a != b

    def test_random_subset_respects_bounds(self):
        for ms in generate(InstanceSpec(RANDOM_SUBSET, 9, count=30, seed=5)):
            assert ms.n == 9
            assert 1 <= len(ms) <= min(3 * 9, 2**9 - 1, 64)

    def test_ids_are_unique_and_carry_reproduction_seeds(self):
        spec = InstanceSpec(RANDOM_SUBSET, 5, count=10, seed=9)
        rows = list(generate_with_ids(spec))
        ids = [r[0] for r in rows]
        assert len(set(ids)) == 10
        for _, seed, _ in rows:
            assert isinstance(seed, int)

    def test_cnf_family_instances_are_exactly_representable(self):
        # Each instance is the model set of an actual 3-CNF, so the
        # oracle can never find an extra model on them.
        spec = InstanceSpec(RANDOM_3CNF_MODELS, 6, count=25, seed=13)
        for ms in generate(spec):
            assert oracle_decide(ms).extra_models == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            list(generate(InstanceSpec("made-up", 4)))


class TestExamineInstance:
    def test_worked_instance_agrees(self):
        ms = ModelSet(5, WORKED_MODELS)
        exam = examine_instance("worked", 0, ms)
        assert exam.agree
        assert not exam.needs_attention()
        assert exam.algo_answer == Answer.EXTRA_MODEL_EXISTS.value
        assert exam.oracle_extra > 0
        assert exam.algo_witness == "10111"
        assert exam.witness_ok
        assert exam.error is None

    def test_alt_kmin_comparison_runs(self):
        ms = ModelSet(5, WORKED_MODELS)
        exam = examine_instance("worked", 0, ms)
        assert exam.alt_compared
        assert not exam.alt_divergence

    def test_n3_instance_has_no_stratum4_slice(self):
        # below n = 4 there is no prefix of length 4 to re-answer from
        exam = examine_instance("small", 0, ModelSet(3, ("000", "011", "101")))
        assert exam.agree
        assert not exam.alt_compared
        assert not exam.alt_divergence

    def test_quine_probe_counts_pairs(self):
        ms = ModelSet(5, WORKED_MODELS)
        exam = examine_instance("worked", 0, ms, quine_probe=True)
        assert exam.quine_pairs == 14
        assert exam.quine_mismatch_prefixes == ()

    def test_quine_probe_flags_satisfiable_restrictions(self, monkeypatch):
        # A probe that always derives the empty clause is wrong exactly on
        # the prefixes that an extra model (00101 01111 10111 11101) extends.
        # decide keeps its unpatched report, so the examination still agrees
        # and only the quine mismatches call for attention.
        ms = ModelSet(5, WORKED_MODELS)
        report = decide(ms)
        monkeypatch.setattr(harness, "decide", lambda analysis: report)
        monkeypatch.setattr(inverse, "probe", lambda analysis, prefix: (frozenset({0}), 0, 0))
        exam = examine_instance("worked", 0, ms, quine_probe=True)
        assert exam.agree
        assert exam.quine_mismatch_prefixes == ("1011", "0111", "11101", "00101")
        assert exam.needs_attention()

    def test_one_cover_per_instance(self, monkeypatch):
        # harness imports prefix_cover by name, so both lookups are counted
        calls = []
        real = inverse.prefix_cover

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(inverse, "prefix_cover", counted)
        monkeypatch.setattr(harness, "prefix_cover", counted)
        exam = examine_instance("worked", 0, ModelSet(5, WORKED_MODELS), quine_probe=True)
        assert exam.alt_compared and exam.quine_pairs == 14
        assert len(calls) == 1

    def test_walk_builds_only_the_strata_decide_reaches(self, monkeypatch):
        # without the quine probe, examine_instance builds no stratum: decide
        # and the stratum-4 slice read the open prefixes off model bitsets.
        # Rendering decide's trace builds strata 1..stop only.
        rng = random.Random(20261023)
        ms = ModelSet(16, tuple(format(a, "016b") for a in rng.sample(range(1 << 16), 100)))
        seen, real = [], harness.analyze

        def spy(models):
            seen.append(real(models))
            return seen[-1]

        monkeypatch.setattr(harness, "analyze", spy)
        exam = examine_instance("wide", 0, ms)
        assert exam.agree and exam.alt_compared
        assert len(seen) == 1
        assert seen[0].cover.strata._built == {}
        report = decide(seen[0])
        assert seen[0].cover.strata._built == {}
        stop = len(report.trace[-1].prefix)
        assert stop < ms.n
        assert sorted(seen[0].cover.strata._built) == list(range(1, stop + 1))

    def test_quine_probe_reads_the_oracle_table(self):
        # a cover prefix starts no model, so the closure's models that
        # extend it are exactly the oracle's extra models that do
        rng = random.Random(20261024)
        for _ in range(300):
            n = rng.randint(3, 10)
            m = rng.randint(1, min(1 << n, 40))
            ms = ModelSet(n, tuple(format(a, f"0{n}b") for a in rng.sample(range(1 << n), m)))
            analysis = analyze(ms)
            closed_sat = satisfying_mask(analysis.closed)
            extra = oracle_decide(ms).extra_mask
            for p in analysis.cover.entries():
                sat = prefix_window(closed_sat, p, n) != 0
                assert sat == (prefix_window(extra, p, n) != 0), (ms.models, p)

    def test_closedness_stats_collected(self):
        ms = ModelSet(5, WORKED_MODELS)
        exam = examine_instance(
            "worked", 0, ms, closedness_stats=True
        )
        assert exam.checked_restrictions == 14
        assert 0 <= exam.closed_restrictions <= 14


class TestShrink:
    def test_shrinks_to_small_core(self):
        # Pinning an exact string blocks variable projection, so only the
        # model-dropping pass fires.
        ms = ModelSet(5, WORKED_MODELS)
        small = shrink(ms, lambda m: "00111" in m.models)
        assert small.models == ("00111",)
        assert small.n == 5

    def test_result_still_satisfies_predicate(self):
        ms = ModelSet(5, WORKED_MODELS)
        pred = lambda m: len(m) >= 3
        small = shrink(ms, pred)
        assert pred(small)
        assert len(small) == 3

    def test_rejects_initially_false_predicate(self):
        ms = ModelSet(5, WORKED_MODELS)
        with pytest.raises(ValueError):
            shrink(ms, lambda m: False)

    def test_never_goes_below_three_variables(self):
        ms = ModelSet(5, WORKED_MODELS)
        small = shrink(ms, lambda m: True)
        assert small.n == 3
        assert len(small) == 1


class TestClassify:
    def test_parity_counterexample_is_a_paper_claim(self):
        # the n = 14 parity instance (ROADMAP open item 1) fails the closure
        # test, and its shrunk core passes every implementation invariant
        report = classify(examine_instance("parity", 0, parity_models()))
        assert report.classification == "PAPER-CLAIM"
        assert report.kind == "pipeline-error"
        assert report.minimized_n == 14
        assert len(report.minimized_models) == 18
        assert report.battery_failures == ()
        # the shrunk core has no extra model: the candidate's models are its own
        assert report.minimized_formula_models == tuple(sorted(report.minimized_models))

    def test_minimized_formula_models_list_the_candidates_models(self, monkeypatch):
        # a core with extra models: the report lists every model of its
        # candidate formula, ascending, members and extras alike
        worked = ModelSet(5, WORKED_MODELS)
        monkeypatch.setattr(harness, "shrink", lambda models, predicate: worked)
        report = classify(examine_instance("parity", 0, parity_models()))
        assert report.minimized_formula_models == tuple(sorted(WORKED_MODELS + WORKED_EXTRAS))
        assert report.minimized_formula_models == mask_to_models(
            satisfying_mask(candidate_formula(worked)), 5
        )


class TestInvariantBattery:
    def test_worked_instance_passes(self):
        result = invariant_battery(ModelSet(5, WORKED_MODELS))
        assert result.passed
        assert result.failures == ()

    def test_random_instances_pass(self):
        for ms in generate(InstanceSpec(RANDOM_SUBSET, 5, count=10, seed=3)):
            result = invariant_battery(ms)
            assert result.passed, result.failures

    def test_direct_closure_is_checked_against_resolution(self, monkeypatch):
        # A step-1 closure that loses a clause must fail the battery even
        # though every other invariant is built from the engine's closure.
        real = harness.analyze

        def lossy(models):
            analysis = real(models)
            dropped = frozenset(sorted(analysis.closed.clauses)[1:])
            return analysis._replace(closed=Cnf(models.n, dropped))

        monkeypatch.setattr(harness, "analyze", lossy)
        result = invariant_battery(ModelSet(5, WORKED_MODELS))
        assert result.failures == ("closure-direct",)

    def test_restriction_keeping_false_literals_is_caught(self, monkeypatch):
        def keep_false(masks, true_mask, false_mask):
            return {m for m in masks if not m & true_mask}

        monkeypatch.setattr(harness, "restrict_mask_clauses", keep_false)
        result = invariant_battery(ModelSet(5, WORKED_MODELS))
        assert result.failures == ("restriction-semantics@000",)

    def _cover_with(self, monkeypatch, edit):
        real = harness.prefix_cover

        def faulty(models):
            cover = real(models)
            return cover._replace(strata={**cover.strata, 5: edit(cover.strata[5])})

        monkeypatch.setattr(harness, "prefix_cover", faulty)
        return invariant_battery(ModelSet(5, WORKED_MODELS))

    def test_cover_missing_a_prefix_is_caught(self, monkeypatch):
        result = self._cover_with(monkeypatch, lambda stratum: stratum[1:])
        assert result.failures == ("cover-exactness@00110",)

    def test_cover_holding_a_model_is_caught(self, monkeypatch):
        result = self._cover_with(monkeypatch, lambda stratum: stratum + (WORKED_MODELS[0],))
        assert result.failures == ("cover-exactness@00111",)

    def test_full_parity_set_passes(self):
        assert invariant_battery(parity_models()) == harness.BatteryResult(True, ())


class TestDifferentialRun:
    def test_small_campaign_all_agree(self):
        specs = [InstanceSpec(RANDOM_SUBSET, 5, count=40, seed=21)]
        result = differential_run(specs)
        assert result.instances == 40
        assert result.agreements == 40
        assert result.disagreements == 0
        assert result.errors == 0
        assert result.reports == ()
        assert result.yes_answers == result.witnesses_verified

    def test_instances_partition_into_agree_and_disagree(self):
        specs = [InstanceSpec(RANDOM_SUBSET, 4, count=30, seed=8)]
        result = differential_run(specs)
        assert result.instances == result.agreements + result.disagreements

    def test_rendered_output_is_reproducible(self):
        specs = [
            InstanceSpec(RANDOM_SUBSET, 5, count=25, seed=2),
            InstanceSpec(RANDOM_3CNF_MODELS, 5, count=10, seed=2),
        ]
        a = differential_run(specs, quine_probe=True)
        b = differential_run(specs, quine_probe=True)
        assert render_summary(a) == render_summary(b)
        assert render_records(a) == render_records(b)

    def test_parallel_run_matches_serial(self):
        specs = [InstanceSpec(RANDOM_SUBSET, 5, count=30, seed=17)]
        serial = differential_run(specs, jobs=1)
        parallel = differential_run(specs, jobs=2)
        assert render_summary(serial) == render_summary(parallel)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers inherit the patched examine_instance")
    def test_error_in_one_instance_stops_every_worker(self, monkeypatch, tmp_path):
        # the instance ending in -0 opens the first chunk; every other one
        # leaves a file, so a pool drained after the error shows in the count
        def examine(instance_id, *args):
            if instance_id.endswith("-0"):
                raise RuntimeError("examine failed")
            (tmp_path / instance_id).touch()
            time.sleep(0.002)

        monkeypatch.setattr(harness, "examine_instance", examine)
        with pytest.raises(RuntimeError, match="examine failed"):
            differential_run([InstanceSpec(RANDOM_SUBSET, 6, count=2000)], jobs=2)
        assert len(list(tmp_path.iterdir())) < 1000

    def test_summary_is_json_with_expected_keys(self):
        specs = [InstanceSpec(RANDOM_SUBSET, 4, count=5, seed=1)]
        payload = json.loads(render_summary(differential_run(specs)))
        for key in (
            "instances",
            "agreements",
            "disagreements",
            "errors",
            "yes_answers",
            "witnesses_verified",
            "quine_mismatches",
            "reports",
        ):
            assert key in payload

    def test_kmin_above_4_rejected_before_generating(self, monkeypatch):
        def unexpected(spec):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(harness, "generate_with_ids", unexpected)
        with pytest.raises(ValueError, match="kmin"):
            differential_run([InstanceSpec(RANDOM_SUBSET, 5, count=1)], kmin=5)

    def test_kmin_other_than_1_rejected_before_generating(self, monkeypatch):
        # every walk starts at stratum 1, so no run reports another floor
        def unexpected(spec):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(harness, "generate_with_ids", unexpected)
        for kmin in (0, 2, 4):
            with pytest.raises(ValueError, match="kmin"):
                differential_run([InstanceSpec(RANDOM_SUBSET, 3, count=2)], kmin=kmin)

    def test_closedness_sampling(self):
        specs = [InstanceSpec(RANDOM_SUBSET, 5, count=20, seed=4)]
        result = differential_run(specs, closedness_sample=5)
        assert result.restrictions_checked > 0
