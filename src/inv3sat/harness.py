"""Differential harness: generators, campaigns, shrinking.

The pipeline's completeness rests on claims strong enough to deserve
distrust, so every campaign instance is scored against the brute-force
oracle and every disagreement is shrunk, re-checked against a battery of
implementation invariants, and classified.  A failure that survives the
battery on its minimized instance is evidence about the method itself
(PAPER-CLAIM); one that does not is a plain bug (IMPLEMENTATION-BUG).
Campaigns never abort on a broken instance: errors become reports.
Every walk starts at stratum 1; each instance also checks the paper's
floor, reading the slice of length >= 4 off `decide`'s stop.  The
rendered reports keep their old floor field and summary key names,
because the benchmark's digests hash them.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Iterable, Iterator, NamedTuple

from .closure import (
    decode_mask,
    encode_clause,
    is_closed_3limited,
    prefix_literal_masks,
    restrict_mask_clauses,
    three_limited_closure,
)
from .formula import (
    Cnf,
    ENUMERATION_CAP,
    ModelSet,
    _true_masks,
    assignment_mask,
    mask_to_models,
    prefix_window,
    satisfying_mask,
)
from .inverse import (
    Answer,
    WitnessExtractionFailed,
    analyze,
    candidate_formula,
    decide,
    open_prefixes,
    prefix_cover,
    probe,
)
from .oracle import candidate_models, oracle_decide

EXHAUSTIVE = "exhaustive"
RANDOM_SUBSET = "random-subset"
RANDOM_3CNF_MODELS = "random-3cnf-models"

MAX_DIVERGENCE_EXAMPLES = 100
MAX_CNF_MODELS = 64


class GeneratorExhausted(RuntimeError):
    """A bounded retry budget ran out without producing an instance."""


class InstanceSpec(NamedTuple):
    """A reproducible recipe for one or more model-set instances.

    kind "exhaustive" streams every nonempty subset of {0,1}^n (desk scale,
    n <= 4).  kind "random-subset" draws m distinct assignments; m=0 draws
    the size per instance.  kind "random-3cnf-models" draws a random
    formula of 2n..4n 3-clauses and takes its models, retrying past
    unsatisfiable draws and draws with more than MAX_CNF_MODELS models;
    these instances are exactly representable by construction, so they
    exercise the no-extra-model path.
    """

    kind: str
    n: int
    count: int = 1
    m: int = 0
    seed: int = 0


def derive_seed(seed: int, index: int) -> int:
    return (seed * 0x9E3779B1 + index * 0x85EBCA77 + 1) % (1 << 63)


def _draw_subset_size(rng: random.Random, n: int) -> int:
    # very small model sets at large n inflate the candidate formula without
    # testing anything the small-n exhaustive sweeps miss, so the floor
    # grows with n
    lo = 1 if n <= 8 else n - 4
    return rng.randint(lo, min(3 * n, (1 << n) - 1))


def _gen_random_subset(spec: InstanceSpec, index: int) -> tuple[int, ModelSet]:
    inst_seed = derive_seed(spec.seed, index)
    rng = random.Random(inst_seed)
    m = spec.m or _draw_subset_size(rng, spec.n)
    picks = sorted(rng.sample(range(1 << spec.n), m))
    return inst_seed, ModelSet(spec.n, tuple(format(p, f"0{spec.n}b") for p in picks))


def _gen_3cnf_models(spec: InstanceSpec, index: int) -> tuple[int, ModelSet]:
    inst_seed = derive_seed(spec.seed, index)
    rng = random.Random(inst_seed)
    n = spec.n
    full = (1 << (1 << n)) - 1  # the drawn clauses are ANDed into truth tables as drawn, unvalidated
    falsifies = {x: t if x < 0 else full ^ t for v, t in enumerate(_true_masks(n), 1) for x in (v, -v)}
    for _ in range(200):
        mask = full
        for _ in range(rng.randint(2 * n, 4 * n)):
            a, b, c = (v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            mask &= ~(falsifies[a] & falsifies[b] & falsifies[c])
        if mask == 0 or mask.bit_count() > MAX_CNF_MODELS:
            continue
        return inst_seed, ModelSet(n, mask_to_models(mask, n))
    raise GeneratorExhausted(f"no satisfiable draw within budget for {spec}")


def generate_with_ids(spec: InstanceSpec) -> Iterator[tuple[str, int, ModelSet]]:
    """Yield (instance id, reproduction seed, instance) streams."""
    if spec.kind == EXHAUSTIVE:
        if spec.n > 4:
            raise ValueError("exhaustive family is desk scale only (n <= 4)")
        assignments = [format(i, f"0{spec.n}b") for i in range(1 << spec.n)]
        for subset in range(1, 1 << (1 << spec.n)):
            models = tuple(a for i, a in enumerate(assignments) if subset >> i & 1)
            yield f"{EXHAUSTIVE}-n{spec.n}-{subset}", subset, ModelSet(spec.n, models)
    elif spec.kind == RANDOM_SUBSET:
        for index in range(spec.count):
            inst_seed, ms = _gen_random_subset(spec, index)
            yield f"{RANDOM_SUBSET}-n{spec.n}-s{spec.seed}-{index}", inst_seed, ms
    elif spec.kind == RANDOM_3CNF_MODELS:
        for index in range(spec.count):
            inst_seed, ms = _gen_3cnf_models(spec, index)
            yield f"{RANDOM_3CNF_MODELS}-n{spec.n}-s{spec.seed}-{index}", inst_seed, ms
    else:
        raise ValueError(f"unknown instance kind {spec.kind!r}")


def generate(spec: InstanceSpec) -> Iterator[ModelSet]:
    """The instances alone, for callers that do not need provenance."""
    for _, _, ms in generate_with_ids(spec):
        yield ms


# -- per-instance examination -------------------------------------------------

class Examination(NamedTuple):
    instance_id: str
    seed: int
    n: int
    models: tuple[str, ...]
    algo_answer: str
    algo_witness: str | None
    oracle_extra: int
    agree: bool
    witness_ok: bool
    error: str | None
    alt_divergence: bool
    quine_pairs: int
    quine_mismatch_prefixes: tuple[str, ...]
    closed_restrictions: int
    checked_restrictions: int

    def needs_attention(self) -> bool:
        return not self.agree or bool(self.quine_mismatch_prefixes)


def examine_instance(
    instance_id: str,
    seed: int,
    models: ModelSet,
    cap: int = ENUMERATION_CAP,
    quine_probe: bool = False,
    closedness_stats: bool = False,
) -> Examination:
    """Run pipeline and oracle on one instance and compare.

    When n >= 4, the prefixes of length >= 4 (the paper's cover floor)
    must answer as `decide` does: every prefix before its stop was refuted
    and strata 1-3 never answer yes, so a yes must stop at length >= 4.
    closedness_stats, which counts restrictions already closed before
    saturation, and quine_probe share one pass over `open_prefixes` and
    probe each open prefix once, `decide`'s probes reused.  quine_probe
    checks that each cover prefix's restricted closure holds the empty
    clause iff the restriction is unsatisfiable in the oracle's truth
    table; a refuted prefix holds it unprobed.
    """
    n = models.n
    analysis = analyze(models)
    error = None
    algo_answer = "error"
    witness = None
    algo_yes = False
    try:
        report = decide(analysis)
        algo_answer = report.answer.value
        witness = report.witness
        algo_yes = report.answer is Answer.EXTRA_MODEL_EXISTS
    except WitnessExtractionFailed as exc:
        error = f"{type(exc).__name__}: {exc}"

    verdict = oracle_decide(models, cap=cap)
    oracle_yes = verdict.extra_model_exists()
    witness_ok = not algo_yes or bool(verdict.extra_mask >> int(witness, 2) & 1)
    agree = error is None and algo_yes == oracle_yes and witness_ok

    alt_divergence = n >= 4 and algo_yes and len(report.stop.prefix) < 4

    # in walk order, so the probes are too
    opened = dict.fromkeys(open_prefixes(analysis) if quine_probe or closedness_stats else ())
    checked_restrictions = closed_restrictions = 0
    if closedness_stats:  # a prefix that a refuter bit refutes is closed before saturation
        checked_restrictions = analysis.cover.size
        closed_restrictions = analysis.cover.size - sum(any(probe(analysis, p)[1:]) for p in opened)
    # a restriction is satisfiable iff a model of the closed formula, so of the
    # candidate, extends the prefix; a cover prefix starts no input model
    mismatches = [
        prefix for prefix in (analysis.cover.entries() if quine_probe else ())
        if (prefix_window(verdict.extra_mask, prefix, n) != 0)
        == (prefix not in opened or 0 in probe(analysis, prefix)[0])
    ]

    return Examination(
        instance_id=instance_id,
        seed=seed,
        n=n,
        models=models.models,
        algo_answer=algo_answer if error is None else f"error ({error})",
        algo_witness=witness,
        oracle_extra=verdict.extra_mask.bit_count(),
        agree=agree,
        witness_ok=witness_ok,
        error=error,
        alt_divergence=alt_divergence,
        quine_pairs=analysis.cover.size if quine_probe else 0,
        quine_mismatch_prefixes=tuple(mismatches),
        closed_restrictions=closed_restrictions,
        checked_restrictions=checked_restrictions,
    )


# -- shrinking and classification ---------------------------------------------

def shrink(models: ModelSet, predicate: Callable[[ModelSet], bool]) -> ModelSet:
    """Greedy minimization keeping the predicate true.

    Tries dropping one model at a time, then projecting out one variable at
    a time (models deduplicate after the column is removed), and repeats
    both passes until neither shrinks the instance further.  The predicate
    holds for the returned instance.
    """
    if not predicate(models):
        raise ValueError("predicate does not hold on the starting instance")
    current = models
    changed = True
    while changed:
        changed = False
        i = 0
        while len(current.models) > 1 and i < len(current.models):
            trial = ModelSet(current.n, current.models[:i] + current.models[i + 1 :])
            if predicate(trial):
                current = trial
                changed = True
            else:
                i += 1
        v = 0
        while current.n > 3 and v < current.n:
            seen = set()
            kept = []
            for m in current.models:
                proj = m[:v] + m[v + 1 :]
                if proj not in seen:
                    seen.add(proj)
                    kept.append(proj)
            trial = ModelSet(current.n - 1, tuple(kept))
            if predicate(trial):
                current = trial
                changed = True
            else:
                v += 1
    return current


class BatteryResult(NamedTuple):
    passed: bool
    failures: tuple[str, ...]


def invariant_battery(models: ModelSet) -> BatteryResult:
    """Re-derive the pipeline's supporting invariants from first principles.

    Everything here is independent of the closure engine's own claims:
    candidate maximality by direct double loop, closure checks against
    whole truth tables, restriction semantics and cover exactness on
    truth-table windows.  The closure that step 1 builds without
    resolution is checked against the engine's closure of the candidate.
    """
    n = models.n
    failures: list[str] = []

    raw = candidate_formula(models)
    member_mask = assignment_mask(models.models)

    # candidate maximality: a 3-variable clause is in the candidate formula
    # exactly when every model satisfies it
    want = set()
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            for k in range(j + 1, n + 1):
                for signs in range(8):
                    clause = (
                        i if signs & 4 == 0 else -i,
                        j if signs & 2 == 0 else -j,
                        k if signs & 1 == 0 else -k,
                    )
                    if all(
                        any((lit > 0) == (m[abs(lit) - 1] == "1") for lit in clause)
                        for m in models.models
                    ):
                        want.add(clause)
    if want != set(raw.clauses):
        failures.append("candidate-maximality")

    result = three_limited_closure(raw)
    closed = result.closed_formula
    if analyze(models).closed != closed:
        failures.append("closure-direct")

    if not is_closed_3limited(closed):
        failures.append("closure-fixpoint")
    again = three_limited_closure(closed)
    if again.closed_formula != closed or again.resolution_steps or again.subsumption_deletions:
        failures.append("closure-idempotence")
    closed_sat = satisfying_mask(closed)
    if satisfying_mask(raw) != closed_sat:
        failures.append("closure-model-preservation")

    masks = [encode_clause(c) for c in closed.clauses]
    # the prefixes actually walked: total() counts from the models alone
    cover = prefix_cover(models).entries()
    for prefix in cover:
        tm, fm = prefix_literal_masks(prefix)
        restricted = restrict_mask_clauses(masks, tm, fm)
        k = len(prefix)
        rest_cnf = Cnf(n - k, frozenset(decode_mask(m >> 2 * k) for m in restricted))
        if any(m & (tm | fm) for m in restricted) or (
            satisfying_mask(rest_cnf) != prefix_window(closed_sat, prefix, n)
        ):
            failures.append(f"restriction-semantics@{prefix}")
            break

    if len(cover) > n * len(models.models):
        failures.append("cover-size-bound")
    covered = 0
    for prefix in cover:
        free = n - len(prefix)
        covered |= ((1 << (1 << free)) - 1) << (int(prefix, 2) << free)
    # an assignment is wrong when it is both covered and a model, or neither
    wrong = ((1 << (1 << n)) - 1) ^ covered ^ member_mask
    if wrong:
        failures.append(f"cover-exactness@{format((wrong & -wrong).bit_length() - 1, f'0{n}b')}")

    return BatteryResult(not failures, tuple(failures))


class DiscrepancyReport(NamedTuple):
    instance_id: str
    reproduction_seed: int
    kind: str
    n: int
    models: tuple[str, ...]
    algorithm_answer: str
    oracle_answer: str
    detail: str
    minimized_n: int
    minimized_models: tuple[str, ...]
    minimized_algorithm_answer: str
    minimized_oracle_answer: str
    minimized_formula_models: tuple[str, ...]
    battery_failures: tuple[str, ...]
    classification: str


def _answer_word(yes: bool) -> str:
    return Answer.EXTRA_MODEL_EXISTS.value if yes else Answer.NO_EXTRA_MODEL.value


def classify(exam: Examination, cap: int = ENUMERATION_CAP) -> DiscrepancyReport:
    """Shrink a failing instance and decide which tier it indicts."""
    start = ModelSet(exam.n, exam.models)

    def still_failing(ms: ModelSet) -> bool:
        try:
            trial = examine_instance(
                "shrink-probe", 0, ms, cap=cap,
                quine_probe=bool(exam.quine_mismatch_prefixes),
            )
        except Exception:
            return True
        return trial.needs_attention()

    minimized = shrink(start, still_failing)
    mini_exam = examine_instance(
        "minimized", 0, minimized, cap=cap,
        quine_probe=bool(exam.quine_mismatch_prefixes),
    )
    battery = invariant_battery(minimized)
    classification = "PAPER-CLAIM" if battery.passed else "IMPLEMENTATION-BUG"

    formula_models = mask_to_models(candidate_models(minimized), minimized.n, 32)
    if exam.error is not None:
        kind = "pipeline-error"
        detail = exam.error
    elif not exam.agree:
        kind = "answer-disagreement"
        detail = f"witness_ok={exam.witness_ok}"
    else:
        kind = "closure-sat-mismatch"
        detail = "prefixes: " + ",".join(exam.quine_mismatch_prefixes)

    return DiscrepancyReport(
        instance_id=exam.instance_id,
        reproduction_seed=exam.seed,
        kind=kind,
        n=exam.n,
        models=exam.models,
        algorithm_answer=exam.algo_answer,
        oracle_answer=_answer_word(exam.oracle_extra > 0),
        detail=detail,
        minimized_n=minimized.n,
        minimized_models=minimized.models,
        minimized_algorithm_answer=mini_exam.algo_answer,
        minimized_oracle_answer=_answer_word(mini_exam.oracle_extra > 0),
        minimized_formula_models=formula_models,
        battery_failures=battery.failures,
        classification=classification,
    )


# -- campaigns ----------------------------------------------------------------

class CampaignResult(NamedTuple):
    instances: int
    agreements: int
    disagreements: int
    errors: int
    yes_answers: int
    witnesses_verified: int
    alt_compared: int
    alt_divergences: int
    alt_divergence_examples: tuple[str, ...]
    quine_pairs_checked: int
    quine_mismatch_count: int
    restrictions_checked: int
    restrictions_already_closed: int
    reports: tuple[DiscrepancyReport, ...]


def _campaign_worker(payload: tuple) -> Examination:
    return examine_instance(*payload)


def differential_run(
    specs: Iterable[InstanceSpec],
    kmin: int = 1,
    jobs: int = 1,
    cap: int = ENUMERATION_CAP,
    quine_probe: bool = False,
    closedness_sample: int = 0,
) -> CampaignResult:
    """Score every generated instance against the oracle and classify failures.

    kmin must be 1, else ValueError before anything is generated;
    `examine_instance` says how each instance is examined, the stratum-4
    slice included.  closedness_sample=0 collects already-closed-restriction
    statistics on every instance when quine_probe is set and on none
    otherwise; a value s > 0 samples every s-th instance.  Output is a
    pure function of specs and configuration: identical runs render
    identical reports.
    """
    if kmin != 1:  # the argument goes with benchmark v2 (ROADMAP item 6)
        raise ValueError(f"kmin {kmin}: every walk starts at stratum 1")

    def payloads() -> Iterator[tuple]:
        counter = 0
        for spec in specs:
            for instance_id, seed, ms in generate_with_ids(spec):
                counter += 1
                closedness = quine_probe if closedness_sample == 0 else (counter % closedness_sample == 0)
                # examine_instance's arguments, in order
                yield instance_id, seed, ms, cap, quine_probe, closedness

    instances = agreements = disagreements = errors = 0
    yes_answers = witnesses_verified = 0
    alt_compared = alt_divergences = 0
    divergence_examples: list[str] = []
    quine_pairs = quine_mismatches = 0
    closed_restr = checked_restr = 0
    attention: list[Examination] = []

    if jobs > 1:
        import multiprocessing

        pool = multiprocessing.Pool(jobs)
        stream = pool.imap(_campaign_worker, payloads(), chunksize=64)
    else:
        pool = None
        stream = map(_campaign_worker, payloads())

    try:
        for exam in stream:
            instances += 1
            if exam.agree:
                agreements += 1
            else:
                disagreements += 1
            if exam.error is not None:
                errors += 1
            if exam.algo_answer == Answer.EXTRA_MODEL_EXISTS.value:
                yes_answers += 1
                if exam.witness_ok:
                    witnesses_verified += 1
            if exam.n >= 4 and exam.error is None:
                alt_compared += 1
                if exam.alt_divergence:
                    alt_divergences += 1
                    if len(divergence_examples) < MAX_DIVERGENCE_EXAMPLES:
                        divergence_examples.append(
                            f"{exam.instance_id} n={exam.n} models={','.join(exam.models)}"
                        )
            quine_pairs += exam.quine_pairs
            quine_mismatches += len(exam.quine_mismatch_prefixes)
            closed_restr += exam.closed_restrictions
            checked_restr += exam.checked_restrictions
            if exam.needs_attention():
                attention.append(exam)
    finally:
        if pool is not None:
            # every result is read unless one raised, and then no worker should go on
            pool.terminate()

    reports = tuple(classify(exam, cap) for exam in attention)
    return CampaignResult(
        instances=instances,
        agreements=agreements,
        disagreements=disagreements,
        errors=errors,
        yes_answers=yes_answers,
        witnesses_verified=witnesses_verified,
        alt_compared=alt_compared,
        alt_divergences=alt_divergences,
        alt_divergence_examples=tuple(divergence_examples),
        quine_pairs_checked=quine_pairs,
        quine_mismatch_count=quine_mismatches,
        restrictions_checked=checked_restr,
        restrictions_already_closed=closed_restr,
        reports=reports,
    )


def render_records(result: CampaignResult) -> str:
    """One key=value block per discrepancy report, deterministic bytes."""
    blocks = []
    for r in result.reports:
        lines = [
            f"instance_id={r.instance_id}",
            f"reproduction_seed={r.reproduction_seed}",
            f"kind={r.kind}",
            "kmin=1",
            f"n={r.n}",
            f"models={','.join(r.models)}",
            f"algorithm_answer={r.algorithm_answer}",
            f"oracle_answer={r.oracle_answer}",
            f"detail={r.detail}",
            f"minimized_n={r.minimized_n}",
            f"minimized_models={','.join(r.minimized_models)}",
            f"minimized_algorithm_answer={r.minimized_algorithm_answer}",
            f"minimized_oracle_answer={r.minimized_oracle_answer}",
            f"minimized_formula_models={','.join(r.minimized_formula_models)}",
            f"battery_failures={','.join(r.battery_failures)}",
            f"classification={r.classification}",
        ]
        blocks.append("\n".join(lines))
    header = (
        f"campaign kmin=1 instances={result.instances} "
        f"agreements={result.agreements} disagreements={result.disagreements} "
        f"errors={result.errors} reports={len(result.reports)}"
    )
    return header + "\n\n" + ("\n\n".join(blocks) + "\n" if blocks else "")


def render_summary(result: CampaignResult) -> str:
    """Machine-readable campaign summary (JSON, sorted keys)."""
    payload = {
        "kmin": 1,
        "instances": result.instances,
        "agreements": result.agreements,
        "disagreements": result.disagreements,
        "errors": result.errors,
        "yes_answers": result.yes_answers,
        "witnesses_verified": result.witnesses_verified,
        "alt_kmin_compared": result.alt_compared,
        "alt_kmin_divergences": result.alt_divergences,
        "alt_kmin_divergence_examples": list(result.alt_divergence_examples),
        "quine_pairs_checked": result.quine_pairs_checked,
        "quine_mismatches": result.quine_mismatch_count,
        "restrictions_checked": result.restrictions_checked,
        "restrictions_already_closed": result.restrictions_already_closed,
        "reports": [
            {
                "instance_id": r.instance_id,
                "kind": r.kind,
                "classification": r.classification,
                "minimized_models": list(r.minimized_models),
                "battery_failures": list(r.battery_failures),
            }
            for r in result.reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

