#!/usr/bin/env python3
"""inv3sat benchmark: three seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload decide-dense --seed 3 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory.  One op runs at a time and every call uses jobs=1.

decide-dense, decide-wide
    Each op is one in-process ``inv3sat.cli.main(["decide", "--input", f])``
    call with stdout captured.
campaign
    Each op is one batch: ``differential_run`` over the acceptance gate's
    mix scaled down, then over a ``quine_probe=True`` slice.

A run goes round its pool of inputs until ``--seconds`` have passed (and
every input has run), so each input runs five to ten times, spread over
the run.  Every op time, and every set-up time, is scaled to a reference
host by a reference kernel timed before and after it (measure.HostClock):
on a shared host the same op swings by up to 1.75x in phases that can
outlast a run.  An input's op time is the median of its scaled runs;
medians and tails are taken over the inputs of the pool.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics.  With ``--trace 1`` each instance is run untraced and
then traced (see spans.py), and the JSON object holds the per-layer
metrics.  Every answer is checked outside the timed region; a failure
prints a ``FAIL <instance id>: <reason>`` line and counts into ``failed``.

``--record-digests`` reruns every input of DIGEST_SEEDS and rewrites
digests.json, the sha256 of each op's output that later runs must match.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import gen
import measure
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
DIGEST_SEEDS = range(10)

WORKLOADS = ("decide-dense", "decide-wide", "campaign")
MODULES = ("cli", "closure", "formats", "formula", "harness", "inverse", "oracle")
SETUP_REPEATS = 15
# oracle_decide enumerates 2^n assignments; beyond this it costs seconds
ORACLE_MAX_N = 20

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("inst_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_DECIDE_OUTPUT = re.compile(
    r"n=(?P<n>\d+) models=\d+ kmin=1\n"
    r"extra model exists: (?P<yes>yes|no)\n"
    r"input is the exact model set of a 3-CNF: (?:yes|no)\n"
    r"(?:witness: (?P<witness>[01]+)\n)?"
    r"cover size: (?P<cover>\d+), prefixes checked: (?P<checked>\d+)\n"
    r"trace:\n"
)


def load_program() -> SimpleNamespace:
    """Import inv3sat afresh from the checkout's src directory."""
    if not (SRC / "inv3sat" / "__init__.py").is_file():
        raise SystemExit(f"error: no inv3sat package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "inv3sat" or m.startswith("inv3sat.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"inv3sat.{m}") for m in MODULES})


def rounds(pool: list, seconds: float):
    """Yield the pool in order, round after round, until `seconds` have
    passed and every item has been yielded once."""
    start = perf_counter()
    for index, item in enumerate(itertools.cycle(pool)):
        if index >= len(pool) and perf_counter() - start >= seconds:
            return
        yield item


def median_per_id(ids: list[str], seconds: list[float]) -> list[float]:
    """The median time of each distinct id, in first-seen order."""
    by_id: dict[str, list[float]] = {}
    for op_id, s in zip(ids, seconds):
        by_id.setdefault(op_id, []).append(s)
    return [statistics.median(times) for times in by_id.values()]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Failed instances of one run, each printed once with its reason."""

    def __init__(self) -> None:
        self.failed: dict[str, str] = {}
        self.guards: list[str] = []

    def fail(self, instance_id: str, reason: str) -> None:
        if instance_id not in self.failed:
            self.failed[instance_id] = reason
            print(f"FAIL {instance_id}: {reason}")

    def guard(self, ok: bool, what: str) -> None:
        if not ok:
            self.guards.append(what)
            print(f"GUARD {what}")


class Recorded:
    """Digests recorded for the seed, and the first digest seen per id."""

    def __init__(self, workload: str, seed: int, checks: Checks) -> None:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.expected = table.get(workload, {}).get(str(seed), {})
        self.seen: dict[str, str] = {}
        self.checks = checks

    def check(self, op_id: str, text: str) -> bool:
        """False when the output differs from an earlier run or the record."""
        value = digest(text)
        first = self.seen.setdefault(op_id, value)
        want = self.expected.get(op_id, first)
        if value != first:
            self.checks.fail(op_id, "output differs between repeats of the same input")
        elif value != want:
            self.checks.fail(op_id, f"output sha256 {value[:16]} differs from recorded {want[:16]}")
        return value == first == want


# -- decide workloads ----------------------------------------------------------

@dataclass
class DecideInputs:
    instances: list[gen.Instance]
    files: dict[str, str]


def prepare_decide(workload: str, seed: int, work: Path) -> DecideInputs:
    instances = gen.dense_instances(seed) if workload == "decide-dense" else gen.wide_instances(seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = {}
    for inst in instances:
        path = work / f"{inst.instance_id}.models"
        path.write_text(inst.text())
        files[inst.instance_id] = str(path)
    return DecideInputs(instances, files)


def cli_decide(api, path: str) -> tuple[float, int | str, str]:
    """One op: (seconds, exit code or exception text, stdout)."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = api.cli.main(["decide", "--input", path])
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        code = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, code, out.getvalue()


@dataclass
class DecideRun:
    ids: list[str] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    # the parsed stdout of each distinct instance, checked after the loop
    answers: dict[str, tuple[gen.Instance, re.Match]] = field(default_factory=dict)


def run_decide_op(api, inputs: DecideInputs, inst: gen.Instance, run: DecideRun,
                  recorded: Recorded, checks: Checks, clock: measure.HostClock) -> float:
    seconds, code, out = cli_decide(api, inputs.files[inst.instance_id])
    run.ids.append(inst.instance_id)
    run.seconds.append(clock.scale(seconds))
    if code != 0:
        checks.fail(inst.instance_id, f"decide exited with {code}")
    elif recorded.check(inst.instance_id, out) and inst.instance_id not in run.answers:
        parsed = _DECIDE_OUTPUT.match(out)
        if parsed is None:
            checks.fail(inst.instance_id, "decide output does not parse")
        else:
            run.answers[inst.instance_id] = inst, parsed
    return seconds


def check_decide(api, workload: str, run: DecideRun, checks: Checks) -> None:
    """Regime guards, witnesses and oracle answers, per distinct instance."""
    for instance_id, (inst, parsed) in run.answers.items():
        yes = parsed["yes"] == "yes"
        checked, cover = int(parsed["checked"]), int(parsed["cover"])
        if workload == "decide-dense" and (yes or checked != cover):
            checks.fail(instance_id, f"regime: want no extra model over all {cover} prefixes, "
                                     f"got yes={yes} after {checked}")
            continue
        if workload == "decide-wide" and not (yes and checked == 1):
            checks.fail(instance_id, f"regime: want an extra model at probe 1, got yes={yes} "
                                     f"after {checked}")
            continue
        models = api.formula.ModelSet(inst.n, inst.models)
        if yes and not api.oracle.verify_witness(models, parsed["witness"] or ""):
            checks.fail(instance_id, f"witness {parsed['witness']} fails verify_witness")
        elif inst.n <= ORACLE_MAX_N and api.oracle.oracle_decide(models).extra_model_exists() != yes:
            checks.fail(instance_id, "answer disagrees with oracle_decide")


def decide_workload(api, inputs: DecideInputs, seconds: float, recorded: Recorded,
                    checks: Checks, tracer: spans.Tracer | None,
                    clock: measure.HostClock) -> tuple[DecideRun, float, float]:
    """Ops over the instance pool in rounds until `seconds` have passed.

    With a tracer, each op is paired with the traced staged pipeline on the
    same instance, alternating which of the two runs first; returns the run
    with total untraced and traced op time, both unscaled.
    """
    run = DecideRun()
    untraced = traced = 0.0
    for inst in rounds(inputs.instances, seconds):
        traced_first = tracer is not None and len(run.ids) % 2 == 1
        if traced_first:
            traced += traced_decide(api, inst, tracer, checks)
        seconds_untraced = run_decide_op(api, inputs, inst, run, recorded, checks, clock)
        if tracer is not None:
            untraced += seconds_untraced
            if not traced_first:
                traced += traced_decide(api, inst, tracer, checks)
    return run, untraced, traced


def traced_decide(api, inst: gen.Instance, tracer: spans.Tracer, checks: Checks) -> float:
    """Run the staged pipeline traced and compare it with decide()."""
    failed = api.inverse.WitnessExtractionFailed
    tracer.trace_id = inst.instance_id
    root = tracer.begin("op")
    try:
        staged = spans.staged_decide(tracer, api, inst.text())
    except failed:
        staged = "WitnessExtractionFailed"
    finally:
        tracer.end(root)
    span = tracer.spans[root]
    try:
        report = api.inverse.decide(api.formula.ModelSet(inst.n, inst.models))
    except failed:
        want = "WitnessExtractionFailed"
    else:
        spans.count_decide_report(tracer, report)
        want = (report.witness, tuple(rec.prefix for rec in report.trace))
    if staged != want:
        checks.fail(inst.instance_id, f"staged pipeline gave {staged!r}, decide() gave {want!r}")
    return span[4] - span[3]


# -- campaign workload ---------------------------------------------------------

def prepare_campaign(api, seed: int) -> list[tuple[gen.CampaignBatch, list, list]]:
    h = api.harness
    kinds = {gen.SUBSET: h.RANDOM_SUBSET, gen.CNF_MODELS: h.RANDOM_3CNF_MODELS}

    def specs(rows):
        return [h.InstanceSpec(kinds[r.kind], r.n, count=r.count, seed=r.seed) for r in rows if r.count]

    return [(b, specs(b.main), specs(b.quine)) for b in gen.campaign_batches(seed)]


def campaign_op(api, main: list, quine: list) -> tuple[float, list | str]:
    """One batch: (seconds, the two campaign results or exception text)."""
    h = api.harness
    start = perf_counter()
    try:
        results = [
            h.differential_run(main, kmin=1, jobs=1, closedness_sample=50),
            h.differential_run(quine, kmin=1, jobs=1, quine_probe=True),
        ]
    except Exception as exc:  # a batch that raises is a failed op, not a crashed run
        results = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, results


def traced_campaign_op(api, batch: gen.CampaignBatch, main: list, quine: list,
                       tracer: spans.Tracer) -> tuple[float, list | str]:
    tracer.trace_id = batch.batch_id
    root = tracer.begin("campaign")
    try:
        with spans.instrumented(tracer, api):
            results = campaign_op(api, main, quine)[1]
    finally:
        tracer.end(root)
    span = tracer.spans[root]
    return span[4] - span[3], results


def rendered(api, results: list) -> str:
    h = api.harness
    return "".join(h.render_records(r) + h.render_summary(r) for r in results)


def check_batch(api, batch: gen.CampaignBatch, results: list | str, recorded: Recorded,
                checks: Checks) -> int:
    """Check one batch; returns how many of its instances failed."""
    if isinstance(results, str):
        checks.fail(batch.batch_id, results)
        return batch.instances()
    bad = 0
    for r in results:
        for report in r.reports:
            checks.fail(report.instance_id, f"{report.kind} ({report.classification})")
        bad += max(r.disagreements, len(r.reports))
    problems = []
    if sum(r.instances for r in results) != batch.instances():
        problems.append("instance count differs from the plan")
    if any(r.witnesses_verified != r.yes_answers for r in results):
        problems.append("unverified witnesses")
    if any(r.alt_divergences or r.quine_mismatch_count for r in results):
        problems.append("alt-kmin divergence or quine mismatch")
    if problems:
        checks.fail(batch.batch_id, ", ".join(problems))
    if problems or not recorded.check(batch.batch_id, rendered(api, results)):
        bad = batch.instances()
    return bad


def campaign_workload(api, batches: list, seconds: float, recorded: Recorded, checks: Checks,
                      tracer: spans.Tracer | None,
                      clock: measure.HostClock) -> tuple[list[float], int, int, float, float]:
    """Batches in rounds until `seconds` have passed, checking each and the regime.

    With a tracer, each batch is also run instrumented, alternating which
    of the two runs first.  Returns the median scaled time of each batch,
    instances, failed instances, and total untraced and traced time,
    both unscaled.
    """
    ids: list[str] = []
    times: list[float] = []
    instances = failed = 0
    yes = quine_pairs = main_instances = 0
    untraced = traced = 0.0
    for batch, main, quine in rounds(batches, seconds):
        traced_first = tracer is not None and len(times) % 2 == 1
        if traced_first:
            traced_s, traced_results = traced_campaign_op(api, batch, main, quine, tracer)
        elapsed, results = campaign_op(api, main, quine)
        ids.append(batch.batch_id)
        times.append(clock.scale(elapsed))
        instances += batch.instances()
        failed += check_batch(api, batch, results, recorded, checks)
        if not isinstance(results, str):
            yes += results[0].yes_answers
            main_instances += results[0].instances
            quine_pairs += results[1].quine_pairs_checked
        if tracer is not None:
            if not traced_first:
                traced_s, traced_results = traced_campaign_op(api, batch, main, quine, tracer)
            untraced += elapsed
            traced += traced_s
            if not isinstance(results, str) and (
                    isinstance(traced_results, str)
                    or rendered(api, traced_results) != rendered(api, results)):
                checks.fail(batch.batch_id, "traced campaign output differs from the untraced one")
    cnf_planned = sum(r.count for r in batches[0][0].main if r.kind == gen.CNF_MODELS)
    checks.guard(cnf_planned > 0, "campaign: no random-3CNF-model instances planned")
    checks.guard(0 < yes < main_instances, f"campaign: {yes} of {main_instances} answers are yes")
    checks.guard(quine_pairs > 0, "campaign: no quine pairs checked")
    return median_per_id(ids, times), instances, failed, untraced, traced


# -- entry point -----------------------------------------------------------------

def timed_setup(prepare, clock: measure.HostClock) -> tuple[SimpleNamespace, object, float]:
    """Import the program and build the inputs SETUP_REPEATS times.

    Returns the last program and inputs with the median scaled set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        api = load_program()
        inputs = prepare(api)
        times.append(clock.scale(perf_counter() - start))
    return api, inputs, statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checks = Checks()
    recorded = Recorded(workload, seed, checks)
    tracer = spans.Tracer() if trace else None
    clock = measure.HostClock()
    work = WORK / f"{workload}-{os.getpid()}"
    try:
        if workload == "campaign":
            api, batches, setup_s = timed_setup(lambda api: prepare_campaign(api, seed), clock)
            times, attempted, failed, untraced, traced = campaign_workload(
                api, batches, seconds, recorded, checks, tracer, clock)
            per_op = batches[0][0].instances()
            rss = measure.peak_rss_mb()
        else:
            api, inputs, setup_s = timed_setup(lambda api: prepare_decide(workload, seed, work), clock)
            per_op = 1
            decided, untraced, traced = decide_workload(api, inputs, seconds, recorded, checks,
                                                        tracer, clock)
            rss = measure.peak_rss_mb()
            check_decide(api, workload, decided, checks)
            times, attempted = median_per_id(decided.ids, decided.seconds), len(decided.seconds)
            failed = sum(instance_id in checks.failed for instance_id in decided.ids)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{workload}-s{seed}.tsv")
        layers = spans.layer_metrics(tracer, attempted, traced, untraced)
        metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    else:
        p50 = statistics.median(times)
        tail, percentile, count = measure.tail(times)
        per_second = per_op * len(times) / sum(times)
        print(f"{workload} seed={seed}: {attempted} instances, op_p50_s={p50:.4f}, "
              f"op_tail_s={tail:.4f} (p{percentile:.1f} of {count} inputs), "
              f"failed_frac={failed / attempted:.4f}, host slowdown {clock.slowdown():.2f}x")
        values = {"op_p50_s": p50, "op_tail_s": tail, "inst_per_s": per_second,
                  "setup_s": setup_s, "peak_rss_mb": rss}
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return {
        "correct": failed == 0 and not checks.guards,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record_digests() -> None:
    """Rewrite digests.json from every input of DIGEST_SEEDS."""
    table: dict[str, dict[str, dict[str, str]]] = {w: {} for w in WORKLOADS}
    api = load_program()
    work = WORK / f"record-{os.getpid()}"
    try:
        for seed in DIGEST_SEEDS:
            for workload in ("decide-dense", "decide-wide"):
                inputs = prepare_decide(workload, seed, work)
                table[workload][str(seed)] = {
                    inst.instance_id: digest(cli_decide(api, inputs.files[inst.instance_id])[2])
                    for inst in inputs.instances
                }
            table["campaign"][str(seed)] = {
                batch.batch_id: digest(rendered(api, campaign_op(api, main, quine)[1]))
                for batch, main, quine in prepare_campaign(api, seed)
            }
            print(f"recorded seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
