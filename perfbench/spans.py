"""Traced runs: spans around calls into each layer of the program.

The program itself records no spans.  A decide op is re-run here as a
staged pipeline built from the layers' public functions, with one span per
call.  A campaign op runs the real ``differential_run`` while the module
attributes it and ``decide`` look up are swapped for wrappers that record
a span around each call; the originals are restored afterwards.

Spans live in memory as ``[trace_id, name, parent, start, end, child_s]``
rows, where ``child_s`` is the time covered by the span's direct children,
so a span's self time is ``end - start - child_s``.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from measure import ratio

# Layer spans.  "op" and "campaign" are the roots of one traced op.
CANDIDATE = "candidate"
CLOSURE = "closure"
COVER = "cover"
WALK = "walk"
WITNESS = "witness"
ORACLE = "oracle"
FORMATS = "formats"
DECIDE = "decide"
EXAMINE = "harness.examine"
GENERATE = "harness.generate"
CLASSIFY = "harness.classify"
ROOTS = ("op", "campaign")

STEP_KEYS = (
    ("decide.step1_s", "step1_candidate_closure"),
    ("decide.step2_s", "step2_prefix_cover"),
    ("decide.step3_s", "step3_prefix_walk"),
)

# (name, unit, better).  busy_s is a layer's self time per instance; calls,
# steps, probes and assignments are per instance; clauses and prefixes are
# per call (restricted_clauses per probe), so they describe the inputs a
# layer sees rather than how often it runs.
PER_LAYER = (
    ("candidate.busy_s", "s/inst", "lower"),
    ("candidate.calls", "count/inst", "lower"),
    ("candidate.clauses", "count", "lower"),
    ("closure.busy_s", "s/inst", "lower"),
    ("closure.calls", "count/inst", "lower"),
    ("closure.steps", "count/inst", "lower"),
    ("closure.deletions", "count/inst", "lower"),
    ("closure.clauses", "count", "lower"),
    ("walk.busy_s", "s/inst", "lower"),
    ("walk.probes", "count/inst", "lower"),
    ("walk.steps", "count/inst", "lower"),
    ("walk.restricted_clauses", "count", "lower"),
    ("walk.trivial_frac", "ratio", "lower"),
    ("cover.busy_s", "s/inst", "lower"),
    ("cover.prefixes", "count", "lower"),
    ("witness.busy_s", "s/inst", "lower"),
    ("witness.calls", "count/inst", "lower"),
    ("oracle.busy_s", "s/inst", "lower"),
    ("oracle.assignments", "count/inst", "lower"),
    ("formats.busy_s", "s/inst", "lower"),
    ("harness.examine_busy_s", "s/inst", "lower"),
    ("harness.generate_busy_s", "s/inst", "lower"),
    ("harness.classify_busy_s", "s/inst", "lower"),
    ("harness.self_s", "s/inst", "lower"),
    ("decide.step1_s", "s", "lower"),
    ("decide.step2_s", "s", "lower"),
    ("decide.step3_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.trace_id = ""
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.trace_id, name, parent, perf_counter(), 0.0, 0.0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = perf_counter()
        span = self.spans[index]
        span[4] = now
        self._stack.pop()
        if span[2] >= 0:
            self.spans[span[2]][5] += now - span[3]

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def write(self, path: Path) -> None:
        """Dump every span as a tab-separated row, one per line."""
        with path.open("w") as out:
            out.write("trace_id\tname\tparent\tstart\tend\tchild_s\n")
            for row in self.spans:
                out.write("\t".join(str(v) for v in row) + "\n")


def _count_probe(tracer: Tracer, restricted) -> None:
    tracer.counts["walk.probes"] += 1
    tracer.counts["walk.restricted_clauses"] += len(restricted)
    tracer.counts["walk.trivial"] += 0 in restricted


def _count_closure(tracer: Tracer, result) -> None:
    tracer.counts["closure.steps"] += result.resolution_steps
    tracer.counts["closure.deletions"] += result.subsumption_deletions
    tracer.counts["closure.clauses"] += len(result.closed_formula.clauses)


def count_decide_report(tracer: Tracer, report) -> None:
    """Add a DecisionReport's own step timings to the trace counters."""
    tracer.counts["decide.calls"] += 1
    for metric, key in STEP_KEYS:
        tracer.counts[metric] += report.timings.get(key, 0.0)


def staged_decide(tracer: Tracer, api, text: str) -> tuple[str | None, tuple[str, ...]]:
    """Answer one ``decide --input`` op through the layers' public calls.

    Mirrors ``decide(models)`` with kmin=1 and the CLI's rendering of the
    trace: candidate, closure, cover, one restriction and saturation per
    cover prefix until a prefix keeps the empty clause out, then witness
    extraction.  Returns the witness (None for no extra model) and the
    prefixes walked, for comparison with ``decide``.
    """
    cl = api.closure
    inv = api.inverse
    models = tracer.call(FORMATS, api.formats.read_models, text)
    n = models.n
    raw = tracer.call(CANDIDATE, inv.candidate_formula, models)
    tracer.counts["candidate.clauses"] += len(raw.clauses)
    closed = tracer.call(CLOSURE, cl.three_limited_closure, raw)
    _count_closure(tracer, closed)
    formula = closed.closed_formula
    cover = tracer.call(COVER, inv.prefix_cover, models, 1)
    tracer.counts["cover.prefixes"] += cover.total()

    masks = [cl.encode_clause(c) for c in formula.clauses]
    member = models.member_set()
    records = []
    witness = None
    for prefix in cover.entries():
        true_mask, false_mask = cl.prefix_literal_masks(prefix)
        restricted = tracer.call(WALK, cl.restrict_mask_clauses, masks, true_mask, false_mask)
        _count_probe(tracer, restricted)
        closed_masks, steps, _ = tracer.call(WALK, cl.saturate_masks, restricted, n)
        tracer.counts["walk.steps"] += steps
        clauses = tuple(sorted(map(cl.decode_mask, closed_masks), key=api.formula.clause_sort_key))
        records.append((prefix, clauses))
        if 0 not in closed_masks:
            witness = tracer.call(WITNESS, inv.extract_witness, formula, prefix)
            if witness in member or not api.formula.evaluate(raw, witness):
                raise inv.WitnessExtractionFailed(
                    f"witness {witness} for prefix {prefix} failed verification"
                )
            break
    for _, clauses in records:
        tracer.call(FORMATS, api.formats.format_formula, api.formula.Cnf(n, frozenset(clauses)))
    return witness, tuple(prefix for prefix, _ in records)


@contextmanager
def instrumented(tracer: Tracer, api):
    """Swap the layer functions the campaign looks up for span recorders.

    Only names that exist are wrapped, so a refactored program loses spans
    rather than breaking the benchmark.  Everything is restored on exit.
    """
    saved = []

    def swap(module, name, make):
        original = getattr(module, name, None)
        if original is None:
            return
        saved.append((module, name, original))
        setattr(module, name, make(original))

    def span(layer, after=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = tracer.call(layer, fn, *args, **kwargs)
                if after is not None:
                    after(result)
                return result
            return wrapper
        return make

    def examine(fn):
        @functools.wraps(fn)
        def wrapper(instance_id, *args, **kwargs):
            tracer.trace_id = instance_id
            return tracer.call(EXAMINE, fn, instance_id, *args, **kwargs)
        return wrapper

    def generate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stream = iter(fn(*args, **kwargs))
            while True:
                index = tracer.begin(GENERATE)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item
        return wrapper

    def add(key, value_of):
        return lambda result: tracer.counts.update({key: value_of(result)})

    count_candidate = add("candidate.clauses", lambda f: len(f.clauses))
    count_cover = add("cover.prefixes", lambda c: c.total())
    count_steps = add("walk.steps", lambda r: r[1])
    harness, inverse = api.harness, api.inverse
    try:
        swap(harness, "generate_with_ids", generate)
        swap(harness, "examine_instance", examine)
        swap(harness, "classify", span(CLASSIFY))
        swap(harness, "decide", span(DECIDE, functools.partial(count_decide_report, tracer)))
        swap(harness, "oracle_decide", span(ORACLE, add("oracle.assignments", lambda v: v.checked_count)))
        swap(api.oracle, "candidate_formula", span(CANDIDATE, count_candidate))
        for module in (harness, inverse):
            swap(module, "candidate_formula", span(CANDIDATE, count_candidate))
            swap(module, "three_limited_closure", span(CLOSURE, functools.partial(_count_closure, tracer)))
            swap(module, "prefix_cover", span(COVER, count_cover))
            swap(module, "restrict_mask_clauses", span(WALK, functools.partial(_count_probe, tracer)))
            swap(module, "saturate_masks", span(WALK, count_steps))
        swap(inverse, "extract_witness", span(WITNESS))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def layer_metrics(tracer: Tracer, instances: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    ``traced_s`` and ``untraced_s`` are the total op times of the same ops
    run with and without tracing.
    """
    busy: Counter[str] = Counter()
    inclusive: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for _, name, _, start, end, child_s in tracer.spans:
        busy[name] += end - start - child_s
        inclusive[name] += end - start
        calls[name] += 1
    c = tracer.counts
    root_s = sum(inclusive[r] for r in ROOTS)
    root_self_s = sum(busy[r] for r in ROOTS)
    values = {
        "candidate.busy_s": busy[CANDIDATE] / instances,
        "candidate.calls": calls[CANDIDATE] / instances,
        "candidate.clauses": ratio(c["candidate.clauses"], calls[CANDIDATE]),
        "closure.busy_s": busy[CLOSURE] / instances,
        "closure.calls": calls[CLOSURE] / instances,
        "closure.steps": c["closure.steps"] / instances,
        "closure.deletions": c["closure.deletions"] / instances,
        "closure.clauses": ratio(c["closure.clauses"], calls[CLOSURE]),
        "walk.busy_s": busy[WALK] / instances,
        # walk spans come in restrict/saturate pairs, so probes are counted
        "walk.probes": c["walk.probes"] / instances,
        "walk.steps": c["walk.steps"] / instances,
        "walk.restricted_clauses": ratio(c["walk.restricted_clauses"], c["walk.probes"]),
        "walk.trivial_frac": ratio(c["walk.trivial"], c["walk.probes"]),
        "cover.busy_s": busy[COVER] / instances,
        "cover.prefixes": ratio(c["cover.prefixes"], calls[COVER]),
        "witness.busy_s": busy[WITNESS] / instances,
        "witness.calls": calls[WITNESS] / instances,
        "oracle.busy_s": busy[ORACLE] / instances,
        "oracle.assignments": c["oracle.assignments"] / instances,
        "formats.busy_s": busy[FORMATS] / instances,
        "harness.examine_busy_s": inclusive[EXAMINE] / instances,
        "harness.generate_busy_s": inclusive[GENERATE] / instances,
        "harness.classify_busy_s": inclusive[CLASSIFY] / instances,
        "harness.self_s": (inclusive[EXAMINE] - inclusive[DECIDE] - inclusive[ORACLE]) / instances,
        "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
        "trace.unattributed_frac": ratio(root_self_s, root_s),
    }
    for metric, _ in STEP_KEYS:
        values[metric] = ratio(c[metric], c["decide.calls"])
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
