"""Command line interface.

Exit codes: 0 means the run completed (the answer is in the output), 2
means the input or configuration was unusable or `decide --timeout`
expired, 3 means `decide` could not report a verified answer: either the
paper's closure test failed (a prefix's width-3 closure held no empty
clause, yet the witness search proved the restriction unsatisfiable) or
the pipeline caught itself in an internal inconsistency (a witness failed
verification).  stderr says which.  A reader closing stdout early (`| head`)
ends the run quietly with 141, as a shell reports a SIGPIPE death.  Stdout
is deterministic for a given input and configuration; timings and
progress go to stderr under --verbose.  The parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from .formats import (
    InputFormatError,
    format_clause,
    read_models,
    write_cover,
    write_dimacs,
)
from .formula import CapExceeded, ENUMERATION_CAP, InputTooSmall, mask_to_models
from .harness import (
    EXHAUSTIVE,
    GeneratorExhausted,
    InstanceSpec,
    RANDOM_3CNF_MODELS,
    RANDOM_SUBSET,
    differential_run,
    render_records,
    render_summary,
)
from .inverse import (
    Answer,
    ClosureTestFailed,
    WitnessExtractionFailed,
    analyze,
    candidate_formula,
    decide,
    prefix_cover,
)
from .closure import three_limited_closure
from .oracle import oracle_decide


def cmd_candidate(args: argparse.Namespace) -> int:
    models = read_models(Path(args.input).read_text())
    formula = candidate_formula(models)
    if args.json:
        payload = {
            "num_vars": formula.num_vars,
            "clause_count": len(formula.clauses),
            "clauses": [list(c) for c in formula.ordered()],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(write_dimacs(formula))
    return 0


def cmd_closure(args: argparse.Namespace) -> int:
    models = read_models(Path(args.input).read_text())
    result = three_limited_closure(candidate_formula(models))
    if args.verbose:
        print(
            f"resolution_steps={result.resolution_steps} "
            f"subsumption_deletions={result.subsumption_deletions}",
            file=sys.stderr,
        )
    if args.json:
        payload = {
            "num_vars": result.closed_formula.num_vars,
            "clause_count": len(result.closed_formula.clauses),
            "clauses": [list(c) for c in result.closed_formula.ordered()],
            "resolution_steps": result.resolution_steps,
            "subsumption_deletions": result.subsumption_deletions,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(write_dimacs(result.closed_formula))
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    models = read_models(Path(args.input).read_text())
    cover = prefix_cover(models)
    if args.json:
        payload = {
            "n": cover.n,
            "kmin": 1,
            "total": cover.total(),
            "strata": {str(k): sorted(v) for k, v in sorted(cover.strata.items()) if v},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(write_cover(cover))
    return 0


def cmd_decide(args: argparse.Namespace) -> int:
    models = read_models(Path(args.input).read_text())
    deadline = time.perf_counter() + args.timeout if args.timeout else None
    analysis = analyze(models)
    start = time.perf_counter()
    try:
        report = decide(analysis, deadline=deadline)
    finally:
        # also when the walk raises (exit 3, an expired --timeout): those runs need explaining most
        if args.verbose:
            t = analysis.timings
            width = Counter(map(len, analysis.closed.clauses))
            print(
                "timings: "
                f"step1={t['step1_candidate_closure']:.3f}s "
                f"step2={t['step2_prefix_cover']:.3f}s "
                f"step3={time.perf_counter() - start:.3f}s "
                f"open: strata={','.join(str(k) for k, bits in enumerate(analysis.opened, 1) if bits) or '-'} "
                f"probed={len(analysis.probes)} "
                f"closed: units={width[1]} pairs={width[2]} triples={width[3]}",
                file=sys.stderr,
            )
    yes, trace = report.answer is Answer.EXTRA_MODEL_EXISTS, report.trace  # trace renders per read
    if args.json:
        payload = {
            "n": report.n,
            "kmin": 1,
            "answer": report.answer.value,
            "extra_model_exists": yes,
            "exactly_representable": report.exactly_representable(),
            "witness": report.witness,
            "cover_size": report.cover_size,
            "prefixes_checked": len(trace),
            "trace": [
                {
                    "prefix": rec.prefix,
                    "closure_size": rec.closure_size,
                    "contains_empty": rec.contains_empty,
                    "closure": [list(c) for c in rec.closure_clauses],
                }
                for rec in trace
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"n={report.n} models={len(models)} kmin=1")
        print(f"extra model exists: {'yes' if yes else 'no'}")
        print(f"input is the exact model set of a 3-CNF: {'no' if yes else 'yes'}")
        if report.witness is not None:
            print(f"witness: {report.witness}")
        print(f"cover size: {report.cover_size}, prefixes checked: {len(trace)}")
        print("trace:")
        for rec in trace:  # decide sorts each closure, and records a refuted one as ((),)
            shown = "{()}" if rec.contains_empty else "{" + ", ".join(map(format_clause, rec.closure_clauses)) + "}"
            print(
                f"  {rec.prefix} k={len(rec.prefix)} closure_size={rec.closure_size} "
                f"empty={'yes' if rec.contains_empty else 'no'} {shown}"
            )
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    models = read_models(Path(args.input).read_text())
    verdict = oracle_decide(models, cap=args.oracle_cap)
    yes = verdict.extra_model_exists()
    count = verdict.extra_mask.bit_count()
    shown = mask_to_models(verdict.extra_mask, models.n, 32)
    if args.json:
        payload = {
            "n": models.n,
            "checked_count": verdict.checked_count,
            "extra_model_exists": yes,
            "exactly_representable": not yes,
            "extra_model_count": count,
            "extra_models": list(shown),
            "extra_models_truncated": count > len(shown),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"n={models.n} checked={verdict.checked_count}")
        print(f"extra model exists: {'yes' if yes else 'no'}")
        print(f"input is the exact model set of a 3-CNF: {'no' if yes else 'yes'}")
        print(f"extra models: {count}")
        for m in shown:
            print(f"  {m}")
        if count > len(shown):
            print(f"  ... and {count - len(shown)} more")
    return 0


def _parse_pair(value: str, flag: str) -> tuple[int, int]:
    parts = value.split(":")
    if len(parts) != 2:
        raise InputFormatError(f"{flag} wants N:COUNT, got {value!r}")
    try:
        n, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputFormatError(f"{flag} wants integers, got {value!r}") from None
    if n < 3 or count < 0:
        raise InputFormatError(f"{flag} wants N >= 3 and COUNT >= 0, got {value!r}")
    return n, count


def cmd_fuzz(args: argparse.Namespace) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise InputFormatError(f"--jobs must lie in 1..{cpus}, the CPU count")
    if args.closedness_sample < 0:
        raise InputFormatError("--closedness-sample must be at least 0")
    specs: list[InstanceSpec] = []
    for n in args.exhaustive or []:
        if not 3 <= n <= 4:
            raise InputFormatError(f"--exhaustive wants N of 3 or 4, got {n}")
        specs.append(InstanceSpec(EXHAUSTIVE, n))
    for value in args.random or []:
        n, count = _parse_pair(value, "--random")
        specs.append(InstanceSpec(RANDOM_SUBSET, n, count=count, seed=args.seed))
    for value in args.cnf_random or []:
        n, count = _parse_pair(value, "--cnf-random")
        specs.append(InstanceSpec(RANDOM_3CNF_MODELS, n, count=count, seed=args.seed))
    if not specs:
        raise InputFormatError("nothing to fuzz; pass --exhaustive, --random or --cnf-random")
    widest = max(spec.n for spec in specs)
    if widest > args.oracle_cap:  # the oracle scores every instance: refuse before the first one runs
        raise InputFormatError(f"N = {widest} exceeds --oracle-cap {args.oracle_cap}")
    out = Path(args.out) if args.out else None
    if out:  # an unusable --out fails here, before the campaign runs
        out.mkdir(parents=True, exist_ok=True)
    result = differential_run(
        specs,
        jobs=args.jobs,
        cap=args.oracle_cap,
        quine_probe=args.quine_probe,
        closedness_sample=args.closedness_sample,
    )
    records = render_records(result)
    summary = render_summary(result)
    if out:
        (out / "records.txt").write_text(records)
        (out / "summary.json").write_text(summary)
        print(f"wrote {out / 'records.txt'} and {out / 'summary.json'}")
    if args.json or not out:
        sys.stdout.write(summary if args.json else records)
    return 0


def _seconds(value: str) -> float:
    """A --timeout value: a finite number of seconds above 0."""
    if not 0 < float(value) < float("inf"):  # nan fails both comparisons
        raise argparse.ArgumentTypeError(f"want a finite number of seconds above 0, got {value!r}")
    return float(value)


_FLAGS = {
    "--input": dict(required=True, help="model set file, one 0/1 assignment per line"),
    "--seed": dict(type=int, default=0, help="campaign seed"),
    "--oracle-cap": dict(type=int, default=ENUMERATION_CAP, help="variable cap for enumeration"),
    "--json": dict(action="store_true", help="JSON output on stdout"),
    "--verbose": dict(action="store_true", help="diagnostics on stderr"),
    "--timeout": dict(type=_seconds, default=None,
                      help="deadline in seconds for the prefix walk, checked per stratum and "
                           "before each probe; the candidate and closure build is not interrupted"),
}


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(name, **_FLAGS[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inv3sat",
        description="Decide whether a model set is exactly the model set of some 3-CNF",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("candidate", help="emit the candidate formula as DIMACS")
    _add_flags(p, "--input", "--json")
    p.set_defaults(func=cmd_candidate)

    p = subs.add_parser("closure", help="emit the closed candidate formula as DIMACS")
    _add_flags(p, "--input", "--json", "--verbose")
    p.set_defaults(func=cmd_closure)

    p = subs.add_parser("cover", help="list the complement-covering prefixes")
    _add_flags(p, "--input", "--json")
    p.set_defaults(func=cmd_cover)

    p = subs.add_parser("decide", help="run the full decision pipeline")
    _add_flags(p, "--input", "--json", "--verbose", "--timeout")
    p.set_defaults(func=cmd_decide)

    p = subs.add_parser("oracle", help="brute-force reference answer")
    _add_flags(p, "--input", "--oracle-cap", "--json")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("fuzz", help="differential campaign against the oracle")
    _add_flags(p, "--seed", "--oracle-cap", "--json")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, 1..CPU count")
    p.add_argument("--exhaustive", type=int, action="append", metavar="N",
                   help="exhaustive sweep over all nonempty model sets of n variables")
    p.add_argument("--random", action="append", metavar="N:COUNT",
                   help="random-subset instances")
    p.add_argument("--cnf-random", action="append", metavar="N:COUNT",
                   help="models-of-random-3-CNF instances")
    p.add_argument("--quine-probe", action="store_true",
                   help="check closure emptiness against brute-force satisfiability per prefix")
    p.add_argument("--closedness-sample", type=int, default=0,
                   help="collect already-closed statistics every Nth instance")
    p.add_argument("--out", default=None, help="directory for records.txt and summary.json")
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left (`| head`); devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputFormatError, InputTooSmall, CapExceeded, GeneratorExhausted,
            FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            PermissionError, TimeoutError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClosureTestFailed as exc:
        print(f"paper method failed: the closure test missed an unsatisfiable restriction: {exc}",
              file=sys.stderr)
        return 3
    except WitnessExtractionFailed as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
