"""Text formats: DIMACS CNF out/in, model-set files, cover listings.

Emission is canonical and byte-stable: clause order comes from
clause_sort_key, cover groups are sorted, and nothing here depends on set
iteration order.
"""

from __future__ import annotations

from .formula import Clause, Cnf, ModelSet, TautologyRejected, cnf_of
from .inverse import PrefixCover


class InputFormatError(ValueError):
    """Malformed input file; message carries line numbers."""


def write_dimacs(formula: Cnf) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.ordered():
        lines.append(" ".join(str(lit) for lit in clause + (0,)))
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF; clauses may span lines, comments are skipped."""
    num_vars = None
    declared = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputFormatError(f"line {lineno}: bad problem line {line!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            continue
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise InputFormatError(f"line {lineno}: bad token {tok!r}") from None
    if num_vars is None:
        raise InputFormatError("missing problem line")
    clauses = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        raise InputFormatError("trailing clause without terminating 0")
    if declared is not None and declared != len(clauses):
        raise InputFormatError(f"problem line declares {declared} clauses, found {len(clauses)}")
    try:
        return cnf_of(num_vars, clauses)
    except (TautologyRejected, ValueError) as exc:
        raise InputFormatError(str(exc)) from None


def write_models(models: ModelSet) -> str:
    return "\n".join(models.models) + "\n"


def read_models(text: str) -> ModelSet:
    """Parse a model-set file: one 0/1 assignment per line, '#' comments.

    All lines must have the same length (that length is n); duplicates are
    rejected with both line numbers in the message.
    """
    entries: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if set(line) - {"0", "1"}:
            raise InputFormatError(f"line {lineno}: {line!r} is not a 0/1 assignment")
        entries.append((lineno, line))
    if not entries:
        raise InputFormatError("no assignments in input")
    n = len(entries[0][1])
    first_seen: dict[str, int] = {}
    for lineno, line in entries:
        if len(line) != n:
            raise InputFormatError(
                f"line {lineno}: length {len(line)} differs from line {entries[0][0]} (length {n})"
            )
        if line in first_seen:
            raise InputFormatError(
                f"line {lineno}: duplicate of line {first_seen[line]} ({line})"
            )
        first_seen[line] = lineno
    return ModelSet(n, tuple(line for _, line in entries))


def write_cover(cover: PrefixCover) -> str:
    """Cover listing grouped by prefix length, sorted within each group."""
    lines = []
    for k in range(cover.kmin, cover.n + 1):
        stratum = cover.strata.get(k, ())
        if not stratum:
            continue
        lines.append(f"# k={k} ({len(stratum)} prefixes)")
        lines.extend(sorted(stratum))
    if not lines:
        lines.append("# cover is empty")
    return "\n".join(lines) + "\n"


def format_clause(clause: Clause) -> str:
    return "(" + " ".join(str(lit) for lit in clause) + ")"


def format_formula(formula: Cnf) -> str:
    return "{" + ", ".join(format_clause(c) for c in formula.ordered()) + "}"
