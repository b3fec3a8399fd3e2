"""Text formats: DIMACS CNF out, model-set files in, cover listings.

Emission is canonical and byte-stable: clause order comes from
clause_sort_key, cover groups are sorted, and nothing here depends on set
iteration order.
"""

from __future__ import annotations

from .formula import Clause, Cnf, ModelSet
from .inverse import PrefixCover


class InputFormatError(ValueError):
    """Malformed input file; message carries line numbers."""


def write_dimacs(formula: Cnf) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.ordered():
        lines.append(" ".join(str(lit) for lit in clause + (0,)))
    return "\n".join(lines) + "\n"


def read_models(text: str) -> ModelSet:
    """Parse a model-set file: one 0/1 assignment per line, '#' comments.

    All lines must have the same length (that length is n); duplicates are
    rejected with both line numbers in the message.  `ModelSet` validates
    the lines, and only a rejected file is walked line by line to say where.
    """
    entries: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append((lineno, line))
    if not entries:
        raise InputFormatError("no assignments in input")
    try:
        return ModelSet(len(entries[0][1]), tuple(line for _, line in entries))
    except ValueError:
        _diagnose(entries)
        raise


def _diagnose(entries: list[tuple[int, str]]) -> None:
    """Raise for the first non-0/1 line, else the first line of another length or a duplicate."""
    for lineno, line in entries:
        if line.strip("01"):
            raise InputFormatError(f"line {lineno}: {line!r} is not a 0/1 assignment")
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


def write_cover(cover: PrefixCover) -> str:
    """Cover listing grouped by prefix length, sorted within each group."""
    lines = []
    for k in range(1, cover.n + 1):
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
