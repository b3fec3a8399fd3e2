"""Clause, formula and assignment primitives.

Literals are nonzero ints in DIMACS convention: +v is variable v, -v its
negation.  A clause is a tuple of literals sorted by variable index, with no
variable repeated; the empty tuple is the empty clause (falsum).  Assignments
over n variables are strings of '0'/'1' of length n, character i-1 giving the
value of variable i, so lexicographic order on strings matches numeric order
on the underlying bit patterns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class TautologyRejected(Exception):
    """A clause would contain both a literal and its complement."""


class CapExceeded(ValueError):
    """An exhaustive enumeration would exceed the configured variable cap."""


class InputTooSmall(ValueError):
    """The model set has fewer variables than the pipeline supports."""


Clause = tuple[int, ...]

ENUMERATION_CAP = 24


def mk_clause(literals: Iterable[int]) -> Clause:
    """Canonicalize literals into a clause.

    Duplicates collapse, literals sort by variable index, and a complementary
    pair raises TautologyRejected.  An empty collection yields the empty
    clause.
    """
    lits = set()
    for lit in literals:
        if lit == 0:
            raise ValueError("literal 0 is not allowed")
        lits.add(lit)
    for lit in lits:
        if -lit in lits:
            raise TautologyRejected(f"clause contains both {lit} and {-lit}")
    return tuple(sorted(lits, key=abs))


def clause_sort_key(clause: Clause) -> tuple[tuple[int, bool], ...]:
    """Canonical ordering key: by variable, positive before negative."""
    return tuple((abs(lit), lit < 0) for lit in clause)


@dataclass(frozen=True)
class Cnf:
    """A CNF formula: a duplicate-free set of clauses over num_vars variables.

    Every clause must be canonical (as mk_clause returns it) and mention no
    variable beyond num_vars.  That is not re-checked here: clauses from
    outside the program enter through cnf_of, and the pipeline builds
    canonical clauses by construction.
    """

    num_vars: int
    clauses: frozenset[Clause] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", frozenset(self.clauses))
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")

    def ordered(self) -> tuple[Clause, ...]:
        """Clauses in canonical order; emission and reports depend on it."""
        return tuple(sorted(self.clauses, key=clause_sort_key))

    def __len__(self) -> int:
        return len(self.clauses)


def cnf_of(num_vars: int, raw_clauses: Iterable[Iterable[int]]) -> Cnf:
    """Build a Cnf from raw literal collections, canonicalizing each.

    A complementary pair raises TautologyRejected; literal 0 or a variable
    beyond num_vars raises ValueError.
    """
    clauses = frozenset(mk_clause(c) for c in raw_clauses)
    for clause in clauses:
        if clause and abs(clause[-1]) > num_vars:
            raise ValueError(f"clause {clause!r} mentions a variable beyond {num_vars}")
    return Cnf(num_vars, clauses)


@dataclass(frozen=True)
class ModelSet:
    """A nonempty set of distinct total assignments over n variables.

    The tuple preserves presentation order (file order, generation order);
    equality is on the tuple, so two ModelSets with the same assignments in
    different order compare unequal by design: downstream traversal order
    follows presentation order.
    """

    n: int
    models: tuple[str, ...]

    def __post_init__(self) -> None:
        models = tuple(self.models)
        object.__setattr__(self, "models", models)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not models:
            raise ValueError("model set must be nonempty")
        # the whole set in C (bytes.translate, not str.strip); the loop names a rejected model
        other = "".join(models).encode("ascii", "replace").translate(None, b"01")
        if not other and set(map(len, models)) == {self.n} and len(set(models)) == len(models):
            return
        seen = set()
        for m in models:
            if len(m) != self.n or m.strip("01"):
                raise ValueError(f"bad model {m!r}: want {self.n} chars over 0/1")
            if m in seen:
                raise ValueError(f"duplicate model {m}")
            seen.add(m)

    def member_set(self) -> frozenset[str]:
        return frozenset(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self) -> Iterator[str]:
        return iter(self.models)


def satisfies_clause(clause: Clause, assignment: str) -> bool:
    return any((lit > 0) == (assignment[abs(lit) - 1] == "1") for lit in clause)


def evaluate(formula: Cnf, assignment: str) -> bool:
    """True iff the assignment satisfies every clause."""
    if len(assignment) != formula.num_vars:
        raise ValueError("assignment length does not match num_vars")
    return all(satisfies_clause(c, assignment) for c in formula.clauses)


# Truth tables as big ints: bit a of a mask tells whether assignment index a
# (read as a binary string, variable 1 in the most significant position) is in
# the set.  Lets evaluation of a whole formula run word-parallel.

@functools.lru_cache(maxsize=2)
def _true_masks(n: int) -> tuple[int, ...]:
    """_true_masks(n)[v-1] marks the assignments where variable v is 1.

    Each mask is a block of ones above a block of zeros, doubled by shifts
    until it spans all 2^n bits: each shift is linear in the mask's length,
    where one big-int division would be quadratic (seconds at n = 20)."""
    total = 1 << n
    masks = []
    for v in range(1, n + 1):
        chunk = 1 << (n - v)
        mask, width = ((1 << chunk) - 1) << chunk, 2 * chunk
        while width < total:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return tuple(masks)


def satisfying_mask(formula: Cnf) -> int:
    """Bitmask of all satisfying assignments of the formula."""
    n = formula.num_vars
    full = (1 << (1 << n)) - 1
    masks = _true_masks(n)
    sat = full
    for clause in formula.clauses:
        if not clause:
            return 0
        falsified = full
        for lit in clause:
            tm = masks[abs(lit) - 1]
            falsified &= (full ^ tm) if lit > 0 else tm
        sat &= full ^ falsified
        if sat == 0:
            break
    return sat


def assignment_mask(models: Iterable[str]) -> int:
    """Bitmask marking exactly the given assignments."""
    mask = 0
    for m in models:
        mask |= 1 << int(m, 2)
    return mask


def mask_to_models(mask: int, n: int, limit: int | None = None) -> tuple[str, ...]:
    """Decode a truth-table mask into assignment strings, ascending; only
    the first `limit` of them when a limit is given."""
    bits = format(mask, "b")  # one scan; bit 0 is the last digit
    out = []
    i = bits.rfind("1")
    while i >= 0 and len(out) != limit:
        out.append(format(len(bits) - 1 - i, f"0{n}b"))
        i = bits.rfind("1", 0, i)
    return tuple(out)


def prefix_window(mask: int, prefix: str, n: int) -> int:
    """Truth table, over the free variables, of the assignments extending
    prefix; the empty prefix keeps the whole table."""
    free = n - len(prefix)
    return (mask >> (int(prefix or "0", 2) << free)) & ((1 << (1 << free)) - 1)
