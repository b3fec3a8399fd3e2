"""Bounded resolution closure with subsumption deletion.

The closure keeps every clause at three literals or fewer: resolution steps
whose resolvent would exceed three literals are simply not taken.  Combined
with deletion of subsumed clauses this reaches a fixpoint that is unique for
a given input clause set, so the result is a canonical object worth testing
against.

Internally clauses are encoded as bitmasks over 2*num_vars literal slots
(variable v: bit 2(v-1) for +v, bit 2(v-1)+1 for -v), which makes
subsumption a masked compare and resolution a couple of bit operations.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import combinations
from typing import Iterable, NamedTuple

from .formula import Clause, Cnf


def encode_clause(clause: Clause) -> int:
    mask = 0
    for lit in clause:
        v = abs(lit) - 1
        mask |= 1 << (2 * v + (lit < 0))
    return mask


def decode_mask(mask: int) -> Clause:
    lits = []
    while mask:
        low = mask & -mask
        idx = low.bit_length() - 1
        v = idx // 2 + 1
        lits.append(-v if idx & 1 else v)
        mask ^= low
    return tuple(sorted(lits, key=abs))


def _positive_slots(num_vars: int) -> int:
    # 0b0101...01 over 2*num_vars bits; used to spot complementary pairs
    return (4**num_vars - 1) // 3


def prefix_literal_masks(prefix: str) -> tuple[int, int]:
    """Masks of literal slots made true and false by a prefix assignment."""
    true_mask = 0
    false_mask = 0
    for i, bit in enumerate(prefix):
        pos = 1 << (2 * i)
        neg = pos << 1
        if bit == "1":
            true_mask |= pos
            false_mask |= neg
        else:
            true_mask |= neg
            false_mask |= pos
    return true_mask, false_mask


def restrict_mask_clauses(clause_masks: Iterable[int], true_mask: int, false_mask: int) -> set[int]:
    """Restriction on encoded clauses: drop satisfied, strip false literals."""
    out = set()
    for m in clause_masks:
        if m & true_mask:
            continue
        out.add(m & ~false_mask)
    return out


def saturate_masks(clause_masks: Iterable[int], num_vars: int) -> tuple[frozenset[int], int, int]:
    """Run the closure on encoded clauses.

    Returns (closed clause masks, resolvents added, clauses deleted by
    subsumption).  Deriving the empty clause short-circuits to exactly
    {empty}.
    """
    taut_probe = _positive_slots(num_vars)
    active: set[int] = set()
    # occurrence lists keyed by literal slot index; 3-literal clauses are
    # kept apart so partner lookup can prune resolutions that would exceed
    # three literals
    occ_short: defaultdict[int, set[int]] = defaultdict(set)
    occ3: defaultdict[int, set[int]] = defaultdict(set)
    work: list[tuple[int, int, int]] = []
    seq = 0
    steps = 0
    deletions = 0

    def slots(mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def insert(mask: int) -> bool:
        nonlocal seq, deletions
        if mask in active:
            return False
        bits = slots(mask)
        size = len(bits)
        # forward: reject anything an active clause already subsumes
        for k in range(1, size):
            for combo in combinations(bits, k):
                sub = 0
                for b in combo:
                    sub |= 1 << b
                if sub in active:
                    return False
        # backward: evict active clauses this one subsumes
        sets = [occ3[b] | occ_short[b] for b in bits]
        supersets = set.intersection(*sets) if sets else set()
        for other in supersets:
            if other == mask:
                continue
            active.discard(other)
            for b in slots(other):
                occ3[b].discard(other)
                occ_short[b].discard(other)
            deletions += 1
        active.add(mask)
        table = occ3 if size == 3 else occ_short
        for b in bits:
            table[b].add(mask)
        seq += 1
        heapq.heappush(work, (size, seq, mask))
        return True

    def short_circuit() -> tuple[frozenset[int], int, int]:
        return frozenset({0}), steps, deletions

    for m in sorted(clause_masks):
        if m == 0:
            return short_circuit()
        if m & (m >> 1) & taut_probe:
            raise ValueError("tautological clause in closure input")
        insert(m)

    while work:
        _, _, c = heapq.heappop(work)
        if c not in active:
            continue
        c_bits = slots(c)
        c_size = len(c_bits)
        for b in c_bits:
            nb = b ^ 1
            if c_size == 3:
                # a 3-literal partner must share a surviving literal with c,
                # or the resolvent would have four literals
                rest = [x for x in c_bits if x != b]
                partners = occ_short[nb] | (occ3[nb] & (occ3[rest[0]] | occ3[rest[1]]))
            else:
                partners = occ_short[nb] | occ3[nb]
            for d in sorted(partners):
                if d not in active:
                    continue
                r = (c | d) & ~(1 << b) & ~(1 << nb)
                if r & (r >> 1) & taut_probe:
                    continue
                if r.bit_count() > 3:
                    continue
                if r == 0:
                    return short_circuit()
                if insert(r):
                    steps += 1
            if c not in active:
                break

    return frozenset(active), steps, deletions


class ClosureResult(NamedTuple):
    closed_formula: Cnf
    resolution_steps: int
    subsumption_deletions: int


def three_limited_closure(formula: Cnf) -> ClosureResult:
    """Close a formula under bounded resolution and subsumption deletion.

    Every input clause must have at most three literals; a wider clause is a
    contract violation and raises ValueError.
    """
    masks = []
    for clause in formula.clauses:
        if len(clause) > 3:
            raise ValueError(f"clause {clause!r} has more than three literals")
        masks.append(encode_clause(clause))
    closed, steps, deletions = saturate_masks(masks, formula.num_vars)
    cnf = Cnf(formula.num_vars, frozenset(decode_mask(m) for m in closed))
    return ClosureResult(cnf, steps, deletions)


def is_closed_3limited(formula: Cnf) -> bool:
    """Check both fixpoint conditions directly, without running the engine.

    No clause may be subsumed by a different clause, and every resolvent of
    two clauses of at most three literals that itself fits in three literals
    (tautologies aside) must be subsumed by some clause of the formula.
    """
    masks = [encode_clause(c) for c in formula.clauses]
    taut_probe = _positive_slots(formula.num_vars)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if i != j and a & b == a:
                return False
    small = [m for m in masks if m.bit_count() <= 3]
    for i, a in enumerate(small):
        for b in small[i + 1 :]:
            for idx in range(2 * formula.num_vars):
                bit = 1 << idx
                if not (a & bit and b & (1 << (idx ^ 1))):
                    continue
                r = (a | b) & ~bit & ~(1 << (idx ^ 1))
                if r & (r >> 1) & taut_probe:
                    continue
                if r.bit_count() > 3:
                    continue
                if not any(m & r == m for m in masks):
                    return False
    return True
