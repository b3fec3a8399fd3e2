"""The inverse 3-SAT decision pipeline.

Given a model set phi over n variables, the only 3-CNF that can possibly
have phi as its exact model set is the conjunction of every 3-variable
clause satisfied by all of phi (adding any other clause kills a model;
leaving a satisfied clause out only loosens the formula).  The question
therefore reduces to: does that candidate formula admit a model outside
phi?  The pipeline answers it by closing the candidate under bounded
resolution, walking a prefix cover of the complement of phi, and testing
each restricted closure for the empty clause.  A restriction whose closure
stays empty-clause-free yields a witness assignment, which is checked
against the candidate's definition (each of its 3-projections occurs in
phi) before being reported.

`analyze` reads the closure, the minimal clauses of width <= 3 that every
model satisfies, off per-variable model bitsets (`_closure`) as clause
masks, and files each closed clause in a refuter table of model bitsets.
One partition refinement over the same bitsets (`_refine`) gives the cover
size and, per stratum, the models whose group splits there, so a stratum
is read off the models outside that bitset, and `decide` probes only the
prefixes the table leaves open, building no stratum; its trace builds
strata 1..k.  Every walk starts at stratum 1: a cover prefix of length <= 3
starts no model, so a closed clause refutes it, and the paper's walk from
stratum 4 is the slice of length >= 4.
`candidate_formula` builds the raw candidate for the CLI and the invariant
battery; `three_limited_closure` stays step 1's test reference.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Iterator, Mapping, Sequence
from enum import Enum
from typing import NamedTuple

from .closure import (
    _positive_slots,
    decode_mask,
    encode_clause,
    prefix_literal_masks,
    restrict_mask_clauses,
    saturate_masks,
)
from .formula import (
    Clause,
    Cnf,
    InputTooSmall,
    ModelSet,
    clause_sort_key,
)

class WitnessExtractionFailed(RuntimeError):
    """A prefix closure had no empty clause, yet no witness could be built.

    This cannot happen if the closure test is a faithful satisfiability
    test, so it signals an internal inconsistency worth reporting, never
    masking.
    """


class ClosureTestFailed(WitnessExtractionFailed):
    """The witness search was exhausted: the restriction is unsatisfiable.

    Raised by `extract_witness`.  Inside `decide` it means the paper's test
    failed: the prefix's width-3 closure holds no empty clause, yet no
    assignment extends the prefix to a model of the closed formula.
    """


class Answer(Enum):
    EXTRA_MODEL_EXISTS = "extra-model-exists"
    NO_EXTRA_MODEL = "no-extra-model"


# step 1 builds pair tables for at most this many models: past it, a fixed scattered sample
LANE_MODELS = 64


def _bitsets(rows: Sequence[str]) -> list[tuple[int, int]]:
    """`(zeros, ones)` per variable over the given rows, the first row in the
    top bit: variable v's ones are the strided slice `joined[v::n]`."""
    joined, n, full = "".join(rows), len(rows[0]), (1 << len(rows)) - 1
    return [(full ^ (ones := int(joined[v::n], 2)), ones) for v in range(n)]


def _columns(models: ModelSet) -> list[tuple[int, int]]:
    """Per-variable model bitsets: `col[v][b]` has model r's bit set when
    that model gives variable v+1 the value b, so whether some model shows a
    sign pattern on up to three variables is an AND of their columns."""
    if models.n < 3:
        raise InputTooSmall(f"need at least 3 variables, got {models.n}")
    return _bitsets(models.models)


def _lane_rows(models: ModelSet) -> Sequence[str]:
    """The models whose pair tables step 1 builds: all of them up to
    LANE_MODELS, else models t * 2654435761 mod m for t < LANE_MODELS
    (distinct, since that multiplier is a prime above any m here)."""
    rows, m = models.models, len(models)
    return rows if m <= LANE_MODELS else [rows[t * 2654435761 % m] for t in range(LANE_MODELS)]


# the lane models' pair tables are ORed in Four-Russians tables over groups of this many
_GROUP = 4


# a campaign spans eight variable counts; one entry is at most about 0.5 MB (n = 100)
@functools.lru_cache(maxsize=16)
def _pair_constants(n: int) -> tuple[int, int, int, list[int]]:
    """Step 1's masks for pair tables of w = 2n rows of w bits: `zs` has bit
    2w * v for each variable v, `spread` moves bit v there in one multiply
    (no two of its terms meet), `reprows` has bit 0 of each row, `upper[v]`
    the pairs on variables v <= var(l2) < var(l3)."""
    w = 2 * n
    upper = sum(((1 << w) - (1 << 2 * v + 2)) * ((1 << w) + 1) << 2 * v * w for v in range(n))
    return (sum(1 << 2 * w * v for v in range(n)), sum(1 << v * (2 * w - 1) for v in range(n)),
            ((1 << w * w) - 1) // ((1 << w) - 1), [upper >> 2 * v * w << 2 * v * w for v in range(n + 1)])


def _ones(digits: str) -> Iterator[int]:
    """The positions of the 1s in a binary string, in order."""
    i = -1
    while (i := digits.find("1", i + 1)) >= 0:
        yield i


def _closure(models: ModelSet, col: list[tuple[int, int]]) -> tuple[tuple[int, ...], list[int]]:
    """The clause masks of the 3-limited closure of the candidate, read off
    the columns, and the walk's refuter table.

    A clause of width <= 3 is in the closure when no model shows its
    falsifying pattern and every proper sub-pattern shows up in some model:
    a unit when its column is 0, a pair when its two columns AND to 0 and
    neither is 0, a triple when its three columns AND to 0 and its three
    pairwise ANDs are all nonzero.  Literal l = 2v + c is falsified by the
    0-based xv = c: its column is `cols[l]`, its slot mask 1 << l.

    Each lane model (`_lane_rows`) gets a pair table, the outer product of
    its literal vector u with itself: bit w * l1 + l2 (w = 2n) is set iff
    the model shows both patterns.  It is u times the sum of 2^(w * l) over
    u's literals, `zs` plus 2^w - 1 times its bits spread to stride 2w.
    Four-Russians tables OR the pair tables over groups of _GROUP lane
    models, so `shown_with(x)`, the pairs shown by the lane models in
    bitset x, costs one lookup per group.  Each pair of shown literals on
    two variables that no lane model shows is checked once against the full
    columns: shown off the lanes, it enters `pg`, which so holds exactly
    the shown pairs; else it is a closed pair.  For a literal l on xi, the
    pairs (l2, l3) on variables i < j < k whose three pairs with l occur
    are `upper[i + 1] & pg` ANDed with the outer product of l's row of `pg`
    with itself, the row times its bits moved to stride w (`pg >> l &
    reprows`).  Less `shown_with(lane column of l)` they are the triples
    no lane model shows, and one AND of the full columns confirms each.

    `refute[2k + c]` ORs, over the closed clauses with top variable xk whose
    xk literal c falsifies, the models falsifying their lower literals: all
    for a unit, else the AND of their full columns.
    """
    n, rows, m = len(col), _lane_rows(models), len(models)
    w, s, rowmask = 2 * n, len(rows), (1 << 2 * n) - 1
    zs, spread, reprows, upper = _pair_constants(n)
    cols = [c for pair in col for c in pair]
    lane = cols if s == m else [c for pair in _bitsets(rows) for c in pair]
    evens, backwards, tables = _positive_slots(n), [r[::-1] for r in reversed(rows)], []
    for g in range(0, s, _GROUP):  # lane bit t is row s - 1 - t
        table = [0]
        for r in backwards[g:g + _GROUP]:
            y = int(r, 2) * spread & zs  # bit 2w * v for each xv = 1
            pairs = (int(r, 4) + evens) * (zs + (y << w) - y)  # u: base 4 reads xv = 1 as bit 2v
            table += [e | pairs for e in table]
        tables.append(table)

    def shown_with(x: int) -> int:
        out = 0
        for table in tables:
            out |= table[x & (1 << _GROUP) - 1]
            x >>= _GROUP
        return out

    # `heads` has bit 0 of each shown literal's row, so `shown * heads` is their outer product
    pg, shown, heads = shown_with((1 << s) - 1), rowmask, reprows
    masks, refute = [], [0] * (w + 2)
    for l, c in enumerate(cols):
        if not c:
            shown, heads = shown ^ 1 << l, heads ^ 1 << w * l
            masks.append(1 << l)
            refute[l + 2] = (1 << m) - 1
    for b in _ones(format(upper[0] & shown * heads & ~pg, "b")[::-1]):
        l1, l2 = divmod(b, w)
        if cols[l1] & cols[l2]:  # shown, though by no lane model
            pg |= 1 << b | 1 << w * l2 + l1
        else:
            masks.append(1 << l1 | 1 << l2)
            refute[l2 + 2] |= cols[l1]
    for l in range(w - 4):  # the literals of x1..x(n-2)
        t = upper[l // 2 + 1] & pg & (pg >> w * l & rowmask) * (pg >> l & reprows)
        if t and (t := t & ~shown_with(lane[l])):
            cx, mx = cols[l], 1 << l
            for b in _ones(format(t, "b")[::-1]):
                l2, l3 = divmod(b, w)
                if not (both := cx & cols[l2]) & cols[l3]:
                    masks.append(mx | 1 << l2 | 1 << l3)
                    refute[l3 + 2] |= both
    return tuple(masks), refute


def candidate_formula(models: ModelSet) -> Cnf:
    """Every 3-variable clause satisfied by all models.

    For each variable triple there are eight candidate clauses, one per
    sign pattern; the clause survives exactly when no model projects onto
    the unique assignment that falsifies it.
    """
    col = _columns(models)
    n = len(col)
    raw = []
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            pairs = [
                ((-i if a else i, -j if b else j), ci & cj)
                for a, ci in enumerate(col[i - 1])
                for b, cj in enumerate(col[j - 1])
            ]
            for k in range(j + 1, n + 1):
                for c, ck in enumerate(col[k - 1]):
                    for lits, both in pairs:
                        if not both & ck:
                            raw.append((*lits, -k if c else k))
    return Cnf(n, frozenset(raw))


def _projections_occur(col: list[tuple[int, int]], m: int, assignment: str) -> bool:
    """Whether every projection of a prefix or a full assignment onto at
    most three variables occurs in one of the m models: for a full
    assignment iff it satisfies the candidate, for a prefix iff it
    falsifies no closed clause.

    Lanes of m + 1 bits, lane v at bit v * (m + 1) and its top bit a guard
    that stays 0: `packed` holds each position's picked column in its lane
    and `picked[v]` spreads it over lanes 0..v.  For a position k, `y`
    keeps in lane j <= k the models that show positions j and k; ANDing
    `picked[j]` leaves in lane i < j the models that show i, j and k, and
    in lane j those of (j, k) again.  Adding 2^m - 1 to each lane carries
    into its guard bit exactly when the lane is nonzero, so one AND with
    the guards tests pair (j, k) and every triple (i, j, k) at once, and
    j = k tests the unit.
    """
    w = m + 1
    packed, rep, picked, guards = 0, 0, [], []
    for v, (c, bit) in enumerate(zip(col, assignment)):
        c = c[bit == "1"]
        rep |= 1 << v * w  # a 1 at the bottom of lanes 0..v
        packed |= c << v * w
        picked.append(c * rep)
        guards.append((rep << m, (rep << m) - rep))
    for k in range(len(picked) - 1, -1, -1):
        y = picked[k] & packed
        for j in range(k, -1, -1):
            guard, lows = guards[j]
            if (picked[j] & y) + lows & guard != guard:
                return False
    return True


def _refine(col: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """The cover's size and, per stratum k, the bitset `splits[k - 1]` of
    the models whose group (the models sharing their (k-1)-prefix) takes
    both values at xk, by refining the partition over the columns in order;
    stratum k holds the groups at k - 1 less those split.  Singletons drop."""
    groups, present, size, splits = [sum(col[0])], 1, 0, []
    for v, (_, ones) in enumerate(col):
        if not groups:  # the rest are singletons: no split, one prefix each per stratum
            return size + present * (len(col) - v), splits + [0] * (len(col) - v)
        split, cut, kept = 0, 0, []
        for g in groups:
            if (o := g & ones) and o != g:
                split, cut = split | g, cut + 1
                if o & o - 1:
                    kept.append(o)
                if (z := g ^ o) & z - 1:
                    kept.append(z)
            else:
                kept.append(g)
        size, present, groups = size + present - cut, present + cut, kept
        splits.append(split)
    return size, splits


class PrefixCover(NamedTuple):
    """Strata 1..n of complement-covering prefixes of `models`."""

    n: int
    strata: Mapping[int, tuple[str, ...]]
    models: ModelSet
    size: int  # the number of prefixes, counted by `_refine` without building a stratum

    def entries(self) -> tuple[str, ...]:
        """All prefixes, shortest stratum first, construction order within."""
        return tuple([p for k in range(1, self.n + 1) for p in self.strata.get(k, ())])

    def total(self) -> int:
        """The number of prefixes, `size`."""
        return self.size


def _flips(rows: Sequence[str], k: int, bits: int) -> tuple[str, ...]:
    """The k-prefixes, xk flipped, of the rows in `bits` (row r at bit
    len(rows) - 1 - r), each once, first row first: one `find` scan of one
    digit string, linear in len(rows), not a shift per bit."""
    digits, out, r, j = format(bits, f"0{len(rows)}b"), {}, -1, k - 1  # row r at digit r
    while (r := digits.find("1", r + 1)) >= 0:
        row = rows[r]
        out[row[:j] + "10"[row[j] == "1"]] = None
    return tuple(out)


class _Strata(Mapping):
    """Cover strata 1..n by length, each built the first time it is read.

    Stratum k flips xk in the k-prefix of each model not in `splits[k - 1]`
    (`_refine`), first row first: a split group's flips start models, an
    unsplit one's start none.  The strata are a function of the model
    set, so equality compares that and builds none."""

    def __init__(self, models: ModelSet, splits: list[int]) -> None:
        self._models, self._splits, self._lengths, self._built = models, splits, range(1, models.n + 1), {}

    def __getitem__(self, k: int) -> tuple[str, ...]:
        if k not in self._built:
            if k not in self._lengths:
                raise KeyError(k)
            rows = self._models.models
            self._built[k] = _flips(rows, k, ~self._splits[k - 1] & (1 << len(rows)) - 1)
        return self._built[k]

    def __iter__(self):
        return iter(self._lengths)

    def __len__(self) -> int:
        return len(self._lengths)

    def __eq__(self, other: object) -> bool:
        return self._models == other._models if isinstance(other, _Strata) else super().__eq__(other)


def prefix_cover(models: ModelSet, kmin: int = 1, *, columns: list[tuple[int, int]] | None = None) -> PrefixCover:
    """The cover strata; every assignment outside the model set extends
    exactly one prefix over all strata.  `columns`, the models' `_bitsets`
    if the caller has them, spares a transposition.  kmin must be 1, else
    ValueError."""
    if kmin != 1:  # the argument goes with benchmark v2 (ROADMAP item 6)
        raise ValueError(f"kmin {kmin}: every cover starts at stratum 1")
    size, splits = _refine(columns or _bitsets(models.models))
    return PrefixCover(models.n, _Strata(models, splits), models, size)


class PrefixRecord(NamedTuple):
    prefix: str
    closure_size: int
    contains_empty: bool
    closure_clauses: tuple[Clause, ...]


class DecisionReport(NamedTuple):
    answer: Answer
    witness: str | None
    n: int
    cover_size: int
    stop: PrefixRecord | None  # the answering prefix's record
    strata: Mapping[int, tuple[str, ...]]
    timings: dict[str, float]

    def exactly_representable(self) -> bool:
        """The complementary phrasing: no extra model means phi is exact."""
        return self.answer is Answer.NO_EXTRA_MODEL

    def refuted(self) -> Iterator[tuple[int, tuple[str, ...]]]:
        """`(k, prefixes)` per stratum k up to `stop`'s (or n): the cover
        prefixes walked before `stop`, all refuted; builds strata 1..k only."""
        last = self.n if self.stop is None else len(self.stop.prefix)
        for k in range(1, last + 1):
            prefixes = self.strata[k]
            yield k, prefixes if k < last or self.stop is None else prefixes[:prefixes.index(self.stop.prefix)]

    @property
    def trace(self) -> tuple[PrefixRecord, ...]:
        """Every cover prefix in walk order up to `stop` (or all), rendered
        per read from `refuted`, each refuted prefix as `((),)`."""
        out = [PrefixRecord(prefix, 1, True, ((),)) for _, prefixes in self.refuted() for prefix in prefixes]
        return tuple(out if self.stop is None else out + [self.stop])


def extract_witness(formula: Cnf, prefix: str) -> str:
    """Extend a prefix to the least full model of the formula, read as a
    binary number.

    The search runs depth first on clause masks, on an explicit stack, so
    its depth is not bounded by the recursion limit.  Its first step sets
    the prefix's literals true, which restricts the formula by the prefix.
    It then sets every unit true, and tries the lowest variable left at 0
    before 1; a variable in no clause stays 0.  Units hold in every model,
    so the first model found is the least one.  Exhausting the search
    raises ClosureTestFailed.
    """
    n = formula.num_vars
    positives = _positive_slots(n)
    # each entry: a clause set, the literals true so far, the literals to set true first
    stack = [({encode_clause(c) for c in formula.clauses}, 0, prefix_literal_masks(prefix)[0])]
    while stack:
        clauses, true, lit = stack.pop()
        true |= lit
        false = (lit & positives) << 1 | (lit >> 1) & positives  # the complements of lit
        clauses = {c & ~false for c in clauses if not c & lit}
        if 0 in clauses:
            continue
        if not clauses:
            return "".join("1" if true >> 2 * v & 1 else "0" for v in range(n))
        unit = next((c for c in clauses if not c & (c - 1)), 0)
        if unit:
            stack.append((clauses, true, unit))
        else:
            low = min(c & -c for c in clauses)
            pos = low & positives or low >> 1
            stack += [(clauses, true, pos), (clauses, true, pos << 1)]  # 0 is popped first
    raise ClosureTestFailed(
        f"prefix {prefix}: restricted closure had no empty clause but no extension satisfies it"
    )


class Analysis(NamedTuple):
    """What one model set's walks need, built once and shared by them.
    `opened[k - 1]` has the models whose flipped k-prefix is an open cover
    prefix; `timings` holds steps 1, the closure, and 2, size and `opened`."""

    models: ModelSet
    columns: list[tuple[int, int]]
    masks: tuple[int, ...]
    cover: PrefixCover
    opened: list[int]
    timings: dict[str, float]
    probes: dict[str, tuple[frozenset[int], int, int]]

    @property
    def closed(self) -> Cnf:
        """The closed candidate formula, decoded from `masks` on each read."""
        return Cnf(self.models.n, frozenset(map(decode_mask, self.masks)))


def analyze(models: ModelSet) -> Analysis:
    """Read the closed candidate formula, then the cover's size and open bitsets, off model bitsets.

    The closure is computed directly as the subsumption-minimal clauses of
    width <= 3 that every model satisfies, which is exactly what bounded
    resolution with subsumption deletion reaches from the candidate (the
    k-CNF envelope of Dechter & Pearl, 1992); no resolution runs here.

    If model r's group (`_refine`) does not split at xk, its models start
    r's (k-1)-prefix q and share r's value c at xk, so p = q + (1 - c) is a
    stratum-k cover prefix, and each one arises so.  p's restriction holds
    the empty clause iff p falsifies a closed clause; q starts a model, which
    satisfies them all, so that clause has top variable xk, its xk literal
    false under 1 - c and lower literals false under q, so under all the
    group's models: all or none lie in `refuters[2k + 1 - c]`; r is open iff not.
    """
    start = time.perf_counter()
    columns = _columns(models)
    masks, refuters = _closure(models, columns)
    built = time.perf_counter()
    cover = prefix_cover(models, columns=columns)
    opened = [(ones & ~refuters[2 * k] | zeros & ~refuters[2 * k + 1]) & ~split
              for k, ((zeros, ones), split) in enumerate(zip(columns, cover.strata._splits), 1)]
    timings = {"step1_candidate_closure": built - start, "step2_prefix_cover": time.perf_counter() - built}
    return Analysis(models, columns, masks, cover, opened, timings, {})


def probe(analysis: Analysis, prefix: str) -> tuple[frozenset[int], int, int]:
    """Restrict the closed formula by a prefix and saturate, once per prefix.

    Returns the saturated clause masks (0 is the empty clause), the
    resolvents added and the clauses deleted by subsumption.
    """
    result = analysis.probes.get(prefix)
    if result is None:
        restricted = restrict_mask_clauses(analysis.masks, *prefix_literal_masks(prefix))
        result = analysis.probes[prefix] = saturate_masks(restricted, analysis.models.n)
    return result


def _check(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise TimeoutError("prefix walk exceeded its deadline")


def open_prefixes(analysis: Analysis, *, deadline: float | None = None) -> Iterator[str]:
    """The cover prefixes no refuter bit refutes, in walk order, building no
    stratum: per stratum k, each open model's k-prefix with xk flipped, once,
    first row first.  A stratum whose `opened` bitset is 0 calls no `_flips`,
    yet `deadline` is checked per stratum, empty ones too, and before each
    prefix."""
    rows = analysis.models.models
    for k, bits in enumerate(analysis.opened, 1):
        _check(deadline)
        for prefix in _flips(rows, k, bits) if bits else ():
            _check(deadline)
            yield prefix


def decide(models: ModelSet | Analysis, *, deadline: float | None = None) -> DecisionReport:
    """Decide whether the candidate formula has a model outside the set.

    Probes the prefixes of `open_prefixes`, given `deadline`, and stops at
    the first whose restricted closure lacks the empty clause; the witness
    built there must occur in no model and show every 3-projection in some
    model (`_projections_occur`), so the raw candidate is never built.  An
    exhausted witness search raises ClosureTestFailed; a witness that fails
    the check raises WitnessExtractionFailed.  `models` may be an `analyze`
    result, whose probes are then shared with other walks over the set.
    """
    analysis = models if isinstance(models, Analysis) else analyze(models)
    models = analysis.models
    start = time.perf_counter()
    witness = stop = None
    for prefix in open_prefixes(analysis, deadline=deadline):
        closed_masks = probe(analysis, prefix)[0]
        if 0 in closed_masks:  # then saturation returned exactly {0}
            continue
        clauses = tuple(sorted((decode_mask(m) for m in closed_masks), key=clause_sort_key))
        stop = PrefixRecord(prefix, len(closed_masks), False, clauses)
        # saturation keeps the restriction's models, so this is the witness of analysis.closed
        witness = extract_witness(Cnf(models.n, frozenset(clauses)), prefix)
        if witness in models.member_set() or not _projections_occur(analysis.columns, len(models), witness):
            raise WitnessExtractionFailed(f"witness {witness} for prefix {prefix} failed verification")
        break

    answer = Answer.NO_EXTRA_MODEL if stop is None else Answer.EXTRA_MODEL_EXISTS
    timings = {**analysis.timings, "step3_prefix_walk": time.perf_counter() - start}
    return DecisionReport(answer, witness, models.n, analysis.cover.size, stop, analysis.cover.strata, timings)
