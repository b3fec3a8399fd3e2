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
phi) before being reported.  The witness search runs on the saturated
restriction, as clause masks, depth first on an explicit stack, and
returns the least extension of the prefix.

The candidate's closure is exactly the set of minimal clauses of width
<= 3 that every model satisfies, so `analyze` reads it off per-variable
model bitsets without building the raw candidate; `candidate_formula`
builds the raw candidate from the same bitsets for the oracle and the CLI.
Triples are read in packed lanes: one big int holds a lane per (variable,
value), each with a guard bit on top, and one add and one AND find, for a
shown pair pattern, every later variable whose extension no lane model
shows.  The lanes hold at most LANE_MODELS models, a fixed sample past
that, so they only filter and the full columns confirm every clause they
propose: a pattern no model shows is not shown by a sample either.
Uncapped lanes are as wide as the model count, and every lane operation
then costs more than the per-variable ANDs they replace.
A witness is tested (it must show no projection onto three variables
that no model shows), and a prefix that shows one is refuted without
resolution (it falsifies a closed clause outright), in lanes of their
own: one per variable over the full columns, every model included, so
the test reads nothing that step 1's sampled lanes built.  `analyze`
also builds the instance's one prefix cover, and `walk` is the one loop
over it: it yields each prefix with its `probe` result, `decide` stops
at the first open prefix, and the harness reads the same generator.
`three_limited_closure` stays step 1's test reference.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
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


# a lane holds at most this many models: past it, a fixed scattered sample
LANE_MODELS = 64


def _bitsets(rows: Sequence[str]) -> list[tuple[int, int]]:
    """`(zeros, ones)` per variable over the given rows, the first row in the top bit."""
    full = (1 << len(rows)) - 1
    out = []
    for bits in zip(*rows):
        ones = int("".join(bits), 2)
        out.append((full ^ ones, ones))
    return out


def _columns(models: ModelSet) -> list[tuple[int, int]]:
    """Per-variable model bitsets: `col[v][b]` has model r's bit set when
    that model gives variable v+1 the value b, so whether some model shows a
    sign pattern on up to three variables is an AND of their columns."""
    if models.n < 3:
        raise InputTooSmall(f"need at least 3 variables, got {models.n}")
    return _bitsets(models.models)


def _lane_rows(models: ModelSet) -> Sequence[str]:
    """The models the lanes hold: all of them up to LANE_MODELS, else models
    t * 2654435761 mod m for t < LANE_MODELS (distinct, since that
    multiplier is a prime above any m here)."""
    rows, m = models.models, len(models)
    return rows if m <= LANE_MODELS else [rows[t * 2654435761 % m] for t in range(LANE_MODELS)]


def _closure(models: ModelSet, col: list[tuple[int, int]]) -> Cnf:
    """The 3-limited closure of the candidate, read off the columns.

    A clause of width <= 3 is in the closure when no model shows its
    falsifying pattern and every proper sub-pattern shows up in some model:
    a unit when its column is 0, a pair when its two columns AND to 0 and
    neither is 0, a triple when its three columns AND to 0 and its three
    pairwise ANDs are all nonzero.  So a pair pattern no model shows adds
    its pair and nothing else.

    Triples are found in lanes.  One big int holds a lane of s + 1 bits per
    (variable k, value c), the last variable in lanes 0 and 1: the s lane
    models' bits for xk = c under a guard bit that stays 0.  `rep` has a 1
    at the bottom of every lane, so `column * rep` copies a column into
    every lane, and adding `lows` (2^s - 1 in every lane) carries into a
    lane's guard bit exactly when the lane is nonzero, never further.  For
    a shown pair pattern xi = a, xj = b, `later[j][b] & spread[i][a]` holds
    in lane (k, c) the lane models that show xi = a, xj = b, xk = c, for
    every k after j at once, so one add and one AND with `g` leave a 0
    guard bit on each lane that is empty although both pairs with xk = c
    occur.  `g` ANDs two masks of `pairs`, the guard bits of the lanes
    (k, c) after v whose pair with xv = value occurs.  A sample could miss
    a pair and drop a lane that closes a triple, so these masks come from
    the full columns, which the pair loop ANDs anyway: it walks i and j
    downward, so pairs (i, k) and (j, k) with k after j are recorded before
    (i, j) reads them, and the last variable's masks stay 0.

    The lanes hold at most LANE_MODELS models (`_lane_rows`), so they only
    filter: a pattern no model shows is not shown by the sample either,
    and each empty lane is confirmed by one AND of the full columns.
    """
    n, rows = len(col), _lane_rows(models)
    s, w = len(rows), len(rows) + 1
    lane = col if s == len(models) else _bitsets(rows)
    rep = ((1 << 2 * n * w) - 1) // ((1 << w) - 1)
    lows = rep * ((1 << s) - 1)
    packed = 0
    for zeros, ones in lane:
        packed = (packed << w | ones) << w | zeros
    spread = [(zeros * rep, ones * rep) for zeros, ones in lane]
    later, below = [], []
    for j, (z, o) in enumerate(spread):
        cut = (1 << 2 * (n - 1 - j) * w) - 1  # the lanes of x(j+2)..xn
        later.append((packed & cut & z, packed & cut & o))
        below.append(lows & cut)
    # lane (k, c) sits at 2 * (n - k) + c for the 1-based k: its full column and the literal it adds
    by_lane = [(col[n - 1 - l // 2][l & 1], -(n - l // 2) if l & 1 else n - l // 2) for l in range(2 * n)]
    guard = [(1 << (2 * (n - 1 - v) * w + s), 1 << ((2 * (n - 1 - v) + 1) * w + s)) for v in range(n)]
    pairs = [[0, 0] for _ in range(n)]
    closed = [(-v if b else v,) for v in range(1, n + 1) for b in (0, 1) if not col[v - 1][b]]
    for i in range(n - 2, -1, -1):
        ri, pi = spread[i], pairs[i]
        for j in range(n - 1, i, -1):
            dj, pj, low, gj = later[j], pairs[j], below[j], guard[j]
            for a, ci in enumerate(col[i]):
                ra, pa = ri[a], pi[a]  # lane j, added to pi[a] below, is no lane of pj[b]
                for b, cj in enumerate(col[j]):
                    both = ci & cj
                    if not both:
                        if ci and cj:
                            closed.append((-1 - i if a else i + 1, -1 - j if b else j + 1))
                        continue
                    g = pa & pj[b]
                    if g:
                        empty = g ^ (((dj[b] & ra) + low) & g)
                        while empty:
                            bit = empty & -empty
                            empty ^= bit
                            ck, lit = by_lane[bit.bit_length() // w - 1]
                            if not both & ck:
                                closed.append((-1 - i if a else i + 1, -1 - j if b else j + 1, lit))
                    pi[a] |= gj[b]
    return Cnf(n, frozenset(closed))


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


class _Lanes(NamedTuple):
    """The full columns in lanes of m + 1 bits, lane v at bit v * (m + 1)
    and its top bit a guard that stays 0: `put[v][b]` is `col[v][b]` in
    lane v, `spread[v][b]` is `col[v][b]` in each of lanes 0..v, and
    `lows[v]` and `guards[v]` hold 2^m - 1 and the guard bit in each of
    lanes 0..v."""

    put: list[tuple[int, int]]
    spread: list[tuple[int, int]]
    lows: list[int]
    guards: list[int]


def _projection_lanes(col: list[tuple[int, int]], m: int) -> _Lanes:
    """The lanes `_projections_occur` reads, over every model: no sample."""
    w = m + 1
    lanes, rep = _Lanes([], [], [], []), 0
    for v, c in enumerate(col):
        rep |= 1 << v * w  # a 1 at the bottom of lanes 0..v
        lanes.put.append((c[0] << v * w, c[1] << v * w))
        lanes.spread.append((c[0] * rep, c[1] * rep))
        lanes.guards.append(rep << m)
        lanes.lows.append((rep << m) - rep)
    return lanes


def _projections_occur(lanes: _Lanes, assignment: str) -> bool:
    """Whether every projection of a prefix or a full assignment onto at
    most three variables occurs in some model: for a full assignment iff it
    satisfies the candidate, for a prefix iff it falsifies no closed clause.

    `packed` holds each position's picked column in its lane.  For a
    position k, `y` keeps in lane j <= k the models that show positions j
    and k; ANDing the picked column of j spread over lanes 0..j leaves in
    lane i < j the models that show i, j and k, and in lane j those of
    (j, k) again.  Adding 2^m - 1 to each lane carries into its guard bit
    exactly when the lane is nonzero, so one AND with the guards tests
    pair (j, k) and every triple (i, j, k) at once, and j = k tests the
    unit.  The last position goes first, since a cover prefix without its
    last bit starts a model.
    """
    packed, picked = 0, []
    for put, spread, bit in zip(lanes.put, lanes.spread, assignment):
        b = bit == "1"
        packed |= put[b]
        picked.append(spread[b])
    lows, guards = lanes.lows, lanes.guards
    for k in range(len(picked) - 1, -1, -1):
        y = picked[k] & packed
        for j in range(k, -1, -1):
            guard = guards[j]
            if (picked[j] & y) + lows[j] & guard != guard:
                return False
    return True


@dataclass(frozen=True)
class PrefixCover:
    """Strata of complement-covering prefixes of `models`, from kmin up to n."""

    n: int
    kmin: int
    strata: Mapping[int, tuple[str, ...]]
    models: ModelSet = field(repr=False, compare=False)

    def entries(self) -> tuple[str, ...]:
        """All prefixes, shortest stratum first, construction order within."""
        out: list[str] = []
        for k in range(self.kmin, self.n + 1):
            out.extend(self.strata.get(k, ()))
        return tuple(out)

    def total(self) -> int:
        """The number of prefixes, counted without building a stratum.
        Sorted, adjacent models share exactly d leading bits once per
        length-d model prefix that both bits continue (a split), and stratum
        d+1 holds the length-d model prefixes less the splits at d."""
        keys = sorted(int(m, 2) for m in self.models.models)
        splits = Counter(self.n - (a ^ b).bit_length() for a, b in zip(keys, keys[1:]))
        sizes, present = [], 1
        for d in range(self.n):
            sizes.append(present - splits[d])
            present += splits[d]
        return sum(sizes[self.kmin - 1:])


class _Strata(Mapping):
    """Cover strata kmin..n by length, each built the first time it is
    read: stratum k flips the last bit of each length-k model prefix and
    keeps the flips that no model starts with, in first-occurrence order
    over the models."""

    def __init__(self, models: ModelSet, kmin: int) -> None:
        self._models, self._lengths, self._built = models, range(kmin, models.n + 1), {}

    def __getitem__(self, k: int) -> tuple[str, ...]:
        if k not in self._built:
            if k not in self._lengths:
                raise KeyError(k)
            present = dict.fromkeys([m[:k] for m in self._models.models])  # ordered set
            flips = (p[:-1] + ("1" if p[-1] == "0" else "0") for p in present)
            # a list, not a generator: a tuple grown in place fragments the heap
            self._built[k] = tuple([f for f in flips if f not in present])
        return self._built[k]

    def __iter__(self):
        return iter(self._lengths)

    def __len__(self) -> int:
        return len(self._lengths)


def prefix_cover(models: ModelSet, kmin: int = 1) -> PrefixCover:
    """The cover strata from kmin upward; every assignment outside the
    model set extends exactly one prefix over all strata.  kmin=1 covers
    the whole complement; a larger kmin drops the shorter strata."""
    if not 1 <= kmin <= models.n:
        raise ValueError(f"kmin {kmin} out of range 1..{models.n}")
    return PrefixCover(models.n, kmin, _Strata(models, kmin), models)


@dataclass(frozen=True)
class PrefixRecord:
    prefix: str
    closure_size: int
    contains_empty: bool
    closure_clauses: tuple[Clause, ...]


@dataclass(frozen=True)
class DecisionReport:
    answer: Answer
    witness: str | None
    kmin: int
    n: int
    cover_size: int
    trace: tuple[PrefixRecord, ...]
    timings: dict[str, float] = field(default_factory=dict)

    def exactly_representable(self) -> bool:
        """The complementary phrasing: no extra model means phi is exact."""
        return self.answer is Answer.NO_EXTRA_MODEL


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


# what saturate_masks returns on a clause set that holds the empty clause
_REFUTED = (frozenset({0}), 0, 0)

# strata 1-3 never answer yes, so every kmin up to 4 gives the same answer;
# a larger kmin skips stratum 4, which can
MAX_KMIN = 4


@dataclass(frozen=True)
class Analysis:
    """What one model set's walks need, built once and shared by them: the
    closed candidate and its clause masks, the kmin=1 prefix cover and the
    lanes of the projection test.

    `timings` holds the build time of steps 1 and 2; step 2 only sets up
    the cover and the lanes, and the strata are built in step 3 as a walk
    reaches them.
    `probes` memoises `probe` per prefix: the saturated clause set and its
    counters, never the restricted set that fed them.
    """

    models: ModelSet
    lanes: _Lanes = field(compare=False)
    closed: Cnf
    masks: tuple[int, ...]
    cover: PrefixCover
    timings: dict[str, float] = field(compare=False)
    probes: dict[str, tuple[frozenset[int], int, int]] = field(default_factory=dict, compare=False)


def analyze(models: ModelSet) -> Analysis:
    """Build the closed candidate formula in one bitset pass, then set up the cover.

    The closure is computed directly as the subsumption-minimal clauses of
    width <= 3 that every model satisfies, which is exactly what bounded
    resolution with subsumption deletion reaches from the candidate (the
    k-CNF envelope of Dechter & Pearl, 1992); no resolution runs here, and
    the raw candidate is never built.
    """
    start = time.perf_counter()
    columns = _columns(models)
    closed = _closure(models, columns)
    masks = tuple(encode_clause(c) for c in closed.clauses)
    built = time.perf_counter()
    cover = prefix_cover(models, 1)
    lanes = _projection_lanes(columns, len(models))
    timings = {
        "step1_candidate_closure": built - start,
        "step2_prefix_cover": time.perf_counter() - built,
    }
    return Analysis(models, lanes, closed, masks, cover, timings)


def probe(analysis: Analysis, prefix: str) -> tuple[frozenset[int], int, int]:
    """Restrict the closed formula by a prefix and saturate, once per prefix.

    Returns the saturated clause masks (0 is the empty clause), the
    resolvents added and the clauses deleted by subsumption.  A restriction
    holds the empty clause exactly when some closed clause has every
    literal false under the prefix, which is when some projection of the
    prefix onto at most three variables occurs in no model
    (`_projections_occur`); such a prefix is refuted without restricting or
    saturating anything.
    """
    result = analysis.probes.get(prefix)
    if result is None:
        if not _projections_occur(analysis.lanes, prefix):
            result = _REFUTED
        else:
            restricted = restrict_mask_clauses(analysis.masks, *prefix_literal_masks(prefix))
            result = saturate_masks(restricted, analysis.models.n)
        analysis.probes[prefix] = result
    return result


def walk(analysis: Analysis, kmin: int = 1, deadline: float | None = None) -> Iterator[tuple]:
    """Yield `(prefix, *probe(analysis, prefix))` for every cover prefix of
    length >= kmin, shortest stratum first, construction order within one.
    A stratum is built only when the walk reaches it.  `deadline` is a
    wall-clock instant checked before each prefix: past it, TimeoutError.
    """
    strata = analysis.cover.strata
    for k in range(kmin, analysis.models.n + 1):
        for prefix in strata[k]:
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError("prefix walk exceeded its deadline")
            yield (prefix, *probe(analysis, prefix))


def decide(
    models: ModelSet | Analysis,
    kmin: int = 1,
    deadline: float | None = None,
) -> DecisionReport:
    """Decide whether the candidate formula has a model outside the set.

    Walks the analysis' cover prefixes of length >= kmin (`walk`) and
    stops at the first prefix whose restricted closure lacks the empty
    clause; the witness built there is checked against the definition of
    the candidate formula (every 3-projection of the witness occurs in
    some model, see `_projections_occur`) and against the model set before
    it is reported, so the raw candidate is never built.  kmin must lie in
    1..min(MAX_KMIN, n), else ValueError.  An exhausted witness search
    raises ClosureTestFailed; a witness that fails the check raises
    WitnessExtractionFailed.  `models` may be an `analyze` result, whose
    cover and probes the walk then shares with other walks over the same
    set; the timings of steps 1 and 2 are always the analysis' build times.
    `deadline` is passed to `walk`.
    """
    analysis = models if isinstance(models, Analysis) else analyze(models)
    models = analysis.models
    if not 1 <= kmin <= min(MAX_KMIN, models.n):
        raise ValueError(f"kmin {kmin} out of range 1..{min(MAX_KMIN, models.n)}")
    start = time.perf_counter()
    member = models.member_set()
    trace: list[PrefixRecord] = []
    witness = None
    answer = Answer.NO_EXTRA_MODEL
    for prefix, closed_masks, _, _ in walk(analysis, kmin, deadline):
        clauses = tuple(sorted((decode_mask(m) for m in closed_masks), key=clause_sort_key))
        empty = 0 in closed_masks
        trace.append(PrefixRecord(prefix, len(closed_masks), empty, clauses))
        if not empty:
            # saturation keeps the restriction's models, so this is the witness of analysis.closed
            witness = extract_witness(Cnf(models.n, frozenset(clauses)), prefix)
            if witness in member or not _projections_occur(analysis.lanes, witness):
                raise WitnessExtractionFailed(
                    f"witness {witness} for prefix {prefix} failed verification"
                )
            answer = Answer.EXTRA_MODEL_EXISTS
            break

    return DecisionReport(
        answer=answer,
        witness=witness,
        kmin=kmin,
        n=models.n,
        cover_size=replace(analysis.cover, kmin=kmin).total(),  # the analysis' cover starts at 1
        trace=tuple(trace),
        timings={**analysis.timings, "step3_prefix_walk": time.perf_counter() - start},
    )
