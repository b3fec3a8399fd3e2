"""Brute-force reference for the decision pipeline.

The oracle answers the same question as `decide`, but by sheer enumeration
of all 2^n assignments against the definition of the candidate formula:
an assignment is a model iff each of its projections onto three variables
occurs in some input model.  It reads that off its own per-literal model
bitsets and truth tables, and shares no code with the pipeline (nothing
from `inverse` or `closure`).  No closure, no cover, no shortcuts: slow on
purpose, so a disagreement with the pipeline always means something.
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import (
    CapExceeded,
    ENUMERATION_CAP,
    InputTooSmall,
    ModelSet,
    _true_masks,
    assignment_mask,
    mask_to_models,
)


class OracleVerdict(NamedTuple):
    """extra_mask has bit a set for every candidate-formula model a outside
    the input set; extra_models decodes them all, ascending."""

    n: int
    extra_mask: int
    checked_count: int

    def extra_model_exists(self) -> bool:
        return bool(self.extra_mask)

    @property
    def extra_models(self) -> tuple[str, ...]:
        return mask_to_models(self.extra_mask, self.n)


def _literal_bitsets(models: ModelSet) -> list[tuple[int, int]]:
    """`(zeros, ones)` model bitsets per variable: bit r of `shown[v][b]`
    is set when model r gives variable v+1 the value b."""
    if models.n < 3:
        raise InputTooSmall(f"need at least 3 variables, got {models.n}")
    rows, n, full = "".join(models.models), models.n, (1 << len(models)) - 1
    return [(full ^ (ones := int(rows[v::n], 2)), ones) for v in range(n)]  # variable v's column


def candidate_models(models: ModelSet) -> int:
    """Truth table of the candidate formula's models, from its definition.

    An assignment falsifies the candidate iff it sets some literals on
    variables i < j < k that no model shows together.  For a literal on xi,
    `hit` collects, per literal on xj, the assignments that set it and some
    literal on a later variable that no model showing both of them shows.
    """
    shown = _literal_bitsets(models)
    n = models.n
    full = (1 << (1 << n)) - 1
    literals = [list(zip(s, (full ^ t, t))) for s, t in zip(shown, _true_masks(n))]
    falsified = 0
    for j in range(1, n - 1):
        later = [lit for k in range(j + 1, n) for lit in literals[k]]
        for i in range(j):
            for si, ti in literals[i]:
                hit = 0
                for sj, tj in literals[j]:
                    both = si & sj
                    if not both:  # both signs of every later variable are excluded
                        hit |= tj
                        continue
                    excluded = 0
                    for sk, tk in later:
                        if not both & sk:
                            excluded |= tk
                    hit |= tj & excluded
                falsified |= ti & hit
    return full ^ falsified


def oracle_decide(models: ModelSet, cap: int = ENUMERATION_CAP) -> OracleVerdict:
    """Enumerate every assignment and compare against the input model set."""
    n = models.n
    if n > cap:
        raise CapExceeded(f"oracle over {n} variables exceeds cap {cap}")
    sat = candidate_models(models)
    member = assignment_mask(models.models)
    if member & ~sat:
        # every input model shows each of its own projections; reaching
        # this line means the truth tables or the bitsets are broken
        raise AssertionError("input model falsifies the candidate formula")
    return OracleVerdict(n, sat & ~member, 1 << n)


def verify_witness(models: ModelSet, witness: str) -> bool:
    """True iff the witness satisfies the candidate formula and is not an
    input model: each of its projections onto three variables is shown by
    some model."""
    if len(witness) != models.n or set(witness) - {"0", "1"}:
        return False
    if witness in models.member_set():
        return False
    picked = [s[witness[v] == "1"] for v, s in enumerate(_literal_bitsets(models))]
    for i in range(models.n - 2):
        for j in range(i + 1, models.n - 1):
            both = picked[i] & picked[j]
            if not all(both & pk for pk in picked[j + 1:]):
                return False
    return True
