"""Brute-force reference for the decision pipeline.

The oracle answers the same question as `decide`, but by sheer enumeration
of all 2^n assignments against the raw candidate formula.  No closure, no
cover, no shortcuts: slow on purpose, so a disagreement with the pipeline
always means something.
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import (
    CapExceeded,
    ENUMERATION_CAP,
    ModelSet,
    assignment_mask,
    evaluate,
    mask_to_models,
    satisfying_mask,
)
from .inverse import candidate_formula


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


def oracle_decide(models: ModelSet, cap: int = ENUMERATION_CAP) -> OracleVerdict:
    """Enumerate every assignment and compare against the input model set."""
    n = models.n
    if n > cap:
        raise CapExceeded(f"oracle over {n} variables exceeds cap {cap}")
    formula = candidate_formula(models)
    sat = satisfying_mask(formula)
    member = assignment_mask(models.models)
    if member & ~sat:
        # the candidate formula is satisfied by every input model by
        # construction; reaching this line means formula-core is broken
        raise AssertionError("input model falsifies the candidate formula")
    return OracleVerdict(n, sat & ~member, 1 << n)


def verify_witness(models: ModelSet, witness: str) -> bool:
    """True iff the witness satisfies the candidate formula and is not an input model."""
    if len(witness) != models.n or set(witness) - {"0", "1"}:
        return False
    if witness in models.member_set():
        return False
    return evaluate(candidate_formula(models), witness)

