"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and uses only the
standard library, so the same seed gives byte-identical inputs on every
machine and the program under test only ever sees the generated inputs.

Each decide workload uses one variable count and one model count.  Op
times then vary only with the models, so the median and the tail of a run
rest on every instance, not on the few that fall between two sizes.  Pools
hold 24 inputs, enough for a tail above the median.  Ops and campaign
batches are kept near 0.15-0.3 s, so a run goes through each input five
times or more (see run.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Few models over many variables: the candidate is large and the whole
# cover is walked.  With at most three models there is never an extra model.
# Let x lie outside the set and pick, for each model, a position where x
# differs from it.  If the positions can be chosen distinct, the clause on
# them that x falsifies holds in every model.  Otherwise, by Hall's
# theorem, two models differ from x in one and the same position only, so
# they are equal, or all of them differ from x within two positions, so x
# and the models are the four patterns there and the clause on those two
# positions and any third excludes x.  At m = 5 an extra model turned up
# once in about 700 random draws.  n <= 20 keeps every answer within reach
# of the oracle.
DENSE_N, DENSE_M = 18, 3
DENSE_POOL = 24
# Many models: the candidate is small and the first prefix already yields a
# witness, so building the candidate is nearly all of the work.
WIDE_N, WIDE_M = 40, 100
WIDE_POOL = 24

# The acceptance gate's sampled plan (instances per variable count) scaled
# down 2000x; a fifth of each count, at least one, is drawn from random
# 3-CNF model sets.
CAMPAIGN_PLAN = {5: 20, 6: 10, 7: 6, 8: 5, 9: 4, 10: 3, 11: 2, 12: 2}
QUINE_SIZES = (5, 6, 7, 8)
QUINE_COUNT = 3
CAMPAIGN_BATCHES = 24

SUBSET = "subset"
CNF_MODELS = "cnf-models"


@dataclass(frozen=True)
class Instance:
    """One decide input: an id that names it in failures and traces."""

    instance_id: str
    n: int
    models: tuple[str, ...]

    def text(self) -> str:
        return "\n".join(self.models) + "\n"


@dataclass(frozen=True)
class SpecRow:
    """A campaign spec as plain data: kind is SUBSET or CNF_MODELS."""

    kind: str
    n: int
    count: int
    seed: int


@dataclass(frozen=True)
class CampaignBatch:
    batch_id: str
    main: tuple[SpecRow, ...]
    quine: tuple[SpecRow, ...]

    def instances(self) -> int:
        return sum(row.count for row in self.main + self.quine)


def random_models(rng: random.Random, n: int, m: int) -> tuple[str, ...]:
    """m distinct assignments over n variables, sorted."""
    picks: set[int] = set()
    while len(picks) < m:
        picks.add(rng.getrandbits(n))
    return tuple(format(p, f"0{n}b") for p in sorted(picks))


def _pool(prefix: str, seed: int, n: int, m: int, count: int) -> list[Instance]:
    rng = random.Random(f"{prefix}/{seed}")
    return [Instance(f"{prefix}-s{seed}-{i}", n, random_models(rng, n, m)) for i in range(count)]


def dense_instances(seed: int) -> list[Instance]:
    return _pool("dense", seed, DENSE_N, DENSE_M, DENSE_POOL)


def wide_instances(seed: int) -> list[Instance]:
    return _pool("wide", seed, WIDE_N, WIDE_M, WIDE_POOL)


def campaign_batches(seed: int) -> list[CampaignBatch]:
    rng = random.Random(f"campaign/{seed}")
    batches = []
    for b in range(CAMPAIGN_BATCHES):
        main = []
        for n, count in sorted(CAMPAIGN_PLAN.items()):
            cnf = max(1, count // 5)
            main.append(SpecRow(SUBSET, n, count - cnf, rng.getrandbits(40)))
            main.append(SpecRow(CNF_MODELS, n, cnf, rng.getrandbits(40)))
        quine = tuple(SpecRow(SUBSET, n, QUINE_COUNT, rng.getrandbits(40)) for n in QUINE_SIZES)
        batches.append(CampaignBatch(f"campaign-s{seed}-b{b}", tuple(main), quine))
    return batches
