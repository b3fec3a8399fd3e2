import random

import pytest

from inv3sat import Cnf, ModelSet, cnf_of
from inv3sat.closure import decode_mask, encode_clause, prefix_literal_masks, restrict_mask_clauses

# The running example used across the golden tests: n=5, eight models,
# chosen so the pipeline finds the extra model 10111 behind prefix 1011.
WORKED_MODELS = (
    "00111",
    "01011",
    "10101",
    "11100",
    "11111",
    "10011",
    "01101",
    "00100",
)

# All twenty 3-clauses every worked model satisfies, frozen by hand from
# the triple-by-triple construction and cross-checked by the oracle.
WORKED_CANDIDATE = (
    (1, 2, 3),
    (-1, -2, 3),
    (1, -2, 5),
    (-1, 2, 5),
    (1, 3, 4),
    (-1, 3, 4),
    (1, 3, 5),
    (-1, 3, 5),
    (1, -4, 5),
    (-1, -4, 5),
    (2, 3, 4),
    (-2, 3, 4),
    (2, 3, 5),
    (-2, 3, 5),
    (2, -4, 5),
    (-2, -4, 5),
    (3, 4, 5),
    (3, 4, -5),
    (3, -4, 5),
    (-3, -4, 5),
)

# Fixpoint of the width-3 saturation of the candidate formula.
WORKED_CLOSURE = (
    (1, 2, 3),
    (1, -2, 5),
    (-1, 2, 5),
    (-1, -2, 3),
    (3, 4),
    (3, 5),
    (-4, 5),
)

WORKED_STRATUM_3 = ("000", "110")
WORKED_STRATUM_4 = ("0100", "1011", "1000", "0111")
WORKED_STRATUM_5 = (
    "00110",
    "01010",
    "10100",
    "11101",
    "11110",
    "10010",
    "01100",
    "00101",
)

# Assignments outside the worked model set that satisfy the candidate
# formula; computed by the enumeration oracle and frozen.
WORKED_EXTRAS = ("00101", "01111", "10111", "11101")

WORKED_WITNESS = "10111"

# Thirteen models over n = 5 whose four extra models (00011 10001 10110
# 10111) all extend stratum-4 cover prefixes, so a walk that skipped
# stratum 4 would wrongly call the set exact.
STRATUM4_MODELS = (
    "00110", "01010", "00111", "10011", "11010", "11001", "10100",
    "00001", "11100", "11000", "01110", "10101", "11110",
)
STRATUM4_WITNESS = "10001"


@pytest.fixture
def worked_models():
    return ModelSet(5, WORKED_MODELS)


@pytest.fixture
def worked_candidate():
    return cnf_of(5, WORKED_CANDIDATE)


@pytest.fixture
def worked_closure():
    return cnf_of(5, WORKED_CLOSURE)


# A counterexample to the paper's closure test at n = 14: phi is all 64
# solutions of eight parity equations on three variables each, the
# odd-charge Tseitin formula of K4 with four edges subdivided and a
# pendant variable (x1..x4) on each subdivision vertex.  The equations sum
# to x1+x2+x3+x4 = 0, so every odd-parity 4-bit prefix is unsatisfiable,
# yet width-3 resolution cannot refute what is left of it.
PARITY_EQUATIONS = (
    ((1, 5, 6), 0),
    ((2, 7, 8), 0),
    ((3, 11, 12), 0),
    ((4, 13, 14), 0),
    ((5, 7, 9), 1),
    ((6, 10, 11), 0),
    ((8, 10, 13), 0),
    ((9, 12, 14), 1),
)


def parity_models():
    """The solutions of PARITY_EQUATIONS over x1..x14, in ascending order."""
    n = 14
    rows = [(sum(1 << (n - v) for v in vs), r) for vs, r in PARITY_EQUATIONS]
    return ModelSet(
        n,
        tuple(
            format(a, f"0{n}b")
            for a in range(1 << n)
            if all((a & mask).bit_count() % 2 == r for mask, r in rows)
        ),
    )


def restrict(formula, prefix):
    """F|prefix through the restriction the pipeline runs, decoded into a
    Cnf over the same variables: satisfied clauses drop, false literals go."""
    masks = restrict_mask_clauses(map(encode_clause, formula.clauses), *prefix_literal_masks(prefix))
    return Cnf(formula.num_vars, frozenset(map(decode_mask, masks)))


def affine_models(n, d, seed):
    """The 2^d points of an affine GF(2) subspace over x1..xn, in counting
    order: x1..xd run through every value and each later variable is the
    XOR of two earlier ones (a constant when the two coincide) plus a
    random bit, so the set satisfies n - d parity equations on at most
    three variables."""
    rng = random.Random(f"affine/{n}/{d}/{seed}")
    deps = [(rng.randrange(k), rng.randrange(k), rng.getrandbits(1)) for k in range(d, n)]
    rows = []
    for t in range(1 << d):
        x = [(t >> (d - 1 - v)) & 1 for v in range(d)]
        for a, b, c in deps:
            x.append(x[a] ^ x[b] ^ c)
        rows.append("".join(map(str, x)))
    return ModelSet(n, tuple(rows))
