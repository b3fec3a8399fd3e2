"""Shared hypothesis strategies for random clauses, formulas and model sets."""

from hypothesis import strategies as st

from inv3sat import Cnf, ModelSet, mk_clause


def literals(n):
    return st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from((v, -v))
    )


def clauses(n, min_size=0, max_size=3):
    """Canonical non-tautological clauses of up to three literals."""

    def build(lits):
        seen = {}
        for lit in lits:
            if -lit in seen:
                return None
            seen[lit] = True
        return mk_clause(tuple(seen)) if len(seen) >= min_size else None

    return (
        st.lists(literals(n), min_size=min_size, max_size=max_size)
        .map(build)
        .filter(lambda c: c is not None)
    )


def formulas(n, max_clauses=8, min_clause_size=1):
    return st.lists(
        clauses(n, min_size=min_clause_size), min_size=0, max_size=max_clauses
    ).map(lambda cs: Cnf(n, frozenset(cs)))


def assignments(n):
    return st.integers(min_value=0, max_value=2**n - 1).map(
        lambda a: format(a, f"0{n}b")
    )


def model_sets(n, max_models=12, min_models=1):
    return st.lists(
        assignments(n), min_size=min_models, max_size=max_models, unique=True
    ).map(lambda ms: ModelSet(n, tuple(ms)))
