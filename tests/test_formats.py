import pytest
from hypothesis import given, settings

from inv3sat import (
    InputFormatError,
    ModelSet,
    cnf_of,
    format_clause,
    format_formula,
    prefix_cover,
    read_models,
    write_cover,
    write_dimacs,
)

from conftest import WORKED_CLOSURE, WORKED_MODELS
from strategies import formulas, model_sets


class TestDimacs:
    def test_golden_closure_block(self):
        f = cnf_of(5, WORKED_CLOSURE)
        assert write_dimacs(f) == (
            "p cnf 5 7\n"
            "1 2 3 0\n"
            "1 -2 5 0\n"
            "-1 2 5 0\n"
            "-1 -2 3 0\n"
            "3 4 0\n"
            "3 5 0\n"
            "-4 5 0\n"
        )

    def test_empty_clause_renders_bare_zero(self):
        f = cnf_of(2, [()])
        assert write_dimacs(f) == "p cnf 2 1\n0\n"

    @given(formulas(6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, f):
        header, *lines = write_dimacs(f).splitlines()
        assert header == f"p cnf {f.num_vars} {len(f.clauses)}"
        assert all(line.split()[-1] == "0" for line in lines)
        assert {tuple(int(t) for t in line.split()[:-1]) for line in lines} == f.clauses
        assert len(lines) == len(f.clauses)


class TestModelsIo:
    def test_round_trip_preserves_order(self):
        ms = ModelSet(5, WORKED_MODELS)
        assert read_models("\n".join(WORKED_MODELS) + "\n") == ms

    def test_read_ignores_blank_lines_and_comments(self):
        ms = read_models("# header\n101\n\n  # note\n010\n")
        assert ms.models == ("101", "010")

    def test_read_rejects_duplicates_with_both_lines(self):
        with pytest.raises(InputFormatError) as err:
            read_models("101\n010\n101\n")
        assert "line 1" in str(err.value)
        assert "line 3" in str(err.value)

    def test_read_rejects_ragged_lengths(self):
        with pytest.raises(InputFormatError):
            read_models("10\n010\n")

    def test_read_rejects_bad_characters(self):
        with pytest.raises(InputFormatError):
            read_models("102\n")

    def test_read_rejects_empty_input(self):
        with pytest.raises(InputFormatError):
            read_models("# nothing\n")

    @given(model_sets(4))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random(self, ms):
        assert read_models("\n".join(ms.models) + "\n") == ms


class TestCoverRendering:
    def test_golden_worked_cover(self, worked_models):
        cover = prefix_cover(worked_models)
        assert write_cover(cover) == (
            "# k=3 (2 prefixes)\n"
            "000\n"
            "110\n"
            "# k=4 (4 prefixes)\n"
            "0100\n"
            "0111\n"
            "1000\n"
            "1011\n"
            "# k=5 (8 prefixes)\n"
            "00101\n"
            "00110\n"
            "01010\n"
            "01100\n"
            "10010\n"
            "10100\n"
            "11101\n"
            "11110\n"
        )

    def test_empty_cover_notes_it(self):
        ms = ModelSet(3, tuple(format(a, "03b") for a in range(8)))
        cover = prefix_cover(ms)
        assert "empty" in write_cover(cover)


class TestClauseDisplay:
    def test_format_clause(self):
        assert format_clause((1, -2, 5)) == "(1 -2 5)"
        assert format_clause(()) == "()"

    def test_format_formula(self):
        f = cnf_of(5, [(3, 4), (1, 2, 3)])
        assert format_formula(f) == "{(1 2 3), (3 4)}"

    def test_format_empty_formula(self):
        f = cnf_of(3, [])
        assert format_formula(f) == "{}"
