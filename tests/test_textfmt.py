from fractions import Fraction

import pytest

from psbck import goldens
from psbck.deduction import DeductiveSystem, congruence_from
from psbck.errors import MalformedInput, ParseError
from psbck.morphisms import is_isomorphic
from psbck.textfmt import (
    diagnose_raw,
    parse,
    parse_raw,
    serialize_algebra,
    serialize_document,
)

MINI = """\
algebra A
  elements: 0 1
  one: 1
  zero: 0
  arrow:
    1 1
    0 1
  squig:
    1 1
    0 1

map f on A: 0 1
valuation phi on A: 1=0 0=1/2
subset D on A: 1
"""


def test_parse_corpus_files(corpus_docs):
    assert set(corpus_docs) == {
        "ex_1_element",
        "ex_2_5",
        "ex_2_6",
        "ex_2_chain",
        "ex_6_8",
        "ex_nonlinear_heyting",
    }
    assert corpus_docs["ex_2_5"].algebras["A"] == goldens.four_element_bounded()
    assert corpus_docs["ex_2_6"].algebras["A"] == goldens.six_element_involutive()
    assert corpus_docs["ex_6_8"].algebras["A"] == goldens.six_element_smarandache()


def test_parse_mini_document():
    doc = parse(MINI)
    assert doc.algebras["A"].n == 2
    assert doc.maps["f"][1].names() == ("0", "1")
    assert str(doc.valuations["phi"][1].values[0]) == "1/2"
    assert doc.subsets["D"][1] == frozenset({1})


def test_empty_file():
    with pytest.raises(ParseError, match="no algebra defined"):
        parse("")
    with pytest.raises(ParseError, match="no algebra defined"):
        parse("# only a comment\n")


def _err(text):
    with pytest.raises(ParseError) as e:
        parse(text)
    return e.value


def test_unknown_algebra_reference_is_positioned():
    err = _err(MINI + "map g on B: 0 1\n")
    assert "unknown algebra 'B'" in str(err)
    assert err.line == 15 and err.column == 10


def test_unknown_element_is_positioned():
    err = _err(MINI.replace("map f on A: 0 1", "map f on A: 0 x"))
    assert "unknown element 'x'" in str(err)
    assert err.line == 12


def test_ragged_table():
    bad = MINI.replace("    1 1\n    0 1\n  squig:", "    1 1 1\n    0 1\n  squig:", 1)
    err = _err(bad)
    assert "arrow row needs 2 entries" in str(err)


def test_missing_row():
    bad = MINI.replace("  arrow:\n    1 1\n    0 1\n", "  arrow:\n    1 1\n", 1)
    err = _err(bad)
    assert "needs 2 rows" in str(err)


def test_duplicate_definition():
    err = _err(MINI + "\nmap f on A: 0 1\n")
    assert "duplicate definition of 'f'" in str(err)


TWIN_NAMES = """\
algebra A
  elements: a a
  one: a
  arrow:
    a a
    a a
  squig:
    a a
    a a
"""


def test_parse_and_diagnose_raw_resolve_element_names_alike():
    # the checks both passes share, with the same message
    for text, message in (
        (MINI.replace("  elements: 0 1\n", ""), "algebra block is missing 'elements:'"),
        (MINI.replace("  one: 1\n", "  one: 2\n"), "unknown element '2'"),
    ):
        assert message in str(_err(text))
        with pytest.raises(ParseError, match=message):
            diagnose_raw(parse_raw(text))


def test_duplicate_element_names_are_found_by_each_pass_in_its_own_way():
    # parse locates the second name, before it looks for 'one:'
    err = _err(TWIN_NAMES)
    assert "duplicate element name 'a'" in str(err)
    assert (err.line, err.column) == (2, 15)
    assert "duplicate element name" in str(_err(TWIN_NAMES.replace("  one: a\n", "")))
    # diagnose_raw leaves it to diagnose, after 'one:'
    with pytest.raises(MalformedInput, match="duplicate element names"):
        diagnose_raw(parse_raw(TWIN_NAMES))
    with pytest.raises(ParseError, match="missing 'one:'"):
        diagnose_raw(parse_raw(TWIN_NAMES.replace("  one: a\n", "")))


def test_diagnose_raw_reports_a_ragged_table_as_not_square():
    bad = MINI.replace("    1 1\n    0 1\n  squig:", "    1 1 1\n    0 1\n  squig:", 1)
    with pytest.raises(ParseError, match="arrow table is not square"):
        diagnose_raw(parse_raw(bad))


def test_axiom_failure_reported_at_block():
    bad = MINI.replace("    0 1\n  squig:", "    1 1\n  squig:", 1)
    err = _err(bad)
    assert "fails certification" in str(err)
    assert err.line == 1


def test_diagnose_raw_reports_axioms():
    bad = MINI.replace("    0 1\n  squig:", "    1 1\n  squig:", 1)
    report = diagnose_raw(parse_raw(bad))
    assert report["A"], "violations expected"


def test_valuation_errors():
    assert "misses elements" in str(
        _err(MINI.replace("valuation phi on A: 1=0 0=1/2", "valuation phi on A: 1=0"))
    )
    assert "bad rational" in str(
        _err(MINI.replace("0=1/2", "0=zz"))
    )
    for entry in ("1e0", "2.5E-1", "1e5000"):  # no exponent, however small
        assert f"bad rational {entry!r}" in str(_err(MINI.replace("0=1/2", f"0={entry}")))
    assert "duplicate entry" in str(
        _err(MINI.replace("1=0 0=1/2", "1=0 1=0"))
    )
    assert "fails" in str(
        _err(MINI.replace("valuation phi on A: 1=0 0=1/2", "valuation phi on A: 1=3 0=0"))
    )


@pytest.mark.parametrize("entry,value", [("3", 3), ("1/2", Fraction(1, 2)),
                                         ("0.25", Fraction(1, 4)), ("+7/14", Fraction(1, 2))])
def test_valuation_entries_are_exact_rationals(entry, value):
    phi = parse(MINI.replace("0=1/2", f"0={entry}")).valuations["phi"][1]
    assert phi.values == (value, 0)


def test_quotient_round_trip(six_sm):
    H = DeductiveSystem.from_members(six_sm, six_sm.dense_elements())
    quot = congruence_from(six_sm, H).algebra
    text = serialize_algebra(quot, "Q")
    back = parse(text).algebras["Q"]
    assert back == quot


def test_substructure_round_trip(six_sm):
    q = frozenset(six_sm.index(n) for n in ("0", "c", "d", "1"))
    sub = six_sm.subalgebra(q)
    back = parse(serialize_algebra(sub, "S")).algebras["S"]
    assert back == sub
    assert is_isomorphic(back, sub) is not None


def test_document_round_trip(corpus_docs):
    # serialize_document is parse's inverse, as README states
    for doc in [parse(MINI), *corpus_docs.values()]:
        again = parse(serialize_document(doc))
        assert again.algebras == doc.algebras
        assert again.maps == doc.maps
        assert again.valuations == doc.valuations
        assert again.subsets == doc.subsets
