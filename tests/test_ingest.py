import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsens import (
    AnalysisSpec,
    BifSyntaxError,
    DiscreteBayesNet,
    InvalidAssignmentError,
    MissingValueMapError,
    NativeDocument,
    SchemaError,
    UnnormalizedCptError,
    UnsupportedFeatureError,
    Variable,
    generate_random_bn,
    load_native,
    parse_bif,
    save_native,
    validate_network,
)
from helpers import chain_bn, render_bif

SINGLE_ROOT_BIF = """
network small {
}
variable A {
  type discrete [ 2 ] { a0, a1 };
}
probability ( A ) {
  table 0.4, 0.6;
}
"""

TWO_NODE_BIF = """
network pair {
}
variable A {
  type discrete [ 2 ] { a0, a1 };
}
variable B {
  type discrete [ 2 ] { b0, b1 };
}
probability ( A ) {
  table 0.4, 0.6;
}
probability ( B | A ) {
  (a0) 0.9, 0.1;
  (a1) 0.3, 0.7;
}
"""


def test_parse_single_root():
    bn = parse_bif(SINGLE_ROOT_BIF)
    assert bn.n == 1
    assert bn.variables[0].name == "A"
    assert bn.variables[0].domain == ("a0", "a1")
    assert bn.cpts[0].table[0, 0] == pytest.approx(0.4)
    validate_network(bn)


def test_parse_conditional_rows():
    bn = parse_bif(TWO_NODE_BIF)
    assert bn.cpts[1].parents == (0,)
    np.testing.assert_allclose(bn.cpts[1].table, [[0.9, 0.1], [0.3, 0.7]])


def test_parse_row_order_follows_listed_parents():
    text = """
network t {}
variable P1 { type discrete [ 2 ] { x, y }; }
variable P2 { type discrete [ 2 ] { u, v }; }
variable C { type discrete [ 2 ] { c0, c1 }; }
probability ( C | P2, P1 ) {
  (u, x) 0.1, 0.9;
  (u, y) 0.2, 0.8;
  (v, x) 0.3, 0.7;
  (v, y) 0.4, 0.6;
}
probability ( P1 ) { table 0.5, 0.5; }
probability ( P2 ) { table 0.5, 0.5; }
"""
    bn = parse_bif(text)
    cpt = bn.cpts[2]
    assert cpt.parents == (1, 0)  # listed order P2 then P1
    np.testing.assert_allclose(cpt.table[:, 1], [0.9, 0.8, 0.7, 0.6])


def test_parse_truncated_document():
    with pytest.raises(BifSyntaxError) as info:
        parse_bif("network broken {")
    assert info.value.line == 1


def test_parse_reports_position():
    bad = SINGLE_ROOT_BIF.replace("table 0.4, 0.6;", "table 0.4, oops;")
    with pytest.raises(BifSyntaxError, match="line 8"):
        parse_bif(bad)


def test_parse_rejects_continuous():
    text = """
network c {}
variable X { type continuous; }
"""
    with pytest.raises(UnsupportedFeatureError):
        parse_bif(text)


def test_parse_rejects_conditional_table_form():
    text = TWO_NODE_BIF.replace("(a0) 0.9, 0.1;\n  (a1) 0.3, 0.7;", "table 0.9, 0.1, 0.3, 0.7;")
    with pytest.raises(UnsupportedFeatureError):
        parse_bif(text)


def test_parse_skips_property_lines():
    text = """
network p {
  property note "hello";
}
variable A {
  type discrete [ 2 ] { a0, a1 };
  property position = (100, 200);
}
probability ( A ) {
  property weight 1;
  table 0.4, 0.6;
}
"""
    bn = parse_bif(text)
    assert bn.n == 1


def test_parse_missing_probability_block():
    text = """
network m {}
variable A { type discrete [ 2 ] { a0, a1 }; }
"""
    with pytest.raises(BifSyntaxError, match="no probability block"):
        parse_bif(text)


def test_parse_never_returns_invalid_network():
    bad = SINGLE_ROOT_BIF.replace("0.4, 0.6", "0.4, 0.7")
    with pytest.raises(UnnormalizedCptError):
        parse_bif(bad)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 7),
    max_parents=st.integers(0, 3),
    rng=st.randoms(use_true_random=False),
)
def test_bif_round_trip(seed, n, max_parents, rng):
    bn = generate_random_bn(seed, n, max_parents, (2, 4))
    names = [rng.choice((f"X{i}", f"node {i}", f"n{i} (a, b; c|d)")) for i in range(n)]
    bn = DiscreteBayesNet(
        tuple(Variable(v.id, names[v.id], v.domain) for v in bn.variables), bn.cpts
    )
    parsed = parse_bif(render_bif(bn, rng))
    assert parsed.variables == bn.variables
    for got, want in zip(parsed.cpts, bn.cpts):
        assert got.parents == want.parents
        assert got.table.tobytes() == want.table.tobytes()


_V = "variable A { type discrete [ 2 ] { a0, a1 }; }\n"
_W = "variable B { type discrete [ 2 ] { b0, b1 }; }\n"
_P = "probability ( A ) { table 0.4, 0.6; }\n"
_VWP = _V + _W + _P

# One malformed document per BifSyntaxError raise site: (message fragment,
# document, line, column).
BIF_ERRORS = [
    ("unterminated comment", _V + "/* open\n" + _P, 2, 1),
    ("unterminated string", _V + 'variable "B { }\n', 2, 10),
    ("expected '{', got ';'", "network n ;\n" + _V + _P, 1, 11),
    ("expected a name, got '{'", "variable { type discrete [ 2 ] { a0, a1 }; }\n", 1, 10),
    ("expected a number, got '('", _V + "probability ( A ) { table 0.4, (; }\n", 2, 32),
    ("expected a number, got '}'", _V + "probability ( A ) { table 0.4, 0.6 }\n" + _W, 2, 36),
    ("unterminated statement", _V + "probability ( A ) { property x = 1", 2, 35),
    ("unterminated block", "network n { property a;\n", 2, 1),
    ("unexpected '}'", _V + _P + "}\n", 3, 1),
    ("expected 'network', 'variable' or 'probability', got 'potential'",
     _V + "potential ( A ) { }\n", 2, 1),
    ("no probability block for ['B']", _VWP, 4, 1),
    ("document declares no variables", "// nothing\nnetwork n { }\n", 3, 1),
    ("duplicate variable 'A'", _V + _V + _P, 2, 10),
    ("expected 'type', got 'kind'", "variable A { kind discrete [ 2 ] { a0, a1 }; }\n", 1, 14),
    ("expected a label count, got 'two'",
     "variable A { type discrete [ two ] { a0, a1 }; }\n", 1, 30),
    ("unterminated label list", "variable A { type discrete [ 2 ] { a0, a1", 1, 42),
    ("variable 'A' declares 3 labels but lists 2",
     "variable A {\n  type discrete [ 3 ] { a0, a1 };\n}\n" + _P, 1, 10),
    ("unexpected 'size' in variable block",
     "variable A { type discrete [ 2 ] { a0, a1 };\n  size 2; }\n" + _P, 2, 3),
    ("unknown variable 'Z'", _V + "probability ( Z ) { table 0.4, 0.6; }\n", 2, 15),
    ("expected ',' or ')', got 'A'", _V + _W + "probability ( B | A A ) { }\n", 3, 21),
    ("expected '|' or ')', got ','", _V + "probability ( A , ) { }\n", 2, 17),
    ("second probability block for 'A'", _V + _P + _P, 3, 15),
    ("unterminated probability block", _V + "probability ( A ) { table 0.4, 0.6;\n", 3, 1),
    ("table for 'A' has 3 entries, expected 2",
     _V + "probability ( A ) {\n  table 0.4, 0.3, 0.3;\n}\n", 3, 3),
    ("row for 'B' has 1 entries, expected 2",
     _VWP + "probability ( B | A ) {\n  (a0) 0.9, 0.1;\n  (a1) 1.0;\n}\n", 6, 3),
    ("duplicate row for 'B'",
     _VWP + "probability ( B | A ) {\n  (a0) 0.9, 0.1;\n  (a0) 0.3, 0.7;\n}\n", 6, 3),
    ("unexpected 'weight' in probability block",
     _V + "probability ( A ) {\n  weight 1;\n}\n", 3, 3),
    ("probability block for 'B' leaves rows unspecified",
     _VWP + "probability ( B | A ) {\n  (a1) 0.3, 0.7;\n}\n", 4, 15),
    ("unterminated row header", _VWP + "probability ( B | A ) { (a0", 4, 28),
    ("row for 'B' names 2 parent values, expected 1",
     _VWP + "probability ( B | A ) {\n  (a0, a1) 0.9, 0.1;\n}\n", 4, 15),
    ("'a2' is not a label of 'A'",
     _VWP + "probability ( B | A ) {\n  (a2) 0.9, 0.1;\n}\n", 5, 4),
    ("unterminated number list", _V + "probability ( A ) { table 0.4, 0.6", 2, 35),
]


@pytest.mark.parametrize(
    "fragment, text, line, column", BIF_ERRORS, ids=[case[0] for case in BIF_ERRORS]
)
def test_bif_error_sites(fragment, text, line, column):
    with pytest.raises(BifSyntaxError) as info:
        parse_bif(text)
    assert fragment in str(info.value)
    assert (info.value.line, info.value.column) == (line, column)


_ROWS_B = "probability ( B | A ) {\n  (a0) 0.9, 0.1;\n  (a1) 0.3, 0.7;\n}\n"


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("variable A { type discrete [ 3 ] { a0; a1 }; }\n"
         "probability ( A ) { table 0.2, 0.3, 0.5; }\n", 1, 38),
        ("variable A { type discrete [ 3 ] { a0 ( a1 }; }\n"
         "probability ( A ) { table 0.2, 0.3, 0.5; }\n", 1, 39),
        # A quoted label may be any text; the bare mark is still punctuation.
        ('variable A { type discrete [ 2 ] { a0, ";" }; }\n' + _W + _P
         + _ROWS_B.replace("(a1)", "(;)"), 6, 4),
        (_VWP + _ROWS_B.replace("(a1)", "(a1 ;)"), 6, 7),
    ],
    ids=["semicolon-label", "paren-label", "bare-parent-value", "extra-parent-value"],
)
def test_punctuation_is_never_a_label(text, line, column):
    with pytest.raises(BifSyntaxError) as info:
        parse_bif(text)
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize(
    "rows",
    [
        "table 0.4, 0.6;\n  table 0.1, 0.9;",
        "() 0.4, 0.6;\n  table 0.1, 0.9;",
        "table 0.4, 0.6;\n  () 0.1, 0.9;",
    ],
    ids=["table-table", "row-table", "table-row"],
)
def test_root_row_may_appear_once(rows):
    with pytest.raises(BifSyntaxError, match="duplicate row for 'A'") as info:
        parse_bif(_V + "probability ( A ) {\n  " + rows + "\n}\n")
    assert (info.value.line, info.value.column) == (4, 3)


def test_nan_row_counts_as_given():
    text = _VWP + _ROWS_B.replace("(a0) 0.9, 0.1;", "(a0) nan, nan;\n  (a0) 0.9, 0.1;")
    with pytest.raises(BifSyntaxError, match="duplicate row for 'B'") as info:
        parse_bif(text)
    assert (info.value.line, info.value.column) == (6, 3)


def test_nan_entry_is_an_unnormalized_cpt():
    with pytest.raises(UnnormalizedCptError):
        parse_bif(_VWP + _ROWS_B.replace("0.9, 0.1", "nan, 0.1"))


# ------------------------------------------------------------ native format

def test_native_round_trip(chain, chain_analysis):
    doc = NativeDocument(chain, chain_analysis, name="chain", description="demo")
    text = save_native(doc)
    loaded = load_native(text)
    assert loaded.name == "chain"
    assert loaded.description == "demo"
    assert save_native(loaded) == text
    assert [v.name for v in loaded.network.variables] == ["E", "O"]
    np.testing.assert_array_equal(loaded.network.cpts[1].table, chain.cpts[1].table)
    assert loaded.spec.output == 1
    assert loaded.spec.evidential == frozenset({0})


def test_native_without_spec(chain):
    text = save_native(NativeDocument(chain))
    loaded = load_native(text)
    assert loaded.spec is None


@pytest.mark.parametrize(
    "value_map, error",
    [
        ({"0": 0.0}, MissingValueMapError),
        ({"0": 0.0, "1": 1.0, "2": 2.0}, InvalidAssignmentError),
    ],
    ids=["missing-label", "unknown-label"],
)
def test_native_save_checks_the_value_map(chain, chain_analysis, value_map, error):
    spec = AnalysisSpec(chain_analysis.output, chain_analysis.evidential, value_map)
    with pytest.raises(error, match="value map"):
        save_native(NativeDocument(chain, spec))


def test_native_unknown_spec_output(chain, chain_analysis):
    text = save_native(NativeDocument(chain, chain_analysis))
    broken = text.replace('"output": "O"', '"output": "Z"')
    with pytest.raises(SchemaError, match="spec.output"):
        load_native(broken)


def test_native_bad_table_size(chain):
    text = save_native(NativeDocument(chain))
    broken = text.replace("0.7,\n        0.3", "0.7")
    with pytest.raises(SchemaError, match="table"):
        load_native(broken)


HUGE = "9" * 400  # a JSON integer far beyond the largest float


@pytest.mark.parametrize(
    "old, new, field",
    [
        ('"0": 0.0', f'"0": {HUGE}', "spec.value_map"),
        ("0.7,\n        0.3", f"0.7,\n        {HUGE}", "cpts[0].table"),
    ],
    ids=["value-map", "table"],
)
def test_native_rejects_an_integer_too_large_for_a_float(
    chain, chain_analysis, old, new, field
):
    text = save_native(NativeDocument(chain, chain_analysis))
    assert old in text
    with pytest.raises(SchemaError, match="too large for a float") as info:
        load_native(text.replace(old, new, 1))
    assert info.value.field == field


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"1": 1.0', '"1": 1.0, "1": 5.0', "1"),
        ('"child": "E"', '"child": "E", "child": "O"', "child"),
    ],
    ids=["value-map", "cpt"],
)
def test_native_rejects_a_repeated_key(chain, chain_analysis, old, new, key):
    text = save_native(NativeDocument(chain, chain_analysis))
    assert old in text
    with pytest.raises(SchemaError, match="repeated in one object") as info:
        load_native(text.replace(old, new, 1))
    assert info.value.field == "document"
    assert str(info.value) == f"document: key {key!r} repeated in one object"


def test_native_rejects_non_json():
    with pytest.raises(SchemaError, match="document"):
        load_native("variables: nope")
    # Python's json refuses an integer of more than 4300 digits (3.10.7+).
    with pytest.raises(SchemaError):
        load_native('{"name": ' + "9" * 5000 + "}")


def test_native_names_unknown_field():
    text = save_native(NativeDocument(chain_bn()))
    broken = text.replace('"variables"', '"variabels"', 1)
    with pytest.raises(SchemaError):
        load_native(broken)


# ------------------------------------------------------------- generation

def test_generator_single_root():
    bn = generate_random_bn(1, 1, 0, (2, 2))
    assert bn.n == 1
    assert bn.cpts[0].table.sum() == pytest.approx(1.0, abs=1e-12)


def test_generator_is_deterministic():
    a = generate_random_bn(7, 24, 3, (3, 3))
    b = generate_random_bn(7, 24, 3, (3, 3))
    assert save_native(NativeDocument(a)) == save_native(NativeDocument(b))


def test_generator_seeds_differ():
    a = generate_random_bn(7, 12, 3, (2, 3))
    b = generate_random_bn(8, 12, 3, (2, 3))
    assert save_native(NativeDocument(a)) != save_native(NativeDocument(b))


def test_generator_respects_bounds():
    bn = generate_random_bn(3, 15, 2, (2, 4))
    validate_network(bn)
    for v in bn.variables:
        assert 2 <= v.cardinality <= 4
    for cpt in bn.cpts:
        assert len(cpt.parents) <= 2
        assert all(p < cpt.child or p > cpt.child for p in cpt.parents)


def test_generator_validates_arguments():
    with pytest.raises(ValueError):
        generate_random_bn(0, 0, 2, (2, 2))
    with pytest.raises(ValueError):
        generate_random_bn(0, 3, -1, (2, 2))
    with pytest.raises(ValueError):
        generate_random_bn(0, 3, 2, (1, 2))
