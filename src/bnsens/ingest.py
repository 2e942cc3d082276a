"""Network input/output and fixture generation.

Two formats are supported:

* The native document: a single JSON object with fields
  ``variables[{name,domain}]``, ``cpts[{child,parents,table}]`` (tables
  flattened row-major over the listed parent order, child fastest), and an
  optional ``spec{output,evidential,value_map}`` plus free-form ``name`` /
  ``description``. It round-trips losslessly and can carry the analysis
  partition, which BIF cannot.
* The Bayesian Interchange Format, read-only and restricted to discrete
  variables: ``variable`` blocks with ``type discrete [k] { labels };`` and
  ``probability`` blocks with parenthesized parent-configuration rows, or a
  ``table`` row for roots. Each configuration takes one row or ``table``
  line. ``property`` statements are skipped, as are ``//``, ``#`` and
  ``/* */`` comments. Names and labels are bare words or double-quoted
  strings; a punctuation mark is never a label. Every syntax error carries
  its line and column.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import BifSyntaxError, SchemaError, UnsupportedFeatureError
from .model import (
    AnalysisSpec,
    Cpt,
    DiscreteBayesNet,
    Variable,
    validate_partition,
)


@dataclass(frozen=True, eq=False)
class NativeDocument:
    """A network, an optional analysis spec, and free-form metadata."""

    network: DiscreteBayesNet
    spec: AnalysisSpec | None = None
    name: str = ""
    description: str = ""


# ------------------------------------------------------------- native format

def save_native(doc: NativeDocument) -> str:
    """The document as native JSON text. A spec is checked against the
    network first (`validate_partition`), so a value map that misses an
    output label or names one the output lacks raises a PartitionError or
    InvalidAssignmentError instead of being written."""
    bn = doc.network
    if doc.spec is not None:
        validate_partition(bn, doc.spec)
    payload: dict[str, Any] = {}
    if doc.name:
        payload["name"] = doc.name
    if doc.description:
        payload["description"] = doc.description
    payload["variables"] = [
        {"name": v.name, "domain": list(v.domain)} for v in bn.variables
    ]
    payload["cpts"] = [
        {
            "child": bn.variables[c.child].name,
            "parents": [bn.variables[p].name for p in c.parents],
            "table": [float(x) for x in c.table.reshape(-1)],
        }
        for c in bn.cpts
    ]
    if doc.spec is not None:
        out_domain = bn.variables[doc.spec.output].domain
        payload["spec"] = {
            "output": bn.variables[doc.spec.output].name,
            "evidential": [bn.variables[i].name for i in sorted(doc.spec.evidential)],
            "value_map": {
                label: float(doc.spec.value_map[label]) for label in out_domain
            },
        }
    return json.dumps(payload, indent=2) + "\n"


def _expect(data: dict, field: str, kind, where: str, default=None, required=False):
    if field not in data:
        if required:
            raise SchemaError(f"{where}{field}", "missing")
        return default
    value = data[field]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}{field}", f"expected {kind.__name__}")
    return value


def _floats(values: list, field: str, what: str) -> np.ndarray:
    """`values` as float64; each an exact int or float (not a bool) that a float can hold."""
    if not set(map(type, values)) <= {int, float}:
        raise SchemaError(field, f"{what} must be numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise SchemaError(field, f"{what} hold an integer too large for a float") from None


def _id(ids: dict[str, int], name: Any, field: str) -> int:
    """The id of the variable `name`; anything else raises SchemaError."""
    if not isinstance(name, str) or name not in ids:
        raise SchemaError(field, f"unknown variable {name!r}")
    return ids[name]


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise SchemaError("document", f"key {key!r} repeated in one object")
        data[key] = value
    return data


def load_native(text: str) -> NativeDocument:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise SchemaError("document", f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError("document", "top level must be an object")
    unknown = set(data) - {"name", "description", "variables", "cpts", "spec"}
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown field")
    name = _expect(data, "name", str, "", default="")
    description = _expect(data, "description", str, "", default="")

    raw_vars = _expect(data, "variables", list, "", required=True)
    variables: list[Variable] = []
    ids: dict[str, int] = {}
    for i, item in enumerate(raw_vars):
        where = f"variables[{i}]."
        if not isinstance(item, dict):
            raise SchemaError(f"variables[{i}]", "expected object")
        vname = _expect(item, "name", str, where, required=True)
        domain = _expect(item, "domain", list, where, required=True)
        if not all(isinstance(d, str) for d in domain):
            raise SchemaError(f"{where}domain", "labels must be strings")
        if vname in ids:
            raise SchemaError(f"{where}name", f"duplicate variable {vname!r}")
        ids[vname] = i
        variables.append(Variable(i, vname, tuple(domain)))

    raw_cpts = _expect(data, "cpts", list, "", required=True)
    cpts: dict[int, Cpt] = {}
    for i, item in enumerate(raw_cpts):
        where = f"cpts[{i}]."
        if not isinstance(item, dict):
            raise SchemaError(f"cpts[{i}]", "expected object")
        child_name = _expect(item, "child", str, where, required=True)
        child = _id(ids, child_name, f"{where}child")
        if child in cpts:
            raise SchemaError(f"{where}child", f"second CPT for {child_name!r}")
        parent_names = _expect(item, "parents", list, where, required=True)
        parent_ids = [_id(ids, p, f"{where}parents") for p in parent_names]
        table = _expect(item, "table", list, where, required=True)
        table = _floats(table, f"{where}table", "entries")
        rows = math.prod(variables[p].cardinality for p in parent_ids)
        card = variables[child].cardinality
        if len(table) != rows * card:
            raise SchemaError(
                f"{where}table",
                f"expected {rows * card} entries, got {len(table)}",
            )
        cpts[child] = Cpt(child, tuple(parent_ids), table.reshape(rows, card))
    missing = [v.name for v in variables if v.id not in cpts]
    if missing:
        raise SchemaError("cpts", f"no CPT for {missing}")

    bn = DiscreteBayesNet(tuple(variables), tuple(cpts[i] for i in range(len(variables))))

    spec = None
    raw_spec = data.get("spec")
    if raw_spec is not None and not isinstance(raw_spec, dict):
        raise SchemaError("spec", "expected object")
    if raw_spec is not None:
        out_name = _expect(raw_spec, "output", str, "spec.", required=True)
        output = _id(ids, out_name, "spec.output")
        evid = set()
        for e in _expect(raw_spec, "evidential", list, "spec.", required=True):
            i = _id(ids, e, "spec.evidential")
            if i in evid:
                raise SchemaError("spec.evidential", f"duplicate variable {e!r}")
            evid.add(i)
        vmap = _expect(raw_spec, "value_map", dict, "spec.", required=True)
        values = _floats(list(vmap.values()), "spec.value_map", "values")
        spec = AnalysisSpec(output, frozenset(evid), dict(zip(vmap, values)))
        validate_partition(bn, spec)
    return NativeDocument(bn, spec, name, description)


# ----------------------------------------------------------------- BIF input

# Whitespace and comments, then one token: a quoted string, a punctuation
# mark, an opening '/*' or '"' without its end, or an atom.
_BIF_TOKEN = re.compile(
    r'(?:[ \t\r\n]+|(?://|#)[^\n]*|/\*.*?\*/)*'
    r'(?:(?P<string>"[^"]*")|(?P<punct>[{}()\[\];,|])|(?P<open>/\*|")'
    r'|(?P<atom>[^ \t\r\n"{}()\[\];,|]+))?',
    re.DOTALL,
)


@dataclass(frozen=True)
class _Token:
    text: str
    kind: str  # atom | string | punct | eof
    line: int
    column: int


def _tokenize_bif(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = counted = line_start = 0
    line = 1
    while True:
        match = _BIF_TOKEN.match(text, pos)
        kind = match.lastgroup or "eof"
        start = match.start(kind) if match.lastgroup else match.end()
        # Count newlines only over the text since the previous token.
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, start) + 1
        counted, column = start, start - line_start + 1
        if kind == "eof":
            tokens.append(_Token("", kind, line, column))
            return tokens
        if kind == "open":
            what = "comment" if match[kind] == "/*" else "string"
            raise BifSyntaxError(f"unterminated {what}", line, column)
        token = match[kind][1:-1] if kind == "string" else match[kind]
        tokens.append(_Token(token, kind, line, column))
        pos = match.end()


class _BifParser:
    def __init__(self, text: str):
        self.tokens = _tokenize_bif(text)
        self.pos = 0
        self.variables: list[Variable] = []
        self.ids: dict[str, int] = {}
        self.blocks: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None) -> None:
        tok = tok or self.peek()
        raise BifSyntaxError(message, tok.line, tok.column)

    def expect_punct(self, ch: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != ch:
            self.fail(f"expected {ch!r}, got {tok.text!r}", tok)
        return tok

    def expect_name(self) -> _Token:
        tok = self.next()
        if tok.kind not in ("atom", "string"):
            self.fail(f"expected a name, got {tok.text!r}", tok)
        return tok

    def items(self, close: str, what: str, numbers: bool = False) -> list:
        # The tokens up to the mark `close`, commas dropped: label tokens,
        # or with `numbers` floats.
        values: list = []
        while True:
            tok = self.next()
            if tok.kind == "eof":
                self.fail(f"unterminated {what}", tok)
            if tok.kind == "punct" and tok.text == close:
                return values
            if tok.kind == "punct" and tok.text == ",":
                continue
            if numbers:
                try:
                    values.append(float(tok.text))
                except ValueError:
                    self.fail(f"expected a number, got {tok.text!r}", tok)
            elif tok.kind == "punct":
                self.fail(f"unexpected {tok.text!r} in {what}", tok)
            else:
                values.append(tok)

    def skip_statement(self) -> None:
        # Consume tokens through the next ';' (used for property lines).
        while True:
            tok = self.next()
            if tok.kind == "eof":
                self.fail("unterminated statement")
            if tok.kind == "punct" and tok.text == ";":
                return

    def skip_block(self) -> None:
        self.expect_punct("{")
        depth = 1
        while depth:
            tok = self.next()
            if tok.kind == "eof":
                self.fail("unterminated block")
            if tok.kind == "punct" and tok.text == "{":
                depth += 1
            elif tok.kind == "punct" and tok.text == "}":
                depth -= 1

    def parse(self) -> DiscreteBayesNet:
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.kind != "atom":
                self.fail(f"unexpected {tok.text!r}", tok)
            elif tok.text == "network":
                self.expect_name()
                self.skip_block()
            elif tok.text == "variable":
                self.parse_variable()
            elif tok.text == "probability":
                self.parse_probability()
            else:
                self.fail(
                    "expected 'network', 'variable' or 'probability', "
                    f"got {tok.text!r}",
                    tok,
                )
        missing = [v.name for v in self.variables if v.id not in self.blocks]
        if missing:
            self.fail(f"no probability block for {missing}")
        if not self.variables:
            self.fail("document declares no variables")
        cpts = tuple(Cpt(v.id, *self.blocks[v.id]) for v in self.variables)
        return DiscreteBayesNet(tuple(self.variables), cpts)

    def parse_variable(self) -> None:
        name_tok = self.expect_name()
        if name_tok.text in self.ids:
            self.fail(f"duplicate variable {name_tok.text!r}", name_tok)
        self.expect_punct("{")
        kw = self.expect_name()
        if kw.text != "type":
            self.fail(f"expected 'type', got {kw.text!r}", kw)
        kind = self.expect_name()
        if kind.text != "discrete":
            raise UnsupportedFeatureError(
                f"variable {name_tok.text!r} has type {kind.text!r}; "
                "only discrete variables are supported"
            )
        self.expect_punct("[")
        count_tok = self.next()
        try:
            count = int(count_tok.text)
        except ValueError:
            self.fail(f"expected a label count, got {count_tok.text!r}", count_tok)
        self.expect_punct("]")
        self.expect_punct("{")
        labels = [tok.text for tok in self.items("}", "label list")]
        if self.peek().kind == "punct" and self.peek().text == ";":
            self.next()
        if len(labels) != count:
            self.fail(
                f"variable {name_tok.text!r} declares {count} labels "
                f"but lists {len(labels)}",
                name_tok,
            )
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            tok = self.peek()
            if tok.kind == "atom" and tok.text == "property":
                self.next()
                self.skip_statement()
            else:
                self.fail(f"unexpected {tok.text!r} in variable block", tok)
        self.next()  # closing brace
        var = Variable(len(self.variables), name_tok.text, tuple(labels))
        self.ids[var.name] = var.id
        self.variables.append(var)

    def resolve(self, tok: _Token) -> int:
        if tok.text not in self.ids:
            self.fail(f"unknown variable {tok.text!r}", tok)
        return self.ids[tok.text]

    def parse_probability(self) -> None:
        self.expect_punct("(")
        child_tok = self.expect_name()
        child = self.resolve(child_tok)
        parents: list[int] = []
        tok = self.next()
        if tok.kind == "punct" and tok.text == "|":
            while True:
                parents.append(self.resolve(self.expect_name()))
                tok = self.next()
                if tok.kind == "punct" and tok.text == ",":
                    continue
                if tok.kind == "punct" and tok.text == ")":
                    break
                self.fail(f"expected ',' or ')', got {tok.text!r}", tok)
        elif not (tok.kind == "punct" and tok.text == ")"):
            self.fail(f"expected '|' or ')', got {tok.text!r}", tok)
        if child in self.blocks:
            self.fail(
                f"second probability block for {child_tok.text!r}", child_tok
            )
        card = self.variables[child].cardinality
        rows = math.prod(self.variables[p].cardinality for p in parents)
        table = np.zeros((rows, card))
        filled = np.zeros(rows, dtype=bool)
        self.expect_punct("{")
        while True:
            tok = self.next()
            if tok.kind == "eof":
                self.fail("unterminated probability block", tok)
            if tok.kind == "punct" and tok.text == "}":
                break
            if tok.kind == "atom" and tok.text == "property":
                self.skip_statement()
                continue
            if tok.kind == "atom" and tok.text == "table":
                if parents:
                    raise UnsupportedFeatureError(
                        f"node {child_tok.text!r}: the 'table' form is only "
                        "supported for root nodes"
                    )
                form, row = "table", 0
            elif tok.kind == "punct" and tok.text == "(":
                form, row = "row", self.row_index(child_tok, parents)
            else:
                self.fail(f"unexpected {tok.text!r} in probability block", tok)
            values = self.items(";", "number list", numbers=True)
            if len(values) != card:
                self.fail(
                    f"{form} for {child_tok.text!r} has {len(values)} "
                    f"entries, expected {card}",
                    tok,
                )
            if filled[row]:
                self.fail(f"duplicate row for {child_tok.text!r}", tok)
            table[row], filled[row] = values, True
        if not filled.all():
            self.fail(
                f"probability block for {child_tok.text!r} leaves rows "
                "unspecified",
                child_tok,
            )
        self.blocks[child] = (tuple(parents), table)

    def row_index(self, child_tok: _Token, parents: list[int]) -> int:
        labels = self.items(")", "row header")
        if len(labels) != len(parents):
            self.fail(
                f"row for {child_tok.text!r} names {len(labels)} parent "
                f"values, expected {len(parents)}",
                child_tok,
            )
        row = 0
        for label, p in zip(labels, parents):
            domain = self.variables[p].domain
            if label.text not in domain:
                self.fail(
                    f"{label.text!r} is not a label of {self.variables[p].name!r}",
                    label,
                )
            row = row * len(domain) + domain.index(label.text)
        return row


def parse_bif(text: str) -> DiscreteBayesNet:
    """Parse the discrete subset of the Bayesian Interchange Format.

    The returned network always passes validation; malformed input raises
    with the line and column of the offending token."""
    return _BifParser(text).parse()


# ---------------------------------------------------------- random fixtures

def generate_random_bn(
    seed: int,
    n: int,
    max_parents: int,
    cardinality_range: Sequence[int],
) -> DiscreteBayesNet:
    """A seeded random network: a DAG over a random topological order with
    parents drawn uniformly from earlier nodes, and CPT rows drawn from a
    symmetric Dirichlet(1), i.e. uniform over the probability simplex.

    Pure in its arguments: the same inputs give the identical network."""
    lo, hi = (int(cardinality_range[0]), int(cardinality_range[1]))
    if n < 1:
        raise ValueError("need at least one node")
    if max_parents < 0:
        raise ValueError("max_parents must be nonnegative")
    if not 2 <= lo <= hi:
        raise ValueError("cardinality range must satisfy 2 <= lo <= hi")
    rng = np.random.default_rng(int(seed))
    order = [int(x) for x in rng.permutation(n)]
    cards = [int(c) for c in rng.integers(lo, hi + 1, size=n)]
    parent_map: dict[int, tuple[int, ...]] = {}
    for pos, node in enumerate(order):
        cap = min(max_parents, pos)
        count = int(rng.integers(0, cap + 1)) if cap else 0
        if count:
            chosen = rng.choice(order[:pos], size=count, replace=False)
            parent_map[node] = tuple(sorted(int(x) for x in chosen))
        else:
            parent_map[node] = ()
    variables = tuple(
        Variable(i, f"X{i}", tuple(str(d) for d in range(cards[i])))
        for i in range(n)
    )
    cpts = []
    for i in range(n):
        rows = math.prod(cards[p] for p in parent_map[i])
        table = rng.dirichlet(np.ones(cards[i]), size=rows)
        cpts.append(Cpt(i, parent_map[i], table))
    return DiscreteBayesNet(variables, tuple(cpts))
