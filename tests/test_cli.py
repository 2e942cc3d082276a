import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bnsens.model
import bnsens.network
from bnsens import (
    AnalysisSpec,
    Cpt,
    DiscreteBayesNet,
    NativeDocument,
    Variable,
    save_native,
)
from bnsens.cli import main
from helpers import constant_on_support_chain, impossible_label_grid

GOLDEN = Path(__file__).parent / "golden"
CHAIN = str(GOLDEN / "chain.native")


def run_cli(*args: str):
    proc = subprocess.run(
        [sys.executable, "-m", "bnsens", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_csv_golden_bytes():
    code, out, _ = run_cli(
        "compute", "--network", CHAIN, "--indices", "first,total",
        "--format", "csv", "--no-timings",
    )
    assert code == 0
    assert out == (GOLDEN / "report.csv").read_text()
    assert out.splitlines()[0] == "variable,S,S_time,ST,ST_time"


def test_json_golden_bytes():
    code, out, _ = run_cli(
        "compute", "--network", CHAIN, "--format", "json", "--no-timings"
    )
    assert code == 0
    assert out == (GOLDEN / "report.json").read_text()
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["network_name"] == "chain"
    assert set(payload["indices"][0]) == {"variable", "S", "S_time", "ST", "ST_time"}


def test_dot_golden_bytes():
    code, out, _ = run_cli("dot", "--network", CHAIN)
    assert code == 0
    assert out == (GOLDEN / "graph.dot").read_text()
    assert '"E" [fillcolor="#ff0000"' in out  # ramp maximum at ST = 1


def test_dot_marks_chance_nodes_gray(tmp_path):
    code, doc, _ = run_cli("gen", "--seed", "3", "--nodes", "6", "--max-parents", "2", "--cardinality", "2")
    assert code == 0
    path = tmp_path / "net.native"
    path.write_text(doc)
    code, out, _ = run_cli("dot", "--network", str(path))
    assert code == 0
    assert 'fillcolor="gray"' in out
    assert 'fillcolor="orange"' in out


def test_dot_from_report(tmp_path):
    code, report, _ = run_cli(
        "compute", "--network", CHAIN, "--format", "json", "--no-timings"
    )
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(report)
    code, out, _ = run_cli("dot", "--network", CHAIN, "--from-report", str(path))
    assert code == 0
    assert out == (GOLDEN / "graph.dot").read_text()


@pytest.mark.parametrize(
    "report",
    [
        {"indices": [{"ST": 0.5}]},
        [1, 2],
        {"indices": [{"variable": "E", "ST": "high"}]},
        {"indices": [{"variable": "E", "ST": int("9" * 400)}]},
    ],
)
def test_dot_from_malformed_report_exits_2(tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli("dot", "--network", CHAIN, "--from-report", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: SchemaError: ")
    assert "Traceback" not in err


# A DOT quoted string as Graphviz scans it: a backslash always escapes the
# character after it, so a trailing one would swallow the closing quote.
DOT_STRING = r'"((?:[^"\\]|\\.)*)"'


def test_dot_escapes_backslashes_and_quotes(tmp_path):
    names = ["A\\", 'B"', 'C\\"', 'D"\\']
    variables = [Variable(i, name, ("0", "1")) for i, name in enumerate(names)]
    cpts = [Cpt(0, (), [[0.5, 0.5]])]
    cpts += [Cpt(i, (i - 1,), [[0.9, 0.1], [0.2, 0.8]]) for i in range(1, 4)]
    spec = AnalysisSpec(3, frozenset({0, 1}), {"0": 0.0, "1": 1.0})
    path = tmp_path / "quoted.native"
    path.write_text(save_native(NativeDocument(DiscreteBayesNet(variables, cpts), spec)))
    code, out, _ = run_cli("dot", "--network", str(path))
    assert code == 0

    def unquoted(text):
        return re.sub(r"\\(.)", r"\1", text)

    nodes, edges = [], []
    for line in out.splitlines()[2:-1]:
        node = re.fullmatch(rf"  {DOT_STRING} \[(.*)\];", line)
        edge = re.fullmatch(rf"  {DOT_STRING} -> {DOT_STRING};", line)
        assert node or edge, line
        if edge:
            edges.append((unquoted(edge[1]), unquoted(edge[2])))
        else:
            nodes.append(unquoted(node[1]))
            label = re.search(rf"label={DOT_STRING}", node[2])
            if label:
                assert unquoted(label[1]).startswith(nodes[-1] + "nST=")
    assert nodes == names
    assert edges == list(zip(names, names[1:]))


def test_compute_is_deterministic_modulo_timings():
    _, first, _ = run_cli("compute", "--network", CHAIN, "--format", "json", "--no-timings")
    _, second, _ = run_cli("compute", "--network", CHAIN, "--format", "json", "--no-timings")
    assert first == second


def test_missing_value_map_exits_2(tmp_path):
    text = (GOLDEN / "chain.native").read_text()
    # Non-numeric output labels and no value map in the document.
    broken = (
        text.replace('"0",\n        "1"', '"lo",\n        "hi"')
        .replace('"0": 0.0,\n      "1": 1.0', '"lo": 0.0, "hi": 1.0')
    )
    broken = re.sub(r',\s*"spec": \{.*\}\n\}', "\n}", broken, flags=re.S)
    path = tmp_path / "nospec.native"
    path.write_text(broken)
    code, _, err = run_cli(
        "compute", "--network", str(path), "--output", "O", "--evidence", "E"
    )
    assert code == 2
    assert "MissingValueMap" in err


def test_degenerate_output_exits_3(tmp_path):
    code, _, err = run_cli(
        "compute", "--network", CHAIN, "--value-map", "0=1,1=1"
    )
    assert code == 3
    assert "DegenerateOutput" in err


@pytest.mark.parametrize("network", [constant_on_support_chain, impossible_label_grid])
@pytest.mark.parametrize("command", ["compute", "oracle"])
def test_map_constant_on_the_output_support_exits_3(tmp_path, command, network):
    bn, spec = network()
    path = tmp_path / "constant.native"
    path.write_text(save_native(NativeDocument(bn, spec)))
    code, out, err = run_cli(command, "--network", str(path))
    assert code == 3
    assert out == ""
    assert "DegenerateOutputError" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_map_exits_2(value):
    code, _, err = run_cli(
        "compute", "--network", CHAIN, "--value-map", f"0={value},1=1"
    )
    assert code == 2
    assert "MissingValueMapError" in err
    assert "Warning" not in err


def test_non_finite_value_map_in_document_exits_2(tmp_path):
    text = (GOLDEN / "chain.native").read_text()
    path = tmp_path / "nan.native"
    path.write_text(text.replace('"0": 0.0', '"0": NaN'))
    for command in ("compute", "oracle"):
        code, _, err = run_cli(command, "--network", str(path))
        assert code == 2
        assert "MissingValueMapError" in err


def test_unknown_value_map_label_exits_2(tmp_path):
    # The mistyped "hgih" used to be dropped, and the run exited 0.
    code, out, err = run_cli(
        "compute", "--network", CHAIN, "--value-map", "0=0,1=1,hgih=5"
    )
    assert code == 2
    assert out == ""
    assert "InvalidAssignmentError" in err and "hgih" in err
    text = (GOLDEN / "chain.native").read_text()
    path = tmp_path / "unknown.native"
    path.write_text(text.replace('"1": 1.0\n', '"1": 1.0, "hgih": 5.0\n', 1))
    for command in ("compute", "oracle"):
        code, out, err = run_cli(command, "--network", str(path))
        assert code == 2
        assert out == ""
        assert "InvalidAssignmentError" in err and "hgih" in err


def test_repeated_value_map_label_exits_2():
    # The last "1=" used to win silently, giving E[f] = 2.05.
    code, out, err = run_cli(
        "compute", "--network", CHAIN, "--value-map", "0=0,1=1,1=5"
    )
    assert code == 2
    assert out == ""
    assert err == "error: ValueError: value-map label '1' given twice\n"


def test_repeated_evidence_name_exits_2():
    # The repeat used to be dropped silently.
    code, out, err = run_cli("compute", "--network", CHAIN, "--evidence", "E,E")
    assert code == 2
    assert out == ""
    assert err == "error: ValueError: --evidence names a variable twice: ['E', 'E']\n"


def test_repeated_value_map_key_in_document_exits_2(tmp_path):
    text = (GOLDEN / "chain.native").read_text()
    assert '"1": 1.0\n' in text
    path = tmp_path / "twice.native"
    path.write_text(text.replace('"1": 1.0\n', '"1": 1.0, "1": 5.0\n', 1))
    code, out, err = run_cli("compute", "--network", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: SchemaError: document: key '1' repeated in one object\n"


@pytest.mark.parametrize(
    "old, new, field",
    [
        ('"0": 0.0', '"0": ' + "9" * 400, "spec.value_map"),
        ("0.7,\n        0.3", "0.7,\n        " + "9" * 400, "cpts[0].table"),
    ],
    ids=["value-map", "table"],
)
def test_integer_too_large_for_a_float_exits_2(tmp_path, old, new, field):
    text = (GOLDEN / "chain.native").read_text()
    assert old in text
    path = tmp_path / "huge.native"
    path.write_text(text.replace(old, new, 1))
    code, out, err = run_cli("compute", "--network", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: SchemaError: {field}: ")
    assert "Traceback" not in err


def test_oracle_cap_exits_4(tmp_path):
    code, doc, _ = run_cli(
        "gen", "--seed", "1", "--nodes", "30", "--max-parents", "2", "--cardinality", "2"
    )
    assert code == 0
    path = tmp_path / "big.native"
    path.write_text(doc)
    code, _, err = run_cli("oracle", "--network", str(path))
    assert code == 4
    assert "StateSpaceTooLarge" in err


def test_out_of_memory_exits_4(monkeypatch, capsys):
    def refuse(scopes, arrays, axes):
        raise MemoryError("cannot allocate the bucket")

    monkeypatch.setattr(bnsens.network, "_einsum", refuse)
    assert main(["compute", "--network", CHAIN]) == 4
    assert "error: MemoryError: cannot allocate" in capsys.readouterr().err


def test_bucket_beyond_einsum_labels_exits_4(tmp_path, capsys):
    # A chance root with 53 evidential children: summing it out of the
    # evidence network leaves a bucket over 54 axes, which einsum cannot label.
    n = 53
    variables = [Variable(0, "C", ("0", "1"))]
    variables += [Variable(k, f"E{k}", ("0", "1")) for k in range(1, n + 1)]
    variables.append(Variable(n + 1, "O", ("0", "1")))
    cpts = [Cpt(0, (), [[0.5, 0.5]])]
    cpts += [Cpt(k, (0,), [[0.9, 0.1], [0.2, 0.8]]) for k in range(1, n + 1)]
    cpts.append(Cpt(n + 1, (1,), [[0.7, 0.3], [0.4, 0.6]]))
    spec = AnalysisSpec(n + 1, frozenset(range(1, n + 1)), {"0": 0.0, "1": 1.0})
    path = tmp_path / "wide.native"
    path.write_text(save_native(NativeDocument(DiscreteBayesNet(variables, cpts), spec)))
    assert main(["compute", "--network", str(path)]) == 4
    assert "error: StateSpaceTooLargeError: a bucket over 54 axes" in capsys.readouterr().err


def test_compute_validates_the_network_once(monkeypatch, capsys):
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("bnsens")]:
        check = getattr(module, "validate_network", None)
        if check is not None:
            def counted(bn, check=check):
                calls.append(bn)
                return check(bn)

            monkeypatch.setattr(module, "validate_network", counted)
    kahn = []
    check_acyclic = bnsens.model._check_acyclic
    monkeypatch.setattr(
        bnsens.model, "_check_acyclic", lambda dag: kahn.append(dag) or check_acyclic(dag)
    )
    assert main(["compute", "--network", CHAIN, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["indices"][0]["ST"] == 1.0
    assert len(calls) == 1
    assert len(kahn) == 1  # compute_all reads bn.dag() without checking it again


def test_oracle_compare_reports_deviation():
    code, out, _ = run_cli("oracle", "--network", CHAIN, "--compare", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["comparison"]["max_abs_s_deviation"] <= 1e-8
    assert payload["comparison"]["max_abs_st_deviation"] <= 1e-8


def test_oracle_json_schema_matches_compute():
    _, mine, _ = run_cli("compute", "--network", CHAIN, "--format", "json", "--no-timings")
    _, ref, _ = run_cli("oracle", "--network", CHAIN, "--format", "json", "--no-timings")
    assert set(json.loads(mine)) == set(json.loads(ref))
    assert json.loads(mine)["indices"][0].keys() == json.loads(ref)["indices"][0].keys()


def test_gen_deterministic_bytes():
    _, first, _ = run_cli("gen", "--seed", "7", "--nodes", "24", "--max-parents", "3", "--cardinality", "3")
    _, second, _ = run_cli("gen", "--seed", "7", "--nodes", "24", "--max-parents", "3", "--cardinality", "3")
    assert first == second


def test_gen_output_runs_end_to_end(tmp_path):
    code, doc, _ = run_cli("gen", "--seed", "5", "--nodes", "12", "--max-parents", "3", "--cardinality", "2:3")
    assert code == 0
    path = tmp_path / "gen.native"
    path.write_text(doc)
    code, out, _ = run_cli("compute", "--network", str(path), "--format", "csv", "--no-timings")
    assert code == 0
    assert out.startswith("variable,S,S_time,ST,ST_time")


def test_gen_rejects_zero_nodes():
    code, _, err = run_cli("gen", "--seed", "1", "--nodes", "0")
    assert code == 2


def test_evidence_roots_shorthand(tmp_path):
    code, doc, _ = run_cli("gen", "--seed", "5", "--nodes", "12", "--max-parents", "3", "--cardinality", "2")
    path = tmp_path / "gen.native"
    path.write_text(doc)
    code, out, _ = run_cli(
        "compute", "--network", str(path), "--evidence", "roots", "--format", "csv", "--no-timings"
    )
    assert code == 0


def test_closed_index_selection(tmp_path):
    code, doc, _ = run_cli("gen", "--seed", "21", "--nodes", "8", "--max-parents", "2", "--cardinality", "2")
    assert code == 0
    path = tmp_path / "net.native"
    path.write_text(doc)
    payload = json.loads(doc)
    evid = payload["spec"]["evidential"]
    if len(evid) >= 2:
        selection = f"first,closed:{evid[0]}+{evid[1]}"
        code, out, _ = run_cli(
            "compute", "--network", str(path), "--indices", selection,
            "--format", "csv", "--no-timings",
        )
        assert code == 0
        assert f"{evid[0]}+{evid[1]}" in out


def test_closed_only_selection_has_no_per_variable_rows():
    code, out, _ = run_cli(
        "compute", "--network", CHAIN, "--indices", "closed:E",
        "--format", "csv", "--no-timings",
    )
    assert code == 0
    assert out == "variable,S,S_time,ST,ST_time\nE,1.0,0.00000,,\n"


def test_closed_subset_naming_a_variable_twice_is_an_input_error():
    code, out, err = run_cli(
        "compute", "--network", CHAIN, "--indices", "first,closed:E+E", "--format", "csv",
    )
    assert code == 2
    assert out == ""
    assert "NotEvidentialError" in err


def test_sixteen_root_fixture_through_cli(tmp_path):
    from bnsens.ingest import NativeDocument, save_native
    from helpers import concrete_style_network

    bn, spec = concrete_style_network(seed=7)
    path = tmp_path / "concrete.native"
    path.write_text(save_native(NativeDocument(bn, spec, name="concrete-style")))
    import time

    started = time.perf_counter()
    code, out, _ = run_cli("compute", "--network", str(path), "--format", "csv")
    elapsed = time.perf_counter() - started
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 17  # header plus one row per evidential root
    assert elapsed < 60.0


def test_bif_input(tmp_path):
    path = tmp_path / "net.bif"
    path.write_text(
        """
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
    )
    code, out, _ = run_cli(
        "compute", "--network", str(path), "--output", "B", "--evidence", "A",
        "--value-map", "b0=0,b1=1", "--format", "csv", "--no-timings",
    )
    assert code == 0
    assert out.splitlines()[1].startswith("A,")
