"""Command-line surface: compute sensitivity reports, run the brute-force
oracle, render DOT figures, and generate random fixture networks.

Exit codes: 0 success, 2 parse/validation problems, 3 degenerate output
variance, 4 resource caps (state space too large, out of memory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .errors import (
    BnSensError,
    DegenerateOutputError,
    InvalidAssignmentError,
    MissingValueMapError,
    SchemaError,
    StateSpaceTooLargeError,
)
from .ingest import (
    NativeDocument,
    _floats,
    generate_random_bn,
    load_native,
    parse_bif,
    save_native,
)
from .model import AnalysisSpec, DiscreteBayesNet, validate_partition
from .oracle import DEFAULT_CELL_CAP, brute_force_indices
from .sobol import ComputeOptions, SobolReport, compute_all

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_RESOURCE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnsens",
        description="Variance-based sensitivity analysis for discrete Bayesian networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_network_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--network", required=True, help="input network file")
        p.add_argument(
            "--input-format",
            dest="input_format",
            choices=["bif", "native"],
            help="input format (default: from the file extension)",
        )
        p.add_argument("--output", help="name of the output node")
        p.add_argument(
            "--evidence",
            help="comma-separated evidential node names, or 'roots'",
        )
        p.add_argument(
            "--value-map",
            dest="value_map",
            help="output label values, e.g. low=0,medium=1,high=2",
        )

    compute = sub.add_parser("compute", help="compute sensitivity indices")
    add_network_args(compute)
    compute.add_argument(
        "--indices",
        default="first,total",
        help="any of first, total, closed:<name+name+...> (comma-separated)",
    )
    compute.add_argument(
        "--format",
        dest="report_format",
        choices=["table", "csv", "json"],
        default="table",
    )
    compute.add_argument(
        "--no-timings",
        dest="no_timings",
        action="store_true",
        help="report timing fields as zero (for reproducible output)",
    )

    oracle = sub.add_parser("oracle", help="brute-force reference computation")
    add_network_args(oracle)
    oracle.add_argument(
        "--format",
        dest="report_format",
        choices=["table", "csv", "json"],
        default="table",
    )
    oracle.add_argument("--no-timings", dest="no_timings", action="store_true")
    oracle.add_argument(
        "--compare",
        action="store_true",
        help="also run the tensor pipeline and report the maximum deviation",
    )
    oracle.add_argument("--max-cells", dest="max_cells", type=int, default=DEFAULT_CELL_CAP)

    dot = sub.add_parser("dot", help="emit a Graphviz DOT rendering")
    add_network_args(dot)
    dot.add_argument(
        "--from-report",
        dest="from_report",
        help="take total indices from a previous json report instead of recomputing",
    )

    gen = sub.add_parser("gen", help="generate a random network document")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--max-parents", dest="max_parents", type=int, default=2)
    gen.add_argument(
        "--cardinality",
        default="2",
        help="domain size, either K or LO:HI",
    )
    gen.add_argument("--name", dest="gen_name", help="document name")
    return parser


# ------------------------------------------------------------------ loading

def _load_network(
    args: argparse.Namespace,
) -> tuple[DiscreteBayesNet, AnalysisSpec | None, str]:
    path = Path(args.network)
    fmt = args.input_format or ("bif" if path.suffix == ".bif" else "native")
    text = path.read_text()
    if fmt == "bif":
        bn = parse_bif(text)
        return bn, None, path.stem
    doc = load_native(text)
    return doc.network, doc.spec, doc.name or path.stem


def _parse_value_map(text: str) -> dict[str, float]:
    mapping: dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        label, _, value = chunk.partition("=")
        if not _:
            raise ValueError(f"value-map entry {chunk!r} is not label=value")
        label = label.strip()
        if label in mapping:
            raise ValueError(f"value-map label {label!r} given twice")
        try:
            mapping[label] = float(value)
        except ValueError:
            raise ValueError(f"value-map entry {chunk!r}: {value!r} is not a number")
    return mapping


def _resolve_spec(
    bn: DiscreteBayesNet, base: AnalysisSpec | None, args: argparse.Namespace
) -> AnalysisSpec:
    if args.output is not None:
        output = bn.variable_named(args.output).id
    elif base is not None:
        output = base.output
    else:
        raise InvalidAssignmentError("no output node specified")

    if args.evidence is not None:
        if args.evidence.strip() == "roots":
            evidential = frozenset(bn.roots())
        else:
            names = [x.strip() for x in args.evidence.split(",") if x.strip()]
            evidential = frozenset(bn.variable_named(x).id for x in names)
    elif base is not None:
        evidential = base.evidential
    else:
        raise InvalidAssignmentError("no evidential nodes specified")

    if args.value_map is not None:
        value_map = _parse_value_map(args.value_map)
    elif base is not None:
        value_map = dict(base.value_map)
    else:
        # Numeric output labels map to themselves; anything else needs a map.
        domain = bn.variables[output].domain
        try:
            value_map = {label: float(label) for label in domain}
        except ValueError:
            raise MissingValueMapError(
                f"output {bn.variables[output].name!r} has non-numeric labels; "
                "provide --value-map"
            ) from None

    spec = AnalysisSpec(output, evidential, value_map)
    validate_partition(bn, spec)
    return spec


def _parse_indices(
    text: str, bn: DiscreteBayesNet
) -> tuple[bool, bool, tuple[tuple[int, ...], ...]]:
    first = total = False
    closed: list[tuple[int, ...]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk == "first":
            first = True
        elif chunk == "total":
            total = True
        elif chunk.startswith("closed:"):
            names = [x for x in chunk[len("closed:"):].split("+") if x]
            if not names:
                raise ValueError("closed: needs at least one variable name")
            closed.append(tuple(bn.variable_named(x).id for x in names))
        else:
            raise ValueError(f"unknown index selection {chunk!r}")
    if not (first or total or closed):
        raise ValueError("no indices selected")
    return first, total, tuple(closed)


# --------------------------------------------------------------- formatting

def _fmt_value(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def _fmt_time(t: float | None, no_timings: bool) -> str:
    if t is None:
        return ""
    return "0.00000" if no_timings else f"{t:.5f}"


def _report_payload(report: SobolReport, name: str, no_timings: bool) -> dict:
    def num_time(t: float | None):
        if t is None:
            return None
        return 0.0 if no_timings else round(t, 5)

    return {
        "schema_version": SCHEMA_VERSION,
        "network_name": name,
        "expected_value": report.expected_value,
        "variance": report.variance,
        "indices": [
            {
                "variable": e.name,
                "S": e.s,
                "S_time": num_time(e.s_time),
                "ST": e.st,
                "ST_time": num_time(e.st_time),
            }
            for e in report.indices
        ],
    }


def _format_report(
    report: SobolReport,
    name: str,
    fmt: str,
    no_timings: bool,
    comparison: dict | None = None,
) -> str:
    if fmt == "csv":
        lines = ["variable,S,S_time,ST,ST_time"]
        for e in report.indices:
            lines.append(
                ",".join(
                    [
                        e.name,
                        _fmt_value(e.s),
                        _fmt_time(e.s_time, no_timings),
                        _fmt_value(e.st),
                        _fmt_time(e.st_time, no_timings),
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = _report_payload(report, name, no_timings)
        if comparison is not None:
            payload["comparison"] = comparison
        return json.dumps(payload, indent=2) + "\n"

    width = max([len(e.name) for e in report.indices] + [8])
    lines = [
        f"network: {name}",
        f"expected value: {report.expected_value!r}",
        f"variance: {report.variance!r}",
        f"{'variable':<{width}}  {'S':>14}  {'time(S)':>9}  {'ST':>14}  {'time(ST)':>9}",
    ]
    for e in report.indices:
        s = "-" if e.s is None else f"{e.s:.10f}"
        st = "-" if e.st is None else f"{e.st:.10f}"
        ts = "-" if e.s_time is None else _fmt_time(e.s_time, no_timings)
        tst = "-" if e.st_time is None else _fmt_time(e.st_time, no_timings)
        lines.append(f"{e.name:<{width}}  {s:>14}  {ts:>9}  {st:>14}  {tst:>9}")
    lines.append(f"total time: {'0.00000' if no_timings else f'{report.total_time:.5f}'} s")
    if comparison is not None:
        lines.append(
            "comparison: max |dS| = {max_abs_s_deviation:.3e}, "
            "max |dST| = {max_abs_st_deviation:.3e}".format(**comparison)
        )
    return "\n".join(lines) + "\n"


def _dot_escaped(name: str) -> str:
    """`name` as the inside of a DOT quoted string. The backslash goes
    first, so a name ending in one cannot escape the closing quote."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def _format_dot(
    bn: DiscreteBayesNet, spec: AnalysisSpec, st_by_id: dict[int, float | None]
) -> str:
    """Graphviz DOT: chance nodes gray, output orange, evidential nodes on a
    white-to-red ramp scaled to [0, max total index]."""
    finite = [v for v in st_by_id.values() if v is not None]
    max_st = max(finite) if finite else 0.0
    lines = ["digraph bn {", "  node [style=filled];"]
    for v in bn.variables:
        name = _dot_escaped(v.name)
        if v.id == spec.output:
            lines.append(f'  "{name}" [fillcolor="orange"];')
        elif v.id in spec.evidential:
            st = st_by_id.get(v.id)
            st = 0.0 if st is None else st
            ratio = 0.0 if max_st <= 0 else min(max(st / max_st, 0.0), 1.0)
            level = round(255 * (1.0 - ratio))
            color = f"#ff{level:02x}{level:02x}"
            lines.append(
                f'  "{name}" [fillcolor="{color}", label="{name}\\nST={st:.3f}"];'
            )
        else:
            lines.append(f'  "{name}" [fillcolor="gray"];')
    for cpt in bn.cpts:
        child = _dot_escaped(bn.variables[cpt.child].name)
        for p in cpt.parents:
            parent = _dot_escaped(bn.variables[p].name)
            lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- commands

def cmd_compute(args: argparse.Namespace) -> int:
    bn, base_spec, name = _load_network(args)
    spec = _resolve_spec(bn, base_spec, args)
    first, total, closed = _parse_indices(args.indices, bn)
    options = ComputeOptions(first=first, total=total, closed=closed)
    report = compute_all(bn, spec, options)
    sys.stdout.write(_format_report(report, name, args.report_format, args.no_timings))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    bn, base_spec, name = _load_network(args)
    spec = _resolve_spec(bn, base_spec, args)
    report = brute_force_indices(bn, spec, max_cells=args.max_cells)
    comparison = None
    if args.compare:
        mine = compute_all(bn, spec)
        by_id = {e.variables[0]: e for e in mine.indices}
        dev_s = max(
            abs(e.s - by_id[e.variables[0]].s) for e in report.indices
        )
        dev_st = max(
            abs(e.st - by_id[e.variables[0]].st) for e in report.indices
        )
        comparison = {
            "max_abs_s_deviation": dev_s,
            "max_abs_st_deviation": dev_st,
        }
    text = _format_report(
        report,
        name,
        args.report_format,
        args.no_timings,
        comparison if args.report_format != "csv" else None,
    )
    sys.stdout.write(text)
    if comparison is not None and args.report_format == "csv":
        sys.stderr.write(
            "comparison: max |dS| = {max_abs_s_deviation:.3e}, "
            "max |dST| = {max_abs_st_deviation:.3e}\n".format(**comparison)
        )
    return EXIT_OK


def _report_totals(text: str) -> dict[str, float | None]:
    """Total index (or None) by variable name from a json report of
    `compute`; a report of any other shape raises SchemaError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise SchemaError("report", "top level must be an object")
    rows = data.get("indices", [])
    if not isinstance(rows, list):
        raise SchemaError("indices", "expected list")
    totals: dict[str, float | None] = {}
    for k, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SchemaError(f"indices[{k}]", "expected object")
        name, st = row.get("variable"), row.get("ST")
        if not isinstance(name, str):
            raise SchemaError(f"indices[{k}].variable", "expected str")
        if st is not None:
            st = float(_floats([st], f"indices[{k}].ST", "ST")[0])
        totals[name] = st
    return totals


def cmd_dot(args: argparse.Namespace) -> int:
    bn, base_spec, name = _load_network(args)
    spec = _resolve_spec(bn, base_spec, args)
    st_by_id: dict[int, float | None] = {}
    if args.from_report:
        by_name = _report_totals(Path(args.from_report).read_text())
        for i in spec.evidential:
            st_by_id[i] = by_name.get(bn.variables[i].name)
    else:
        report = compute_all(bn, spec, ComputeOptions(first=False, total=True))
        st_by_id = {e.variables[0]: e.st for e in report.indices}
    sys.stdout.write(_format_dot(bn, spec, st_by_id))
    return EXIT_OK


def _parse_cardinality(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError:
        raise ValueError(f"cardinality {text!r} is not K or LO:HI") from None
    return low, high


def _deepest_sink(bn: DiscreteBayesNet) -> int:
    has_child = set()
    for cpt in bn.cpts:
        has_child.update(cpt.parents)
    depth: dict[int, int] = {}

    def depth_of(v: int) -> int:
        if v not in depth:
            ps = bn.cpts[v].parents
            depth[v] = 0 if not ps else 1 + max(depth_of(p) for p in ps)
        return depth[v]

    sinks = [v for v in range(bn.n) if v not in has_child]
    return min(sinks, key=lambda v: (-depth_of(v), v))


def cmd_gen(args: argparse.Namespace) -> int:
    if args.nodes < 1:
        raise ValueError("--nodes must be at least 1")
    lo, hi = _parse_cardinality(args.cardinality)
    bn = generate_random_bn(args.seed, args.nodes, args.max_parents, (lo, hi))
    output = _deepest_sink(bn)
    evidential = frozenset(bn.roots()) - {output}
    value_map = {
        label: float(pos) for pos, label in enumerate(bn.variables[output].domain)
    }
    spec = AnalysisSpec(output, evidential, value_map)
    validate_partition(bn, spec)
    doc = NativeDocument(
        bn,
        spec,
        name=args.gen_name or f"random-s{args.seed}-n{args.nodes}",
    )
    sys.stdout.write(save_native(doc))
    return EXIT_OK


_COMMANDS = {
    "compute": cmd_compute,
    "oracle": cmd_oracle,
    "dot": cmd_dot,
    "gen": cmd_gen,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DegenerateOutputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except StateSpaceTooLargeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        # numpy raises a private subclass; name the public type.
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (BnSensError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
