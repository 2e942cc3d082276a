"""Benchmark: exact Sobol indices on three fixed networks, every result
checked against an independent reference.

    python3 bench/run.py --workload grid3e16 --seed 1 --seconds 20 --trace 0

The program is imported from the `src/` directory beside `bench/`; without
it the command exits with code 2. `--seed` draws the output value map (see
`workloads.py`); the networks are fixed. One process calls the program one
call at a time (a closed loop with a single caller):

1. One `bnsens compute --format json` child: its peak resident memory is
   `peak_rss_mib`, and its report must agree with the in-process
   `compute_all` to within 1e-12.
2. Set-up: SETUP_PROBES children, spread evenly over the timed part of the
   run after one warm-up, each start Python, import `bnsens.cli`,
   `load_native` the workload file and validate it (`setup_probe.py`).
   `setup_s` is the median wall time of a child from spawn to exit.
3. Whole rounds of analyses until `--seconds` have passed and at least
   MIN_ANALYSES analyses of the workload's own spec ran. Each analysis is
   one `compute_all(bn, spec)` for first-order and total indices of every
   evidential variable; E[f], Var[f] and every index must match
   `reference.json` to within 1e-9, and the independent-input laws
   0 <= S_i <= S^T_i <= 1, sum S_i <= 1 <= sum S^T_i must hold to 1e-9.
   `compute_s` is the median wall time of one analysis. A grid3e16 round
   adds one analysis with the value map shifted by +1e6, which must leave
   Var[f] and every index unchanged (its E[f], near 1e6, is not checked);
   it is counted in `failed` while the program breaks affine invariance,
   and its time is not part of `compute_s`.

Steps 1 and 2's warm-up lie outside `--seconds`, and a run takes at least
MIN_ANALYSES analyses, so a run whose analysis takes seconds lasts longer
than `--seconds` (see README.md).

With `--trace 1` (which needs `--workers 1`), every other analysis runs
with layer spans installed (`spans.py`) and the last line carries the
per-layer metrics instead: medians over the traced analyses for times, the
counts of one analysis, the set-up phases of the children, and
`trace.overhead_s`, the median traced minus the median untraced analysis.
Raw samples and the spans of the last traced analysis go to `bench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

TOL = 1e-9
CLI_TOL = 1e-12
SETUP_PROBES = 11
# At least three timed analyses, so that the median can set one slow call aside.
MIN_ANALYSES = 3
SHIFT = 1e6
# The analyses one round attempts; a run repeats whole rounds, so the share
# of failed analyses does not depend on the run length.
ROUNDS = {
    "grid3e16": ("main", "main", "main", "shifted"),
    "sparse200": ("main",),
    "dense-card": ("main",),
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _problems(report, expected) -> list[str]:
    """Every way the report misses the reference or the independent-input laws.
    An expected E[f] of None is not checked."""
    mean, variance, by_var = expected
    found = []
    for label, got, want in (("E[f]", report.expected_value, mean),
                             ("Var[f]", report.variance, variance)):
        if want is not None and not abs(got - want) <= TOL:
            found.append(f"{label} {got!r} vs reference {want!r}")
    if sorted(e.variables[0] for e in report.indices) != sorted(by_var):
        return found + ["indices reported for the wrong variables"]
    for e in report.indices:
        s, st = by_var[e.variables[0]]
        if not (abs(e.s - s) <= TOL and abs(e.st - st) <= TOL):
            found.append(f"{e.name}: S {e.s!r} ST {e.st!r} vs reference {s!r} {st!r}")
        if not -TOL <= e.s <= e.st + TOL <= 1 + 2 * TOL:
            found.append(f"{e.name}: not 0 <= S <= ST <= 1 (S {e.s!r}, ST {e.st!r})")
    if not sum(e.s for e in report.indices) <= 1 + TOL:
        found.append("sum of S above 1")
    if not sum(e.st for e in report.indices) >= 1 - TOL:
        found.append("sum of ST below 1")
    return found


def _setup_probe(path: Path, env: dict) -> tuple[float, dict]:
    started = perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    wall = perf_counter() - started
    if done.returncode != 0:
        _fail(f"set-up probe failed:\n{done.stderr}")
    return wall, json.loads(done.stdout)


def _cli_compute(path: Path, env: dict) -> tuple[dict, float]:
    """Report of `bnsens compute --format json` and the child's peak RSS in MiB."""
    out_file, err_file = path.with_suffix(".cli.json"), path.with_suffix(".cli.err")
    with open(out_file, "w") as out, open(err_file, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "bnsens", "compute", "--network", str(path),
             "--format", "json"],
            env=env, stdout=out, stderr=err,
        )
        try:
            # wait4 rather than Popen.wait, to read this child's own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _fail(f"bnsens compute exited {proc.returncode}:\n{err_file.read_text()}")
    return json.loads(out_file.read_text()), usage.ru_maxrss / 1024.0


def _cli_problems(cli: dict, report) -> list[str]:
    pairs = [(cli["expected_value"], report.expected_value), (cli["variance"], report.variance)]
    rows = {row["variable"]: row for row in cli["indices"]}
    if set(rows) != {e.name for e in report.indices}:
        return ["CLI reports other variables than compute_all"]
    for e in report.indices:
        pairs += [(rows[e.name]["S"], e.s), (rows[e.name]["ST"], e.st)]
    worst = max(abs(a - b) for a, b in pairs)
    return [] if worst <= CLI_TOL else [f"CLI differs from compute_all by {worst:.3e}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="ComputeOptions.workers for the in-process analyses")
    args = parser.parse_args(argv)
    if args.trace == 1 and args.workers != 1:
        parser.error("--trace 1 needs --workers 1: the spans keep one stack of open calls")
    # Unwind on SIGTERM too, so that no child process outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "bnsens" / "__init__.py").is_file():
        _fail(f"no bnsens sources under {SRC}; run from a full checkout")
    if not REFERENCE.is_file():
        _fail(f"{REFERENCE} is missing; make it with python3 bench/reference.py")
    sys.path.insert(0, str(SRC))

    from bnsens import AnalysisSpec, ComputeOptions, compute_all, load_native

    import workloads
    from reference import Moments, values
    from spans import Tracer

    name = args.workload
    entry = json.loads(REFERENCE.read_text())["workloads"][name]
    bn, output, evidential = workloads.network(name)
    if workloads.fingerprint(bn) != entry["network_sha256"]:
        _fail(f"the {name} network differs from the one in reference.json")
    path = OUT / f"{name}-seed{args.seed}.native"
    workloads.write_document(
        path, bn, AnalysisSpec(output, evidential, workloads.seeded_map(bn, output, args.seed)),
        name)
    doc = load_native(path.read_text())
    bn, spec = doc.network, doc.spec
    moments = Moments.from_json(entry)
    positional = workloads.positional_map(bn, output)
    _, variance, by_var = moments.indices(
        values(bn, AnalysisSpec(output, evidential, positional)))
    analyses = {
        "main": (spec, moments.indices(values(bn, spec))),
        # Affine invariance is about Var[f] and the indices. E[f] near 1e6
        # carries rounding of many steps of 1.2e-10 each, so an absolute
        # 1e-9 could fail a correct program.
        "shifted": (
            AnalysisSpec(output, evidential, {k: v + SHIFT for k, v in positional.items()}),
            (None, variance, by_var),
        ),
    }

    env = dict(os.environ, PYTHONPATH=str(SRC))
    _setup_probe(path, env)  # warm-up: bytecode and page caches
    cli_report, peak_rss_mib = _cli_compute(path, env)
    probes: list[tuple[float, dict]] = []

    options = ComputeOptions(workers=args.workers)
    seconds = {False: [], True: []}
    layers: list[dict] = []
    problems: list[str] = []
    attempted = failed = mains = 0
    first_report = tracer = None
    known_fault: list[str] = []
    started = perf_counter()
    while True:
        for kind in ROUNDS[name]:
            traced = kind == "main" and args.trace == 1 and mains % 2 == 1
            analysis_spec, expected = analyses[kind]
            tracer = Tracer() if traced else tracer
            attempted += 1
            report = None
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    t0 = perf_counter()
                    if traced:
                        with tracer.installed(), tracer.span("compute"):
                            report = compute_all(bn, analysis_spec, options)
                    else:
                        report = compute_all(bn, analysis_spec, options)
                    elapsed = perf_counter() - t0
                found = _problems(report, expected)
            except Exception:  # noqa: BLE001 - a failed analysis is counted, not fatal
                found = [traceback.format_exc()]
            if found:
                failed += 1
                if kind == "main":
                    problems += found
                else:
                    known_fault = known_fault or found
            if kind == "main" and report is not None:
                seconds[traced].append(elapsed)
                first_report = first_report or report
                if traced:
                    layers.append(tracer.layer_metrics("compute"))
            mains += kind == "main"
            # Probes are spread over the run, so they meet the same host
            # conditions as the analyses; the last round completes them.
            while len(probes) < min(SETUP_PROBES,
                                    SETUP_PROBES * (perf_counter() - started) / args.seconds):
                probes.append(_setup_probe(path, env))
        if perf_counter() - started >= args.seconds and mains >= MIN_ANALYSES:
            break

    if not seconds[False] or (args.trace == 1 and not layers):
        _fail("no analysis completed:\n" + "\n".join(problems))
    problems += _cli_problems(cli_report, first_report)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    phase = {key: statistics.median(p[key] for _, p in probes)
             for key in ("import_s", "load_s", "validate_s")}
    if args.trace == 0:
        metrics = {
            "compute_s": (statistics.median(seconds[False]), "s"),
            "setup_s": (statistics.median(wall for wall, _ in probes), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        metrics = {}
        for key, value in layers[0].items():
            if key.endswith("_s"):
                metrics[key] = (statistics.median(m[key] for m in layers), "s")
            else:
                if any(m[key] != value for m in layers):
                    print(f"note: {key} differs between traced analyses", file=sys.stderr)
                metrics[key] = (value, "B" if key.startswith("tensor.bytes") else "count")
        metrics["cli.import_s"] = (phase["import_s"], "s")
        metrics["ingest.load_s"] = (phase["load_s"], "s")
        metrics["model.validate_s"] = (phase["validate_s"], "s")
        metrics["trace.overhead_s"] = (
            statistics.median(seconds[True]) - statistics.median(seconds[False]), "s")

    OUT.mkdir(exist_ok=True)
    raw = {"workload": name, "seed": args.seed, "trace": args.trace,
           "attempted": attempted, "failed": failed, "problems": problems,
           "known_fault": known_fault,
           "compute_seconds": seconds[False], "traced_seconds": seconds[True],
           "setup_wall_seconds": [wall for wall, _ in probes],
           "setup_phases": [p for _, p in probes], "peak_rss_mib": peak_rss_mib,
           "layers": layers}
    if args.trace == 1:
        raw["spans"] = tracer.to_json()
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
