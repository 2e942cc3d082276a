"""Child process of the benchmark: bnsens's set-up on one native file.

    PYTHONPATH=src python3 bench/setup_probe.py NETWORK_FILE

Imports the CLI module, loads the file with `load_native` and validates the
network and its spec, as every `bnsens compute` call does before any
contraction. Prints the three phase times as one JSON object; the parent
times the whole process from spawn to exit.
"""

from time import perf_counter

started = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bnsens.cli  # noqa: E402,F401

imported = perf_counter()
from bnsens import load_native, validate_network, validate_partition  # noqa: E402

doc = load_native(Path(sys.argv[1]).read_text())
loaded = perf_counter()
validate_network(doc.network)
validate_partition(doc.network, doc.spec)
validated = perf_counter()
print(json.dumps({
    "import_s": imported - started,
    "load_s": loaded - imported,
    "validate_s": validated - loaded,
}))
