"""`validate` at wide-field scale: the seconds and memory of the checks.

Runs the command-line `validate` and `validate --restricted` on
strictly_upper(8) lifted to GF(2^16) (`lifted_doc(name, 16, 1)`: dim 28,
nk = 448 F2 columns) and prints, for each, the seconds of one call and,
from a second call under `tracemalloc`, its peak in MB.  Building the
lifted document takes seconds of its own and is not counted.  The tier-1
twins of these figures are the bounds in `test_cli`
(`test_validate_wide_field_*`).  Run from the repository root:

    PYTHONPATH=src python3 tests/scale_validate.py [su8-gf16]
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from lie2.cli import main
from test_reports_frozen import lifted_doc

# name: (catalog fixture, field degree, lift seed)
CASES = {"su8-gf16": ("strictly_upper(8)", 16, 1)}
COMMANDS = (["validate"], ["validate", "--restricted"])


def call(argv) -> int:
    """One command-line call with its output discarded; its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def run(name: str) -> None:
    fixture, degree, seed = CASES[name]
    doc = lifted_doc(fixture, degree, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            argv = command[:1] + [str(path)] + command[1:]
            start = time.perf_counter()
            code = call(argv)
            seconds = time.perf_counter() - start
            tracemalloc.start()
            try:
                call(argv)
                peak = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
            print(f"{name}: {' '.join(command)}: exit {code}, {seconds:.2f} s, "
                  f"tracemalloc peak {peak:.1f} MB", flush=True)
            assert code == 0


if __name__ == "__main__":
    for case in sys.argv[1:] or list(CASES):
        run(case)
