#!/usr/bin/env python3
"""Pin the reports of every command-line job to golden.json.

    python3 perfbench/make_golden.py

Runs each command-line job of the workloads once (all census sample seeds)
and stores its exit code and report digest.  The stored file pins the
reports of commit b03c0bd.  Regenerate it only at a commit whose reports
are known to be right; a mismatch in a benchmark run is a defect to fix in
the program, not a reason to regenerate.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import oracle
import run
import workloads


def main() -> int:
    lie2 = run.import_lie2()
    argvs = dict(workloads.paper_argvs())
    for s in range(workloads.CENSUS_SEEDS):
        argvs.update(workloads.census_argvs(s))
        argvs.update(workloads.extension_census_argvs(s))
    golden = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for key, argv in sorted(argvs.items()):
            path = os.path.join(tmp, "report.json")
            outcome = workloads.run_cli(lie2, argv, path)
            with open(path, "rb") as fh:
                raw = fh.read()
            golden[key] = {"exit": outcome["exit"],
                           "sha256": oracle.report_digest(raw, argv[0] == "census")}
            print(key, golden[key]["exit"], file=sys.stderr)
    with open(os.path.join(run.HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
