#!/usr/bin/env python3
"""Write the golden reports the benchmark's checks compare against.

    python3 bench/make_goldens.py [workload ...]

Runs every job of the checked workloads once per seed variant with the
current program and stores its report under ``bench/golden/``.  Regenerating
goldens changes the benchmark: do it only in a change whose purpose is to
change the benchmark, never to make a failing check pass.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads

CHECKED = ("exact-moment", "verify-bands", "ccball-cover")


def main(argv: list[str]) -> int:
    run.pin_environment()
    run.import_program()
    from torsionlab import cli

    for workload in argv or CHECKED:
        for v in range(workloads.VARIANTS):
            with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
                for job in workloads.build(workload, v, Path(tmp)):
                    if v and not job.seeded:
                        continue
                    out = checks.golden_path(workload, job, v)
                    out.parent.mkdir(parents=True, exist_ok=True)
                    code = cli.main([*job.argv, "--out", str(Path(tmp) / "report.json")])
                    if code != 0:
                        print(f"{workload} {job.id} v{v}: exit code {code}", file=sys.stderr)
                        return 1
                    shutil.copyfile(Path(tmp) / "report.json", out)
            print(f"{workload} v{v} done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
