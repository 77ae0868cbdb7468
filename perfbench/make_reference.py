"""Regenerate reference.json: the outputs of one probe round per workload.

    python3 perfbench/make_reference.py

Run it only on code whose outputs are known to be right (the reference
values were first written from the unmodified seed code); every benchmark
run compares its probe round with this file.
"""

import json
import os
import shutil
import sys

import calibrate
import run
import workloads as wl


def main():
    sc = run._import_package()
    if sc is None:
        print("error: no screwchain package under src/", file=sys.stderr)
        return 2
    workdir = run.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    reference = {}
    try:
        with calibrate.Clock() as clock:
            for name in run.WORKLOADS:
                ops = run.probe_round(sc, name, str(workdir / name), clock)
                bad = {op.name: op.error for op in ops.values() if op.error}
                if bad:
                    print(f"error: {name} probe failed its checks: {bad}",
                          file=sys.stderr)
                    return 1
                reference[name] = wl.reference_data(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
