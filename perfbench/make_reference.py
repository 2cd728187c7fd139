"""Record the reference outputs of the pooled workloads.

    python3 perfbench/make_reference.py [workload ...]

Runs every case of each pooled workload (default: all of them) against the
rwkit in ``src/`` and writes ``reference/<workload>.json``.  The checked-in
files were recorded at the commit named in them; rerun this only when a
change to rwkit's outputs is intended.
"""

import json
import os
import shutil
import sys

from run import HERE, ROOT, THREAD_VARIABLES

POOLED = ("eval-dft", "eval-identity", "radius")


def main(names):
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness
    from workloads import REFERENCE_DIR, WORKLOADS

    rw = harness.load_program()
    workdir = os.path.join(HERE, "out", f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    try:
        for name in names or POOLED:
            wl = WORKLOADS[name]()
            wl.setup(rw, 0, workdir)
            cases = []
            for case in range(wl.pool):
                spec = wl.spec(case)
                cases.append(wl.output(spec, wl.call(spec)))
            record = {
                "workload": name,
                "rwkit_commit": harness.environment(rw, ROOT)["commit"],
                "config": wl.describe(),
                "cases": cases,
            }
            with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w") as fh:
                json.dump(record, fh, indent=0)
                fh.write("\n")
            print(f"{name}: {len(cases)} cases")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
