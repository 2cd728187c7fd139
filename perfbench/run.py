"""rwkit end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of an rwkit source tree; rwkit is imported from ``src/``.
Workloads: ``eval-dft``, ``eval-identity``, ``image-db4``, ``radius`` (see
workloads.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured without tracing:
  ``items_per_s``, ``call_ms_p50``, ``peak_rss_mb``, ``success_ratio`` and
  ``setup_s`` (median of at least five set-ups, each importing rwkit afresh).
  Times are scaled to a reference machine speed (see speed.py); the
  wall-clock figures are printed above the result.
* ``--trace 1``: the per-layer metrics from a run that alternates traced
  and untraced calls, plus the tracing overhead; the spans are written to
  ``perfbench/out/``.

The run pins ``RWKIT_THREADS=1`` and one BLAS thread, and prints the
environment it ran in.  It exits with 2, printing no result, when there is no
rwkit source tree to import.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARIABLES = (
    "RWKIT_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description="rwkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rwkit", "__init__.py")):
        print(f"no rwkit source tree under {ROOT}", file=sys.stderr)
        return 2
    # Pinned before numpy loads its BLAS.
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")

    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    result, lines, _ = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, outdir
    )
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
