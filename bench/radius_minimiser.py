"""How far the `radius` workload's purifies are from the LASSO minimiser.

Run from the repository root, with rwkit importable::

    PYTHONPATH=src python3 bench/radius_minimiser.py [--cases 8]

The inputs are the ones the benchmark's `radius` workload purifies: its
``RadiusWorkload`` from ``perfbench/workloads.py`` is set up and called on
cases 0, 1, ... with ``reconstruct.defend`` wrapped to record each signal
and operator seed it is given (the clean signal and every probe of the
bisection).  Each recorded row is then purified again, as a complex signal
so that the purified value is the final iterate itself, with the step caps
below and with a cap of 6000 steps, which stands in for the minimiser.
Distances are per row, relative to the row's ``||M y||``, over all rows and
over the clean rows alone.  The summary also counts the steps that
``defend``'s solves ran during the recording, which stop once the label is
proven, against the steps that the full solves of the same rows run at the
workload's cap.  It is printed as JSON.
"""

import argparse
import json
import pathlib
import sys
import tempfile
from unittest import mock

import numpy as np

import rwkit
from rwkit import reconstruct, sensing

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import RadiusWorkload  # noqa: E402

CAPS = (50, 100, 200, 300, 500)
REFERENCE_CAP = 6000


def recorded_rows(cases):
    """The workload's purified inputs of the first ``cases`` cases, their
    operator seeds, the workload's reconstruction parameters, which rows
    are the clean signals (each case's first purify), and the steps that
    ``defend``'s solves ran on them."""
    workload = RadiusWorkload()
    rows, seeds, clean, steps = [], [], [], []
    defend = reconstruct.defend
    solve = reconstruct._ista_coefficients

    def recording(clf, z, params, seed):
        rows.append(np.array(z, dtype=np.float64))
        seeds.append(seed)
        return defend(clf, z, params, seed)

    def counting(*args):
        u, run = solve(*args)
        steps.append(int(run.sum()))
        return u, run

    with tempfile.TemporaryDirectory() as workdir:
        workload.setup(rwkit, 0, workdir)
        with mock.patch.object(reconstruct, "defend", recording), \
                mock.patch.object(reconstruct, "_ista_coefficients", counting):
            for case in range(cases):
                clean.append(len(rows))
                workload.call(workload.spec(case))
    return np.asarray(rows), seeds, workload.params, np.asarray(clean), sum(steps)


def final_iterates(xs, seeds, params, cap):
    capped = reconstruct.ReconstructionParams(
        iterations=cap, threshold=params.threshold,
        subsample_prob=params.subsample_prob, frame=params.frame,
    )
    return np.asarray([p.value for p in reconstruct.purify_many(xs + 0j, capped, seeds)])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=8)
    args = parser.parse_args(argv)
    xs, seeds, params, clean, defend_steps = recorded_rows(args.cases)
    shape = xs.shape[1:]
    scale = np.asarray([
        np.linalg.norm(sensing.apply(sensing.make_partial_fourier(shape, params.subsample_prob, s), x))
        for x, s in zip(xs, seeds)
    ])
    reference = final_iterates(xs, seeds, params, REFERENCE_CAP)
    full_steps = sum(p.iterations_run for p in reconstruct.purify_many(xs, params, seeds))
    summary = {
        "cases": args.cases,
        "rows": len(xs),
        "defend_steps": defend_steps,
        "full_solve_steps": full_steps,
        "reference_cap": REFERENCE_CAP,
        "caps": {},
    }
    for cap in CAPS:
        distance = np.linalg.norm(final_iterates(xs, seeds, params, cap) - reference, axis=1) / scale
        summary["caps"][cap] = {
            "median": float(np.median(distance)),
            "max": float(np.max(distance)),
            "share_within_1e-8": float(np.mean(distance <= 1e-8)),
            "clean_rows_max": float(np.max(distance[clean])),
        }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
