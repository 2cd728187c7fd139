"""Command-line interface.

    rwkit <gen-data|purify|defect|certify|eval> --config <path> [--seed N] [--out <path>]

Exit codes, all decided in ``main``: 0 success; 2 a bad value or input (a
config error, any ``ParameterError``, a bad input signal, an output path
that cannot be opened, an allocation the config's sizes make fail); 3
numeric failure.

Eval walks the (epsilon, sample) cells in epsilon-major order, in blocks of
at most ``_BLOCK_ENTRIES`` purified signal entries that may cross epsilon
boundaries, with one purification, one labelling and one defect pass per
block.  Reports are byte-identical across reruns and block sizes because
every sample uses a seed derived from (master seed, epsilon index, sample
index) and every step is row-local.
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import certify, classifier, data, defect, io, reconstruct, sensing
from .config import _fmt, config_hash, load_config
from .errors import ConfigError, InfeasibleError, ParameterError, RwkitError, ShapeError, _real
from .frames import _check_levels

__all__ = ["main", "run_eval"]


def _dataset(cfg, seed):
    return data.gen_data(
        cfg.n,
        cfg.count,
        cfg.sparsity,
        seed,
        margin_floor=cfg.margin_floor,
        weights_seed=cfg.weights_seed,
    )


def _header(cfg, seed):
    return [f"rwkit v1 config={config_hash(cfg)} master_seed={seed}"]


def _write_text(out, lines):
    # The first line is a header comment; the text goes to out, or stdout.
    text = "\n".join([f"# {lines[0]}"] + lines[1:]) + "\n"
    if out:
        with io._create(out, "w") as fh:
            fh.write(text)
        print(out)
    else:
        sys.stdout.write(text)


def _cmd_gen_data(cfg, args, seed):
    dataset = _dataset(cfg, seed)
    out = args.out or "dataset.csv"
    comments = _header(cfg, seed) + [
        f"n={cfg.n} count={cfg.count} k={cfg.sparsity}"
    ]
    data.write_dataset(out, dataset, comments=comments)
    print(out)


def _cmd_purify(cfg, args, seed):
    if not args.infile:
        raise ConfigError("purify requires --in <signal file>")
    x = io._real_if_zero_imag(io.read_signal(args.infile))
    result = reconstruct.purify(x, cfg.recon_params, seed)
    out = args.out or "purified.csv"
    io.write_signal(
        out,
        result.value,
        comments=_header(cfg, seed)
        + [
            f"operator_seed={seed}",
            f"iterations_run={result.iterations_run}",
            f"final_coefficient_l1={_fmt(result.final_coefficient_l1)}",
            f"imag_residual={_fmt(result.imag_residual)}",
        ],
    )
    print(out)


def _cmd_defect(cfg, args, seed):
    if not args.infile:
        raise ConfigError("defect requires --in <signal file>")
    x = io.read_signal(args.infile)
    op = sensing.make_partial_fourier(x.shape, cfg.subsample_prob, seed)
    params = defect.DefectParams(solution_bound=cfg.defect_bound)
    result = defect.sparsity_defect(x, op, cfg.recon_params.frame, params)
    lines = [
        f"rwkit-defect v2 config={config_hash(cfg)} master_seed={seed}",
        f"defect={_fmt(result.defect)}",
        f"final_l1={_fmt(result.final_l1)}",
    ]
    _write_text(args.out, lines)


def _cmd_certify(cfg, args, seed):
    for flag, value in (("--expected-defect", args.expected_defect), ("--epsilon", args.epsilon)):
        if value is not None:
            _real(value, f"{flag}:", gt=-math.inf, lt=math.inf)
            _real(value, f"{flag}:", ge=0)
    expected = args.expected_defect
    epsilon = cfg.epsilon_grid[0] if cfg.epsilon_grid else 0.0
    if args.epsilon is not None:
        epsilon = args.epsilon
    cert = certify.certify_probabilistic(
        cfg.rwp_prob, cfg.alpha, cfg.rho, cfg.tau, epsilon, expected
    )
    lines = _header(cfg, seed) + [
        f"radius={_fmt(cert.radius)}",
        f"probability={_fmt(cert.probability)}",
        f"gain={_fmt(cert.gain)}",
        f"vacuous={cert.vacuous}",
        f"alpha={_fmt(cfg.alpha)} rho={_fmt(cfg.rho)} tau={_fmt(cfg.tau)} "
        f"rwp_prob={_fmt(cfg.rwp_prob)} expected_defect={_fmt(expected)}",
    ]
    _write_text(args.out, lines)


# Most purified signal entries eval stacks into one block: the clean and
# probed rows of 32 samples at n=128.  Identity ISTA at n=128 costs least
# per row and iteration at 32 to 128 rows (best of 15 runs per size in
# three sessions on a shared 2-vCPU Xeon, with the FFTs calling pocketfft
# directly: 5.9-6.4 us at 8 rows, 3.4-3.7 us at 32, 3.3-3.7 us at 64,
# 3.1-4.6 us at 128, 3.5-5.0 us at 200, 4.5-5.1 us at 400), and peak
# memory grows with the block.
_BLOCK_ENTRIES = 8192


def _row_norms(d):
    # The Euclidean norm of each row of a finite 2D real array, bit-identical
    # to np.linalg.norm of the row: both sum the squares with one BLAS dot.
    # A row whose sum of squares overflows is recomputed as c * ||d / c||,
    # with c its largest modulus, which overflows only if the norm does.
    with np.errstate(over="ignore"):
        norms = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
        over = norms == np.inf
        if over.any():
            big = d[over]
            c = np.max(np.abs(big), axis=1, keepdims=True)
            norms[over] = c[:, 0] * np.sqrt(np.sum(np.square(big / c), axis=1))
    return norms


def _mean(v):
    # The mean of a finite 1D array as np.mean gives it, or, where its sum
    # overflows, c * mean(v / c), with c the largest modulus.
    with np.errstate(over="ignore"):
        mean = float(np.mean(v))
    if math.isinf(mean):
        c = float(np.max(np.abs(v)))
        mean = c * float(np.mean(v / c))
    return mean


def run_eval(cfg, seed):
    """Evaluate the defended pipeline over the config's epsilon grid.

    The (epsilon, sample) cells are walked in epsilon-major order, in blocks
    of at most ``_BLOCK_ENTRIES`` purified signal entries; a block may cross
    from one epsilon to the next.  Each block stacks the clean and the
    probed copy of its samples into one purification, labels every purified
    row in one array operation, and computes the defects of its samples in
    one batch.  Sample i at epsilon index e draws its mask and its probe from
    the streams :mod:`rwkit.sensing` names; the mask is shared by both copies
    and by the defect, and the probe is scaled to norm epsilon, so a cell at
    epsilon 0 draws its probe and scales it to zero.  The seed
    words of every stream are hashed in one batch before the walk, so
    Python does per cell only the building of two generators and their
    draws; the rest runs as array operations over the block, and every step
    is row-local, so the report is byte-identical across reruns and block
    sizes.

    Returns the report rows (list of dicts, one per epsilon), each reduced
    over its epsilon's cells.  The certificate columns are
    ``certify_probabilistic``'s at the row's epsilon and mean defect, and
    NaN only where its slack alpha*tau - 2*epsilon is not positive.
    """
    if not cfg.epsilon_grid:
        raise ConfigError("eval needs a non-empty epsilon_grid")
    params = cfg.recon_params
    frame = params.frame
    try:
        _check_levels(frame, (cfg.n,))
    except ShapeError as exc:
        raise ConfigError(f"levels: {exc}") from None
    dataset = _dataset(cfg, seed)
    clf = dataset.classifier
    signals = np.asarray(dataset.signals)
    labels = np.asarray(dataset.labels)
    grid = cfg.epsilon_grid
    grid_values = np.asarray(grid)
    count, n = signals.shape
    cells = len(grid) * count
    per_block = max(1, _BLOCK_ENTRIES // (2 * n))
    clean_ok = np.empty(cells, dtype=bool)
    defended_ok = np.empty(cells, dtype=bool)
    errors = np.empty(cells)
    l1 = np.empty(cells)
    # The seed words of every cell's mask stream (e, i, 0) and probe stream
    # (e, i, 1), hashed in one pass.
    e_all, i_all = np.divmod(np.arange(cells), count)
    kinds = np.repeat([0, 1], cells)
    mask_states, probe_states = sensing._states(
        seed, np.stack([np.tile(e_all, 2), np.tile(i_all, 2), kinds], axis=1)
    ).reshape(2, cells, 4)
    for start in range(0, cells, per_block):
        stop = min(start + per_block, cells)
        b = stop - start
        i_index = i_all[start:stop]
        mask = sensing._masks(mask_states[start:stop], (n,), cfg.subsample_prob)
        # Every probe is scaled to norm epsilon; at epsilon 0 its entries are
        # +-0.0, and adding them leaves the clean row's bits as they are.
        delta = np.empty((b, n))
        for row, words in zip(delta, probe_states[start:stop]):
            sensing._generator(words).standard_normal(out=row)
        delta *= (grid_values[e_all[start:stop]] / _row_norms(delta))[:, None]
        clean = signals[i_index]
        # Rows 0..b-1 are the clean copies, rows b..2b-1 the probed ones.
        xs = np.concatenate([clean, clean + delta])
        values = reconstruct._purify_block(xs, np.concatenate([mask, mask]), params)[0]
        # The purified rows of real inputs are reported as real signals.
        values = values.real
        predicted = classifier._label_margin(clf, values)[0]
        clean_ok[start:stop] = predicted[:b] == labels[i_index]
        defended_ok[start:stop] = predicted[b:] == labels[i_index]
        errors[start:stop] = _row_norms(values[b:] - clean)
        l1[start:stop] = defect._l1_batch(mask, clean, frame)
    rows = []
    for e, epsilon in enumerate(grid):
        ecells = slice(e * count, (e + 1) * count)
        mean_defect = float(np.mean(defect._excess(l1[ecells], cfg.defect_bound)))
        cert_prob = cert_gain = float("nan")
        try:
            cert = certify.certify_probabilistic(
                cfg.rwp_prob, cfg.alpha, cfg.rho, cfg.tau, epsilon, mean_defect
            )
            cert_prob, cert_gain = cert.probability, cert.gain
        except InfeasibleError:
            pass
        rows.append(
            {
                "epsilon": epsilon,
                "clean_accuracy": float(np.mean(clean_ok[ecells])),
                "defended_accuracy_under_probe": float(np.mean(defended_ok[ecells])),
                "mean_reconstruction_error": _mean(errors[ecells]),
                "mean_defect": mean_defect,
                "cert_probability": cert_prob,
                "cert_gain": cert_gain,
                "seed": seed,
            }
        )
    return rows


def _cmd_eval(cfg, args, seed):
    rows = run_eval(cfg, seed)
    lines = [f"rwkit-report v5 config={config_hash(cfg)} master_seed={seed}"]
    # The columns are run_eval's row keys, in the order it builds them.
    lines.append(",".join(rows[0]))
    lines.extend(",".join(map(_fmt, row.values())) for row in rows)
    _write_text(args.out or "report.csv", lines)


# Built once per process: argparse parses each argv into a fresh Namespace
# and no action here keeps state, so a reused parser reads every call alike.
@functools.lru_cache(maxsize=None)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rwkit",
        description="Compressed-sensing purification and robustness certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if name in ("purify", "defect"):
            p.add_argument("--in", dest="infile", default=None)
        if name == "certify":
            p.add_argument("--expected-defect", type=float, default=0.0)
            p.add_argument("--epsilon", type=float, default=None)
    return parser


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "purify": _cmd_purify,
    "defect": _cmd_defect,
    "certify": _cmd_certify,
    "eval": _cmd_eval,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            try:
                sensing.derived_seed(args.seed)
            except ParameterError as exc:
                raise ConfigError(f"--seed: {exc}") from None
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.master_seed
        _COMMANDS[args.command](cfg, args, seed)
    except (ConfigError, ParameterError, ShapeError, MemoryError) as exc:
        # Every value a command passes on comes from the config, a flag or
        # the input signal, so each of these is a fault of the input.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RwkitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
