"""Command-line interface.

    rwkit <gen-data|purify|defect|certify|eval> --config <path> [--seed N] [--out <path>]

Exit codes: 0 success, 2 configuration error, 3 numeric failure.  Eval
reports are byte-identical across reruns and batch sizes because every
sample uses a seed derived from (master seed, epsilon index, sample index).
"""

import argparse
import sys

import numpy as np

from . import certify, data, defect, io, reconstruct, sensing
from .classifier import predict
from .config import config_hash, load_config
from .errors import ConfigError, InfeasibleError, NumericError, ParameterError, RwkitError
from .frames import Frame

__all__ = ["main", "run_eval"]


def _fmt(v):
    return f"{v:.17g}"


def _frame(cfg):
    return Frame(kind=cfg.frame, levels=cfg.levels)


def _recon_params(cfg):
    return reconstruct.ReconstructionParams(
        iterations=cfg.iterations,
        threshold=cfg.threshold,
        subsample_prob=cfg.subsample_prob,
        frame=_frame(cfg),
    )


def _header(cfg, seed):
    return [f"rwkit v1 config={config_hash(cfg)} master_seed={seed}"]


def _cmd_gen_data(cfg, args):
    seed = args.seed if args.seed is not None else cfg.master_seed
    dataset = data.gen_data(
        cfg.n,
        cfg.count,
        cfg.sparsity,
        seed,
        margin_floor=cfg.margin_floor,
        weights_seed=cfg.weights_seed,
    )
    out = args.out or "dataset.csv"
    comments = _header(cfg, seed) + [
        f"n={cfg.n} count={cfg.count} k={cfg.sparsity}"
    ]
    data.write_dataset(out, dataset, comments=comments)
    print(out)


def _cmd_purify(cfg, args):
    if not args.infile:
        raise ConfigError("purify requires --in <signal file>")
    seed = args.seed if args.seed is not None else cfg.master_seed
    x = io.read_signal(args.infile)
    x = x.real if np.all(x.imag == 0) else x
    result = reconstruct.purify(x, _recon_params(cfg), seed)
    out = args.out or "purified.csv"
    io.write_signal(
        out,
        result.value,
        comments=_header(cfg, seed)
        + [
            f"operator_seed={result.operator_seed}",
            f"iterations_run={result.iterations_run}",
            f"final_coefficient_l1={_fmt(result.final_coefficient_l1)}",
            f"imag_residual={_fmt(result.imag_residual)}",
        ],
    )
    print(out)


def _cmd_defect(cfg, args):
    if not args.infile:
        raise ConfigError("defect requires --in <signal file>")
    seed = args.seed if args.seed is not None else cfg.master_seed
    x = io.read_signal(args.infile)
    op = sensing.make_partial_fourier(x.shape, cfg.subsample_prob, seed)
    params = defect.DefectParams(solution_bound=cfg.defect_bound)
    result = defect.sparsity_defect(x, op, _frame(cfg), params)
    lines = [
        f"rwkit-defect v2 config={config_hash(cfg)} master_seed={seed}",
        f"defect={_fmt(result.defect)}",
        f"final_l1={_fmt(result.final_l1)}",
    ]
    text = "\n".join(f"# {lines[0]}" if i == 0 else l for i, l in enumerate(lines)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(args.out)
    else:
        sys.stdout.write(text)


def _cmd_certify(cfg, args):
    seed = args.seed if args.seed is not None else cfg.master_seed
    expected = args.expected_defect
    if expected is None:
        expected = 0.0
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
    text = "\n".join(f"# {lines[0]}" if i == 0 else l for i, l in enumerate(lines)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(args.out)
    else:
        sys.stdout.write(text)


def _probe(x, epsilon, probe_seed):
    # A random perturbation of norm epsilon, seeded per sample.
    if epsilon == 0:
        return x
    rng = np.random.default_rng(probe_seed)
    delta = rng.standard_normal(x.shape)
    delta *= epsilon / np.linalg.norm(delta)
    return x + delta


def run_eval(cfg, seed):
    """Evaluate the defended pipeline over the config's epsilon grid.

    For each epsilon, the clean and the probed copy of every sample are
    purified together in one batch, and the defects of all samples are
    computed in another.  Sample i at epsilon index e uses the operator and
    probe drawn from (seed, e, i), shared by both copies and by its defect,
    so the report does not depend on the batch size.

    Returns the report rows (list of dicts, one per epsilon).
    """
    if not cfg.epsilon_grid:
        raise ConfigError("eval needs a non-empty epsilon_grid")
    dataset = data.gen_data(
        cfg.n,
        cfg.count,
        cfg.sparsity,
        seed,
        margin_floor=cfg.margin_floor,
        weights_seed=cfg.weights_seed,
    )
    clf = dataset.classifier
    signals = dataset.signals
    params = _recon_params(cfg)
    frame = _frame(cfg)
    xs = np.asarray(signals, dtype=np.complex128)
    rows = []
    for eps_index, epsilon in enumerate(cfg.epsilon_grid):
        ops, probed = [], []
        for i, x in enumerate(signals):
            purify_seed, probe_seed = sensing.derived_seed(seed, eps_index, i).spawn(2)
            ops.append(sensing.make_partial_fourier(x.shape, cfg.subsample_prob, purify_seed))
            probed.append(_probe(x, epsilon, probe_seed))
        purified = reconstruct.purify_many(list(signals) + probed, params, ops + ops)
        clean, attacked = purified[: len(signals)], purified[len(signals) :]
        clean_ok = [predict(clf, p.value) == y for p, y in zip(clean, dataset.labels)]
        defended_ok = [predict(clf, p.value) == y for p, y in zip(attacked, dataset.labels)]
        errors = [float(np.linalg.norm(p.value - x)) for p, x in zip(attacked, signals)]
        l1 = defect._l1_batch(np.stack([op.mask for op in ops]), xs, frame)
        mean_defect = float(np.mean(defect._excess(l1, cfg.defect_bound)))
        cert_radius = cert_prob = cert_gain = float("nan")
        try:
            cert = certify.certify_probabilistic(
                cfg.rwp_prob, cfg.alpha, cfg.rho, cfg.tau, epsilon, mean_defect
            )
            cert_radius, cert_prob, cert_gain = cert.radius, cert.probability, cert.gain
        except (InfeasibleError, ParameterError):
            pass
        rows.append(
            {
                "epsilon": epsilon,
                "clean_accuracy": float(np.mean(clean_ok)),
                "defended_accuracy_under_probe": float(np.mean(defended_ok)),
                "mean_reconstruction_error": float(np.mean(errors)),
                "mean_defect": mean_defect,
                "cert_radius": cert_radius,
                "cert_probability": cert_prob,
                "cert_gain": cert_gain,
                "seed": seed,
            }
        )
    return rows


_REPORT_COLUMNS = [
    "epsilon",
    "clean_accuracy",
    "defended_accuracy_under_probe",
    "mean_reconstruction_error",
    "mean_defect",
    "cert_radius",
    "cert_probability",
    "cert_gain",
    "seed",
]


def _cmd_eval(cfg, args):
    seed = args.seed if args.seed is not None else cfg.master_seed
    rows = run_eval(cfg, seed)
    out = args.out or "report.csv"
    lines = [f"# rwkit-report v2 config={config_hash(cfg)} master_seed={seed}"]
    lines.append(",".join(_REPORT_COLUMNS))
    for row in rows:
        lines.append(
            ",".join(
                _fmt(row[c]) if isinstance(row[c], float) else str(row[c])
                for c in _REPORT_COLUMNS
            )
        )
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(out)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rwkit",
        description="Compressed-sensing purification and robustness certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "purify", "defect", "certify", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if name in ("purify", "defect"):
            p.add_argument("--in", dest="infile", default=None)
        if name == "certify":
            p.add_argument("--expected-defect", type=float, default=None)
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
        cfg = load_config(args.config)
        _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, InfeasibleError, ParameterError, RwkitError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
