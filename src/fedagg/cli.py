"""Command-line interface: optimize / sweep-distortion / fl-train / verify.

Exit codes: 0 success, 2 usage, 3 malformed config, 4 numeric failure.
All result rows are deterministic given the config and seed; the only
non-reproducible output line is the timestamp header in CSV files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, flharness, mm_general, mm_symmetric, simulate
from .errors import SolverError
from .model import (
    GaussianSourceModel,
    MbtcParams,
    RateBudget,
    SymmetricSourceModel,
    load_model,
)
from .region import constraint_report, distortion, single_source_rd, sum_mutual_info

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _out_path(path, default_name):
    if path:
        return path
    outdir = os.environ.get("FEDAGG_OUTDIR", ".")
    return os.path.join(outdir, default_name)


def _write_outputs(out, header, rows, config, seed=None, csv_suffix=None):
    """Write rows as CSV to out, or to its stem + csv_suffix, then <stem>_meta.json."""
    stem = os.path.splitext(out)[0]
    with open(stem + csv_suffix if csv_suffix else out, "w", newline="") as fh:
        fh.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    doc = {
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "seed": seed,
        "version": __version__,
        "config": config,
    }
    with open(stem + "_meta.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _positive_int(text) -> int:
    """argparse type of a count: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _parse_rates(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _per_device_values(text, M, flag, shared=False) -> np.ndarray:
    """A comma list of M per-device values; with shared, one value serves all."""
    values = _parse_rates(text)
    if shared and len(values) == 1:
        values = values * M
    if len(values) != M:
        raise ValueError(f"{flag} needs {M} comma-separated values, got {len(values)}")
    return np.asarray(values)


def _load_model(args):
    """--model with its --budget and --lam: (model, budget, None) for a general
    model, (model, None, lam) for a symmetric one (its groups set the rates;
    lam defaults to 1)."""
    with open(args.model) as fh:
        model = load_model(fh.read())
    if isinstance(model, SymmetricSourceModel):
        if args.budget is not None:
            raise ValueError("--budget does not apply to a symmetric model's group rates")
        return model, None, 1.0 if args.lam is None else args.lam
    if args.lam is not None:
        raise ValueError("--lam does not apply to a general model")
    if args.budget is None:
        raise ValueError("--budget is required for a general model")
    return model, RateBudget(_per_device_values(args.budget, model.M, "--budget")), None


def cmd_optimize(args) -> int:
    model, budget, lam = _load_model(args)
    if budget is None:
        res = mm_symmetric.optimize_symmetric(model, lam, eps=args.eps, max_iter=args.max_iter)
        trace = res.objective_trace
    else:
        res = mm_general.optimize(model, budget, eps=args.eps, max_iter=args.max_iter)
        trace = res.trace
    out_json = _out_path(args.out, "optimize.json")
    payload = {
        "q_star": [float(v) for v in res.q.q],
        "D_star": res.distortion,
        "iterations": res.iterations,
        "trace": [float(v) for v in trace],
    }
    with open(out_json, "w") as fh:
        json.dump(payload, fh, indent=2)
    _write_outputs(
        out_json,
        ["iteration", "objective"],
        [(i, float(v)) for i, v in enumerate(trace)],
        {"command": "optimize", "model": args.model, "budget": args.budget,
         "lambda": lam, "eps": args.eps, "max_iter": args.max_iter},
        csv_suffix="_trace.csv",
    )
    print(json.dumps(payload))
    return 0


def cmd_sweep(args) -> int:
    rows = simulate.sweep_distortion(
        rhos=args.rho,
        rates=_parse_rates(args.rates),
        M=args.M,
        N=args.N,
        seed=args.seed,
        schemes=args.schemes.split(","),
    )
    _write_outputs(
        _out_path(args.out, "sweep.csv"),
        ["scheme", "rho", "rate_bits [bits/symbol]", "charged_bits [bits/symbol]",
         "distortion [squared error per symbol]", "seed"],
        rows,
        {"command": "sweep-distortion", "rho": args.rho, "rates": args.rates,
         "M": args.M, "N": args.N, "schemes": args.schemes,
         "rate_accounting": "fixed-width codes; surrogate rates are analytic MI values"},
        args.seed,
    )
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return 0


def _make_aggregator(spec_text, budget_rates, M):
    if spec_text == "error-free":
        return simulate.error_free_aggregator()
    if spec_text.startswith("qsgd:"):
        return simulate.qsgd_aggregator(int(spec_text.split(":", 1)[1]))
    if spec_text.startswith("uniform:"):
        return simulate.uniform_aggregator(int(spec_text.split(":", 1)[1]))
    if spec_text == "mbtc":
        if budget_rates is None:
            raise ValueError("--budget is required for the mbtc aggregator")
        return simulate.mbtc_aggregator(
            RateBudget(_per_device_values(budget_rates, M, "--budget", shared=True))
        )
    raise ValueError(f"unknown aggregator {spec_text!r}")


def cmd_fl_train(args) -> int:
    task = flharness.random_task(
        args.devices, args.dim, args.samples_per_device, args.seed
    )
    aggregator = _make_aggregator(args.aggregator, args.budget, args.devices)
    trace = flharness.run_training(task, aggregator, args.rounds, seed=args.seed)
    rows = []
    for t in range(args.rounds):
        report = trace.rate_reports[t]
        rate_max = float(np.max(report)) if np.all(np.isfinite(report)) else math.inf
        rows.append(
            (
                t,
                float(trace.loss_gap[t + 1]),
                float(trace.error_energy[t]),
                float(trace.bound_value[t + 1]),
                rate_max,
            )
        )
    _write_outputs(
        _out_path(args.out, "fl_train.csv"),
        ["round", "loss_gap [loss units]", "error_energy [squared error per symbol]",
         "bound_value [loss units]", "rate_max [bits/symbol]"],
        rows,
        {"command": "fl-train", "devices": args.devices, "dim": args.dim,
         "samples_per_device": args.samples_per_device, "rounds": args.rounds,
         "aggregator": args.aggregator, "budget": args.budget},
        args.seed,
    )
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return 0


def _builtin_verify() -> int:
    checks = []
    for rate in (0.5, 1.0, 2.0):
        q_star, d_star = single_source_rd(1.0, rate)
        model = GaussianSourceModel(sigma_x=np.array([[1.0]]), c=np.array([1.0]))
        ok_d = abs(distortion(model, MbtcParams([q_star])) - d_star) < 1e-12
        ok_r = abs(sum_mutual_info(model, MbtcParams([q_star])) - rate) < 1e-9
        checks.append((f"single-source R={rate}: distortion matches 2^-2R", ok_d))
        checks.append((f"single-source R={rate}: rate constraint tight", ok_r))
    model = GaussianSourceModel(sigma_x=np.array([[1.0]]), c=np.array([1.0]))
    res = mm_general.optimize(model, RateBudget(np.array([1.0])))
    checks.append(("optimizer recovers D = 0.25 at R = 1", abs(res.distortion - 0.25) < 1e-4))
    sym = SymmetricSourceModel(rho=0.0, sigma2=1.0, groups=((1, 1.0),))
    res_s = mm_symmetric.optimize_symmetric(sym, 1.0)
    checks.append(
        ("symmetric optimizer recovers D = 0.25 at R = 1", abs(res_s.distortion - 0.25) < 1e-4)
    )
    failed = False
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed |= not ok
    return EXIT_NUMERIC if failed else 0


def cmd_verify(args) -> int:
    if args.model is None:
        return _builtin_verify()
    model, budget, lam = _load_model(args)
    if budget is None:
        model, budget = model.expand(lam)
    if args.q is None:
        raise ValueError("--q is required with --model")
    q = MbtcParams(_per_device_values(args.q, model.M, "--q"))
    rows = constraint_report(model, q, budget)
    print("subset_mask,required_bits,budget_bits,slack")
    for mask, req, have, slack in rows:
        print(f"{mask},{_fmt(req)},{_fmt(have)},{_fmt(slack)}")
    if args.out:
        _write_outputs(
            args.out,
            ["subset_mask", "required_bits [bits/symbol]", "budget_bits [bits/symbol]",
             "slack [bits/symbol]"],
            rows,
            {"command": "verify", "model": args.model, "budget": args.budget,
             "q": args.q, "lambda": lam},
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedagg")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run an MM optimizer on a model JSON")
    p_opt.add_argument("--model", required=True)
    p_opt.add_argument("--budget", help="comma list of per-device rates (bits/symbol)")
    p_opt.add_argument("--lam", type=float, help="symmetric models only (default 1)")
    p_opt.add_argument("--eps", type=float, default=1e-6)
    p_opt.add_argument("--max-iter", type=_positive_int, default=200)
    p_opt.add_argument("--out")
    p_opt.set_defaults(fn=cmd_optimize)

    p_sweep = sub.add_parser("sweep-distortion", help="distortion-vs-rate sweep")
    p_sweep.add_argument("--rho", type=float, action="append", required=True)
    p_sweep.add_argument("--rates", required=True, help="comma list, bits/symbol")
    p_sweep.add_argument("--M", type=_positive_int, default=10)
    p_sweep.add_argument("--N", type=_positive_int, default=2**17)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--schemes", default="mbtc,qsgd,uniform")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_fl = sub.add_parser("fl-train", help="quadratic FL run with a chosen aggregator")
    p_fl.add_argument("--devices", type=_positive_int, required=True)
    p_fl.add_argument("--dim", type=_positive_int, required=True)
    p_fl.add_argument("--samples-per-device", type=_positive_int, default=32)
    p_fl.add_argument("--rounds", type=_positive_int, required=True)
    p_fl.add_argument("--aggregator", required=True)
    p_fl.add_argument("--budget")
    p_fl.add_argument("--seed", type=int, required=True)
    p_fl.add_argument("--out")
    p_fl.set_defaults(fn=cmd_fl_train)

    p_ver = sub.add_parser("verify", help="built-in checks, or constraint slacks for a model")
    p_ver.add_argument("--model")
    p_ver.add_argument("--q", help="comma list of MBTC parameters")
    p_ver.add_argument("--budget")
    p_ver.add_argument("--lam", type=float, help="symmetric models only (default 1)")
    p_ver.add_argument("--out")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (json.JSONDecodeError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
