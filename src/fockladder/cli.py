"""Command-line front end.

Every library operation is reachable from exactly one subcommand. Output
is JSON (floats with 17 significant digits); params, grid, dmat (export),
entropy and suite also print CSV with --format csv.
Only conjecture takes --seed. Exit status: 0 on success, 1 when a
verification fails (e.g. a majorization violation), 2 on usage or domain
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import entropy as entropy_mod
from .channel import abgx, make_channel, noise_limit_params, validate_params
from .errors import DomainError, NormalizationError, TruncationError, WitnessError, require
from .experiments import (conjecture_scan, ladder_verify, mixture_shift_check,
                          mixture_vs_lowest_fock, DEFAULT_SEED)
from .majorization import (DEFAULT_TOL, FockDiagonalState, apply_D_power, build_D,
                           check_column_stochastic, fock_compare,
                           majorize_compare)
from .suite import CRITERIA
from .transition import (DEFAULT_TAIL_TOL, analytic_special, grid_recurrence,
                         row_multinomial, row_series)


def _emit_json(obj) -> str:
    """json.dumps with floats at 17 significant digits."""

    def walk(x):
        if isinstance(x, dict):
            return "{" + ",".join(f"{json.dumps(str(k))}:{walk(v)}"
                                  for k, v in x.items()) + "}"
        if isinstance(x, (list, tuple, np.ndarray)):
            return "[" + ",".join(walk(v) for v in x) + "]"
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (np.floating, float)):
            return f"{float(x):.17g}" if math.isfinite(x) else json.dumps(str(float(x)))
        if isinstance(x, (np.integer, int)):
            return str(int(x))
        if x is None:
            return "null"
        return json.dumps(x)

    return walk(obj) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    if not os.path.isabs(out):
        out = os.path.join(os.environ.get("FOCKLADDER_OUT_DIR", "."), out)
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        require(False, "out", out, f"a writable file path ({exc.strerror})")


def _add_channel_flags(sub) -> None:
    sub.add_argument("--family", required=True,
                     help="lossy | amp | noise | conj")
    sub.add_argument("--eta", type=float, help="transmittance (lossy)")
    sub.add_argument("--g", type=float, help="gain (amp/conj)")
    sub.add_argument("--N", type=float, help="environment mean photon number")
    sub.add_argument("--n", type=float, help="added noise photons (noise)")


def _add_io_flags(sub, csv: bool) -> None:
    if csv:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def _spec_from_args(args):
    return make_channel(args.family, eta=args.eta, g=args.g, thermal_N=args.N,
                        added_n=args.n)


def _parse(name: str, text: str, parse, requirement: str):
    """parse(text), or DomainError naming the argument when it cannot be parsed."""
    try:
        return parse(text)
    except ValueError:
        require(False, name, text, requirement)


def _read_stdin_object(*keys: str) -> dict:
    """The JSON object on stdin, which must hold the given keys; DomainError
    for any other input."""
    try:
        payload = json.loads(sys.stdin.read())
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        require(False, "stdin", exc, "a JSON object")
    require(isinstance(payload, dict) and all(key in payload for key in keys), "stdin",
            payload, f"a JSON object with the keys {list(keys)}")
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockladder",
        description="Photon-number transition statistics and majorization "
                    "structure of bosonic Gaussian channels.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("params", help="channel parameter four-tuple and checks")
    _add_channel_flags(p)
    _add_io_flags(p, csv=True)

    p = subs.add_parser("grid", help="output distributions for Fock inputs")
    _add_channel_flags(p)
    p.add_argument("--imax", type=int, default=10)
    p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    p.add_argument("--nmax", type=int, help="fixed cutoff (skips adaptation)")
    p.add_argument("--oracle", choices=("recurrence", "multinomial", "series",
                                        "special"), default="recurrence")
    p.add_argument("--row", type=int, help="row index for single-row oracles")
    _add_io_flags(p, csv=True)

    p = subs.add_parser("dmat", help="ladder matrix export / checks / application")
    _add_channel_flags(p)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--check", action="store_true",
                   help="column-stochasticity report")
    p.add_argument("--power", type=int,
                   help="apply this matrix power to a JSON vector from stdin")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_io_flags(p, csv=True)

    p = subs.add_parser("majorize", help="compare two distributions from stdin")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--unordered", action="store_true",
                   help="prefix sums in Fock order (no sorting)")
    _add_io_flags(p, csv=False)

    p = subs.add_parser("ladder", help="verify the output majorization ladder")
    _add_channel_flags(p)
    p.add_argument("--imax", type=int, default=30)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    _add_io_flags(p, csv=False)

    p = subs.add_parser("entropy", help="entropy chain over Fock inputs")
    _add_channel_flags(p)
    p.add_argument("--imax", type=int, default=30)
    p.add_argument("--order", default="shannon",
                   help="'shannon', a nonnegative float, or 'inf'")
    p.add_argument("--bits", action="store_true", help="report in bits, not nats")
    p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    _add_io_flags(p, csv=True)

    p = subs.add_parser("mixture", help="mixture dominance checks")
    _add_channel_flags(p)
    p.add_argument("--weights", required=True, help="comma-separated mixture weights")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mode", choices=("shift", "lowest"), default="shift")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_io_flags(p, csv=False)

    p = subs.add_parser("conjecture", help="passive-path scan over binary patterns")
    _add_channel_flags(p)
    p.add_argument("--length", type=int, default=6)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--nonbinary", type=int, default=0,
                   help="also sample this many non-binary patterns (reported only)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the non-binary samples")
    _add_io_flags(p, csv=False)

    p = subs.add_parser("limit", help="added-noise row via a weak-coupling limit")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--route", choices=("loss", "amp"), required=True)
    _add_io_flags(p, csv=False)

    p = subs.add_parser("suite", help="run the full acceptance battery")
    _add_io_flags(p, csv=True)
    return parser


def _cmd_params(args) -> int:
    spec = _spec_from_args(args)
    params = abgx(spec)
    report = validate_params(params, spec=spec)
    payload = {"channel": spec.to_json_dict(), **params.to_json_dict(),
               "valid": report.ok, "notes": list(report.notes)}
    if args.format == "csv":
        keys = ("alpha", "beta", "gamma", "chi", "nu")
        text = ",".join(keys) + "\n" + ",".join(
            f"{getattr(params, k):.17g}" for k in keys) + "\n"
    else:
        text = _emit_json(payload)
    _write(text, args.out)
    return 0 if report.ok else 1


def _cmd_grid(args) -> int:
    spec = _spec_from_args(args)
    params = abgx(spec)
    if args.oracle != "recurrence":
        require(args.row is not None and args.nmax is not None, "row/nmax", None,
                "single-row oracles need --row and --nmax")
        if args.oracle == "multinomial":
            row = row_multinomial(params, args.row, args.nmax)
        elif args.oracle == "series":
            row = row_series(params, args.row, args.nmax)
        else:
            row = analytic_special(spec, args.row, args.nmax)
        if row is None:
            note = "no closed-form law applies"
            if args.format == "csv":
                print(f"note: {note}", file=sys.stderr)
                _write("", args.out)
            else:
                _write(_emit_json({"row": None, "note": note}), args.out)
            return 0
        if args.format == "csv":
            _write(",".join(f"{v:.17g}" for v in row) + "\n", args.out)
        else:
            _write(_emit_json({"row": list(row)}), args.out)
        return 0
    grid = grid_recurrence(params, args.imax, args.tail_tol, n_max=args.nmax)
    text = grid.to_csv() if args.format == "csv" else _emit_json(grid.to_json_dict())
    _write(text, args.out)
    return 0


def _cmd_dmat(args) -> int:
    spec = _spec_from_args(args)
    D = build_D(abgx(spec), args.dim)
    require(args.format == "json" or (args.power is None and not args.check), "format",
            args.format, "json: --check and --power print JSON only")
    if args.power is not None:
        payload = _read_stdin_object("v")
        state = FockDiagonalState.from_weights(payload["v"],
                                               payload.get("tail", 0.0))
        out = apply_D_power(D.params, args.power, state, out_len=args.dim)
        _write(_emit_json({"weights": list(out.weights), "tail": out.tail}),
               args.out)
        return 0
    if args.check:
        report = check_column_stochastic(D, args.tol)
        _write(_emit_json(report.to_json_dict()), args.out)
        return 0 if report.ok else 1
    text = D.to_csv() if args.format == "csv" else _emit_json(D.to_json_dict())
    _write(text, args.out)
    return 0


def _cmd_majorize(args) -> int:
    payload = _read_stdin_object("p", "q")
    p = FockDiagonalState.from_weights(payload["p"], payload.get("p_tail", 0.0))
    q = FockDiagonalState.from_weights(payload["q"], payload.get("q_tail", 0.0))
    compare = fock_compare if args.unordered else majorize_compare
    verdict = compare(p, q, args.tol)
    _write(_emit_json(verdict.to_json_dict()), args.out)
    return 0


def _cmd_ladder(args) -> int:
    report = ladder_verify(_spec_from_args(args), args.imax, args.tol,
                           args.tail_tol)
    _write(_emit_json(report.to_json_dict()), args.out)
    return 0 if report.passed else 1


def _cmd_entropy(args) -> int:
    order = None if args.order == "shannon" else _parse(
        "order", args.order, float, "'shannon', a number >= 0 or 'inf'")
    entropy_mod.check_order(order)
    grid = grid_recurrence(abgx(_spec_from_args(args)), args.imax, args.tail_tol)
    report = entropy_mod.chain_check(grid, order)
    if args.bits:
        scale = 1.0 / math.log(2.0)
        report = dataclasses.replace(report, values=report.values * scale,
                                     worst_violation=report.worst_violation * scale)
    if args.format == "csv":
        text = report.to_csv()
    else:
        payload = report.to_json_dict()
        payload["units"] = "bits" if args.bits else "nats"
        text = _emit_json(payload)
    _write(text, args.out)
    return 0 if report.monotone else 1


def _cmd_mixture(args) -> int:
    spec = _spec_from_args(args)
    weights = _parse("weights", args.weights,
                     lambda text: [float(t) for t in text.split(",")], "comma-separated numbers")
    check = mixture_shift_check if args.mode == "shift" else mixture_vs_lowest_fock
    verdict = check(spec, weights, args.k, args.tol)
    payload = {"channel": spec.to_json_dict(), "mode": args.mode, "k": args.k,
               **verdict.to_json_dict(), "expected": verdict.holds_left}
    _write(_emit_json(payload), args.out)
    return 0 if verdict.holds_left else 1


def _cmd_conjecture(args) -> int:
    report = conjecture_scan(_spec_from_args(args), args.length, args.tol,
                             nonbinary_samples=args.nonbinary, seed=args.seed)
    _write(_emit_json(report.to_json_dict()), args.out)
    return 0 if report.passed else 1


def _cmd_limit(args) -> int:
    approx = noise_limit_params(args.n, args.eps, args.route)
    target = abgx(make_channel("noise", added_n=args.n))
    err = max(abs(getattr(approx, k) - getattr(target, k))
              for k in ("alpha", "beta", "gamma", "chi", "nu"))
    _write(_emit_json({"route": args.route, "eps": args.eps,
                       "params": approx.to_json_dict(),
                       "target": target.to_json_dict(),
                       "max_error": err}), args.out)
    return 0


def _cmd_suite(args) -> int:
    results = []
    for criterion in CRITERIA:
        result = criterion()
        print(result.line(), file=sys.stderr, flush=True)
        results.append(result)
    if args.format == "json":
        payload = [{"key": r.key, "description": r.description, "pass": r.passed,
                    "detail": r.detail, "seconds": r.seconds} for r in results]
        _write(_emit_json(payload), args.out)
    else:
        lines = ["key,pass,seconds,description"]
        lines += [f"{r.key},{int(r.passed)},{r.seconds:.3f},\"{r.description}\""
                  for r in results]
        _write("\n".join(lines) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


_DISPATCH = {
    "params": _cmd_params,
    "grid": _cmd_grid,
    "dmat": _cmd_dmat,
    "majorize": _cmd_majorize,
    "ladder": _cmd_ladder,
    "entropy": _cmd_entropy,
    "mixture": _cmd_mixture,
    "conjecture": _cmd_conjecture,
    "limit": _cmd_limit,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (DomainError, NormalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, WitnessError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
