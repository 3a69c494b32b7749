"""Command-line pipeline: presentations to certified spectral gaps.

stdout carries machine-readable JSON; solver progress goes to stderr.
Exit codes: 0 success, 1 domain failure (support too small, failed
verification, --require-gap without a positive gap), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from .certify import (
    Certificate,
    CertificateError,
    GapResult,
    certified_gap,
    floor_display,
    psd_sqrt,
    verify_certificate,
)
from .fox import Laplacian1, default_relator_indices, laplacian1
from .groups import (
    FreeModel,
    InconsistentModelError,
    MatrixModel,
    SupportBasis,
    ball,
    validate_model,
)
from .presets import PRESET_NAMES, load_preset
from .sdp import (
    SolveOptions,
    SupportTooSmallError,
    build_problem,
    solve,
    write_sdpa,
)
from .words import Presentation, parse_presentation


class CliError(Exception):
    pass


def _load_input(args) -> tuple:
    if args.preset:
        p, model = args.preset
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            p = parse_presentation(fh.read())
        model = None
    if args.model:
        kind, modulus = args.model
        if kind == "free":
            model = FreeModel(p.n_generators, sound=not p.relators)
        elif not isinstance(model, MatrixModel) or model.modulus is not None:
            name = "modular:<m>" if kind == "modular" else kind
            raise CliError(f"--model {name} needs a matrix preset without a modulus")
        elif kind == "modular":
            model = MatrixModel(model.images, modulus)
    if model is None:
        raise CliError(
            "presentation files need --model free; matrix models are preset-bound"
        )
    validate_model(p, model)
    return p, model


def _relator_indices(args, p: Presentation) -> List[int]:
    policy = getattr(args, "exclude_relator", None) or "default"
    if policy == "none":
        return list(range(len(p.relators)))
    if policy in ("default", "longest"):
        if policy == "longest" and len(p.relators) <= 1:
            raise CliError("cannot exclude the longest of fewer than two relators")
        return default_relator_indices(p)
    idx = p.relator_index(policy)
    return [k for k in range(len(p.relators)) if k != idx]


def _progress(it, lam, rp, rd):
    if it == 1 or it % 200 == 0:
        print(f"iter {it}: lambda={lam:.8f} primal={rp:.3e} dual={rd:.3e}", file=sys.stderr)


def _solve_opts(args) -> SolveOptions:
    return SolveOptions(
        tol_primal=args.tol,
        tol_dual=args.tol,
        max_iter=args.max_iter,
        progress=_progress,
    )


def _emit(data: dict, out: Optional[str] = None):
    blob = json.dumps(data, indent=2, sort_keys=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


def _check_writable(path: Optional[str]) -> None:
    """Raise OSError now, before a solve, if path cannot be opened for writing.

    Append mode truncates nothing; a file that the check creates is
    removed again, so a run that fails later leaves no empty file.
    """
    if path:
        existed = os.path.lexists(path)
        with open(path, "ab"):
            pass
        if not existed:
            os.remove(path)


def _write_export(problem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_sdpa(problem, fh)


def _build_stage(args):
    p, model = _load_input(args)
    indices = _relator_indices(args, p)
    lap = laplacian1(model, p, indices)
    basis = ball(model, args.radius)
    problem = build_problem(lap, basis)
    return p, model, lap, basis, problem


def cmd_show(args) -> int:
    p, model = _load_input(args)
    info = {
        "generators": list(p.generators),
        "relators": {
            label: p.word_str(rel) for label, rel in zip(p.labels, p.relators)
        },
        "model": model.spec(),
        "default_relator_subset": [
            p.labels[k] for k in default_relator_indices(p)
        ],
    }
    _emit(info)
    return 0


def cmd_ball(args) -> int:
    _, model = _load_input(args)
    basis = ball(model, args.radius)
    if args.json:
        _emit(basis.to_json(), args.out)
    else:
        for key in basis:
            print(json.dumps(model.key_to_json(key)))
    return 0


def cmd_laplacian(args) -> int:
    p, model = _load_input(args)
    indices = _relator_indices(args, p)
    lap = laplacian1(model, p, indices)
    _emit(lap.matrix.to_json(), args.out)
    return 0


def cmd_sdp(args) -> int:
    p, model, lap, basis, problem = _build_stage(args)
    if args.sdp_action == "build":
        _emit(
            {
                "n": problem.n,
                "basis_size": problem.m,
                "products": problem.npairs,
                "constraints": problem.constraint_count(),
            }
        )
        return 0
    if args.sdp_action == "export":
        if args.export:
            _write_export(problem, args.export)
            _emit({"written": args.export, "constraints": problem.constraint_count()})
        else:
            write_sdpa(problem, sys.stdout)
        return 0
    # solve; the output paths fail before it, not after
    _check_writable(args.out)
    if args.export:
        _write_export(problem, args.export)
    sol = solve(problem, _solve_opts(args))
    payload = {
        "lambda": sol.lam,
        "status": sol.status,
        "iterations": sol.iterations,
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
        "constraint_residual": sol.constraint_residual,
        "P": sol.P.tolist(),
    }
    _emit(payload, args.out)
    return 0


def _certify_from_solution(lap: Laplacian1, basis: SupportBasis, lam, P=None, Q=None) -> GapResult:
    if Q is None:
        Q = psd_sqrt(np.asarray(P, dtype=float))
    return certified_gap(lap, basis, np.asarray(Q, dtype=float), float(lam))


def _gap_summary(result: GapResult, cert_path: Optional[str]) -> dict:
    cert = result.certificate
    return {
        "lambda": float(cert.fields["solver_lambda"]) if cert else None,
        "lambda0": result.lambda0,
        "lambda0_display": floor_display(result.lambda0),
        "residual_l1_sup": result.residual_l1.hi,
        "status": result.status,
        "certificate": cert_path,
    }


def cmd_certify(args) -> int:
    p, model, lap, basis, problem = _build_stage(args)
    with open(args.solution, "r", encoding="utf-8") as fh:
        try:
            sol = json.load(fh)
        except RecursionError:
            raise CliError(f"solution {args.solution} is nested too deeply") from None
    if not isinstance(sol, dict) or "lambda" not in sol:
        raise CliError(f"solution {args.solution} has no 'lambda' field")
    result = _certify_from_solution(
        lap, basis, sol["lambda"], P=sol.get("P"), Q=sol.get("Q")
    )
    if result.certificate and args.out:
        result.certificate.save(args.out)
    _emit(_gap_summary(result, args.out))
    if args.require_gap and result.lambda0 <= 0:
        print("no positive gap certified", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    cert = Certificate.load(args.certificate)
    result = verify_certificate(cert)
    _emit(
        {
            "passed": result.passed,
            "stored_lambda0": result.stored_lambda0,
            "reverified_lambda0": result.lambda0,
            "message": result.message,
        }
    )
    return 0 if result.passed else 1


def cmd_pipeline(args) -> int:
    p, model, lap, basis, problem = _build_stage(args)
    if args.export:
        _write_export(problem, args.export)
    cert_path = args.out or "certificate.json"
    _check_writable(cert_path)
    sol = solve(problem, _solve_opts(args))
    result = _certify_from_solution(lap, basis, sol.lam, P=sol.P)
    result.certificate.save(cert_path)
    check = verify_certificate(Certificate.load(cert_path))
    summary = _gap_summary(result, cert_path)
    summary.update(
        {
            "solver_status": sol.status,
            "solver_iterations": sol.iterations,
            "verified": check.passed,
        }
    )
    _emit(summary)
    if not check.passed:
        print("self-verification failed", file=sys.stderr)
        return 1
    if args.require_gap and result.lambda0 <= 0:
        print("no positive gap certified", file=sys.stderr)
        return 1
    return 0


def _add_input_opts(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", type=_preset, help="builtin preset: " + ", ".join(PRESET_NAMES))
    source.add_argument("--file", help="presentation file path")
    sub.add_argument("--model", type=_model_choice, help="model: matrix | modular:<m> | free")


def _add_stage_opts(sub):
    sub.add_argument("--radius", type=_radius, required=True, help="support ball radius")
    sub.add_argument(
        "--exclude-relator",
        help="relator subset policy: longest | none | <label> (default: longest "
        "when the presentation has more than one relator)",
    )


def _number(kind, text: str, expected: str):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _number(int, text, "an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _radius(text: str) -> int:
    value = _number(int, text, "an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = _number(float, text, "a number")
    if not 0.0 < value < math.inf:  # no residual is ever <= nan or <= a negative
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


def _preset(text: str):
    try:
        return load_preset(text)
    except (KeyError, ValueError) as exc:  # str() of a KeyError quotes its message
        presets = ", ".join(PRESET_NAMES)
        raise argparse.ArgumentTypeError(f"{exc.args[0]} (presets: {presets})") from None


def _model_choice(text: str):
    """(kind, modulus) of a --model value; the modulus is None unless kind is modular."""
    kind, colon, arg = text.partition(":")
    if kind == "modular":
        modulus = _number(int, arg, "an integer modulus")
        if modulus < 2:
            raise argparse.ArgumentTypeError(f"modulus must be at least 2, got {modulus}")
        return kind, modulus
    if kind in ("matrix", "free") and not colon:
        return kind, None
    raise argparse.ArgumentTypeError(f"expected matrix, modular:<m> or free, got {text!r}")


def _add_solver_opts(sub):
    sub.add_argument("--tol", type=_tolerance, default=1e-8, help="solver residual tolerance")
    sub.add_argument("--max-iter", type=_positive_int, default=20000)
    sub.add_argument("--export", help="also write the SDPA problem file here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gapcert",
        description="certified spectral-gap bounds for degree-1 group Laplacians",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("show", help="print a presentation and its model")
    _add_input_opts(s)
    s.set_defaults(func=cmd_show)

    s = subs.add_parser("ball", help="enumerate a metric ball")
    _add_input_opts(s)
    s.add_argument("--radius", type=_radius, required=True)
    s.add_argument("--json", action="store_true", help="emit the basis as JSON")
    s.add_argument("--out")
    s.set_defaults(func=cmd_ball)

    s = subs.add_parser("laplacian", help="emit the Laplacian as ring-matrix JSON")
    _add_input_opts(s)
    s.add_argument(
        "--exclude-relator",
        help="longest | none | <label>",
    )
    s.add_argument("--out")
    s.set_defaults(func=cmd_laplacian)

    s = subs.add_parser("sdp", help="build, export, or solve the SDP")
    s.add_argument("sdp_action", choices=("build", "export", "solve"))
    _add_input_opts(s)
    _add_stage_opts(s)
    _add_solver_opts(s)
    s.add_argument("--out", help="solution JSON path (solve)")
    s.set_defaults(func=cmd_sdp)

    s = subs.add_parser("certify", help="certify an externally produced (P, lambda)")
    _add_input_opts(s)
    _add_stage_opts(s)
    s.add_argument("--solution", required=True, help="JSON with lambda and P (or Q)")
    s.add_argument("--out", help="certificate path")
    s.add_argument("--require-gap", action="store_true")
    s.set_defaults(func=cmd_certify)

    s = subs.add_parser("verify", help="re-verify a certificate file")
    s.add_argument("certificate")
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("pipeline", help="end-to-end: build, solve, certify, verify")
    _add_input_opts(s)
    _add_stage_opts(s)
    _add_solver_opts(s)
    s.add_argument("--out", help="certificate path (default certificate.json)")
    s.add_argument("--require-gap", action="store_true")
    s.set_defaults(func=cmd_pipeline)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, so it must be caught first
        # the reader closed stdout early; point it at devnull so that the
        # flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (
        CliError,
        CertificateError,
        SupportTooSmallError,
        InconsistentModelError,
        OSError,
        KeyError,
        ValueError,
    ) as exc:
        # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
