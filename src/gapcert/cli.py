"""Command-line pipeline: presentations to certified spectral gaps.

stdout carries machine-readable JSON; solver progress goes to stderr.
Exit codes: 0 success, 1 domain failure (support too small, failed
verification, --require-gap without a positive gap), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
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
    export_sdpa,
    solve,
)
from .words import Presentation, parse_presentation


class CliError(Exception):
    pass


def _load_input(args) -> tuple:
    if bool(args.preset) == bool(args.file):
        raise CliError("exactly one of --preset or --file is required")
    if args.preset:
        p, model = load_preset(args.preset)
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            p = parse_presentation(fh.read())
        model = None
    model_opt = getattr(args, "model", None)
    if model_opt:
        kind, _, arg = model_opt.partition(":")
        if kind == "free":
            model = FreeModel(p.n_generators, sound=not p.relators)
        elif kind == "modular":
            if not isinstance(model, MatrixModel) or model.modulus is not None:
                raise CliError("--model modular:<m> needs a matrix-model preset")
            model = MatrixModel(model.images, int(arg))
        elif kind == "matrix":
            if not isinstance(model, MatrixModel):
                raise CliError("--model matrix needs a matrix-model preset")
        else:
            raise CliError(f"unknown model choice {model_opt!r}")
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


def _progress(every: int = 200):
    def callback(it, lam, rp, rd):
        if it == 1 or it % every == 0:
            print(
                f"iter {it}: lambda={lam:.8f} primal={rp:.3e} dual={rd:.3e}",
                file=sys.stderr,
            )
    return callback


def _solve_opts(args) -> SolveOptions:
    return SolveOptions(
        tol_primal=args.tol,
        tol_dual=args.tol,
        max_iter=args.max_iter,
        progress=_progress(),
    )


def _emit(data: dict, out: Optional[str] = None):
    blob = json.dumps(data, indent=2, sort_keys=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


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
        for el in basis:
            print(json.dumps(model.key_to_json(el.key)))
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
        text = export_sdpa(problem)
        if args.export:
            with open(args.export, "w", encoding="utf-8") as fh:
                fh.write(text)
            _emit({"written": args.export, "constraints": problem.constraint_count()})
        else:
            sys.stdout.write(text)
        return 0
    # solve
    sol = solve(problem, _solve_opts(args))
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(export_sdpa(problem))
    payload = {
        "lambda": sol.lam,
        "status": sol.status,
        "iterations": sol.iterations,
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
        "constraint_residual": sol.constraint_residual,
        "P": [[float(v) for v in row] for row in sol.P],
    }
    _emit(payload, args.out)
    return 0


def _certify_from_solution(lap: Laplacian1, basis: SupportBasis, lam, P=None, Q=None) -> GapResult:
    if Q is None:
        Q = psd_sqrt(np.asarray(P, dtype=float))
    return certified_gap(lap, basis, np.asarray(Q, dtype=float), float(lam))


def _gap_summary(result: GapResult, cert_path: Optional[str]) -> dict:
    return {
        "lambda": float(result.certificate.lam) if result.certificate else None,
        "lambda0": result.lambda0,
        "lambda0_display": floor_display(result.lambda0),
        "residual_l1_sup": result.residual_l1.hi,
        "status": result.status,
        "certificate": cert_path,
    }


def cmd_certify(args) -> int:
    p, model, lap, basis, problem = _build_stage(args)
    with open(args.solution, "r", encoding="utf-8") as fh:
        sol = json.load(fh)
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
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(export_sdpa(problem))
    sol = solve(problem, _solve_opts(args))
    result = _certify_from_solution(lap, basis, sol.lam, P=sol.P)
    cert_path = args.out or "certificate.json"
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


def _add_input_opts(sub, model_opt=True):
    sub.add_argument("--preset", help="builtin preset: " + ", ".join(PRESET_NAMES))
    sub.add_argument("--file", help="presentation file path")
    if model_opt:
        sub.add_argument(
            "--model", help="model override: matrix | modular:<m> | free"
        )


def _add_stage_opts(sub):
    sub.add_argument("--radius", type=int, required=True, help="support ball radius")
    sub.add_argument(
        "--exclude-relator",
        help="relator subset policy: longest | none | <label> (default: longest "
        "when the presentation has more than one relator)",
    )


def _add_solver_opts(sub):
    sub.add_argument("--tol", type=float, default=1e-8, help="solver residual tolerance")
    sub.add_argument("--max-iter", type=int, default=20000)
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
    s.add_argument("--radius", type=int, required=True)
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
    except (
        CliError,
        CertificateError,
        SupportTooSmallError,
        InconsistentModelError,
        FileNotFoundError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
