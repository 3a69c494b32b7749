"""The gapcert benchmark: time to certificate, verify time and bound quality.

A run drives gapcert only through its public functions, composing the
same call chain as ``gapcert pipeline --export``:

    parse_presentation -> model_from_spec/validate_model -> laplacian1
    -> ball -> SupportBasis.products -> build_problem      (time_to_problem_s)
    -> export_sdpa -> solve -> psd_sqrt -> certified_gap
    -> Certificate.save                                    (time_to_cert_s)
    -> Certificate.load -> verify_certificate              (verify_s)

Each layer is timed from outside, by timing the calls into it.  The
``intervals`` module runs only inside ``certified_gap`` and ``cli`` only
parses arguments, so neither gets a span of its own.

Workloads (``WORKLOADS``) and why each was chosen:

* ``quotient-r2``: SL(3,Z/2), radius 2, the full pipeline at the
  finite-quotient acceptance settings (tol 1e-7, at most 8000 iterations).
  The solver is ~97% of the work: thousands of small ``eigh`` calls at
  N=186.  The product table is negligible here.
* ``sl3z-r2-cert``: SL(3,Z), radius 2, exactly 50 solver iterations, then
  certification and verification at N=726.  ``certified_gap`` (the Gram
  enclosure) dominates both ``time_to_cert_s`` and ``verify_s``; the
  product table is most of ``time_to_problem_s``.  The certified bound is
  negative after 50 iterations, which is a valid output.
* ``sl3z-r3-build`` (not in BENCHMARK.json): SL(3,Z), radius 3,
  presentation to ``SdpProblem`` only; the pure-Python product table is
  ~95% of it.  It certifies nothing, so it reports only ``setup_s`` and
  ``peak_rss_mb``; its ``time_to_problem_s`` is in the report line.
* ``z3-r1`` (not in BENCHMARK.json): the smoke instance of the tests.

The seed relabels the instance: it permutes the generator order together
with the model's generator images, and the relator order.  Seed 0 is the
shipped preset.  gapcert receives only the generated presentation text
and model spec.

Correctness gate, counted into ``attempted``/``failed``: the saved
certificate re-verifies from its file; lambda0 <= solver lambda; lambda0 <=
the smallest eigenvalue of pi(Delta_1) in the regular representation of a
finite quotient (SL(3,Z/2) for both SL(3) workloads), computed in set-up;
lambda0 > 0 where the workload expects a gap; lambda0 agrees across seeds
with the seed-0 value to within the solver tolerance; the instance sizes;
the solver iteration count where it is fixed; and
``import_sdpa(export).same_problem(problem)``, checked outside the timed
windows.

End-to-end metrics (tracing off): ``setup_s``; ``time_to_cert_s``,
presentation to certificate on disk; ``verify_s``, load plus
``verify_certificate``; ``ceiling_gap``, the quotient ceiling minus the
certified lambda0, which moves one-for-one with lambda0 but stays positive
(lambda0 is negative on ``sl3z-r2-cert``, where a bound given as a share of
the median would be ill-defined); and ``peak_rss_mb``.  Failed checks are
the result's ``failed`` over ``attempted``, and ``gate.fail_ratio`` per
layer.  ``time_to_problem_s``, the wait behind ``gapcert sdp build``, is
printed in the report line only: this short pure-Python stage varied by up
to 2x between runs on a shared 2-core machine, more than the largest bound
an end-to-end metric may have.  Its layers are timed per layer.

Timing: the certificate chain runs once per run.  Set-up is repeated up
to ``SETUP_REPS`` times within ``--seconds``/2, half before the chain and
half at the end of the run, so its samples fall in different phases of
the machine (see below); their median is reported.  The verify stage is
repeated back to back after the chain, up to ``VERIFY_REPS`` passes within
``--seconds`` (35 to 60 on ``quotient-r2``; one on ``sl3z-r2-cert``, whose
single pass outlasts the window), and ``verify_s`` is their mean: the wait
per verification over the whole window.  On a shared machine every kernel,
pure Python or BLAS alike, runs in phases that last 10-60 s and differ by
up to 1.6x in speed.  A quantile of the samples (median, minimum) jumps
between phases from run to run; the mean over a long window moves
smoothly with the share of each phase in it, and so spreads least between
runs.  The report line gives the sample counts and medians.

``peak_rss_mb`` is the process's peak resident set through set-up, the
chain and its checks.  It is read before the samples taken after the
chain, which raised it by different amounts (to 64 MB or 72 MB on
``quotient-r2``) between otherwise identical runs.

``--trace 1`` makes a separate traced run: spans (name, start, end,
parent, run id) are kept in memory, the solver trajectory is fed in
through ``SolveOptions.progress``, and everything is written as JSON lines
to ``perfbench/out/`` at the end.  Per-layer metrics are span self times
and sizes; ``trace.overhead_frac`` is the measured cost of recording the
run's spans and trajectory points, as a share of the traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from gapcert import (
    Certificate,
    Presentation,
    SolveOptions,
    Word,
    ball,
    build_problem,
    certified_gap,
    default_relator_indices,
    evaluate_representation,
    export_sdpa,
    import_sdpa,
    laplacian1,
    load_preset,
    model_from_spec,
    parse_presentation,
    psd_sqrt,
    regular_representation_images,
    solve,
    validate_model,
    verify_certificate,
)

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 8
VERIFY_REPS = 100
CEILING_SLACK = 1e-8


@dataclass(frozen=True)
class Workload:
    preset: str
    radius: int
    certify: bool = True
    tol: float = 1e-7
    max_iter: int = 8000
    exact_iters: Optional[int] = None
    expect_gap: bool = False
    # seed-0 certified lambda0 (1 BLAS thread); other seeds must agree to tol
    ref_lambda0: Optional[float] = None
    sizes: Dict[str, int] = field(default_factory=dict)


WORKLOADS = {
    "quotient-r2": Workload(
        "sl3z-mod:2", 2, expect_gap=True, ref_lambda0=0.12997296370518854,
        sizes={"m": 31, "classes": 142, "gram_dim": 186},
    ),
    "sl3z-r2-cert": Workload(
        "sl3z", 2, max_iter=50, exact_iters=50, ref_lambda0=-58.11671344535087,
        sizes={"m": 121, "classes": 5455, "gram_dim": 726, "constraints": 98193},
    ),
    "sl3z-r3-build": Workload(
        "sl3z", 3, certify=False, sizes={"m": 883, "classes": 154446},
    ),
    "z3-r1": Workload("z3", 1, tol=1e-9, max_iter=20000, expect_gap=True),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_cert_s": "s",
    "verify_s": "s",
    "ceiling_gap": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "words.parse_s": "s",
    "fox.laplacian_s": "s",
    "fox.laplacian_terms": "count",
    "groups.ball_s": "s",
    "groups.ball_size": "count",
    "groups.products_s": "s",
    "groups.product_classes": "count",
    "groups.products_per_s": "1/s",
    "sdp.build_s": "s",
    "sdp.constraints": "count",
    "sdp.export_s": "s",
    "sdp.export_bytes": "bytes",
    "sdp.import_s": "s",
    "sdp.solve_s": "s",
    "sdp.solve_iters": "count",
    "sdp.solve_ms_per_iter": "ms",
    "sdp.gram_dim": "count",
    "sdp.final_primal_residual": "1",
    "sdp.final_dual_residual": "1",
    "sdp.solver_lambda": "1",
    "certify.psd_sqrt_s": "s",
    "certify.certified_gap_s": "s",
    "certify.save_s": "s",
    "certify.load_s": "s",
    "certify.verify_s": "s",
    "certify.cert_bytes": "bytes",
    "certify.residual_l1": "1",
    "certify.lambda0": "1",
    "certify.margin": "1",
    "gate.fail_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# Tracing and the correctness gate
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans; written out as JSON lines when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self.events = 0

    @contextmanager
    def span(self, name: str):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def progress(self, it, lam, rp, rd):
        """SolveOptions.progress callback: one trajectory point per call."""
        self.events += 1
        self._stack[-1].setdefault("trajectory", []).append(
            [it, float(lam), float(rp), float(rd)]
        )

    def self_times(self) -> Dict[str, float]:
        """Span duration minus the time its (sequential) children cover, by name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s, c in zip(self.spans, child):
            s["self_s"] = (s["end"] - s["start"]) - c
            out[s["name"]] = out.get(s["name"], 0.0) + s["self_s"]
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = dict(s, start=s["start"] - t0, end=s["end"] - t0)
                fh.write(json.dumps(rec) + "\n")


class NoTrace:
    """Tracing off: spans cost one call, the solver gets no callback."""

    progress = None

    def span(self, name: str):
        return nullcontext()


def tracer_overhead_s(spans: int, events: int, reps: int = 2000) -> float:
    """Measured cost of recording this many spans and trajectory points."""
    t = Tracer("calibration")
    with t.span("outer"):
        t0 = time.perf_counter()
        for _ in range(reps):
            with t.span("inner"):
                pass
        t1 = time.perf_counter()
        for i in range(reps):
            t.progress(i, 0.0, 0.0, 0.0)
        t2 = time.perf_counter()
    return (spans * (t1 - t0) + events * (t2 - t1)) / reps


class Gate:
    """Correctness checks; every failure counts against the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / max(1, self.attempted)


# ---------------------------------------------------------------------------
# Instances and set-up
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    text: str
    spec: dict
    ceiling: Optional[float] = None


def relabel(preset: str, seed: int) -> Instance:
    """Presentation text and model spec with generators and relators permuted."""
    p, model = load_preset(preset)
    n, r = p.n_generators, len(p.relators)
    rng = random.Random(seed)
    gens = list(range(n)) if seed == 0 else rng.sample(range(n), n)
    rels = list(range(r)) if seed == 0 else rng.sample(range(r), r)
    new_index = {old: new for new, old in enumerate(gens)}
    relabelled = Presentation(
        generators=tuple(p.generators[k] for k in gens),
        relators=tuple(
            Word([(new_index[i], s) for i, s in p.relators[k]]) for k in rels
        ),
        labels=tuple(p.labels[k] for k in rels),
    )
    spec = model.spec()
    if "images" in spec:
        spec = dict(spec, images=[spec["images"][k] for k in gens])
    return Instance(relabelled.to_text(), spec)


def quotient_ceiling(inst: Instance) -> float:
    """Smallest eigenvalue of pi(Delta_1) in a finite quotient's regular rep.

    No sum-of-squares certificate can beat it.  A finite model is its own
    quotient; an integer matrix model is reduced mod 2.
    """
    spec = inst.spec
    if spec["type"] == "matrix":
        spec = {"type": "modular", "dim": spec["dim"], "modulus": 2, "images": spec["images"]}
    p = parse_presentation(inst.text)
    model = model_from_spec(spec)
    lap = laplacian1(model, p, default_relator_indices(p))
    images, _ = regular_representation_images(model)
    pi = evaluate_representation(lap.matrix, images, presentation=p)
    return float(np.linalg.eigvalsh(pi)[0])


def setup(wl: Workload, seed: int) -> Instance:
    inst = relabel(wl.preset, seed)
    if wl.certify:
        # Relabelling leaves the ceiling unchanged; taking it from the shipped
        # preset gives set-up the same work and memory for every seed.
        inst.ceiling = quotient_ceiling(relabel(wl.preset, 0))
    return inst


# ---------------------------------------------------------------------------
# The call chain
# ---------------------------------------------------------------------------


@dataclass
class Built:
    lap: object
    basis: object
    problem: object


def problem_stage(inst: Instance, wl: Workload, tr) -> Built:
    """Presentation -> SdpProblem, as `gapcert sdp build` runs it."""
    with tr.span("words.parse"):
        p = parse_presentation(inst.text)
    with tr.span("groups.model"):
        model = model_from_spec(inst.spec)
        validate_model(p, model)
    with tr.span("fox.laplacian"):
        lap = laplacian1(model, p, default_relator_indices(p))
    with tr.span("groups.ball"):
        basis = ball(model, wl.radius)
    with tr.span("groups.products"):
        basis.products()
    with tr.span("sdp.build"):
        problem = build_problem(lap, basis)
    return Built(lap, basis, problem)


def verify_stage(cert_path: Path, tr, gate: Gate) -> None:
    """Certificate file -> re-derived bound, as `gapcert verify` runs it."""
    with tr.span("certify.load"):
        cert = Certificate.load(cert_path)
    with tr.span("certify.verify"):
        check = verify_certificate(cert)
    gate.check("certificate re-verifies from its file", check.passed, check.message)


@dataclass
class ChainResult:
    built: Built
    times: Dict[str, List[float]]
    export_text: Optional[str] = None
    solution: object = None
    gap: object = None


def run_chain(inst: Instance, wl: Workload, tr, gate: Gate, cert_path: Path) -> ChainResult:
    """One pass of the pipeline; returns stage times and outputs."""
    t0 = time.perf_counter()
    with tr.span("problem"):
        built = problem_stage(inst, wl, tr)
    t1 = time.perf_counter()
    res = ChainResult(built, {"time_to_problem_s": [t1 - t0]})
    if not wl.certify:
        return res
    problem = built.problem
    with tr.span("certificate"):
        with tr.span("sdp.export"):
            res.export_text = export_sdpa(problem)
        opts = SolveOptions(
            tol_primal=wl.tol, tol_dual=wl.tol, max_iter=wl.max_iter, progress=tr.progress
        )
        with tr.span("sdp.solve") as solve_span:
            sol = solve(problem, opts)
        if solve_span is not None:
            solve_span["status"] = sol.status
            solve_span["iterations"] = sol.iterations
        with tr.span("certify.psd_sqrt"):
            Q = psd_sqrt(sol.P)
        with tr.span("certify.certified_gap"):
            gap = certified_gap(built.lap, built.basis, Q, sol.lam)
        with tr.span("certify.save"):
            gap.certificate.save(cert_path)
    t2 = time.perf_counter()
    with tr.span("verify"):
        verify_stage(cert_path, tr, gate)
    t3 = time.perf_counter()
    res.times["time_to_cert_s"] = [t2 - t0]
    res.times["verify_s"] = [t3 - t2]
    res.solution, res.gap = sol, gap
    return res


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def resample(samples: List[float], fn, seconds: float, reps: int) -> None:
    """Add timings of `fn` until there are `reps` or they sum to `seconds`.

    Garbage left by the previous sample is collected outside the timed
    window, so every sample starts from the same heap.
    """
    while len(samples) < reps and sum(samples) < seconds:
        gc.collect()
        samples.append(timed(fn)[0])


def check_outputs(res: ChainResult, inst: Instance, wl: Workload, tr, gate: Gate) -> dict:
    """Gate the chain's outputs, outside the timed windows; return sizes."""
    problem = res.built.problem
    sizes = {
        "m": problem.m,
        "classes": problem.npairs,
        "gram_dim": problem.n * problem.m,
    }
    if res.export_text is not None:
        header = [l for l in res.export_text.splitlines() if not l.startswith("*")]
        sizes["constraints"] = int(header[0])
        with tr.span("sdp.import"):
            back = import_sdpa(res.export_text)
        gate.check("import_sdpa(export) is the same problem", back.same_problem(problem))
    for key, want in wl.sizes.items():
        gate.check(f"size {key}", sizes.get(key) == want, f"{sizes.get(key)} != {want}")
    if not wl.certify:
        return sizes
    sol, lam0 = res.solution, res.gap.lambda0
    gate.check("lambda0 <= solver lambda", lam0 <= sol.lam, f"{lam0!r} > {sol.lam!r}")
    # the ceiling is a floating-point eigenvalue; allow for its rounding
    gate.check(
        "lambda0 <= quotient ceiling",
        lam0 <= inst.ceiling + CEILING_SLACK,
        f"{lam0!r} > {inst.ceiling!r}",
    )
    if wl.expect_gap:
        gate.check("lambda0 > 0", lam0 > 0.0, repr(lam0))
    if wl.exact_iters is not None:
        gate.check("solver iterations", sol.iterations == wl.exact_iters, str(sol.iterations))
    if wl.ref_lambda0 is not None:
        gate.check(
            "lambda0 agrees with the seed-0 value",
            abs(lam0 - wl.ref_lambda0) <= wl.tol,
            f"{lam0!r} vs {wl.ref_lambda0!r}",
        )
    return sizes


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def machine() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")},
        "blas_version": {k: deps.get(k, {}).get("version") for k in ("blas", "lapack")},
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and a report."""
    wl = WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-pid{os.getpid()}"
    cert_path = OUT_DIR / f"{tag}.cert.json"
    setup_s, inst = timed(lambda: setup(wl, seed))
    gate = Gate()
    tr = Tracer(tag) if trace else NoTrace()
    setup_times = [setup_s]
    again = lambda: setup(wl, seed)
    try:
        if not trace:
            # half the set-up samples now, the rest at the end of the run
            resample(setup_times, again, seconds / 4, SETUP_REPS // 2)
        with tr.span("run"):
            res = run_chain(inst, wl, tr, gate, cert_path)
            with tr.span("check"):
                sizes = check_outputs(res, inst, wl, tr, gate)
        times = dict(res.times, setup_s=setup_times)
        rss_mb = peak_rss_mb()
        if not trace:
            if wl.certify:
                verify = lambda: verify_stage(cert_path, tr, gate)
                resample(times["verify_s"], verify, seconds, VERIFY_REPS)
            resample(setup_times, again, seconds / 2, SETUP_REPS)
        cert_bytes = cert_path.stat().st_size if wl.certify else None
    finally:
        cert_path.unlink(missing_ok=True)

    report = {
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "time_to_problem_s": times["time_to_problem_s"][0],
    }
    if wl.certify:
        sol, gap = res.solution, res.gap
        report.update(
            lambda0=gap.lambda0,
            solver_lambda=sol.lam,
            ceiling=inst.ceiling,
            solver_status=sol.status,
            solver_iterations=sol.iterations,
        )
    if trace:
        metrics = layer_metrics(tr, res, sizes, cert_bytes, gate)
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
        tr.write(trace_path)
        report["trace"] = str(trace_path.relative_to(BENCH_DIR.parent))
    else:
        values = {k: statistics.median(v) for k, v in times.items()}
        values["peak_rss_mb"] = rss_mb
        if wl.certify:
            values["verify_s"] = statistics.fmean(times["verify_s"])
            values["ceiling_gap"] = inst.ceiling - res.gap.lambda0
        report["samples"] = {k: len(v) for k, v in times.items()}
        report["sample_medians"] = {k: statistics.median(v) for k, v in times.items()}
        metrics = {
            k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items() if k in values
        }
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": metrics,
    }
    return {"result": result, "report": report, "failures": gate.failures}


def layer_metrics(tr: Tracer, res: ChainResult, sizes, cert_bytes, gate: Gate) -> dict:
    selfs = tr.self_times()
    run_s = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] is None)
    lap = res.built.lap
    values = {
        "words.parse_s": selfs["words.parse"],
        "fox.laplacian_s": selfs["fox.laplacian"],
        "fox.laplacian_terms": sum(len(e.support()) for row in lap.matrix.entries for e in row),
        "groups.ball_s": selfs["groups.ball"],
        "groups.ball_size": sizes["m"],
        "groups.products_s": selfs["groups.products"],
        "groups.product_classes": sizes["classes"],
        "groups.products_per_s": sizes["m"] ** 2 / selfs["groups.products"],
        "sdp.build_s": selfs["sdp.build"],
        "sdp.gram_dim": sizes["gram_dim"],
    }
    if res.solution is not None:
        sol, gap = res.solution, res.gap
        values.update({
            "sdp.constraints": sizes["constraints"],
            "sdp.export_s": selfs["sdp.export"],
            "sdp.export_bytes": len(res.export_text.encode("utf-8")),
            "sdp.import_s": selfs["sdp.import"],
            "sdp.solve_s": selfs["sdp.solve"],
            "sdp.solve_iters": sol.iterations,
            "sdp.solve_ms_per_iter": 1000.0 * selfs["sdp.solve"] / sol.iterations,
            "sdp.final_primal_residual": sol.primal_residual,
            "sdp.final_dual_residual": sol.dual_residual,
            "sdp.solver_lambda": sol.lam,
            "certify.psd_sqrt_s": selfs["certify.psd_sqrt"],
            "certify.certified_gap_s": selfs["certify.certified_gap"],
            "certify.save_s": selfs["certify.save"],
            "certify.load_s": selfs["certify.load"],
            "certify.verify_s": selfs["certify.verify"],
            "certify.cert_bytes": cert_bytes,
            "certify.residual_l1": gap.residual_l1.hi,
            "certify.lambda0": gap.lambda0,
            "certify.margin": sol.lam - gap.lambda0,
        })
    values["gate.fail_ratio"] = gate.fail_ratio
    values["trace.overhead_frac"] = tracer_overhead_s(len(tr.spans), tr.events) / run_s
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items() if k in values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for msg in out["failures"]:
        print(f"gate failed: {msg}", file=sys.stderr)
    print(json.dumps({"machine": machine()}))
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0
