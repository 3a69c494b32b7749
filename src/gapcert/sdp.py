"""Translate cone membership of Delta - lambda*I into a semidefinite program.

The Gram matrix P lives on coordinates (matrix row i, basis element x),
flattened as i*m + x.  For every product g = x^-1 y and every entry (i, j)
there is one linear constraint <A_g, P^{i,j}> = target_{i,j}(g); targets
outside the support of Delta are zero but still constrained, and the
objective variable enters the (i, i, identity) constraints only.  The
basis' ProductTable holds the one integer index all of this reads: the
class pid[x, y] of x^-1 y, its slots (i*n + j)*npairs + pid and its
member lists.  target_coefficients is the one walk of an exact target
into those classes; the SDP, the SDPA export and the certifier share it.

The embedded solver is a first-order operator-splitting scheme: it
alternates exact projection onto the affine constraint subspace (the
constraint Gram operator is diagonal apart from a rank-one coupling
through lambda) with projection onto the PSD cone by eigendecomposition.
When the index permutations e_ij -> e_s(i)s(j), s in S3, fix the problem
exactly (gram_symmetry), every iterate is S3-invariant and the PSD step
splits into three blocks of sizes N/6, N/6 and N/3 instead of one N x N
eigendecomposition; any other problem takes the dense step.  Each
iteration still holds several dense N x N arrays, so radius 3 of SL(3,Z)
(N = 5298, 225 MB per array) is beyond it: such instances should go
through the SDPA export to an external solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, permutations, zip_longest
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .groups import (
    GroupElement,
    MatrixModel,
    ModularMatrixModel,
    SupportBasis,
    model_from_spec,
)
from .ring import RingMatrix
from .fox import Laplacian1


class SupportTooSmallError(ValueError):
    """The target's support is not contained in E* E."""

    def __init__(self, uncovered):
        self.uncovered = list(uncovered)
        shown = ", ".join(repr(k) for k in self.uncovered[:5])
        more = "" if len(self.uncovered) <= 5 else f" (+{len(self.uncovered) - 5} more)"
        super().__init__(
            f"support basis too small: {len(self.uncovered)} target support "
            f"elements are not products x^-1 y over the basis: {shown}{more}"
        )


@dataclass(eq=False)
class SdpProblem:
    """targets[i, j, pid] is entry (i, j)'s coefficient on class pid, both triangles.

    Compare problems with same_problem.
    """

    n: int
    basis: SupportBasis
    targets: np.ndarray

    def __post_init__(self):
        self.table = self.basis.products()
        self.m = len(self.basis)
        self.npairs = len(self.table)
        self.identity_pid = self.table.identity_pid
        self.inverse_pid = self.table.inverse_pid
        if self.targets.shape != (self.n, self.n, self.npairs):
            raise ValueError(f"targets must have shape {(self.n, self.n, self.npairs)}")

    def constraint_count(self) -> int:
        """Logical constraints: one per (i <= j, product)."""
        return self.n * (self.n + 1) // 2 * self.npairs

    def export_keys(self) -> List[Tuple[int, int, int]]:
        """Deterministic constraint order used by the SDPA export."""
        inverse_pid = self.inverse_pid.tolist()
        keys = []
        for i in range(self.n):
            for j in range(i, self.n):
                for pid in range(self.npairs):
                    if i == j and inverse_pid[pid] < pid:
                        continue
                    keys.append((i, j, pid))
        return keys

    def same_problem(self, other: "SdpProblem") -> bool:
        return (
            self.n == other.n
            and self.basis.model.spec() == other.basis.model.spec()
            and [e.key for e in self.basis] == [e.key for e in other.basis]
            and self.basis.radius == other.basis.radius
            and np.array_equal(self.targets, other.targets)
        )


def target_coefficients(matrix: RingMatrix, basis: SupportBasis):
    """Exact coefficients of a *-invariant target, split by the product table.

    Returns ({(i, j, pid): c} for the products x^-1 y over the basis,
    [(g, c)] for every coefficient on a product outside them), both in
    row-major entry order and sorted support.
    """
    if matrix.model.model_id != basis.model.model_id:
        raise ValueError("target and basis use different models")
    if not matrix.is_star_invariant():
        raise ValueError("target matrix must be square and *-invariant")
    index = basis.products().pair_index
    inside: Dict[Tuple[int, int, int], Fraction] = {}
    outside: List[Tuple[GroupElement, Fraction]] = []
    for i, row in enumerate(matrix.entries):
        for j, entry in enumerate(row):
            for g in entry.support():
                pid = index.get(g.key)
                if pid is None:
                    outside.append((g, entry.coeffs[g]))
                else:
                    inside[i, j, pid] = entry.coeffs[g]
    return inside, outside


def build_problem(source, basis: SupportBasis) -> SdpProblem:
    """Build the SDP for `source - lambda * I` over the given basis.

    `source` is a Laplacian1 or a square *-invariant exact RingMatrix whose
    support must be covered by products over the basis.
    """
    matrix = source.matrix if isinstance(source, Laplacian1) else source
    inside, outside = target_coefficients(matrix, basis)
    if outside:
        raise SupportTooSmallError(dict.fromkeys(g.key for g, _ in outside))
    n = matrix.n_rows
    targets = np.zeros((n, n, len(basis.products())))
    for cell, c in inside.items():
        targets[cell] = float(c)
    return SdpProblem(n, basis, targets)


# ---------------------------------------------------------------------------
# SDPA sparse export / import
# ---------------------------------------------------------------------------

_META_PREFIX = "*META "


def _sdpa_lines(problem: SdpProblem) -> Iterator[str]:
    """The lines of the SDPA export, one by one."""
    n, m = problem.n, problem.m
    keys = problem.export_keys()
    meta = {
        "version": 1,
        "n": n,
        "model": problem.basis.model.spec(),
        "radius": problem.basis.radius,
        "basis": [problem.basis.model.key_to_json(e.key) for e in problem.basis],
    }
    yield from (
        "* gapcert sparse SDPA export (format v1)",
        "* dual form: maximize <F0,Y> s.t. <Fk,Y>=c_k, Y PSD",
        "* Y = blockdiag(P, s, t); P is the nm x nm Gram block, lambda = s - t",
        _META_PREFIX + json.dumps(meta, separators=(",", ":"), sort_keys=True),
        f"{len(keys)}",
        "2",
        f"{n * m} -2",
        " ".join(map(repr, problem.targets[tuple(np.array(keys).T)].tolist())),
        "0 2 1 1 1.0",
        "0 2 2 2 -1.0",
    )
    inverse_pid = problem.inverse_pid.tolist()
    members = problem.table.members()
    for k, (i, j, pid) in enumerate(keys, start=1):
        if i == j:
            pattern = members[pid]
            if inverse_pid[pid] != pid:
                pattern = pattern + members[inverse_pid[pid]]
            for x, y in pattern:
                p, q = i * m + x, i * m + y
                if p < q:
                    yield f"{k} 1 {p + 1} {q + 1} 0.5"
                elif p == q:
                    yield f"{k} 1 {p + 1} {q + 1} 1.0"
            if pid == problem.identity_pid:
                yield f"{k} 2 1 1 1.0"
                yield f"{k} 2 2 2 -1.0"
        else:
            for x, y in members[pid]:
                p, q = i * m + x, j * m + y
                yield f"{k} 1 {p + 1} {q + 1} 0.5"


def export_sdpa(problem: SdpProblem) -> str:
    """Sparse SDPA (.dat-s) text for the problem.

    File is the standard SDPA dual form: maximize <F0, Y> subject to
    <Fk, Y> = c_k with Y PSD.  Y = blockdiag(P, s, t), where P is the
    nm x nm Gram block and lambda = s - t splits the free objective
    variable over a diagonal block of size 2.
    """
    return "\n".join(_sdpa_lines(problem)) + "\n"


def _tokens(lines: Iterable[str]) -> Iterator[str]:
    """Whitespace tokens of the lines that are not comments."""
    return chain.from_iterable(
        line.split() for line in lines if not line.lstrip().startswith(("*", '"'))
    )


def import_sdpa(text: str) -> SdpProblem:
    """Rebuild an SdpProblem from an export; inverse of export_sdpa.

    The entry lines must carry exactly the tokens export_sdpa writes for
    the rebuilt problem; they are compared as streams, never held twice.
    """
    lines = text.splitlines()
    meta = next(
        (json.loads(line.strip()[len(_META_PREFIX):]) for line in lines
         if line.strip().startswith(_META_PREFIX)),
        None,
    )
    if meta is None:
        raise ValueError("missing *META line; not a gapcert export")
    model = model_from_spec(meta["model"])
    elements = [GroupElement(model, model.key_from_json(k)) for k in meta["basis"]]
    basis = SupportBasis(elements, meta.get("radius"))
    n = int(meta["n"])
    m = len(basis)
    tokens = _tokens(lines)
    pos = 0

    def take(count):
        nonlocal pos
        out = list(islice(tokens, count))
        if len(out) != count:
            raise ValueError("truncated SDPA file")
        pos += count
        return out

    mdim = int(take(1)[0])
    nblocks = int(take(1)[0])
    if nblocks != 2:
        raise ValueError(f"expected 2 blocks, found {nblocks}")
    block1, block2 = (int(t) for t in take(2))
    if block1 != n * m or block2 != -2:
        raise ValueError("block structure does not match metadata")
    c = [float(t) for t in take(mdim)]
    problem = SdpProblem(n, basis, np.zeros((n, n, len(basis.products()))))
    keys = problem.export_keys()
    if len(keys) != mdim:
        raise ValueError(
            f"constraint count mismatch: file has {mdim}, basis implies {len(keys)}"
        )
    inverse_pid = problem.inverse_pid.tolist()
    for (i, j, pid), value in zip(keys, c):
        problem.targets[i, j, pid] = problem.targets[j, i, inverse_pid[pid]] = value
    expected = islice(_tokens(_sdpa_lines(problem)), pos, None)
    if any(a != b for a, b in zip_longest(tokens, expected)):
        raise ValueError("entry lines do not match the constraints the basis implies")
    return problem


# ---------------------------------------------------------------------------
# Symmetry of the Gram coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GramSymmetry:
    """A group H of Gram-coordinate permutations that fixes the problem.

    order[o*|H| + h] is the coordinate h.r_o, r_o the smallest coordinate
    of orbit o: the orbit-major layout the solver keeps its iterates in.
    fourier is |H| x |H| real orthogonal; an irrep rho of dimension d (in
    the order of dims) owns d*d consecutive columns, column (a, b) holding
    sqrt(d/|H|) rho(h)[a, b] in row h.
    """

    order: np.ndarray
    fourier: np.ndarray
    dims: Tuple[int, ...]

    @classmethod
    def trivial(cls, size: int) -> "GramSymmetry":
        return cls(np.arange(size), np.ones((1, 1)), (1,))


# an orthonormal basis of the plane orthogonal to (1, 1, 1)
_PLANE = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / np.sqrt([2.0, 6.0])


def _fixing_conjugations(problem: SdpProblem) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(Q, sigma, phi) for each 3x3 permutation matrix Q whose conjugation fixes the problem.

    g -> Q g Q^T must map generator image a to image sigma[a] and basis
    element x to phi[x]; pid[phi x, phi y] must be a class permutation pi;
    and targets[sigma, sigma, pi] must equal targets exactly.
    """
    model = problem.basis.model
    if not isinstance(model, (MatrixModel, ModularMatrixModel)) or model.dim != 3:
        return []
    images = {key: a for a, key in enumerate(model.images)}
    if not len(images) == model.n_generators == problem.n:
        return []
    keys = [el.key for el in problem.basis]
    pid, targets = problem.table.pid, problem.targets
    kept = []
    for p in permutations(range(3)):
        conj = [tuple(tuple(key[a][b] for b in p) for a in p) for key in model.images + keys]
        sigma = [images.get(key) for key in conj[:problem.n]]
        phi = [problem.basis.index.get(key) for key in conj[problem.n:]]
        if None in sigma or None in phi:
            continue
        moved = pid[np.ix_(phi, phi)]
        pi = np.empty(len(problem.table), dtype=np.int64)
        pi[pid] = moved
        if np.array_equal(pi[pid], moved) and np.array_equal(
            targets[np.ix_(sigma, sigma, pi)], targets
        ):
            kept.append((np.eye(3)[list(p)], np.array(sigma), np.array(phi)))
    return kept


def gram_symmetry(problem: SdpProblem) -> GramSymmetry:
    """The S3 symmetry e_ij -> e_s(i)s(j) of a problem, or the trivial group.

    S3 is used when all six conjugations by 3x3 permutation matrices fix
    the problem (_fixing_conjugations) and act freely on the Gram
    coordinates (i, x) -> (sigma i, phi x).  Its real orthogonal irreps
    are 1, det Q and the action of Q on the plane orthogonal to (1, 1, 1).
    """
    n, m = problem.n, problem.m
    kept = _fixing_conjugations(problem)
    if len(kept) == 6:
        act = np.array([(sigma[:, None] * m + phi).ravel() for _, sigma, phi in kept])
        smallest = np.flatnonzero(act.min(axis=0) == np.arange(n * m))
        order = act[:, smallest].T.ravel()
        if np.array_equal(np.sort(order), np.arange(n * m)):
            fourier = np.array([
                [1.0, round(np.linalg.det(Q)), *(np.sqrt(2.0) * _PLANE.T @ Q @ _PLANE).ravel()]
                for Q, _, _ in kept
            ]) / np.sqrt(6.0)
            return GramSymmetry(order, fourier, (1, 1, 2))
    return GramSymmetry.trivial(n * m)


# ---------------------------------------------------------------------------
# Embedded solver
# ---------------------------------------------------------------------------


@dataclass
class SolveOptions:
    tol_primal: float = 1e-8
    tol_dual: float = 1e-8
    max_iter: int = 20000
    over_relaxation: float = 1.6
    rho: float = 1.0
    adaptive_rho: bool = True
    fixed_lambda: Optional[float] = None
    check_every: int = 25
    stall_window: int = 1000
    progress: Optional[object] = None  # callable(iter, lam, rp, rd)


@dataclass
class SdpSolution:
    lam: float
    P: np.ndarray
    primal_residual: float
    dual_residual: float
    constraint_residual: float
    iterations: int
    status: str
    accepted: List[Tuple[int, float]] = field(default_factory=list)


def _psd_project(A: np.ndarray) -> np.ndarray:
    S = 0.5 * (A + A.T)
    w, V = np.linalg.eigh(S)
    if w[0] >= 0.0:
        return S
    pos = w > 0.0
    if not pos.any():
        return np.zeros_like(S)
    Z = (V[:, pos] * w[pos]) @ V[:, pos].T
    return 0.5 * (Z + Z.T)


def _psd_project_blocks(A: np.ndarray, sym: GramSymmetry) -> np.ndarray:
    """_psd_project of an H-invariant A in orbit-major layout, block by block.

    With k = N/|H|, the Fourier basis splits A into d equal copies of a
    kd x kd block per irrep of dimension d.  Each block is averaged over
    its copies and projected; entries outside the blocks, rounding noise
    for an invariant A, are dropped.
    """
    F = sym.fourier
    g = len(F)
    if g == 1:  # one block, no change of basis
        return _psd_project(A)
    N = len(A)
    k = N // g
    C = np.matmul(F.T, (A.reshape(N * k, g) @ F).reshape(k, g, N)).reshape(k, g, k, g)
    out = np.zeros_like(C)
    col = 0
    for d in sym.dims:
        copies = [slice(col + a * d, col + a * d + d) for a in range(d)]
        block = sum(C[:, c, :, c] for c in copies) / d
        block = _psd_project(block.reshape(k * d, k * d)).reshape(k, d, k, d)
        for c in copies:
            out[:, c, :, c] = block
        col += d * d
    del C  # before the back transform allocates two more N x N arrays
    return np.matmul(F, (out.reshape(N * k, g) @ F.T).reshape(k, g, N)).reshape(N, N)


def solve(problem: SdpProblem, opts: Optional[SolveOptions] = None) -> SdpSolution:
    """Maximize lambda over the problem's affine slice of the PSD cone.

    Deterministic cold start at P = 0, lambda = 0.  Status is "optimal"
    when both residuals pass their tolerances, "infeasible-suspected" when
    the primal residual plateaus well above tolerance while the iterates
    stop moving, and "max-iter" otherwise.  The iterates are held in the
    orbit-major layout of gram_symmetry(problem); both projections commute
    with its group, so every iterate is invariant up to rounding and the
    PSD step goes block by block.  P is returned in the original layout.
    """
    opts = opts or SolveOptions()
    n, m, npairs = problem.n, problem.m, problem.npairs
    N = n * m
    K = n * n * npairs
    sym = gram_symmetry(problem)
    cidf = problem.table.slots(n)[np.ix_(sym.order, sym.order)].ravel()
    cnt = np.tile(np.bincount(problem.table.pid.ravel(), minlength=npairs).astype(float), n * n)
    b = problem.targets.ravel()
    lam_ids = np.array(
        [(i * n + i) * npairs + problem.identity_pid for i in range(n)], dtype=np.int64
    )
    fixed = opts.fixed_lambda is not None
    if fixed:
        b = b.copy()
        b[lam_ids] -= opts.fixed_lambda
    m_f = float(m)

    def proj_affine(V: np.ndarray, vlam: float) -> Tuple[np.ndarray, float]:
        sums = np.bincount(cidf, weights=V.ravel(), minlength=K)
        resid = sums - b
        if fixed:
            mu = resid / cnt
            lam_out = float(opts.fixed_lambda)
        else:
            resid[lam_ids] += vlam
            rl = resid[lam_ids]
            mu_l = rl / m_f - rl.sum() / (m_f * (m_f + n))
            mu = resid / cnt
            mu[lam_ids] = mu_l
            lam_out = vlam - mu_l.sum()
        X = (V.ravel() - mu[cidf]).reshape(N, N)
        return X, lam_out

    rho = opts.rho
    alpha = opts.over_relaxation
    Z = np.zeros((N, N))
    U = np.zeros((N, N))
    zlam = 0.0
    accepted: List[Tuple[int, float]] = []
    history: List[float] = []
    status = "max-iter"
    X, xlam, rp, rd = Z, 0.0, math.inf, math.inf
    it = 0
    for it in range(1, opts.max_iter + 1):
        push = 0.0 if fixed else 1.0 / rho
        X, xlam = proj_affine(Z - U, zlam + push)
        Xr = alpha * X + (1.0 - alpha) * Z
        xrlam = alpha * xlam + (1.0 - alpha) * zlam
        Z_new = _psd_project_blocks(Xr + U, sym)
        U = U + Xr - Z_new
        rp = float(np.linalg.norm(X - Z_new))
        rd = rho * float(np.linalg.norm(Z_new - Z))
        Z = Z_new
        zlam = xrlam
        if it % opts.check_every == 0 or it == 1:
            if opts.progress is not None:
                opts.progress(it, xlam, rp, rd)
            if rp <= 10 * opts.tol_primal and rd <= 10 * opts.tol_dual:
                if not accepted or xlam >= accepted[-1][1] - 1e-12:
                    accepted.append((it, xlam))
            if rp <= opts.tol_primal and rd <= opts.tol_dual:
                status = "optimal"
                break
            history.append(rp)
            window = max(2, opts.stall_window // opts.check_every)
            if (
                len(history) > window
                and rp > 100 * opts.tol_primal
                and history[-1] > 0.999 * history[-window]
                and rd < max(10 * opts.tol_dual, 1e-6)
            ):
                status = "infeasible-suspected"
                break
            if opts.adaptive_rho and it % 100 == 0:
                if rp > 10 * rd:
                    rho *= 2.0
                    U /= 2.0
                elif rd > 10 * rp:
                    rho /= 2.0
                    U *= 2.0
    if status == "optimal" and (not accepted or accepted[-1][0] != it):
        if not accepted or xlam >= accepted[-1][1] - 1e-12:
            accepted.append((it, xlam))
    sums = np.bincount(cidf, weights=Z.ravel(), minlength=K)
    err = sums - b
    if not fixed:
        err[lam_ids] += xlam
    constraint_residual = float(np.linalg.norm(err))
    back = np.argsort(sym.order)
    return SdpSolution(
        lam=float(xlam),
        P=Z[np.ix_(back, back)],
        primal_residual=rp,
        dual_residual=rd,
        constraint_residual=constraint_residual,
        iterations=it,
        status=status,
        accepted=accepted,
    )
