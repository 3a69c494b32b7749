"""Translate cone membership of Delta - lambda*I into a semidefinite program.

The Gram matrix P lives on coordinates (matrix row i, basis element x),
flattened as i*m + x.  For every product g = x^-1 y and every entry (i, j)
there is one linear constraint <A_g, P^{i,j}> = target_{i,j}(g); targets
outside the support of Delta are zero but still constrained, and the
objective variable enters the (i, i, identity) constraints only.  The
basis' ProductTable holds the one integer index all of this reads: the
class pid[x, y] of x^-1 y and its slots (i*n + j)*npairs + pid; the
SDPA export lists each class's cells by the stable argsort of pid.
target_coefficients is the one walk of an exact target into those
classes; the SDP, the SDPA export and the certifier share it.

The embedded solver is a first-order operator-splitting scheme: it
alternates exact projection onto the affine constraint subspace (the
constraint Gram operator is diagonal apart from a rank-one coupling
through lambda) with projection onto the PSD cone by eigendecomposition.
One eigen-factor serves that projection and psd_sqrt: _psd_factor gives
B = V sqrt(w) over the eigenvalues kept, and the projection is B B^T,
which numpy computes as a symmetric rank-k update, so it is exactly
symmetric.  The residual norms are taken only at the checks and at the
last iteration.
When the index permutations e_ij -> e_s(i)s(j), s in S3, fix the problem
exactly (gram_symmetry), every iterate is S3-invariant and is held in
invariant coordinates, N^2/6 values: the affine step sums over orbits
of constraint slots, and the PSD step splits into three blocks of sizes
N/6, N/6 and N/3 instead of one N x N eigendecomposition.  Any other
problem is the same code with the trivial group.  The dense P exists
only at exit.  At radius 3 of SL(3,Z) (N = 5298) an iterate is 37 MB
and the dense P 225 MB, so such instances should go through the SDPA
export to an external solver.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .groups import (
    Key,
    MatrixModel,
    SupportBasis,
    _json_int,
    basis_from_json,
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
        """The number of rows of export_keys(), without building them.

        One constraint per (i < j, class) and, on each diagonal entry, one
        per pair of mutually inverse classes.
        """
        paired = int(np.count_nonzero(self.inverse_pid >= np.arange(self.npairs)))
        return self.n * (self.n - 1) // 2 * self.npairs + self.n * paired

    def export_keys(self) -> np.ndarray:
        """Deterministic constraint order used by the SDPA export: (K, 3) rows (i, j, pid).

        Entries i <= j row-major, classes in order; a diagonal entry keeps
        one of each pair of mutually inverse classes, the smaller pid.
        """
        return np.concatenate([np.empty((0, 3), dtype=np.int64), *_key_blocks(self)])

    def same_problem(self, other: "SdpProblem") -> bool:
        return (
            self.n == other.n
            and self.basis.model.spec() == other.basis.model.spec()
            and self.basis.elements == other.basis.elements
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
    terms = [
        (i, j, g, entry.coeffs[g])
        for i, row in enumerate(matrix.entries)
        for j, entry in enumerate(row)
        for g in entry.support()
    ]
    pids = basis.products().find([g for _, _, g, _ in terms])
    inside: Dict[Tuple[int, int, int], Fraction] = {}
    outside: List[Tuple[Key, Fraction]] = []
    for (i, j, g, c), pid in zip(terms, pids):
        if pid is None:
            outside.append((g, c))
        else:
            inside[i, j, pid] = c
    return inside, outside


def build_problem(source, basis: SupportBasis) -> SdpProblem:
    """Build the SDP for `source - lambda * I` over the given basis.

    `source` is a Laplacian1 or a square *-invariant exact RingMatrix whose
    support must be covered by products over the basis.
    """
    matrix = source.matrix if isinstance(source, Laplacian1) else source
    inside, outside = target_coefficients(matrix, basis)
    if outside:
        raise SupportTooSmallError(dict.fromkeys(g for g, _ in outside))
    n = matrix.n_rows
    targets = np.zeros((n, n, len(basis.products())))
    for cell, c in inside.items():
        targets[cell] = float(c)
    return SdpProblem(n, basis, targets)


# ---------------------------------------------------------------------------
# SDPA sparse export / import
# ---------------------------------------------------------------------------

# the export's first lines, up to its META line's JSON
_PREAMBLE = (
    "* gapcert sparse SDPA export (format v1)\n"
    "* dual form: maximize <F0,Y> s.t. <Fk,Y>=c_k, Y PSD\n"
    "* Y = blockdiag(P, s, t); P is the nm x nm Gram block, lambda = s - t\n"
    "*META "
)
_CHUNK = 512  # constraints per block of export text: bounds what export and import hold
_TOKEN = re.compile(r"[^ ]+")  # a value of the objective line
# an entry's code c is its block's " b " _BLOCKS[c // 2] and its value's " v\n" _VALUES[c]
_BLOCKS = np.frombuffer(b" 1  2 ", dtype="V3")
_VALUES = np.frombuffer(b" \x000.5\n \x001.0\n \x001.0\n -1.0\n", dtype="V6")


def _digit_table(top: int) -> np.ndarray:
    """The ASCII decimal digits of 0..top, NUL-padded on the left to one width, as void items."""
    width = len(str(top))
    rest = np.arange(top + 1)
    table = np.empty((top + 1, width), dtype=np.uint8)
    for d in range(width):
        np.remainder(rest, 10, out=table[:, -1 - d], casting="unsafe")
        rest //= 10
    table += ord("0")
    for d in range(1, width):
        table[:10 ** d, -1 - d] = 0  # the numbers below 10^d have no digit d
    return table.view(f"V{width}").ravel()


def _key_blocks(problem: SdpProblem) -> Iterator[np.ndarray]:
    """The rows of export_keys() in blocks of _CHUNK, never all at once.

    Constraint k lies in entry e, the last whose first constraint is at or
    before k, at offset k - start[e] into the entry's classes: all of them
    off the diagonal, the kept ones on it.
    """
    i, j = np.triu_indices(problem.n)
    kept = np.flatnonzero(problem.inverse_pid >= np.arange(problem.npairs))
    size = np.where(i == j, len(kept), problem.npairs)
    start = np.cumsum(size) - size
    total = int(size.sum())
    for a in range(0, total, _CHUNK):
        k = np.arange(a, min(a + _CHUNK, total))
        e = np.searchsorted(start, k, side="right") - 1
        pid = k - start[e]
        diag = i[e] == j[e]
        pid[diag] = kept[pid[diag]]
        yield np.stack([i[e], j[e], pid], axis=1)


def _entry_chunks(problem: SdpProblem) -> Iterator[str]:
    """The export's lines after the objective vector, _CHUNK constraints at a time.

    Line "k b p q v" puts v at (p, q) in block b of F_k; F_0 is lambda =
    s - t.  Constraint k = (i, j, pid) has one line per cell (x, y) of
    class pid at (i*m + x + 1, j*m + y + 1), 0.5 each, when i != j.  When
    i == j it has one per cell x <= y of class pid and then of its inverse
    class if that differs, 1.0 on the diagonal and 0.5 off it, and the
    identity class adds lambda's two entries.  Cells run x-major, by the
    stable argsort of pid.  A block is built as fixed-width records of
    NUL-padded fields, the numbers taken from one digit table, and the
    NULs are dropped.
    """
    yield "0 2 1 1 1.0\n0 2 2 2 -1.0\n"
    m, pid = problem.m, problem.table.pid.ravel()
    inverse_pid, npairs = problem.inverse_pid, problem.npairs
    order = np.argsort(pid, kind="stable")
    x, y = np.divmod(order, m)
    upper = x <= y
    # source cells: every class's, then every class's x <= y part, then
    # lambda's two block-2 entries at offsets (1, 1) and (2, 2)
    src_x = np.concatenate([x, x[upper], [1, 2]])
    src_y = np.concatenate([y, y[upper], [1, 2]])
    src_code = np.concatenate([np.zeros_like(x), x[upper] == y[upper], [2, 3]])
    counts = np.bincount(pid, minlength=npairs)
    ucounts = np.bincount(pid[order[upper]], minlength=npairs)
    # start and length in the source of the three segments of a
    # constraint, off (0) or on (1) the diagonal, by class: the class's
    # cells, its inverse class's and lambda's entries
    start = np.zeros((2, npairs, 3), dtype=np.int64)
    length = np.zeros((2, npairs, 3), dtype=np.int64)
    start[0, :, 0], length[0, :, 0] = np.cumsum(counts) - counts, counts
    start[1, :, 0], length[1, :, 0] = len(order) + np.cumsum(ucounts) - ucounts, ucounts
    start[1, :, 1] = start[1, inverse_pid, 0]
    length[1, :, 1] = np.where(inverse_pid != np.arange(npairs), ucounts[inverse_pid], 0)
    start[1, problem.identity_pid, 2], length[1, problem.identity_pid, 2] = len(src_x) - 2, 2
    offset = np.array([1, 1, 0])  # only cell segments sit at row i*m + 1, column j*m + 1
    total = problem.constraint_count()
    digits = _digit_table(max(total, problem.n * m))
    number = digits.dtype
    line = np.dtype([("k", number), ("b", "V3"), ("p", number), ("sep", "u1"), ("q", number),
                     ("v", "V6")])
    for a, keys in zip(range(0, total, _CHUNK), _key_blocks(problem)):
        i, j, p = keys.T
        diag = (i == j).astype(np.intp)
        seg_length = length[diag, p]
        # one line per source cell of each segment
        flat = seg_length.ravel()
        first = np.cumsum(flat) - flat
        src = np.arange(flat.sum()) + np.repeat(start[diag, p].ravel() - first, flat)
        code = src_code[src]
        out = np.empty(len(src), dtype=line)
        out["k"] = np.repeat(digits[a + 1:a + 1 + len(p)], seg_length.sum(axis=1))
        out["b"] = _BLOCKS[code // 2]
        out["p"] = digits[np.repeat(np.outer(i * m + 1, offset), flat) + src_x[src]]
        out["sep"] = ord(" ")
        out["q"] = digits[np.repeat(np.outer(j * m + 1, offset), flat) + src_y[src]]
        out["v"] = _VALUES[code]
        yield out.tobytes().translate(None, b"\0").decode("ascii")


def _sdpa_chunks(problem: SdpProblem) -> Iterator[str]:
    """The text of the SDPA export in blocks, the header first."""
    n, m = problem.n, problem.m
    meta = {
        "version": 1,
        "n": n,
        "model": problem.basis.model.spec(),
        "radius": problem.basis.radius,
        "basis": [problem.basis.model.key_to_json(key) for key in problem.basis],
    }
    yield _PREAMBLE + json.dumps(meta, separators=(",", ":"), sort_keys=True) + "\n"
    yield f"{problem.constraint_count()}\n2\n{n * m} -2\n"
    # the objective line: one repr per distinct bit pattern of a block, so
    # that -0.0 and a nan print as repr prints them
    for a, keys in enumerate(_key_blocks(problem)):
        bits, code = np.unique(problem.targets[tuple(keys.T)].view(np.int64), return_inverse=True)
        words = [repr(v) for v in bits.view(np.float64).tolist()]
        yield " " * (a > 0) + " ".join(map(words.__getitem__, code.tolist()))
    yield "\n"
    yield from _entry_chunks(problem)


def export_sdpa(problem: SdpProblem) -> str:
    """Sparse SDPA (.dat-s) text for the problem.

    File is the standard SDPA dual form: maximize <F0, Y> subject to
    <Fk, Y> = c_k with Y PSD.  Y = blockdiag(P, s, t), where P is the
    nm x nm Gram block and lambda = s - t splits the free objective
    variable over a diagonal block of size 2.
    """
    return "".join(_sdpa_chunks(problem))


def write_sdpa(problem: SdpProblem, fh) -> None:
    """Write export_sdpa(problem) to the text stream fh block by block, never the whole at once."""
    for chunk in _sdpa_chunks(problem):
        fh.write(chunk)


def import_sdpa(text: str) -> SdpProblem:
    """Rebuild an SdpProblem from an export; inverse of export_sdpa.

    Accepts exactly what export_sdpa writes; only the META JSON may be
    formatted differently.  The problem is rebuilt from that JSON, the
    objective line is read into its targets, and the text after the header
    is compared with the problem's re-export a block at a time, so no list
    of the text's lines or tokens is held.
    """
    if not text.startswith(_PREAMBLE):
        raise ValueError("missing *META line; not a gapcert export")
    at = text.find("\n", len(_PREAMBLE)) + 1
    if not at:
        raise ValueError("truncated SDPA file")
    meta = json.loads(text[len(_PREAMBLE):at])
    model = model_from_spec(meta["model"])
    basis = basis_from_json(model, meta["basis"], meta.get("radius"))
    n = _json_int(meta["n"], "n")
    problem = SdpProblem(n, basis, np.zeros((n, n, len(basis.products()))))
    chunks = _sdpa_chunks(problem)
    next(chunks)  # the META line
    header = next(chunks)
    if not text.startswith(header, at):
        raise ValueError("header does not match the constraints the basis implies")
    at += len(header)
    tokens = _TOKEN.finditer(text, at, text.find("\n", at))
    c = np.fromiter(map(float, map(re.Match.group, tokens)), dtype=float)
    i, j, pid = problem.export_keys().T
    if len(c) != len(pid):
        raise ValueError(f"objective has {len(c)} values, the basis implies {len(pid)}")
    problem.targets[i, j, pid] = c
    problem.targets[j, i, problem.inverse_pid[pid]] = c
    # the chunks still to come, from the objective on, read the targets just set
    for chunk in chunks:
        if not text.startswith(chunk, at):
            raise ValueError("objective or entry lines do not match the export of the problem")
        at += len(chunk)
    if at != len(text):
        raise ValueError("text runs on past the export's entry lines")
    return problem


# ---------------------------------------------------------------------------
# Symmetry of the Gram coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GramSymmetry:
    """A group H of Gram-coordinate permutations that fixes the problem.

    Element 0 of H is the identity and ldiv[h, h'] the index of h^-1 h'.
    order[o*|H| + h] is the coordinate h.r_o, r_o the smallest coordinate
    of orbit o: the orbit-major layout.  With k = N/|H|, an H-invariant P
    is held once per value in invariant coordinates C[t][o, o'] =
    P[r_o, t.r_o'], a (|H|, k, k) array; orbit-major cell (o, h, o', h')
    holds C[ldiv[h, h']][o, o'].  fourier is |H| x |H| real orthogonal; an
    irrep rho of dimension d (in the order of dims) owns d*d consecutive
    columns, column (a, b) holding sqrt(d/|H|) rho(h)[a, b] in row h.
    """

    order: np.ndarray
    fourier: np.ndarray
    dims: Tuple[int, ...]
    ldiv: np.ndarray

    @classmethod
    def trivial(cls, size: int) -> "GramSymmetry":
        return cls(np.arange(size), np.ones((1, 1)), (1,), np.zeros((1, 1), dtype=np.int64))

    def expand(self, C: np.ndarray) -> np.ndarray:
        """The dense N x N matrix with invariant coordinates C, in the original layout."""
        g, k = C.shape[:2]
        coords = self.order.reshape(k, g)
        P = np.empty((g * k, g * k))
        for h in range(g):
            for h2 in range(g):
                P[np.ix_(coords[:, h], coords[:, h2])] = C[self.ldiv[h, h2]]
        return P


# an orthonormal basis of the plane orthogonal to (1, 1, 1)
_PLANE = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / np.sqrt([2.0, 6.0])


def _fixing_conjugations(problem: SdpProblem) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(Q, sigma, phi) for each 3x3 permutation matrix Q whose conjugation fixes the problem.

    g -> Q g Q^T must map generator image a to image sigma[a] and basis
    element x to phi[x]; pid[phi x, phi y] must be a class permutation pi;
    and targets[sigma, sigma, pi] must equal targets exactly.
    """
    model = problem.basis.model
    if not isinstance(model, MatrixModel) or model.dim != 3:
        return []
    images = {key: a for a, key in enumerate(model.images)}
    if not len(images) == model.n_generators == problem.n:
        return []
    keys = list(problem.basis)
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
            # act_t = act_h^-1 act_h' is the t that agrees with it at
            # coordinate 0, since the action is free
            at = np.empty(n * m, dtype=np.int64)
            at[act[:, 0]] = np.arange(6)
            ldiv = at[np.argsort(act, axis=1)[:, act[:, 0]]]
            return GramSymmetry(order, fourier, (1, 1, 2), ldiv)
    return GramSymmetry.trivial(n * m)


# ---------------------------------------------------------------------------
# Embedded solver
# ---------------------------------------------------------------------------


_OVER_RELAXATION = 1.6
_RHO = 1.0  # initial penalty; doubled or halved every 100 iterations while unbalanced
_CHECK_EVERY = 25  # iterations between residual checks


@dataclass
class SolveOptions:
    tol_primal: float = 1e-8
    tol_dual: float = 1e-8
    max_iter: int = 20000
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


def _psd_factor(A: np.ndarray, rtol: float = 0.0) -> np.ndarray:
    """B = V[:, keep] * sqrt(w[keep]) for the eigenpairs (w, V) of 0.5 * (A + A.T).

    keep is w > rtol * max(w, 0).  B @ B.T is the PSD part of A less the
    eigenvalues cut, and B has no columns when nothing is kept.
    """
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    keep = w > rtol * w.max(initial=0.0)
    return V[:, keep] * np.sqrt(w[keep])


def _psd_project(A: np.ndarray) -> np.ndarray:
    """The nearest PSD matrix to the symmetric part of A, exactly symmetric.

    numpy evaluates B @ B.T as a symmetric rank-k update (syrk), which
    fills one triangle and mirrors it.
    """
    B = _psd_factor(A)
    return B @ B.T


def _block_maps(sym: GramSymmetry) -> Tuple[np.ndarray, np.ndarray]:
    """(into, back): |H| x |H| maps between invariant coordinates and isotypic blocks.

    R = into.T @ C stacks, per irrep of dimension d, the d*d tiles (k x k)
    of its kd x kd Fourier block averaged over the block's d copies, and
    C = back @ R maps such blocks back; both follow from expanding C,
    F^T P F and F R F^T through ldiv.
    """
    F = sym.fourier
    times = sym.ldiv[sym.ldiv[:, 0]]  # times[h, t] is the index of h t
    into, back = np.zeros_like(F), np.zeros_like(F)
    col = 0
    for d in sym.dims:
        for a in range(d):
            for i in range(d):
                for j in range(d):
                    u, v, w = col + a * d + i, col + a * d + j, col + i * d + j
                    into[:, w] += F[:, u] @ F[times, v] / d
                    back[:, w] += F[0, u] * F[:, v]
        col += d * d
    return into, back


def _psd_project_invariant(
    C: np.ndarray, sym: GramSymmetry, maps: Tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """_psd_project of the H-invariant matrix with invariant coordinates C.

    Each isotypic block (_block_maps(sym)) is projected on its own; the
    part of C outside the blocks, rounding noise for a symmetric
    invariant matrix, is dropped.
    """
    into, back = maps
    g, k = C.shape[:2]
    R = into.T @ C.reshape(g, k * k)
    col = 0
    for d in sym.dims:
        tiles = R[col:col + d * d]
        block = tiles.reshape(d, d, k, k).transpose(2, 0, 3, 1).reshape(k * d, k * d)
        tiles[:] = _psd_project(block).reshape(k, d, k, d).transpose(1, 3, 0, 2).reshape(d * d, k * k)
        col += d * d
    return (back @ R).reshape(g, k, k)


class _InvariantConstraints:
    """The problem's constraints on an H-invariant P, one row per slot orbit.

    cid[c] is the orbit of the slot of the cell (r_o, t.r_o') behind flat
    invariant coordinate c = (t, o, o').  The slot sum of the dense P at
    a slot of orbit q is |Stab| = |H|/size[q] times the sum of the
    coordinates c with cid[c] = q, and the affine projection moves every
    slot of an orbit alike.
    """

    def __init__(self, problem: SdpProblem, sym: GramSymmetry):
        n, m, npairs = problem.n, problem.m, problem.npairs
        g = len(sym.ldiv)
        i, x = np.divmod(sym.order.reshape(-1, g), m)
        times = sym.ldiv[sym.ldiv[:, 0]]  # times[h, t] is the index of h t
        # images[h][t, o, o'] is the slot of cell (h.r_o, ht.r_o'), the
        # image under h of the cell behind C[t][o, o']
        images = np.stack([
            (i[:, h, None] * n + i[:, times[h]].T[:, None, :]) * npairs
            + problem.table.pid[x[:, h, None], x[:, times[h]].T[:, None, :]]
            for h in range(g)
        ])
        rep, self.cid = np.unique(images.min(axis=0).ravel(), return_inverse=True)
        # every cell is the image of one behind C, so every slot gets an orbit
        orbit = np.empty(n * n * npairs, dtype=np.int64)
        orbit[images] = self.cid.reshape(images.shape[1:])
        self.size = np.bincount(orbit, minlength=len(rep))
        self.stab = g / self.size
        self.cnt = np.bincount(problem.table.pid.ravel(), minlength=npairs)[rep % npairs].astype(float)
        self.b = problem.targets.ravel()[rep]
        # the orbits of the slots (i, i, identity), where lambda enters
        self.lam_orbits = orbit[np.arange(n) * (n + 1) * npairs + problem.identity_pid]
        self.lam_rows = np.unique(self.lam_orbits)
        self.n, self.m = n, float(m)

    def residual(self, C: np.ndarray, lam: float) -> np.ndarray:
        """Constraint value minus target per orbit, lambda entering the (i, i, identity) rows."""
        r = self.stab * np.bincount(self.cid, weights=C.ravel(), minlength=len(self.b)) - self.b
        r[self.lam_rows] += lam
        return r

    def norm(self, r: np.ndarray) -> float:
        """The 2-norm of the full-slot vector with orbit values r."""
        return math.sqrt(np.dot(self.size * r, r))

    def project(self, V: np.ndarray, vlam: float) -> Tuple[np.ndarray, float]:
        """Exact projection of (V, vlam) onto the affine constraint subspace."""
        resid = self.residual(V, vlam)
        mu = resid / self.cnt
        n, m = self.n, self.m
        rl = resid[self.lam_orbits]
        mu_l = rl / m - rl.sum() / (m * (m + n))
        mu[self.lam_orbits] = mu_l
        return V - mu[self.cid].reshape(V.shape), vlam - mu_l.sum()


def solve(problem: SdpProblem, opts: Optional[SolveOptions] = None) -> SdpSolution:
    """Maximize lambda over the problem's affine slice of the PSD cone.

    Deterministic cold start at P = 0, lambda = 0.  Status is "optimal"
    when both residuals pass their tolerances and "max-iter" otherwise; a
    free lambda makes every *-invariant target feasible, so there is no
    infeasible status.  Both projections commute with the group of
    gram_symmetry(problem), so the iterates are held in its invariant
    coordinates (N^2/|H| values): the affine step works on slot orbits and
    the PSD step block by block.  The dense P is built once, at exit, in
    the original layout.
    """
    opts = opts or SolveOptions()
    if opts.max_iter < 1:  # no iteration, no residuals to report
        raise ValueError(f"max_iter must be at least 1, got {opts.max_iter}")
    sym = gram_symmetry(problem)
    g = len(sym.ldiv)
    k = problem.n * problem.m // g
    cons = _InvariantConstraints(problem, sym)
    maps = _block_maps(sym)
    scale = math.sqrt(g)  # Frobenius norm of a dense P over that of its C

    rho = _RHO
    alpha = _OVER_RELAXATION
    Z = np.zeros((g, k, k))
    U = np.zeros((g, k, k))
    zlam = 0.0
    status = "max-iter"
    X, xlam, rp, rd = Z, 0.0, math.inf, math.inf
    it = 0
    for it in range(1, opts.max_iter + 1):
        X, xlam = cons.project(Z - U, zlam + 1.0 / rho)
        Xr = alpha * X + (1.0 - alpha) * Z
        xrlam = alpha * xlam + (1.0 - alpha) * zlam
        Z_new = _psd_project_invariant(Xr + U, sym, maps)
        U = U + Xr - Z_new
        check = it % _CHECK_EVERY == 0 or it == 1
        if check or it == opts.max_iter:  # the only iterations that read them
            rp = scale * float(np.linalg.norm(X - Z_new))
            rd = rho * scale * float(np.linalg.norm(Z_new - Z))
        Z = Z_new
        zlam = xrlam
        if check:
            if opts.progress is not None:
                opts.progress(it, xlam, rp, rd)
            if rp <= opts.tol_primal and rd <= opts.tol_dual:
                status = "optimal"
                break
            if it % 100 == 0:
                if rp > 10 * rd:
                    rho *= 2.0
                    U /= 2.0
                elif rd > 10 * rp:
                    rho /= 2.0
                    U *= 2.0
    return SdpSolution(
        lam=float(xlam),
        P=sym.expand(Z),
        primal_residual=rp,
        dual_residual=rd,
        constraint_residual=cons.norm(cons.residual(Z, xlam)),
        iterations=it,
        status=status,
    )
