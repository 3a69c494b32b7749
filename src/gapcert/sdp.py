"""Translate cone membership of Delta - lambda*I into a semidefinite program.

The Gram matrix P lives on coordinates (matrix row i, basis element x),
flattened as i*m + x.  For every product g = x^-1 y and every entry (i, j)
there is one linear constraint <A_g, P^{i,j}> = target_{i,j}(g); targets
outside the support of Delta are zero but still constrained, and the
objective variable enters the (i, i, identity) constraints only.  The
basis' ProductTable holds the one integer index all of this reads: the
class pid[x, y] of x^-1 y.  Constraint (i, j, pid) is the solver's slot
(i*n + j)*npairs + pid; the SDPA export walks the entries i <= j
(_entries) and writes each from one of two line templates (_templates),
each class's cells by the stable argsort of pid.
target_coefficients is the one walk of an exact target into those
classes; the SDP, the SDPA export and the certifier share it.

The embedded solver is over-relaxed ADMM.  _step takes one iterate
(Z, U, zlam, rho) to the next by exact projection onto the affine
constraint subspace (the constraint Gram operator is diagonal apart from
a rank-one coupling through lambda) and projection onto the PSD cone by
eigendecomposition; solve drives it and takes the residuals only at the
checks and at the last iteration.  One eigen-factor serves the PSD
projection and psd_sqrt: _psd_factor gives B = V sqrt(w) over the
eigenvalues kept, and the projection is B B^T, which numpy computes as a
symmetric rank-k update, so it is exactly symmetric.
When the index permutations e_ij -> e_s(i)s(j), s in S3, fix the problem
exactly (gram_symmetry), every iterate is S3-invariant and is held in
invariant coordinates C[t], N^2/6 values: the affine step sums over
orbits of constraint slots, and the PSD step projects one block
sum_t kron(C[t], rho[t]) per irrep rho of S3 (1, the sign and the plane
orthogonal to (1, 1, 1)), of sizes N/6, N/6 and N/3, instead of one
N x N eigendecomposition.  Any other problem is the same code with the
trivial group.  The dense P exists only at exit.  At radius 3 of
SL(3,Z) (N = 5298) an iterate is 37 MB and the dense P 225 MB, so such
instances should go through the SDPA export to an external solver.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .groups import (
    MatrixModel,
    SupportBasis,
    _json_int,
    basis_from_json,
    model_from_spec,
)
from .fox import Laplacian1, TermMatrix


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
        if self.targets.shape != (self.n, self.n, self.npairs):
            raise ValueError(f"targets must have shape {(self.n, self.n, self.npairs)}")

    def constraint_count(self) -> int:
        """The number of constraints of the SDPA export, summed over its entries (_entries)."""
        return sum(len(pids) for _, _, pids in _entries(self))

    def same_problem(self, other: "SdpProblem") -> bool:
        return (
            self.n == other.n
            and self.basis.model.spec() == other.basis.model.spec()
            and self.basis.elements == other.basis.elements
            and self.basis.radius == other.basis.radius
            and np.array_equal(self.targets, other.targets)
        )


def target_coefficients(matrix: TermMatrix, basis: SupportBasis):
    """Exact coefficients of a *-invariant target, split by the product table.

    matrix's entries are n rows of n mappings from group element to an int
    or Fraction coefficient; zero coefficients are skipped, and any other
    coefficient type is a ValueError.  Returns ({(i, j, pid): c} for the
    products x^-1 y over the basis, [(g, c)] for every coefficient on a
    product outside them), both in row-major entry order and sorted support.
    """
    model, rows = matrix.model, matrix.entries
    if model is not basis.model and model.spec() != basis.model.spec():
        raise ValueError("target and basis use different models")
    terms = {}
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ValueError("target matrix must be square and *-invariant")
        for j, entry in enumerate(row):
            for g in sorted(entry):
                c = entry[g]
                if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                    raise ValueError(f"target coefficients must be ints or Fractions, got {c!r}")
                if c:
                    terms[i, j, g] = c
    # *-invariant: entry (j, i) is entry (i, j) with each g made g^-1
    if not rows or any(terms.get((j, i, model.inverse(g))) != c for (i, j, g), c in terms.items()):
        raise ValueError("target matrix must be square and *-invariant")
    pids = basis.products().find([g for _, _, g in terms])
    inside, outside = {}, []
    for ((i, j, g), c), pid in zip(terms.items(), pids):
        if pid is None:
            outside.append((g, c))
        else:
            inside[i, j, pid] = c
    return inside, outside


def build_problem(source, basis: SupportBasis) -> SdpProblem:
    """Build the SDP for `source - lambda * I` over the given basis.

    `source` is a Laplacian1 or a TermMatrix, a square *-invariant exact
    target (target_coefficients) whose support must be covered by products
    over the basis.
    """
    matrix = source.matrix if isinstance(source, Laplacian1) else source
    inside, outside = target_coefficients(matrix, basis)
    if outside:
        raise SupportTooSmallError(dict.fromkeys(g for g, _ in outside))
    n = len(matrix.entries)
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
_LINES = 4096  # entry lines per block of export text: bounds what export and import hold
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


def _entries(problem: SdpProblem) -> Iterator[Tuple[int, int, np.ndarray]]:
    """The export's entries i <= j, row-major, as (i, j, pids): the classes constrained there.

    Every class off the diagonal; on it one of each pair of mutually
    inverse classes, the smaller pid.  The constraints are (i, j, pid) for
    pid in pids, entry by entry.
    """
    every = np.arange(problem.npairs)
    kept = np.flatnonzero(problem.table.inverse_pid >= every)
    for i in range(problem.n):
        yield i, i, kept
        for j in range(i + 1, problem.n):
            yield i, j, every


def _templates(problem: SdpProblem) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """The (c, x, y, code) line templates of an entry off and on the diagonal.

    A line puts code's value at cell (x, y) of the entry's block in the
    entry's constraint c, counted from its first.  Off the diagonal that
    is every cell of class c, code 0 (0.5).  On it c counts the kept
    classes, and constraint c has the cells x <= y of its class, then of
    the inverse class if that differs, code 1 (1.0) where x == y and 0
    elsewhere; the identity class adds lambda's two lines, codes 2 and 3, at
    (1, 1) and (2, 2) of block 2.  Each class's cells run x-major, by the
    stable argsort of pid.
    """
    m, pid, inverse_pid = problem.m, problem.table.pid.ravel(), problem.table.inverse_pid
    order = np.argsort(pid, kind="stable")
    x, y = np.divmod(order, m)
    c = pid[order]
    off = (c, x, y, np.zeros_like(c))
    # the diagonal's cells x <= y, and lambda's two lines as lines of the identity class
    upper = x <= y
    c = np.append(c[upper], [problem.table.identity_pid] * 2)
    x, y = np.append(x[upper], [1, 2]), np.append(y[upper], [1, 2])
    code = np.append(x[:-2] == y[:-2], [2, 3])
    owner = np.minimum(c, inverse_pid[c])  # the kept class, whose constraint the line is in
    # stable, so a constraint has its own class's cells (the smaller pid)
    # first, then its inverse class's, then lambda's lines, appended last
    by = np.argsort(owner, kind="stable")
    rank = np.cumsum(inverse_pid >= np.arange(problem.npairs)) - 1  # a kept class's place
    return off, (rank[owner[by]], x[by], y[by], code[by])


def _entry_chunks(problem: SdpProblem) -> Iterator[str]:
    """The export's lines after the objective vector, at most _LINES at a time.

    Line "k b p q v" puts v at (p, q) in block b of F_k; F_0 is lambda =
    s - t.  Entry (i, j) is its template (_templates) with every cell moved
    to (i*m + x + 1, j*m + y + 1) and its constraints numbered on from the
    entry before.  A block is built as fixed-width records of NUL-padded
    fields, the numbers taken from one digit table, and the NULs are
    dropped.
    """
    yield "0 2 1 1 1.0\n0 2 2 2 -1.0\n"
    m = problem.m
    templates = _templates(problem)
    digits = _digit_table(max(problem.constraint_count(), problem.n * m))
    number = digits.dtype
    line = np.dtype([("k", number), ("b", "V3"), ("p", number), ("sep", "u1"), ("q", number),
                     ("v", "V6")])
    first = 1
    for i, j, pids in _entries(problem):
        template = templates[i == j]
        for a in range(0, len(template[0]), _LINES):
            c, x, y, code = (t[a:a + _LINES] for t in template)
            cell = code < 2  # lambda's lines stay in block 2 at (1, 1) and (2, 2)
            out = np.empty(len(c), dtype=line)
            out["k"] = digits[first + c]
            out["b"] = _BLOCKS[code // 2]
            out["p"] = digits[x + cell * (i * m + 1)]
            out["sep"] = ord(" ")
            out["q"] = digits[y + cell * (j * m + 1)]
            out["v"] = _VALUES[code]
            yield out.tobytes().translate(None, b"\0").decode("ascii")
        first += len(pids)


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
    # the objective line: one repr per distinct bit pattern of an entry, so
    # that -0.0 and a nan print as repr prints them
    for i, j, pids in _entries(problem):
        bits, code = np.unique(problem.targets[i, j, pids].view(np.int64), return_inverse=True)
        words = [repr(v) for v in bits.view(np.float64).tolist()]
        yield " " * (i + j > 0) + " ".join(map(words.__getitem__, code.tolist()))
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
    try:
        meta = json.loads(text[len(_PREAMBLE):at])
    except RecursionError:
        raise ValueError("META JSON is nested too deeply") from None
    if not isinstance(meta, dict):
        raise ValueError("META must be a JSON object")
    model = model_from_spec(meta.get("model"))
    basis = basis_from_json(model, meta.get("basis"), meta.get("radius"))
    n = _json_int(meta.get("n"), "n")
    if n * n > len(text):  # the objective line has 2 characters or more per entry i <= j
        raise ValueError(f"n = {n} is too large for a text of {len(text)} characters")
    problem = SdpProblem(n, basis, np.zeros((n, n, len(basis.products()))))
    chunks = _sdpa_chunks(problem)
    next(chunks)  # the META line
    header = next(chunks)
    if not text.startswith(header, at):
        raise ValueError("header does not match the constraints the basis implies")
    at += len(header)
    tokens = _TOKEN.finditer(text, at, text.find("\n", at))
    c = np.fromiter(map(float, map(re.Match.group, tokens)), dtype=float)
    total = problem.constraint_count()
    if len(c) != total:
        raise ValueError(f"objective has {len(c)} values, the basis implies {total}")
    a = 0
    for i, j, pids in _entries(problem):
        part = c[a:a + len(pids)]
        problem.targets[i, j, pids] = part
        problem.targets[j, i, problem.table.inverse_pid[pids]] = part
        a += len(pids)
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
    holds C[ldiv[h, h']][o, o'].  irreps holds H's real orthogonal
    irreducible representations, each an (|H|, d, d) array whose rho[h]
    is the matrix of h.  P is orthogonally similar to the direct sum over
    rho of d copies of the kd x kd block sum_t kron(C[t], rho[t]).
    """

    order: np.ndarray
    irreps: Tuple[np.ndarray, ...]
    ldiv: np.ndarray

    @classmethod
    def trivial(cls, size: int) -> "GramSymmetry":
        return cls(np.arange(size), (np.ones((1, 1, 1)),), np.zeros((1, 1), dtype=np.int64))

    @cached_property
    def maps(self) -> Tuple[np.ndarray, np.ndarray]:
        """(into, back): |H| x |H| maps between invariant coordinates and isotypic blocks.

        into[t, (rho, a, b)] = rho[t][a, b], so row (rho, a, b) of R = into.T @ C
        is tile (a, b) of block rho, sum_t C[t] rho[t][a, b].  back is into
        with irrep rho's columns scaled by d/|H|; Schur orthogonality gives
        back @ into.T = I, so C = back @ R.
        """
        g = len(self.ldiv)
        into = np.hstack([rho.reshape(g, -1) for rho in self.irreps])
        back = np.hstack([rho.reshape(g, -1) * (rho.shape[1] / g) for rho in self.irreps])
        return into, back

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
            Q = np.array([q for q, _, _ in kept])
            irreps = (np.ones((6, 1, 1)), np.linalg.det(Q).round()[:, None, None], _PLANE.T @ Q @ _PLANE)
            # act_t = act_h^-1 act_h' is the t that agrees with it at
            # coordinate 0, since the action is free
            at = np.empty(n * m, dtype=np.int64)
            at[act[:, 0]] = np.arange(6)
            ldiv = at[np.argsort(act, axis=1)[:, act[:, 0]]]
            return GramSymmetry(order, irreps, ldiv)
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


def _psd_project_invariant(C: np.ndarray, sym: GramSymmetry) -> np.ndarray:
    """The nearest PSD matrix to the H-invariant matrix with invariant coordinates C.

    Block rho = sum_t kron(C[t], rho[t]) is projected on its own to B @ B.T,
    B = _psd_factor(block), which numpy evaluates as a symmetric rank-k
    update (syrk) that fills one triangle and mirrors it; C is read back
    from the projected blocks (sym.maps).
    """
    into, back = sym.maps
    g, k = C.shape[:2]
    R = into.T @ C.reshape(g, k * k)
    col = 0
    for d in (rho.shape[1] for rho in sym.irreps):
        tiles = R[col:col + d * d]
        B = _psd_factor(tiles.reshape(d, d, k, k).transpose(2, 0, 3, 1).reshape(k * d, k * d))
        tiles[:] = (B @ B.T).reshape(k, d, k, d).transpose(1, 3, 0, 2).reshape(d * d, k * k)
        col += d * d
    return (back @ R).reshape(g, k, k)


class _InvariantConstraints:
    """The problem's constraints on an H-invariant P, one row per slot orbit.

    cid[c] is the orbit of the slot of the cell (r_o, t.r_o') behind flat
    invariant coordinate c = (t, o, o'); an orbit is named by its least
    slot.  The slot sum of the dense P at a slot of orbit q is |Stab| =
    |H|/size[q] times the sum of the coordinates c with cid[c] = q, and
    the affine projection moves every slot of an orbit alike.
    """

    def __init__(self, problem: SdpProblem, sym: GramSymmetry):
        n, m, npairs = problem.n, problem.m, problem.npairs
        g = len(sym.ldiv)
        i, x = np.divmod(sym.order.reshape(-1, g).T, m)  # i[h, o] * m + x[h, o] is h.r_o
        k = i.shape[1]
        times = sym.ldiv[sym.ldiv[:, 0]]  # times[h, t] is the index of h t
        pid = problem.table.pid
        for h, ht in enumerate(times):
            # image[t, o, o'] is the slot of cell (h.r_o, ht.r_o'), the
            # image under h of the cell behind C[t][o, o']
            image = (i[h, :, None] * n + i[ht, None]) * npairs + pid[x[h, :, None], x[ht, None]]
            least = image if h == 0 else np.minimum(least, image, out=least)
        seen = np.zeros(n * n * npairs, dtype=bool)
        seen[least] = True  # orbits in slot order: orbit q's least slot is rep[q]
        rep = np.flatnonzero(seen)
        self.cid = (np.cumsum(seen) - 1)[least.ravel()]
        cells = np.bincount(pid.ravel(), minlength=npairs)[rep % npairs]
        # H acts freely on cells, so an orbit of size[q] slots, each of
        # cells[q] cells, holds size[q] * cells[q] / |H| coordinates
        self.size = g * np.bincount(self.cid, minlength=len(rep)) // cells
        self.stab = g / self.size
        self.cnt = cells.astype(float)
        self.b = problem.targets.ravel()[rep]
        # the orbits of the slots (i, i, identity), where lambda enters: those
        # of the cells (r_o, r_o) behind C[0][o, o], for i*m = h.r_o
        o = np.argsort(sym.order)[np.arange(n) * m] // g
        self.lam_orbits = self.cid[o * (k + 1)]
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


class _Iterate(NamedTuple):
    """An ADMM iterate in invariant coordinates; the dual variable is rho * U."""

    Z: np.ndarray  # the PSD point
    U: np.ndarray
    zlam: float  # lambda's relaxed value
    rho: float


def _step(
    s: _Iterate, cons: _InvariantConstraints, sym: GramSymmetry
) -> Tuple[_Iterate, np.ndarray, float]:
    """The iterate after s, and the step's affine point (X, xlam)."""
    alpha = _OVER_RELAXATION
    X, xlam = cons.project(s.Z - s.U, s.zlam + 1.0 / s.rho)
    Xr = alpha * X + (1.0 - alpha) * s.Z
    Z = _psd_project_invariant(Xr + s.U, sym)
    return _Iterate(Z, s.U + Xr - Z, alpha * xlam + (1.0 - alpha) * s.zlam, s.rho), X, xlam


def _residuals(prev: _Iterate, cur: _Iterate, X: np.ndarray) -> Tuple[float, float]:
    """(rp, rd) of the step prev -> cur with affine point X, as Frobenius norms of the dense P."""
    scale = math.sqrt(len(X))  # a dense P's norm over that of its invariant coordinates
    rp = scale * float(np.linalg.norm(X - cur.Z))
    return rp, cur.rho * scale * float(np.linalg.norm(cur.Z - prev.Z))


def _rebalance(s: _Iterate, rp: float, rd: float) -> _Iterate:
    """s with rho doubled if rp > 10 rd or halved if rd > 10 rp; U is scaled in place to keep rho * U."""
    f = 2.0 if rp > 10 * rd else 0.5 if rd > 10 * rp else 1.0
    return s._replace(U=np.divide(s.U, f, out=s.U), rho=s.rho * f)


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
    cur = _Iterate(np.zeros((g, k, k)), np.zeros((g, k, k)), 0.0, _RHO)
    status = "max-iter"
    for it in range(1, opts.max_iter + 1):
        new, X, xlam = _step(cur, cons, sym)
        check = it % _CHECK_EVERY == 0 or it == 1
        if check or it == opts.max_iter:  # the only iterations that read them
            rp, rd = _residuals(cur, new, X)
        cur = new
        del X  # freed before the next step allocates its own
        if check:
            if opts.progress is not None:
                opts.progress(it, xlam, rp, rd)
            if rp <= opts.tol_primal and rd <= opts.tol_dual:
                status = "optimal"
                break
            if it % 100 == 0:
                cur = _rebalance(cur, rp, rd)
    P = sym.expand(cur.Z)
    return SdpSolution(float(xlam), P, rp, rd, cons.norm(cons.residual(cur.Z, xlam)), it, status)
