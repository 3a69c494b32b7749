"""Independent oracles for the test suite.

Everything here is deliberately primitive (brute-force enumeration, naive
matrix products, exact rational ring arithmetic routed through verify_sos
factors, the order-unit construction) so that expected values never come
from the code paths under test.  gapcert.ring has containers only; the
exact ring arithmetic (add, mul, star, adjoint, identity, l1) lives here.
"""

import json
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, List, Tuple, Union

import numpy as np

from gapcert.certify import Certificate
from gapcert.groups import Key, SupportBasis, model_from_spec
from gapcert.ring import RingElement, RingMatrix


Factor = Union[RingMatrix, Tuple[object, RingMatrix]]


def element(model, g, c=1) -> RingElement:
    """The ring element c*g of the model's group ring."""
    return RingElement(model, {g: c})


def identity(model, n, c=1) -> RingMatrix:
    """c times the n x n identity; c = 0 gives the zero matrix."""
    e = model.identity()
    rows = [[element(model, e, c * (i == j)) for j in range(n)] for i in range(n)]
    return RingMatrix(model, rows)


def add(a, b, c=1):
    """a + c*b, exactly, for two ring elements or two ring matrices of one shape."""
    if isinstance(a, RingMatrix):
        assert (a.n_rows, a.n_cols) == (b.n_rows, b.n_cols)
        rows = zip(a.entries, b.entries)
        return RingMatrix(a.model, [[add(x, y, c) for x, y in zip(ra, rb)] for ra, rb in rows])
    out = dict(a.coeffs)
    for g, x in b.coeffs.items():
        out[g] = out.get(g, 0) + c * x
    return RingElement(a.model, out)


def mul(a, b):
    """The exact product of two ring elements, or of two ring matrices."""
    if isinstance(a, RingMatrix):
        assert a.n_cols == b.n_rows
        rows, cols = a.entries, list(zip(*b.entries))
        return RingMatrix(a.model, [[reduce(add, map(mul, r, c)) for c in cols] for r in rows])
    out = {}
    for g, x in a.coeffs.items():
        for h, y in b.coeffs.items():
            gh = a.model.multiply(g, h)
            out[gh] = out.get(gh, 0) + x * y
    return RingElement(a.model, out)


def star(a) -> RingElement:
    """a* = sum c g^-1 for a = sum c g."""
    return RingElement(a.model, {a.model.inverse(g): c for g, c in a.coeffs.items()})


def adjoint(a) -> RingMatrix:
    """The transpose of a with star applied to each entry."""
    rows = zip(*a.entries)
    return RingMatrix(a.model, [[star(e) for e in row] for row in rows])


def l1(a) -> Fraction:
    """The sum of |coefficient| over a ring element, or over all entries of a matrix."""
    entries = [e for row in a.entries for e in row] if isinstance(a, RingMatrix) else [a]
    return sum((abs(x) for e in entries for x in e.coeffs.values()), Fraction(0))


def sum_of_squares(model, n, factors, c=0) -> RingMatrix:
    """c*I + sum F* F over the factors, exactly."""
    return reduce(add, (mul(adjoint(f), f) for f in factors), identity(model, n, c))


def class_elements(table, basis) -> List[Key]:
    """Each class of a ProductTable as the group element x^-1 y at its first cell."""
    model, E = basis.model, basis.elements
    return [model.multiply(model.inverse(E[x]), E[y]) for (x, y), *_ in members(table)]


def _normalize_factors(factors: Iterable[Factor]):
    out = []
    for f in factors:
        if isinstance(f, RingMatrix):
            out.append((Fraction(1), f))
        else:
            scale, mat = f
            out.append((scale, mat))  # add() rejects a float scale
    return out


def verify_sos(M: RingMatrix, factors: Iterable[Factor]) -> RingMatrix:
    """Residual M - sum(scale * adjoint(F) * F), exactly.

    A zero residual certifies cone membership.  Each factor must have M's
    column count; row counts are free.
    """
    if M.n_rows != M.n_cols:
        raise ValueError("target must be square")
    residual = M
    for scale, f in _normalize_factors(factors):
        if f.model.model_id != M.model.model_id:
            raise ValueError("factor model mismatch")
        if f.n_cols != M.n_cols:
            raise ValueError(
                f"factor has {f.n_cols} columns, target needs {M.n_cols}"
            )
        residual = add(residual, mul(adjoint(f), f), -scale)
    return residual


class NotStarInvariantError(ValueError):
    pass


def order_unit_sos(M: RingMatrix) -> List[Tuple[Fraction, RingMatrix]]:
    """Constructive squares for M + l1(M) * I, M *-invariant and exact.

    Returns (scale, factor) pairs with nonnegative rational scales such
    that M + l1(M)*I == sum(scale * adjoint(F) * F) exactly.  Factors are
    built from the elementary blocks (1 +- g) on the diagonal and
    (I2 +- X_g) across symmetric off-diagonal pairs; whatever part of the
    l1 budget a position does not consume is emitted as a plain constant
    diagonal square.
    """
    if M.n_rows != M.n_cols or adjoint(M) != M:
        raise NotStarInvariantError("target is not *-invariant")
    model = M.model
    n = M.n_rows
    ident = model.identity()
    total = l1(M)
    used = [Fraction(0)] * n
    factors: List[Tuple[Fraction, RingMatrix]] = []

    def embedded(positions):
        mat = [[RingElement(model, {}) for _ in range(n)] for _ in range(n)]
        for (i, j), elem in positions.items():
            mat[i][j] = elem
        return RingMatrix(model, mat)

    for i in range(n):
        x = M.entries[i][i]
        seen = set()
        for g in x.support():
            if g in seen:
                continue
            c = x.coefficient(g)
            g_inv = model.inverse(g)
            if g == ident:
                seen.add(g)
                used[i] += abs(c)
                if c + abs(c) != 0:
                    factors.append(
                        (c + abs(c), embedded({(i, i): element(model, ident)}))
                    )
            elif g_inv == g:
                # involution: (1 +- g)*(1 +- g) = 2 +- 2g
                seen.add(g)
                used[i] += abs(c)
                sign = 1 if c > 0 else -1
                f = add(element(model, ident), element(model, g, sign))
                factors.append((Fraction(abs(c), 2), embedded({(i, i): f})))
            else:
                seen.add(g)
                seen.add(g_inv)
                if x.coefficient(g_inv) != c:
                    raise NotStarInvariantError(
                        f"diagonal entry {i} is not *-invariant"
                    )
                # pair: (1 +- g)*(1 +- g) = 2 +- (g + g^-1)
                used[i] += 2 * abs(c)
                sign = 1 if c > 0 else -1
                f = add(element(model, ident), element(model, g, sign))
                factors.append((abs(c), embedded({(i, i): f})))

    for i in range(n):
        for j in range(i + 1, n):
            x = M.entries[i][j]
            for g in x.support():
                c = x.coefficient(g)
                g_inv = model.inverse(g)
                sign = Fraction(1 if c > 0 else -1)
                # (I2 + X)*(I2 + X) = 2 I2 + 2 X for X = [[0, +-g], [+-g^-1, 0]]
                f = embedded(
                    {
                        (i, i): element(model, ident),
                        (i, j): element(model, g, sign),
                        (j, i): element(model, g_inv, sign),
                        (j, j): element(model, ident),
                    }
                )
                factors.append((Fraction(abs(c), 2), f))
                used[i] += abs(c)
                used[j] += abs(c)

    for i in range(n):
        slack = total - used[i]
        if slack < 0:
            raise AssertionError("order-unit bookkeeping went negative")
        if slack > 0:
            factors.append((slack, embedded({(i, i): element(model, ident)})))
    return factors


def mat_mul_3x3(a, b):
    """Naive integer 3x3 product on nested tuples."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_identity_3x3():
    return ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def word_image_3x3(word, images, inverses):
    out = mat_identity_3x3()
    for idx, sign in word:
        out = mat_mul_3x3(out, images[idx] if sign > 0 else inverses[idx])
    return out


def invert_3x3_unimodular(a):
    """Inverse of an integer matrix with det +-1 via cofactors."""
    def det2(m):
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    det = (
        a[0][0] * det2(((a[1][1], a[1][2]), (a[2][1], a[2][2])))
        - a[0][1] * det2(((a[1][0], a[1][2]), (a[2][0], a[2][2])))
        + a[0][2] * det2(((a[1][0], a[1][1]), (a[2][0], a[2][1])))
    )
    assert det in (1, -1)
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = ((a[rows[0]][cols[0]], a[rows[0]][cols[1]]),
                     (a[rows[1]][cols[0]], a[rows[1]][cols[1]]))
            cof[i][j] = (-1) ** (i + j) * det2(minor)
    return tuple(tuple(cof[j][i] * det for j in range(3)) for i in range(3))


def brute_ball_keys(images, inverses, radius, multiply, identity):
    """All products of at most `radius` symmetrized generators."""
    gens = []
    for img, inv in zip(images, inverses):
        for g in (img, inv):
            if g not in gens:
                gens.append(g)
    seen = {identity, }
    layer = [identity]
    for _ in range(radius):
        nxt = []
        for el in layer:
            for g in gens:
                prod = multiply(el, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        layer = nxt
    return seen


def random_ring_element(model, elements, rng, max_support=4, denom=4):
    coeffs = {}
    for g in rng.sample(elements, min(max_support, len(elements))):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, denom))
        if c:
            coeffs[g] = c
    return RingElement(model, coeffs)


def random_star_invariant_matrix(model, elements, rng, n):
    rows = [
        [random_ring_element(model, elements, rng) for _ in range(n)]
        for _ in range(n)
    ]
    A = RingMatrix(model, rows)
    return add(A, adjoint(A))


def q_rows_as_factors(model, basis, n, Q_rows):
    """Reinterpret rows of Q as 1 x n ring factors over the basis.

    Row layout matches the Gram convention: column (j, y) = j*m + y holds
    the coefficient of basis element y inside component j.
    """
    m = len(basis)
    factors = []
    for row in Q_rows:
        entries = []
        for j in range(n):
            coeffs = {}
            for y, el in enumerate(basis.elements):
                c = row[j * m + y]
                c = c if isinstance(c, Fraction) else Fraction(float(c))
                if c:
                    coeffs[el] = c
            entries.append(RingElement(model, coeffs))
        factors.append(RingMatrix(model, [entries]))
    return factors


def exact_certified_gap(target, basis, Q_rows, lam):
    """Exact rational version of the certified bound: lam - l1(residual).

    Residual goes through ring convolution of the per-row factors, a
    route disjoint from the interval certifier's Gram-pairing path.
    """
    model = target.model
    n = target.n_rows
    lam = lam if isinstance(lam, Fraction) else Fraction(float(lam))
    factors = q_rows_as_factors(model, basis, n, Q_rows)
    shifted = add(target, identity(model, n, lam), -1)
    residual = verify_sos(shifted, factors)
    return lam - l1(residual), residual


def reconstruct_exact(problem, P):
    """Exact x* P x as a rational RingMatrix.

    P entries are converted to Fractions (exact for floats), so this is a
    rational evaluation of the constraint linear map, independent of any
    solver state.
    """
    table = problem.table
    model = problem.basis.model
    n, m = problem.n, problem.m

    def frac(v) -> Fraction:
        return v if isinstance(v, Fraction) else Fraction(float(v))

    cells = members(table)
    elements = class_elements(table, problem.basis)
    entries = []
    for i in range(n):
        row_out = []
        for j in range(n):
            coeffs = {}
            for pid, elem in enumerate(elements):
                total = Fraction(0)
                for x, y in cells[pid]:
                    total += frac(P[i * m + x][j * m + y] if isinstance(P, list) else P[i * m + x, j * m + y])
                if total:
                    coeffs[elem] = total
            row_out.append(RingElement(model, coeffs))
        entries.append(row_out)
    return RingMatrix(model, entries)


def members(table) -> List[List[Tuple[int, int]]]:
    """The cells (x, y) of each class of a ProductTable, x-major, as Python ints."""
    order = np.argsort(table.pid, axis=None, kind="stable")
    x, y = np.divmod(order, len(table.pid))
    cells = list(zip(x.tolist(), y.tolist()))
    ends = np.cumsum(np.bincount(table.pid.ravel(), minlength=len(table))).tolist()
    return [cells[a:b] for a, b in zip([0] + ends[:-1], ends)]


def export_keys(problem) -> List[Tuple[int, int, int]]:
    """The export's constraints (i, j, pid): entries i <= j row-major, classes in order.

    A diagonal entry keeps one of each pair of mutually inverse classes, the smaller pid.
    """
    inverse_pid = problem.inverse_pid.tolist()
    return [
        (i, j, pid)
        for i in range(problem.n)
        for j in range(i, problem.n)
        for pid in range(problem.npairs)
        if i != j or inverse_pid[pid] >= pid
    ]


def sdpa_text(problem) -> str:
    """The SDPA export of a problem, built one formatted line at a time."""
    n, m = problem.n, problem.m
    keys = export_keys(problem)
    meta = {
        "version": 1,
        "n": n,
        "model": problem.basis.model.spec(),
        "radius": problem.basis.radius,
        "basis": [problem.basis.model.key_to_json(key) for key in problem.basis],
    }
    header = [
        "* gapcert sparse SDPA export (format v1)",
        "* dual form: maximize <F0,Y> s.t. <Fk,Y>=c_k, Y PSD",
        "* Y = blockdiag(P, s, t); P is the nm x nm Gram block, lambda = s - t",
        "*META " + json.dumps(meta, separators=(",", ":"), sort_keys=True),
        f"{len(keys)}",
        "2",
        f"{n * m} -2",
        " ".join(repr(float(problem.targets[key])) for key in keys),
    ]
    return "\n".join([*header, *entry_lines(problem, keys)]) + "\n"


def first_difference(got: str, want: str):
    """None if two texts are equal, else the first line that differs: (index, got's, want's).

    A short failure report, where pytest's diff of two large texts takes minutes.
    """
    if got == want:
        return None
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return k, a[k] if k < len(a) else None, b[k] if k < len(b) else None


def entry_lines(problem, keys) -> Iterator[str]:
    """The export's lines after the objective vector: the entries of F0, F1, ..."""
    m = problem.m
    yield from ("0 2 1 1 1.0", "0 2 2 2 -1.0")
    inverse_pid = problem.inverse_pid.tolist()
    cells = members(problem.table)
    for k, (i, j, pid) in enumerate(keys, start=1):
        if i == j:
            pattern = cells[pid]
            if inverse_pid[pid] != pid:
                pattern = pattern + cells[inverse_pid[pid]]
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
            for x, y in cells[pid]:
                p, q = i * m + x, j * m + y
                yield f"{k} 1 {p + 1} {q + 1} 0.5"


def symmetric_psd_sqrt(P):
    """The N x N symmetric square root V sqrt(max(w, 0)) V^T of P's PSD part."""
    w, V = np.linalg.eigh(0.5 * (P + P.T))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def psd_project_by_cases(A):
    """The PSD projection of A's symmetric part, with a case for each inertia."""
    S = 0.5 * (A + A.T)
    w, V = np.linalg.eigh(S)
    if w.min(initial=0.0) >= 0.0:
        return S
    pos = w > 0.0
    if not pos.any():
        return np.zeros_like(S)
    Z = (V[:, pos] * w[pos]) @ V[:, pos].T
    return 0.5 * (Z + Z.T)


def rank_cut_psd_sqrt(P):
    """psd_sqrt's Gram factor before rounding, from its own eigendecomposition."""
    w, V = np.linalg.eigh(0.5 * (P + P.T))
    keep = w > len(w) * np.finfo(float).eps * w.max(initial=0.0)
    return np.ascontiguousarray((V[:, keep] * np.sqrt(w[keep])).T)


def cofactor_det(a) -> int:
    """Determinant of a square integer matrix by cofactor expansion along row 0."""
    d = len(a)
    if d == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in map(list, a[1:])])
        for j in range(d)
    )


def support_basis_from_json(data: dict) -> SupportBasis:
    """Inverse of SupportBasis.to_json (the `gapcert ball --json` output)."""
    model = model_from_spec(data["model"])
    return SupportBasis(model, [model.key_from_json(k) for k in data["keys"]], data.get("radius"))


def ring_matrix_from_json(data: dict) -> RingMatrix:
    """Inverse of RingMatrix.to_json (the `gapcert laplacian` output)."""
    model = model_from_spec(data["model"])
    entries = [
        [
            RingElement(model, {model.key_from_json(key): Fraction(c) for key, c in cell})
            for cell in row
        ]
        for row in data["entries"]
    ]
    got = RingMatrix(model, entries)
    if got.n_rows != data["n_rows"] or got.n_cols != data["n_cols"]:
        raise ValueError("matrix shape does not match header")
    return got


def certificate_json_dict(cert) -> dict:
    """The certificate as the dict that Certificate.to_bytes writes compactly."""
    rows, cols = cert.q.shape
    entries = [list(map(repr, row)) for row in cert.q.tolist()]
    return {**cert.fields, "q": {"rows": rows, "cols": cols, "entries": entries}}


def certificate_from_json_dict(data: dict) -> Certificate:
    """The certificate whose JSON object is data, read by Certificate.from_bytes."""
    return Certificate.from_bytes(json.dumps(data).encode())


def load_certificate(data: bytes):
    """(fields, Q) of a certificate's bytes, read entry by entry with json.loads.

    The reference for Certificate.from_bytes: it builds a Python string
    per entry of Q before numpy converts each with float().  from_bytes
    reads every document to the same fields and Q bits, and refuses what
    this refuses with the same message; it reads a document whose Q is
    not its last value, or is malformed, this same way.
    """
    try:
        data = json.loads(data)
    except RecursionError:
        raise ValueError("certificate JSON is nested too deeply") from None
    if not isinstance(data, dict) or data.get("format") != "gapcert-certificate-v1":
        raise ValueError("unknown certificate format")
    try:
        q = data["q"]
        entries = q["entries"]
        if not all(type(row) is list and set(map(type, row)) <= {str} for row in entries):
            raise ValueError("Q entries must be lists of decimal strings")
        shape = (q["rows"], q["cols"])
        if len(entries) != shape[0] or any(len(row) != shape[1] for row in entries):
            raise ValueError(f"Q entries do not fill its stored shape {shape}")
        Q = np.array(entries, dtype=float).reshape(shape)  # numpy converts each str with float()
    except KeyError as exc:
        raise ValueError(f"malformed certificate: no field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from None
    return {k: v for k, v in data.items() if k != "q"}, Q


def d0(model, p) -> RingMatrix:
    """Column [1 - s_1; ...; 1 - s_n]."""
    col = []
    for i in range(p.n_generators):
        e = add(element(model, model.identity()), element(model, model.generator(i)), -1)
        col.append([e])
    return RingMatrix(model, col)


def fox_derivative(model, w, j) -> RingElement:
    """d(w)/d(s_j) in the model's group ring, by the product rule.

    d(uv) = du + u dv, applied one letter at a time: with u the prefix
    before a letter, the letter adds u * d(letter), where d(s_j) = 1 and
    d(s_j^-1) = -s_j^-1 by generator s_j and 0 by any other.  Each product
    is an exact ring product (mul).
    """
    if not 0 <= j < model.n_generators:
        raise ValueError(f"generator index {j} out of range")
    one = element(model, model.identity())
    total, prefix = RingElement(model, {}), one
    for idx, sign in w:
        s = model.generator(idx)
        letter = element(model, s if sign > 0 else model.inverse(s))
        if idx == j:
            total = add(total, mul(prefix, one if sign > 0 else letter), sign)
        prefix = mul(prefix, letter)
    return total


def relator_square(model, p, r) -> RingMatrix:
    """n x n matrix J(r): first row the derivatives of r, other rows zero."""
    n = p.n_generators
    zero = RingElement(model, {})
    rows = [[fox_derivative(model, r, j) for j in range(n)]]
    rows.extend([[zero] * n for _ in range(n - 1)])
    return RingMatrix(model, rows)


def reference_laplacian(model, p, indices) -> RingMatrix:
    """d0 d0* + sum_{k in indices} J(r_k)* J(r_k), through ring matrix products."""
    col = d0(model, p)
    acc = mul(col, adjoint(col))
    for k in indices:
        jr = relator_square(model, p, p.relators[k])
        acc = add(acc, mul(adjoint(jr), jr))
    return acc
