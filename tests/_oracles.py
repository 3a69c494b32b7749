"""Independent oracles for the test suite.

Everything here is deliberately primitive (brute-force enumeration, naive
matrix products, exact rational ring arithmetic routed through verify_sos
factors, the order-unit construction) so that expected values never come
from the code paths under test.
"""

from fractions import Fraction
from typing import Iterable, List, Tuple, Union

from gapcert.ring import RingElement, RingMatrix


Factor = Union[RingMatrix, Tuple[object, RingMatrix]]


def _normalize_factors(factors: Iterable[Factor]):
    out = []
    for f in factors:
        if isinstance(f, RingMatrix):
            out.append((Fraction(1), f))
        else:
            scale, mat = f
            out.append((scale, mat))  # scaled() promotes it, or rejects a float
    return out


def verify_sos(M: RingMatrix, factors: Iterable[Factor]) -> RingMatrix:
    """Residual M - sum(scale * F.adjoint() * F), exactly.

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
        residual = residual - (f.adjoint() * f).scaled(scale)
    return residual


class NotStarInvariantError(ValueError):
    pass


def order_unit_sos(M: RingMatrix) -> List[Tuple[Fraction, RingMatrix]]:
    """Constructive squares for M + l1(M) * I, M *-invariant and exact.

    Returns (scale, factor) pairs with nonnegative rational scales such
    that M + l1(M)*I == sum(scale * F.adjoint() * F) exactly.  Factors are
    built from the elementary blocks (1 +- g) on the diagonal and
    (I2 +- X_g) across symmetric off-diagonal pairs; whatever part of the
    l1 budget a position does not consume is emitted as a plain constant
    diagonal square.
    """
    if not M.is_star_invariant():
        raise NotStarInvariantError("target is not *-invariant")
    model = M.model
    n = M.n_rows
    ident = model.identity()
    total = M.l1()
    used = [Fraction(0)] * n
    factors: List[Tuple[Fraction, RingMatrix]] = []

    def embedded(positions):
        mat = [[RingElement.zero(model) for _ in range(n)] for _ in range(n)]
        for (i, j), elem in positions.items():
            mat[i][j] = elem
        return RingMatrix(model, mat)

    for i in range(n):
        x = M.entry(i, i)
        seen = set()
        for g in x.support():
            if g.key in seen:
                continue
            c = x.coefficient(g)
            g_inv = model.inverse(g)
            if g == ident:
                seen.add(g.key)
                used[i] += abs(c)
                if c + abs(c) != 0:
                    factors.append(
                        (c + abs(c), embedded({(i, i): RingElement.one(model)}))
                    )
            elif g_inv == g:
                # involution: (1 +- g)*(1 +- g) = 2 +- 2g
                seen.add(g.key)
                used[i] += abs(c)
                sign = 1 if c > 0 else -1
                f = RingElement.one(model) + RingElement.of(g, Fraction(sign))
                factors.append((abs(c) / 2, embedded({(i, i): f})))
            else:
                seen.add(g.key)
                seen.add(g_inv.key)
                if x.coefficient(g_inv) != c:
                    raise NotStarInvariantError(
                        f"diagonal entry {i} is not *-invariant"
                    )
                # pair: (1 +- g)*(1 +- g) = 2 +- (g + g^-1)
                used[i] += 2 * abs(c)
                sign = 1 if c > 0 else -1
                f = RingElement.one(model) + RingElement.of(g, Fraction(sign))
                factors.append((abs(c), embedded({(i, i): f})))

    for i in range(n):
        for j in range(i + 1, n):
            x = M.entry(i, j)
            for g in x.support():
                c = x.coefficient(g)
                g_inv = model.inverse(g)
                sign = Fraction(1 if c > 0 else -1)
                # (I2 + X)*(I2 + X) = 2 I2 + 2 X for X = [[0, +-g], [+-g^-1, 0]]
                f = embedded(
                    {
                        (i, i): RingElement.one(model),
                        (i, j): RingElement.of(g, sign),
                        (j, i): RingElement.of(g_inv, sign),
                        (j, j): RingElement.one(model),
                    }
                )
                factors.append((abs(c) / 2, f))
                used[i] += abs(c)
                used[j] += abs(c)

    for i in range(n):
        slack = total - used[i]
        if slack < 0:
            raise AssertionError("order-unit bookkeeping went negative")
        if slack > 0:
            factors.append((slack, embedded({(i, i): RingElement.one(model)})))
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
    return A + A.adjoint()


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
    shifted = target - RingMatrix.identity(model, n, lam)
    residual = verify_sos(shifted, factors)
    return lam - residual.l1(), residual


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

    members = table.members()
    entries = []
    for i in range(n):
        row_out = []
        for j in range(n):
            coeffs = {}
            for pid, elem in enumerate(table.pair_elements):
                total = Fraction(0)
                for x, y in members[pid]:
                    total += frac(P[i * m + x][j * m + y] if isinstance(P, list) else P[i * m + x, j * m + y])
                if total:
                    coeffs[elem] = total
            row_out.append(RingElement(model, coeffs))
        entries.append(row_out)
    return RingMatrix(model, entries)
