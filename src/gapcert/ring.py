"""Finitely supported group-ring elements and matrices over them.

Coefficients are exact rationals (Fraction); ints are promoted, and any
other type, floats included, is a TypeError.  This is the exact side of
the package: Laplacian assembly, the order-unit construction and the
Fox/order-unit oracle verify_sos.  The SDP and the certifier read these
matrices once, through the integer index of the problem's product table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .groups import GroupElement, GroupModel


def _promote(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


class RingElement:
    """Sparse element of the group ring: GroupElement -> coefficient."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model: GroupModel, coeffs: Dict[GroupElement, Fraction]):
        clean = {}
        for g, c in coeffs.items():
            c = _promote(c)
            if c:
                clean[g] = c
        self.model = model
        self.coeffs = clean

    @classmethod
    def zero(cls, model: GroupModel) -> "RingElement":
        return cls(model, {})

    @classmethod
    def one(cls, model: GroupModel, scale=1) -> "RingElement":
        return cls(model, {model.identity(): _promote(scale)})

    @classmethod
    def of(cls, element: GroupElement, scale=1) -> "RingElement":
        return cls(element.model, {element: _promote(scale)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> List[GroupElement]:
        return sorted(self.coeffs)

    def coefficient(self, g: GroupElement) -> Fraction:
        return self.coeffs.get(g, Fraction(0))

    def _check(self, other: "RingElement"):
        if self.model.model_id != other.model.model_id:
            raise ValueError("ring elements live over different models")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            if g in out:
                out[g] = out[g] + c
            else:
                out[g] = c
        return RingElement(self.model, out)

    def __neg__(self) -> "RingElement":
        return RingElement(self.model, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return self.scaled(other)
        self._check(other)
        out: Dict[GroupElement, Fraction] = {}
        model = self.model
        for g, a in self.coeffs.items():
            for h, b in other.coeffs.items():
                k = model.multiply(g, h)
                prod = a * b
                if k in out:
                    out[k] = out[k] + prod
                else:
                    out[k] = prod
        return RingElement(model, out)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def scaled(self, scalar) -> "RingElement":
        scalar = _promote(scalar)
        return RingElement(self.model, {g: c * scalar for g, c in self.coeffs.items()})

    def star(self) -> "RingElement":
        return RingElement(
            self.model, {self.model.inverse(g): c for g, c in self.coeffs.items()}
        )

    def l1(self) -> Fraction:
        return sum(map(abs, self.coeffs.values()), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.model.model_id == other.model.model_id
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "RingElement(0)"
        parts = [f"{c}*[{g.key}]" for g, c in sorted(self.coeffs.items(), key=lambda t: t[0])]
        return "RingElement(" + " + ".join(parts) + ")"


class RingMatrix:
    """Dense matrix over sparse ring elements."""

    __slots__ = ("model", "entries")

    def __init__(self, model: GroupModel, entries: Sequence[Sequence[RingElement]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix rows")
            for e in row:
                if e.model.model_id != model.model_id:
                    raise ValueError("entry model mismatch")
        self.model = model
        self.entries = rows

    @classmethod
    def zeros(cls, model: GroupModel, n_rows: int, n_cols: int) -> "RingMatrix":
        z = RingElement.zero(model)
        return cls(model, [[z] * n_cols for _ in range(n_rows)])

    @classmethod
    def identity(cls, model: GroupModel, n: int, scale=1) -> "RingMatrix":
        z = RingElement.zero(model)
        one = RingElement.one(model, scale)
        return cls(
            model,
            [[one if i == j else z for j in range(n)] for i in range(n)],
        )

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i][j]

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_shape(other, same=True)
        return RingMatrix(
            self.model,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_shape(other, same=True)
        return RingMatrix(
            self.model,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __mul__(self, other):
        if not isinstance(other, RingMatrix):
            return self.scaled(other)
        if self.model.model_id != other.model.model_id:
            raise ValueError("matrix model mismatch")
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"shape mismatch: {self.n_rows}x{self.n_cols} * "
                f"{other.n_rows}x{other.n_cols}"
            )
        out = []
        for i in range(self.n_rows):
            row = []
            for j in range(other.n_cols):
                acc = RingElement.zero(self.model)
                for k in range(self.n_cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return RingMatrix(self.model, out)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def scaled(self, scalar) -> "RingMatrix":
        return RingMatrix(
            self.model, [[e.scaled(scalar) for e in row] for row in self.entries]
        )

    def adjoint(self) -> "RingMatrix":
        return RingMatrix(
            self.model,
            [
                [self.entries[j][i].star() for j in range(self.n_rows)]
                for i in range(self.n_cols)
            ],
        )

    def is_star_invariant(self) -> bool:
        return self.n_rows == self.n_cols and self.adjoint() == self

    def l1(self) -> Fraction:
        return sum((e.l1() for row in self.entries for e in row), Fraction(0))

    def _check_shape(self, other: "RingMatrix", same: bool):
        if self.model.model_id != other.model.model_id:
            raise ValueError("matrix model mismatch")
        if same and (self.n_rows != other.n_rows or self.n_cols != other.n_cols):
            raise ValueError("matrix shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.model.model_id == other.model.model_id
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"RingMatrix({self.n_rows}x{self.n_cols})"

    def to_json(self) -> dict:
        return {
            "model": self.model.spec(),
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "entries": [
                [
                    [
                        [self.model.key_to_json(g.key), str(c)]
                        for g, c in sorted(e.coeffs.items(), key=lambda t: t[0])
                    ]
                    for e in row
                ]
                for row in self.entries
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RingMatrix":
        from .groups import model_from_spec

        model = model_from_spec(data["model"])
        entries = []
        for row in data["entries"]:
            out_row = []
            for cell in row:
                coeffs = {}
                for key_json, coeff_json in cell:
                    g = GroupElement(model, model.key_from_json(key_json))
                    coeffs[g] = Fraction(coeff_json)
                out_row.append(RingElement(model, coeffs))
            entries.append(out_row)
        got = cls(model, entries)
        if got.n_rows != data["n_rows"] or got.n_cols != data["n_cols"]:
            raise ValueError("matrix shape does not match header")
        return got


Factor = Union[RingMatrix, Tuple[object, RingMatrix]]


def _normalize_factors(factors: Iterable[Factor]):
    out = []
    for f in factors:
        if isinstance(f, RingMatrix):
            out.append((Fraction(1), f))
        else:
            scale, mat = f
            out.append((_promote(scale), mat))
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
