"""Finitely supported group-ring elements and matrices over them.

Coefficients are exact rationals (Fraction); ints are promoted, and any
other type, floats included, is a TypeError.  This is the exact side of
the package, where the Laplacian is assembled.  The SDP and the certifier
read these matrices once, through the integer index of the problem's
product table.  The order-unit construction behind the certifier's l1
bound and the exact sum-of-squares check verify_sos live with the test
oracles (tests/_oracles.py).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence

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
