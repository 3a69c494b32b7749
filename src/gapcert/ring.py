"""Finitely supported group-ring elements and matrices over them.

A ring element maps group elements, which are their model's keys, to
coefficients, and its support sorts in key order.  Coefficients are
exact: ints or Fractions, kept as given; any other type, floats and bools
included, is a TypeError.  These are containers with no ring arithmetic:
fox.laplacian1 adds outer products straight into int coefficient dicts,
and the SDP and the certifier read the result once, through the integer
index of the problem's product table.  The exact arithmetic the tests
check against (sum, product, star, adjoint, l1, the order-unit
construction and verify_sos) is in tests/_oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Union

from .groups import GroupModel, Key


Coefficient = Union[int, Fraction]


class RingElement:
    """Sparse element of the group ring: group element (a key) -> coefficient."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model: GroupModel, coeffs: Dict[Key, Coefficient]):
        clean = {}
        for g, c in coeffs.items():
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise TypeError(f"unsupported coefficient type {type(c).__name__}")
            if c:
                clean[g] = c
        self.model = model
        self.coeffs = clean

    def support(self) -> List[Key]:
        return sorted(self.coeffs)

    def coefficient(self, g: Key) -> Coefficient:
        return self.coeffs.get(g, 0)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and (self.model is other.model or self.model.spec() == other.model.spec())
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "RingElement(0)"
        parts = [f"{self.coeffs[g]}*[{g}]" for g in self.support()]
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
                if e.model is not model and e.model.spec() != model.spec():
                    raise ValueError("entry model mismatch")
        self.model = model
        self.entries = rows

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and (self.model is other.model or self.model.spec() == other.model.spec())
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
                        [self.model.key_to_json(g), str(e.coeffs[g])]
                        for g in e.support()
                    ]
                    for e in row
                ]
                for row in self.entries
            ],
        }
