"""Group models: canonical normal forms, multiplication, and metric balls.

A model realizes the presented group concretely so that equal group
elements get equal hashable keys.  Integer matrix entries are Python ints,
so products never overflow; the product table uses int64 arrays only
where a bound on the entries rules overflow out.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .words import Presentation, Word

MatrixKey = Tuple[Tuple[int, ...], ...]


class InconsistentModelError(ValueError):
    """A relator does not evaluate to the identity under the model."""


class GroupElement:
    __slots__ = ("model", "key", "_hash")

    def __init__(self, model: "GroupModel", key):
        self.model = model
        self.key = key
        self._hash = hash(key)

    def inverse(self) -> "GroupElement":
        return self.model.inverse(self)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.model.multiply(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.key == other.key
            and self.model.model_id == other.model.model_id
        )

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GroupElement({self.key!r})"


def _mat_mul(a: MatrixKey, b: MatrixKey, mod: Optional[int] = None) -> MatrixKey:
    d = len(a)
    if mod is None:
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
            for i in range(d)
        )
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) % mod for j in range(d))
        for i in range(d)
    )


def _mat_identity(d: int) -> MatrixKey:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def _det(a: Sequence[Sequence[int]]) -> int:
    d = len(a)
    if d == 1:
        return a[0][0]
    if d == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    for j in range(d):
        minor = [row[:j] + row[j + 1:] for row in [list(r) for r in a[1:]]]
        total += (-1) ** j * a[0][j] * _det(minor)
    return total


def _adjugate(a: MatrixKey) -> MatrixKey:
    d = len(a)
    if d == 1:
        return ((1,),)
    rows = [list(r) for r in a]
    cof = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
            cof[i][j] = (-1) ** (i + j) * _det(minor)
    return tuple(tuple(cof[j][i] for j in range(d)) for i in range(d))


class GroupModel:
    """Interface shared by all models."""

    model_id: str
    n_generators: int

    def identity(self) -> GroupElement:
        raise NotImplementedError

    def generator(self, i: int) -> GroupElement:
        raise NotImplementedError

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        raise NotImplementedError

    def inverse(self, a: GroupElement) -> GroupElement:
        raise NotImplementedError

    def generators(self) -> List[GroupElement]:
        return [self.generator(i) for i in range(self.n_generators)]

    def evaluate(self, w: Word) -> GroupElement:
        out = self.identity()
        gens = self.generators()
        invs = [self.inverse(g) for g in gens]
        for idx, sign in w:
            if idx >= self.n_generators:
                raise ValueError(f"word letter {idx} outside model generators")
            out = self.multiply(out, gens[idx] if sign > 0 else invs[idx])
        return out

    def spec(self) -> dict:
        raise NotImplementedError

    def key_to_json(self, key):
        raise NotImplementedError

    def key_from_json(self, data):
        """The key a JSON value names; ValueError unless it is a valid key."""
        raise NotImplementedError

    def _wrap(self, key) -> GroupElement:
        return GroupElement(self, key)


def _spec_id(spec: dict) -> str:
    blob = json.dumps(spec, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class MatrixModel(GroupModel):
    """Generators as integer matrices, invertible over Z (det +-1) or, with
    a modulus m >= 2, over Z/m with entries reduced to [0, m)."""

    def __init__(self, images: Sequence[Sequence[Sequence[int]]], modulus: Optional[int] = None):
        if modulus is not None and modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not images:
            raise ValueError("need at least one generator image")
        self.modulus = modulus
        keys = [tuple(tuple(self._reduce(int(x)) for x in row) for row in img) for img in images]
        d = len(keys[0])
        for k in keys:
            if len(k) != d or any(len(row) != d for row in k):
                raise ValueError("generator images must be square of equal size")
            self._det_inverse(k)
        self.dim = d
        self.images = keys
        self.inv_images = [self._invert_key(k) for k in keys]
        self.n_generators = len(keys)
        spec = self.spec()
        self.model_id = f"{spec['type']}:{_spec_id(spec)}"

    def _reduce(self, x: int) -> int:
        return x if self.modulus is None else x % self.modulus

    def _det_inverse(self, key: MatrixKey) -> int:
        """det(key)^-1 in Z or Z/m; ValueError if det(key) is not a unit."""
        det = _det(key)
        if self.modulus is None:
            if det not in (1, -1):
                raise ValueError(f"matrix {key!r} is not invertible over Z")
            return det
        try:
            return pow(det % self.modulus, -1, self.modulus)
        except ValueError:
            raise ValueError(f"matrix {key!r} is not invertible mod {self.modulus}") from None

    def _invert_key(self, key: MatrixKey) -> MatrixKey:
        det_inv = self._det_inverse(key)
        return tuple(tuple(self._reduce(x * det_inv) for x in row) for row in _adjugate(key))

    def identity(self) -> GroupElement:
        return self._wrap(_mat_identity(self.dim))

    def generator(self, i: int) -> GroupElement:
        return self._wrap(self.images[i])

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self._wrap(_mat_mul(a.key, b.key, self.modulus))

    def inverse(self, a: GroupElement) -> GroupElement:
        return self._wrap(self._invert_key(a.key))

    def spec(self) -> dict:
        spec = {"type": "matrix" if self.modulus is None else "modular", "dim": self.dim}
        if self.modulus is not None:
            spec["modulus"] = self.modulus
        spec["images"] = [[list(r) for r in k] for k in self.images]
        return spec

    def key_to_json(self, key):
        return [list(r) for r in key]

    def key_from_json(self, data):
        key = _json_matrix(data, "matrix key")
        if len(key) != self.dim or any(len(row) != self.dim for row in key):
            raise ValueError(f"malformed matrix key {key!r}")
        if any(self._reduce(x) != x for row in key for x in row):
            raise ValueError(f"matrix key {key!r} has entries outside [0, {self.modulus})")
        self._det_inverse(key)
        return key


class CyclicModel(GroupModel):
    """Z/n with one generator; keys are residues composed additively.

    This is the 1x1 modular-matrix stand-in for finite cyclic groups: the
    generator acts as the cyclic shift and all the matrix machinery
    degenerates to residue arithmetic.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("cyclic order must be >= 2")
        self.n = n
        self.n_generators = 1
        self.model_id = f"cyclic:{n}"

    def identity(self) -> GroupElement:
        return self._wrap(0)

    def generator(self, i: int) -> GroupElement:
        if i != 0:
            raise ValueError("cyclic model has a single generator")
        return self._wrap(1 % self.n)

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self._wrap((a.key + b.key) % self.n)

    def inverse(self, a: GroupElement) -> GroupElement:
        return self._wrap((-a.key) % self.n)

    def spec(self) -> dict:
        return {"type": "cyclic", "n": self.n}

    def key_to_json(self, key):
        return key

    def key_from_json(self, data):
        key = _json_int(data, "residue")
        if not 0 <= key < self.n:
            raise ValueError(f"invalid residue {key!r} mod {self.n}")
        return key


class FreeModel(GroupModel):
    """Normal form is the freely reduced word itself.

    Sound only when free reduction solves the word problem, i.e. for free
    groups.  Downstream consumers refuse unsound instances.
    """

    def __init__(self, n_generators: int, sound: bool = True):
        if n_generators < 1:
            raise ValueError("need at least one generator")
        self.n_generators = n_generators
        self.sound = sound
        self.model_id = f"free:{n_generators}:{'sound' if sound else 'unsound'}"

    def identity(self) -> GroupElement:
        return self._wrap(())

    def generator(self, i: int) -> GroupElement:
        if not 0 <= i < self.n_generators:
            raise ValueError("generator index out of range")
        return self._wrap((i + 1,))

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        out = list(a.key)
        for x in b.key:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return self._wrap(tuple(out))

    def inverse(self, a: GroupElement) -> GroupElement:
        return self._wrap(tuple(-x for x in reversed(a.key)))

    def spec(self) -> dict:
        return {"type": "free", "generators": self.n_generators, "sound": self.sound}

    def key_to_json(self, key):
        return list(key)

    def key_from_json(self, data):
        if not isinstance(data, list):
            raise ValueError(f"free key must be a list of letters, got {data!r}")
        key = tuple(_json_int(x, "free letter") for x in data)
        for x in key:
            if x == 0 or abs(x) > self.n_generators:
                raise ValueError(f"invalid letter {x!r} in free key")
        for a, b in zip(key, key[1:]):
            if a == -b:
                raise ValueError("free key is not freely reduced")
        return key


def _json_int(value, what: str) -> int:
    """value if it is a JSON integer; floats, strings, null and bools are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_matrix(data, what: str) -> MatrixKey:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError(f"{what} must be a list of integer rows, got {data!r}")
    return tuple(tuple(_json_int(x, what) for x in row) for row in data)


def model_from_spec(spec: dict) -> GroupModel:
    """The model a spec() describes; a malformed spec is a ValueError."""
    if not isinstance(spec, dict):
        raise ValueError("model spec must be a JSON object")
    kind = spec.get("type")
    if kind in ("matrix", "modular"):
        images = spec["images"]
        if not isinstance(images, list):
            raise ValueError(f"generator images must be a list, got {images!r}")
        modulus = _json_int(spec["modulus"], "modulus") if kind == "modular" else None
        return MatrixModel([_json_matrix(img, "generator image") for img in images], modulus)
    if kind == "cyclic":
        return CyclicModel(_json_int(spec["n"], "cyclic order"))
    if kind == "free":
        return FreeModel(_json_int(spec["generators"], "generator count"), spec.get("sound", True))
    raise ValueError(f"unknown model spec type {kind!r}")


def validate_model(p: Presentation, model: GroupModel) -> None:
    """Check the model is consistent with the presentation's relators."""
    if p.n_generators != model.n_generators:
        raise InconsistentModelError(
            f"presentation has {p.n_generators} generators, model has {model.n_generators}"
        )
    if isinstance(model, FreeModel):
        if p.relators and model.sound:
            raise InconsistentModelError(
                "free model marked sound but the presentation has relators"
            )
        return
    ident = model.identity()
    for label, rel in zip(p.labels, p.relators):
        if model.evaluate(rel) != ident:
            raise InconsistentModelError(
                f"relator {label} does not evaluate to the identity"
            )


_INT64_LIMIT = 2 ** 63  # int64 holds magnitudes below this


def _generic_products(basis: "SupportBasis"):
    """(pid, first, pair_elements) from one model.multiply per pair.

    first[p] is the flat cell x*m + y where class p is first seen.
    """
    model = basis.model
    inverses = [model.inverse(el) for el in basis.elements]
    pair_elements: List[GroupElement] = []
    index: dict = {}
    pid, first = [], []
    for x, inv_x in enumerate(inverses):
        for y, el in enumerate(basis.elements):
            g = model.multiply(inv_x, el)
            p = index.get(g.key)
            if p is None:
                p = index[g.key] = len(pair_elements)
                pair_elements.append(g)
                first.append(len(pid))
            pid.append(p)
    pid = np.array(pid, dtype=np.int64).reshape(len(basis), -1)
    return pid, np.array(first, dtype=np.int64), pair_elements


def _batched_products(basis: "SupportBasis"):
    """`_generic_products` from one int64 matmul, or None if it does not apply.

    Applies to matrix models whose products provably fit in
    int64: every entry, and every partial sum, of x^-1 y is at most
    dim * max|x^-1| * max|y| in magnitude.
    """
    model = basis.model
    if not isinstance(model, MatrixModel):
        return None
    keys = [el.key for el in basis.elements]
    inverses = [model.inverse(el).key for el in basis.elements]
    largest = lambda ks: max(abs(v) for k in ks for row in k for v in row)
    if model.dim * largest(inverses) * largest(keys) >= _INT64_LIMIT:
        return None
    m, d = len(keys), model.dim
    prod = np.matmul(
        np.array(inverses, dtype=np.int64)[:, None], np.array(keys, dtype=np.int64)[None, :]
    ).reshape(m * m, d * d)
    if model.modulus is not None:
        prod %= model.modulus
    rows = prod.view(np.dtype((np.void, prod.itemsize * d * d))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    # np.unique ranks classes by bytes; re-rank them by first occurrence
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    pair_elements = [
        GroupElement(model, tuple(tuple(flat[i:i + d]) for i in range(0, d * d, d)))
        for flat in prod[first].tolist()
    ]
    return rank[inverse.ravel()].reshape(m, m), first, pair_elements


class ProductTable:
    """Products x^-1 y over a support basis: the integer index of a problem.

    pair_elements enumerates the distinct products (classes) in first-seen
    order (x-major, then y); pid[x, y] is the class of E[x]^-1 E[y] and
    inverse_pid[p] the class of the inverse product, both int64 arrays.
    slots() and members() derive every other index from pid.  Matrix
    models build the table with int64 array products when no entry can
    overflow, every other model with one model.multiply per pair.
    """

    __slots__ = ("pair_elements", "pair_index", "pid", "inverse_pid", "identity_pid")

    def __init__(self, basis: "SupportBasis"):
        pid, first, pair_elements = _batched_products(basis) or _generic_products(basis)
        m = len(basis)
        self.pair_elements = pair_elements
        self.pair_index = {g.key: p for p, g in enumerate(pair_elements)}
        self.pid = pid
        # (x^-1 y)^-1 = y^-1 x, so no group inversion is needed
        self.inverse_pid = pid[first % m, first // m]
        self.identity_pid = self.pair_index[basis.model.identity().key]

    def __len__(self):
        return len(self.pair_elements)

    def slots(self, n: int) -> np.ndarray:
        """Slot (i*n + j)*npairs + pid[x, y] of Gram cell (i*m + x, j*m + y).

        A slot is one constraint of an n-row problem: matrix entry (i, j)
        at one product class.
        """
        m = len(self.pid)
        base = np.arange(n * n, dtype=np.int64).reshape(n, n) * len(self)
        return (base[:, None, :, None] + self.pid[None, :, None, :]).reshape(n * m, n * m)

    def members(self) -> List[List[Tuple[int, int]]]:
        """The cells (x, y) of each class, x-major, as Python ints."""
        order = np.argsort(self.pid, axis=None, kind="stable")
        x, y = np.divmod(order, len(self.pid))
        cells = list(zip(x.tolist(), y.tolist()))
        ends = np.cumsum(np.bincount(self.pid.ravel(), minlength=len(self))).tolist()
        return [cells[a:b] for a, b in zip([0] + ends[:-1], ends)]


class SupportBasis:
    """Ordered, inversion-closed list of distinct elements; identity first."""

    __slots__ = ("model", "elements", "index", "radius", "_products")

    def __init__(self, elements: Sequence[GroupElement], radius: Optional[int] = None):
        elements = list(elements)
        if not elements:
            raise ValueError("support basis must be nonempty")
        self.model = elements[0].model
        ident = self.model.identity()
        if elements[0] != ident:
            raise ValueError("support basis must start with the identity")
        self.index = {}
        for pos, el in enumerate(elements):
            if el.key in self.index:
                raise ValueError(f"duplicate element {el.key!r} in support basis")
            self.index[el.key] = pos
        for el in elements:
            if self.model.inverse(el).key not in self.index:
                raise ValueError("support basis is not closed under inversion")
        self.elements = tuple(elements)
        self.radius = radius
        self._products = None

    def products(self) -> ProductTable:
        if self._products is None:
            self._products = ProductTable(self)
        return self._products

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def position(self, element: GroupElement) -> Optional[int]:
        return self.index.get(element.key)

    def to_json(self) -> dict:
        return {
            "model": self.model.spec(),
            "radius": self.radius,
            "keys": [self.model.key_to_json(el.key) for el in self.elements],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SupportBasis":
        model = model_from_spec(data["model"])
        elements = [
            GroupElement(model, model.key_from_json(k)) for k in data["keys"]
        ]
        return cls(elements, data.get("radius"))


def symmetrized_generators(model: GroupModel) -> List[GroupElement]:
    """Generators and their inverses, deduplicated, in generator order."""
    out: List[GroupElement] = []
    seen = set()
    for i in range(model.n_generators):
        g = model.generator(i)
        for el in (g, model.inverse(g)):
            if el.key not in seen:
                seen.add(el.key)
                out.append(el)
    return out


def ball(model: GroupModel, radius: int) -> SupportBasis:
    """Metric ball of the given radius, in deterministic BFS order."""
    # a BFS ball over symmetrized generators is closed under inversion;
    # SupportBasis checks it
    return SupportBasis(list(ball_elements(model, radius)), radius)


def ball_elements(model: GroupModel, radius: int) -> Iterator[GroupElement]:
    """The elements of `ball`, yielded as the BFS finds them.

    A caller that needs only a prefix can stop early, without paying for
    a ball that grows exponentially with the radius.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if isinstance(model, FreeModel) and not model.sound:
        raise ValueError("refusing to enumerate a ball for an unsound free model")
    gens = symmetrized_generators(model)
    ident = model.identity()
    seen = {ident.key}
    yield ident
    frontier = [ident]
    for _ in range(radius):
        nxt = []
        for el in frontier:
            for s in gens:
                prod = model.multiply(el, s)
                if prod.key not in seen:
                    seen.add(prod.key)
                    nxt.append(prod)
                    yield prod
        if not nxt:
            break
        frontier = nxt
