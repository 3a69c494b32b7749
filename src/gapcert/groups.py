"""Group models: canonical normal forms, multiplication, and metric balls.

A model realizes the presented group concretely: a group element is its
key, a hashable normal form that equal elements share (a tuple of integer
rows for a matrix model, a residue for a cyclic one, a freely reduced
tuple of letters for a free one), and the model's methods take and return
keys.  Keys sort in one fixed order, which orders every support.  Integer
matrix entries are Python ints, so products never overflow; the product
table uses int64 arrays only where a bound on the entries rules overflow
out.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from operator import mul
from typing import Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .words import Presentation, Word

Key = Hashable  # a group element: its model's normal form
MatrixKey = Tuple[Tuple[int, ...], ...]


class InconsistentModelError(ValueError):
    """A relator does not evaluate to the identity under the model."""


def _mat_mul(a: MatrixKey, b: MatrixKey, mod: Optional[int] = None) -> MatrixKey:
    cols = tuple(zip(*b))
    # list comprehensions: tuple() over a generator expression costs more here
    if mod is None:
        return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])
    return tuple([tuple([sum(map(mul, row, col)) % mod for col in cols]) for row in a])


def _mat_identity(d: int) -> MatrixKey:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def _det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix.

    Fraction-free (Bareiss) elimination: O(d^3) integer operations, every
    division exact, with a row swap on a zero pivot.
    """
    m = [list(row) for row in a]
    d = len(m)
    sign, prev = 1, 1
    for k in range(d - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, d):
            mi, mik = m[i], m[i][k]
            for j in range(k + 1, d):
                mi[j] = (mi[j] * pivot - mik * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1] if d else 1


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
    """Interface shared by all models; every element is a key."""

    model_id: str
    n_generators: int

    def identity(self) -> Key:
        raise NotImplementedError

    def generator(self, i: int) -> Key:
        raise NotImplementedError

    def multiply(self, a: Key, b: Key) -> Key:
        raise NotImplementedError

    def inverse(self, a: Key) -> Key:
        raise NotImplementedError

    def generators(self) -> List[Key]:
        return [self.generator(i) for i in range(self.n_generators)]

    def evaluate(self, w: Word) -> Key:
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


def _spec_id(spec: dict) -> str:
    blob = json.dumps(spec, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class MatrixModel(GroupModel):
    """Generators as integer matrices, invertible over Z (det +-1) or, with
    a modulus m >= 2, over Z/m with entries reduced to [0, m).  inverse()
    computes each key's inverse once and keeps it in a per-model dict; a
    key that is not invertible is never stored."""

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
        self._inverses = {}
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

    def identity(self) -> MatrixKey:
        return _mat_identity(self.dim)

    def generator(self, i: int) -> MatrixKey:
        return self.images[i]

    def multiply(self, a: MatrixKey, b: MatrixKey) -> MatrixKey:
        return _mat_mul(a, b, self.modulus)

    def inverse(self, a: MatrixKey) -> MatrixKey:
        inv = self._inverses.get(a)
        if inv is None:
            inv = self._inverses[a] = self._invert_key(a)
        return inv

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

    def identity(self) -> int:
        return 0

    def generator(self, i: int) -> int:
        if i != 0:
            raise ValueError("cyclic model has a single generator")
        return 1 % self.n

    def multiply(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def inverse(self, a: int) -> int:
        return (-a) % self.n

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

    def identity(self) -> Tuple[int, ...]:
        return ()

    def generator(self, i: int) -> Tuple[int, ...]:
        if not 0 <= i < self.n_generators:
            raise ValueError("generator index out of range")
        return (i + 1,)

    def multiply(self, a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inverse(self, a: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(-x for x in reversed(a))

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
    # a missing field reads as null, which each check refuses by name
    if kind in ("matrix", "modular"):
        images = spec.get("images")
        if not isinstance(images, list):
            raise ValueError(f"generator images must be a list, got {images!r}")
        modulus = _json_int(spec.get("modulus"), "modulus") if kind == "modular" else None
        return MatrixModel([_json_matrix(img, "generator image") for img in images], modulus)
    if kind == "cyclic":
        return CyclicModel(_json_int(spec.get("n"), "cyclic order"))
    if kind == "free":
        count = _json_int(spec.get("generators"), "generator count")
        sound = spec.get("sound", True)
        if type(sound) is not bool:
            raise ValueError(f"free model soundness must be true or false, got {sound!r}")
        return FreeModel(count, sound)
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
    """(pid, first, index) from one model.multiply per pair.

    first[p] is the flat cell x*m + y where class p is first seen, and
    index maps each class's key to the class.
    """
    model = basis.model
    index: dict = {}
    pid, first = [], []
    for inv_x in map(model.inverse, basis.elements):
        for y in basis.elements:
            key = model.multiply(inv_x, y)
            p = index.get(key)
            if p is None:
                p = index[key] = len(first)
                first.append(len(pid))
            pid.append(p)
    pid = np.array(pid, dtype=np.int64).reshape(len(basis), -1)
    return pid, np.array(first, dtype=np.int64), index


def _batched_products(basis: "SupportBasis"):
    """(pid, first, rows, rank) from one int64 matmul, or None if it does not apply.

    rows holds the distinct products x^-1 y as flat int64 entries, one
    void item each, in byte order; rank[r] is the class of rows[r].
    Applies to matrix models whose products provably fit in int64: every
    entry, and every partial sum, of x^-1 y is at most
    dim * max|x^-1| * max|y| in magnitude.
    """
    model = basis.model
    if not isinstance(model, MatrixModel):
        return None
    keys = basis.elements
    inverses = [model.inverse(x) for x in keys]
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
    rows, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    # np.unique ranks classes by bytes; re-rank them by first occurrence
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()].reshape(m, m), first[order], rows, rank


class ProductTable:
    """Products x^-1 y over a support basis: the integer index of a problem.

    pid[x, y] is the class of E[x]^-1 E[y], classes numbered in first-seen
    order (x-major, then y), and inverse_pid[p] the class of the inverse
    product, both int64 arrays; slots() derives the constraint index from
    pid, and find() maps group elements to classes.  Matrix models
    build the table with int64 array products when no entry can overflow,
    and find() looks keys up among the sorted int64 product rows.  Every
    other model builds it with one model.multiply per pair, and find()
    reads the dict of class keys that loop fills.
    """

    def __init__(self, basis: "SupportBasis"):
        batched = _batched_products(basis)
        if batched is None:
            self.pid, first, self._index = _generic_products(basis)
            self._rows = None
        else:
            self.pid, first, self._rows, self._rank = batched
        m = len(basis)
        # (x^-1 y)^-1 = y^-1 x, so no group inversion is needed
        self.inverse_pid = self.pid[first % m, first // m]
        # the basis starts with the identity, and e^-1 e = e
        self.identity_pid = int(self.pid[0, 0])

    def __len__(self):
        return len(self.inverse_pid)

    def find(self, keys: Sequence) -> List[Optional[int]]:
        """The class of each group element, None for one that is no product x^-1 y."""
        if self._rows is None:
            return [self._index.get(key) for key in keys]
        if not keys:
            return []
        try:
            flat = np.array([[v for row in key for v in row] for key in keys], dtype=np.int64)
        except OverflowError:
            # no product in an int64 table has an entry int64 cannot hold
            return [None] if len(keys) == 1 else [p for key in keys for p in self.find([key])]
        wanted = flat.view(self._rows.dtype).ravel()
        at = np.searchsorted(self._rows, wanted).clip(max=len(self._rows) - 1)
        found = self._rows[at] == wanted
        return [int(p) if ok else None for p, ok in zip(self._rank[at], found)]

    def slots(self, n: int) -> np.ndarray:
        """Slot (i*n + j)*npairs + pid[x, y] of Gram cell (i*m + x, j*m + y).

        A slot is one constraint of an n-row problem: matrix entry (i, j)
        at one product class.
        """
        m = len(self.pid)
        base = np.arange(n * n, dtype=np.int64).reshape(n, n) * len(self)
        return (base[:, None, :, None] + self.pid[None, :, None, :]).reshape(n * m, n * m)


class SupportBasis:
    """Ordered, inversion-closed list of distinct keys of one model; identity first."""

    __slots__ = ("model", "elements", "index", "radius", "_products")

    def __init__(self, model: GroupModel, keys: Iterable[Key], radius: Optional[int] = None):
        elements = tuple(keys)
        if not elements:
            raise ValueError("support basis must be nonempty")
        if elements[0] != model.identity():
            raise ValueError("support basis must start with the identity")
        self.index = {}
        for pos, key in enumerate(elements):
            if key in self.index:
                raise ValueError(f"duplicate element {key!r} in support basis")
            self.index[key] = pos
        if any(model.inverse(key) not in self.index for key in elements):
            raise ValueError("support basis is not closed under inversion")
        self.model = model
        self.elements = elements
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

    def to_json(self) -> dict:
        return {
            "model": self.model.spec(),
            "radius": self.radius,
            "keys": [self.model.key_to_json(key) for key in self.elements],
        }


def symmetrized_generators(model: GroupModel) -> List[Key]:
    """Generators and their inverses, deduplicated, in generator order."""
    return list(dict.fromkeys(el for g in model.generators() for el in (g, model.inverse(g))))


def ball(model: GroupModel, radius: int) -> SupportBasis:
    """Metric ball of the given radius, in deterministic BFS order."""
    # a BFS ball over symmetrized generators is closed under inversion;
    # SupportBasis checks it
    return SupportBasis(model, ball_elements(model, radius), radius)


def ball_elements(model: GroupModel, radius: int) -> Iterator[Key]:
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
    seen = {ident}
    yield ident
    frontier = [ident]
    for _ in range(radius):
        nxt = []
        for el in frontier:
            for s in gens:
                prod = model.multiply(el, s)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    yield prod
        if not nxt:
            break
        frontier = nxt


def basis_from_json(model: GroupModel, keys, radius) -> SupportBasis:
    """The basis that JSON keys and a radius describe.

    A ValueError unless every key is valid and radius is None or an int
    whose ball is the basis.
    """
    basis = SupportBasis(model, [model.key_from_json(k) for k in keys], radius)
    if radius is None:
        return basis
    radius = _json_int(radius, "basis radius")
    # one element past the basis settles it, however large the radius
    expected = islice(ball_elements(model, radius), len(basis) + 1)
    if tuple(expected) != basis.elements:
        raise ValueError(f"basis does not match the ball of radius {radius}")
    return basis
