"""Group models: canonical normal forms, multiplication, and metric balls.

A model realizes the presented group concretely: a group element is its
key, a hashable normal form that equal elements share (a tuple of integer
rows for a matrix model, a residue for a cyclic one, a freely reduced
tuple of letters for a free one), and the model's methods take and return
keys.  Keys sort in one fixed order, which orders every support.  Integer
matrix entries are Python ints, so products never overflow; a matrix
key's determinant and inverse come from one fraction-free elimination.
The product table numbers its classes in one dict for every model, and
uses int64 arrays only where a bound on the entries rules overflow out.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from operator import index, mul
from typing import Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .words import Presentation, Word

Key = Hashable  # a group element: its model's normal form
MatrixKey = Tuple[Tuple[int, ...], ...]


def _mat_mul(a: MatrixKey, b: MatrixKey, mod: Optional[int] = None) -> MatrixKey:
    cols = tuple(zip(*b))
    # list comprehensions: tuple() over a generator expression costs more here
    if mod is None:
        return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])
    return tuple([tuple([sum(map(mul, row, col)) % mod for col in cols]) for row in a])


def _det_adjugate(a: Sequence[Sequence[int]]) -> Tuple[int, Optional[MatrixKey]]:
    """(det(a), adj(a)) of a square integer matrix; adj is None when det(a) is 0.

    One fraction-free (Bareiss) Gauss-Jordan pass over [a | I]: O(d^3)
    integer operations, every division exact, with a row swap on a zero
    pivot.  The pass leaves [D*I | L] with L*a = D*I, so det(a) = sign*D
    and adj(a) = sign*L, sign being that of the row swaps.
    """
    d = len(a)
    m = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(a)]
    sign, prev = 1, 1
    for k in range(d):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if m[i][k] != 0), None)
            if swap is None:
                return 0, None
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        mk, pivot = m[k], m[k][k]
        for i in range(d):
            if i != k:
                mik = m[i][k]
                m[i] = [(x * pivot - mik * y) // prev for x, y in zip(m[i], mk)]
        prev = pivot
    return sign * prev, tuple(tuple(sign * x for x in row[d:]) for row in m)


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
        self._inverses = {}
        entry = lambda x: self._reduce(_image_entry(x))
        keys = [tuple(tuple(map(entry, row)) for row in img) for img in images]
        d = len(keys[0])
        for k in keys:
            if len(k) != d or any(len(row) != d for row in k):
                raise ValueError("generator images must be square of equal size")
            self.inverse(k)
        self.dim = d
        self.images = keys
        self.n_generators = len(keys)
        spec = self.spec()
        self.model_id = f"{spec['type']}:{_spec_id(spec)}"

    def _reduce(self, x: int) -> int:
        return x if self.modulus is None else x % self.modulus

    def _invert_key(self, key: MatrixKey) -> MatrixKey:
        """key^-1; ValueError if det(key) is not a unit of Z or Z/m."""
        det, adj = _det_adjugate(key)
        if self.modulus is None and det not in (1, -1):
            raise ValueError(f"matrix {key!r} is not invertible over Z")
        try:  # a unit of Z is its own inverse
            det_inv = det if self.modulus is None else pow(det % self.modulus, -1, self.modulus)
        except ValueError:
            raise ValueError(f"matrix {key!r} is not invertible mod {self.modulus}") from None
        return tuple(tuple(self._reduce(x * det_inv) for x in row) for row in adj)

    def identity(self) -> MatrixKey:
        return tuple(tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim))

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
        self.inverse(key)
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


def _image_entry(x) -> int:
    """x as an int if it is a Python or numpy integer; bools, floats and strings are refused."""
    if not isinstance(x, bool):  # numpy's bool has no __index__
        try:
            return index(x)
        except TypeError:
            pass
    raise ValueError(f"generator image entry must be an integer, got {x!r}")


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
        model = MatrixModel([_json_matrix(img, "generator image") for img in images], modulus)
        if _json_int(spec.get("dim"), "dim") != model.dim:
            raise ValueError(f"dim {spec['dim']} does not match the {model.dim}x{model.dim} images")
        return model
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
        raise ValueError(
            f"presentation has {p.n_generators} generators, model has {model.n_generators}"
        )
    if isinstance(model, FreeModel):
        if p.relators and model.sound:
            raise ValueError("free model marked sound but the presentation has relators")
        return
    ident = model.identity()
    for label, rel in zip(p.labels, p.relators):
        if model.evaluate(rel) != ident:
            raise ValueError(f"relator {label} does not evaluate to the identity")


def _int64_products(model: GroupModel, inverses: list, keys: tuple) -> Optional[Iterator[bytes]]:
    """The products x^-1 y, x-major, as the bytes of their int64 rows, or None.

    None unless model is a matrix model whose products provably fit in
    int64: every entry, and every partial sum, of x^-1 y is at most
    dim * max|x^-1| * max|y| in magnitude.  Each row is copied out of the
    product array as it is read, so only the rows a caller keeps are held.
    """
    if not isinstance(model, MatrixModel):
        return None
    largest = lambda ks: max(abs(v) for k in ks for row in k for v in row)
    if model.dim * largest(inverses) * largest(keys) >= 2 ** 63:  # int64's magnitude limit
        return None
    m, d = len(keys), model.dim
    prod = np.matmul(
        np.array(inverses, dtype=np.int64)[:, None], np.array(keys, dtype=np.int64)[None, :]
    ).reshape(m * m, d * d)
    if model.modulus is not None:
        prod %= model.modulus
    rows, width = memoryview(prod.reshape(-1).view(np.uint8)), prod.itemsize * d * d
    return (rows[at:at + width].tobytes() for at in range(0, len(rows), width))


def _int64_bytes(key: MatrixKey) -> Optional[bytes]:
    """The bytes of key's int64 row, None if an entry does not fit in int64."""
    try:
        return np.array(key, dtype=np.int64).tobytes()
    except OverflowError:
        return None


class ProductTable:
    """Products x^-1 y over a support basis: the integer index of a problem.

    pid[x, y] is the class of E[x]^-1 E[y], classes numbered in first-seen
    order (x-major, then y), and inverse_pid[p] the class of the inverse
    product, both int64 arrays; find() maps group elements to classes.
    The constraint layout over these classes is the SDP's (see sdp).  One
    dict numbers the classes and answers find() for every model, keyed by
    the bytes of a product's int64 row where _int64_products applies and
    by the product's key, from one model.multiply per pair, elsewhere.
    """

    def __init__(self, basis: "SupportBasis"):
        model, keys, m = basis.model, basis.elements, len(basis)
        inverses = [model.inverse(x) for x in keys]
        products = _int64_products(model, inverses, keys)
        if products is None:
            products = (model.multiply(inv_x, y) for inv_x in inverses for y in keys)
            self._code = lambda key: key
        else:
            # no product has an entry beyond int64, so a key that has one is no class
            self._code = _int64_bytes
        classes = self._index = {}
        numbers = (classes.setdefault(p, len(classes)) for p in products)  # first-seen order
        self.pid = np.fromiter(numbers, dtype=np.int64, count=m * m).reshape(m, m)
        first = np.unique(self.pid, return_index=True)[1]
        # (x^-1 y)^-1 = y^-1 x, so no group inversion is needed
        self.inverse_pid = self.pid[first % m, first // m]
        # the basis starts with the identity, and e^-1 e = e
        self.identity_pid = int(self.pid[0, 0])

    def __len__(self):
        return len(self.inverse_pid)

    def find(self, keys: Sequence) -> List[Optional[int]]:
        """The class of each group element, None for one that is no product x^-1 y."""
        return [self._index.get(self._code(key)) for key in keys]


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
    if not isinstance(keys, list):
        raise ValueError(f"basis keys must be a list, got {keys!r}")
    basis = SupportBasis(model, [model.key_from_json(k) for k in keys], radius)
    if radius is None:
        return basis
    radius = _json_int(radius, "basis radius")
    # one element past the basis settles it, however large the radius
    expected = islice(ball_elements(model, radius), len(basis) + 1)
    if tuple(expected) != basis.elements:
        raise ValueError(f"basis does not match the ball of radius {radius}")
    return basis
