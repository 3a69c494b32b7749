"""Fox derivatives, the differentials d0/d1, and the degree-1 Laplacian.

Derivatives are evaluated directly in the group model, not in the free
group, so normal-form collisions (finite quotients, abelianizations)
merge coefficients the way the group ring does.  The defining rules are
d(e) = 0, d(s_i)/d(s_j) = delta_ij and d(uv) = du + u dv; the rule for an
inverse letter, d(s^-1)/d(s) = -s^-1, is forced by applying the product
rule to s s^-1 = e and is covered by a dedicated unit test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .groups import GroupElement, GroupModel
from .ring import RingElement, RingMatrix
from .words import Presentation, Word


def fox_derivative(model: GroupModel, w: Word, j: int) -> RingElement:
    """Derivative of w with respect to generator j, evaluated in the model."""
    if j < 0 or j >= model.n_generators:
        raise ValueError(f"generator index {j} out of range")
    gens = model.generators()
    invs = [model.inverse(g) for g in gens]
    coeffs: Dict[GroupElement, Fraction] = {}

    def add(g: GroupElement, c: int):
        coeffs[g] = coeffs.get(g, Fraction(0)) + c

    prefix = model.identity()
    for idx, sign in w:
        if sign > 0:
            if idx == j:
                add(prefix, 1)
            prefix = model.multiply(prefix, gens[idx])
        else:
            prefix = model.multiply(prefix, invs[idx])
            if idx == j:
                add(prefix, -1)
    return RingElement(model, coeffs)


def d0(model: GroupModel, p: Presentation) -> RingMatrix:
    """Column [1 - s_1; ...; 1 - s_n]."""
    col = []
    for i in range(p.n_generators):
        e = RingElement.one(model) - RingElement.of(model.generator(i))
        col.append([e])
    return RingMatrix(model, col)


def relator_square(model: GroupModel, p: Presentation, r: Word) -> RingMatrix:
    """n x n matrix J(r): first row the derivatives of r, other rows zero."""
    n = p.n_generators
    zero = RingElement.zero(model)
    rows = [[fox_derivative(model, r, j) for j in range(n)]]
    rows.extend([[zero] * n for _ in range(n - 1)])
    return RingMatrix(model, rows)


def default_relator_indices(p: Presentation) -> List[int]:
    """All relators except the longest, when there is more than one.

    Excluding the longest relator keeps supports small while the certified
    bound stays valid for the full relator set; a one-relator presentation
    keeps its relator, since dropping it would change the problem rather
    than shrink it.
    """
    n = len(p.relators)
    if n <= 1:
        return list(range(n))
    lengths = [len(r) for r in p.relators]
    drop = max(range(n), key=lambda k: (lengths[k], k))
    return [k for k in range(n) if k != drop]


@dataclass(frozen=True)
class Laplacian1:
    """The matrix d0 d0* + sum_{r in R'} J(r)* J(r) with its provenance."""

    matrix: RingMatrix
    presentation: Presentation
    model: GroupModel
    relator_indices: Tuple[int, ...]

    @property
    def n(self) -> int:
        return self.matrix.n_rows


def laplacian1(
    model: GroupModel,
    p: Presentation,
    relator_indices: Optional[Sequence[int]] = None,
) -> Laplacian1:
    if relator_indices is None:
        indices = default_relator_indices(p)
    else:
        indices = sorted(set(relator_indices))
        for k in indices:
            if not 0 <= k < len(p.relators):
                raise ValueError(f"relator index {k} out of range")
    col = d0(model, p)
    acc = col * col.adjoint()
    for k in indices:
        jr = relator_square(model, p, p.relators[k])
        acc = acc + jr.adjoint() * jr
    return Laplacian1(acc, p, model, tuple(indices))


class RepresentationError(ValueError):
    pass


def _as_matrix(img) -> np.ndarray:
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise RepresentationError("generator images must be square matrices")
    return arr.astype(complex) if np.iscomplexobj(arr) else arr.astype(float)


def representation_table(
    model: GroupModel,
    images: Sequence[np.ndarray],
    support: Sequence[GroupElement],
) -> Dict:
    """Map each support element's key to its image matrix.

    Images must be unitary to 1e-10 and extend generator-by-generator
    along a BFS of the model of at most 64 steps; when a normal form is
    reached along two paths the two products must agree to 1e-8, which
    catches images that do not factor through the model's quotient.
    """
    if len(images) != model.n_generators:
        raise RepresentationError("one image per generator required")
    mats = [_as_matrix(m) for m in images]
    k = mats[0].shape[0]
    eye = np.eye(k, dtype=mats[0].dtype)
    for m in mats:
        if m.shape != (k, k):
            raise RepresentationError("generator images must share one dimension")
        if np.max(np.abs(m.conj().T @ m - eye)) > 1e-10:
            raise RepresentationError("generator image is not unitary")
    gen_elems = []
    gen_mats = []
    seen_gen = set()
    for i in range(model.n_generators):
        g = model.generator(i)
        for el, mat in ((g, mats[i]), (model.inverse(g), mats[i].conj().T)):
            if el.key not in seen_gen:
                seen_gen.add(el.key)
                gen_elems.append(el)
                gen_mats.append(mat)
    ident = model.identity()
    table = {ident.key: eye}
    pending = {el.key for el in support if el.key not in table}
    frontier = [ident]
    for _ in range(64):
        if not pending or not frontier:
            break
        nxt = []
        for el in frontier:
            cur = table[el.key]
            for s, smat in zip(gen_elems, gen_mats):
                prod = model.multiply(el, s)
                pm = cur @ smat
                known = table.get(prod.key)
                if known is None:
                    table[prod.key] = pm
                    nxt.append(prod)
                    pending.discard(prod.key)
                elif np.max(np.abs(pm - known)) > 1e-8:
                    raise RepresentationError(
                        "images are inconsistent with the model's relations"
                    )
        frontier = nxt
    if pending:
        raise RepresentationError(
            f"{len(pending)} support elements unreachable from the generators"
        )
    return table


def evaluate_representation(
    M: RingMatrix,
    images: Sequence[np.ndarray],
    presentation: Optional[Presentation] = None,
) -> np.ndarray:
    """Block matrix of the entrywise image sums; hermitian for *-invariant M.

    With a presentation, each relator's image must be the identity to 1e-10.
    """
    model = M.model
    support: List[GroupElement] = []
    seen = set()
    for row in M.entries:
        for e in row:
            for g in e.support():
                if g.key not in seen:
                    seen.add(g.key)
                    support.append(g)
    table = representation_table(model, images, support)
    if presentation is not None:
        # evaluate each relator word through the raw images; the table's
        # normal-form lookup would hide violations behind the quotient map
        mats = [_as_matrix(m) for m in images]
        eye = np.eye(mats[0].shape[0], dtype=mats[0].dtype)
        for label, rel in zip(presentation.labels, presentation.relators):
            img = eye
            for idx, sign in rel:
                g = mats[idx]
                img = img @ (g if sign > 0 else g.conj().T)
            if np.max(np.abs(img - eye)) > 1e-10:
                raise RepresentationError(f"images violate relator {label}")
    k = next(iter(table.values())).shape[0]
    any_complex = any(np.iscomplexobj(t) for t in table.values())
    dtype = complex if any_complex else float
    n, c = M.n_rows, M.n_cols
    out = np.zeros((n * k, c * k), dtype=dtype)
    for i in range(n):
        for j in range(c):
            block = np.zeros((k, k), dtype=dtype)
            e = M.entry(i, j)
            for g in e.support():
                block += float(e.coefficient(g)) * table[g.key]
            out[i * k:(i + 1) * k, j * k:(j + 1) * k] = block
    return out


def regular_representation_images(model: GroupModel):
    """Left-regular permutation images for a finite model.

    Enumerates the whole group, at most 200000 elements, by BFS and
    returns (images, elements); images[i][x, y] = 1 iff
    generator_i * elements[y] == elements[x].
    """
    gens = model.generators()
    ident = model.identity()
    order: Dict = {ident.key: 0}
    elements = [ident]
    frontier = [ident]
    sym = gens + [model.inverse(g) for g in gens]
    while frontier:
        nxt = []
        for el in frontier:
            for s in sym:
                prod = model.multiply(el, s)
                if prod.key not in order:
                    if len(elements) >= 200000:
                        raise ValueError("group appears infinite or too large")
                    order[prod.key] = len(elements)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    size = len(elements)
    images = []
    for g in gens:
        mat = np.zeros((size, size))
        for y, h in enumerate(elements):
            x = order[model.multiply(g, h).key]
            mat[x, y] = 1.0
        images.append(mat)
    return images, elements
