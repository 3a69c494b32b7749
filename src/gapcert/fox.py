"""Fox derivatives and the degree-1 Laplacian.

Derivatives are evaluated directly in the group model, not in the free
group, so normal-form collisions (finite quotients, abelianizations)
merge coefficients the way the group ring does.  The defining rules are
d(e) = 0, d(s_i)/d(s_j) = delta_ij and d(uv) = du + u dv; the rule for an
inverse letter, d(s^-1)/d(s) = -s^-1, is forced by applying the product
rule to s s^-1 = e and is covered by a dedicated unit test.

laplacian1 adds the outer products (1 - s_i)(1 - s_j)* and d_i(r)* d_j(r)
straight into one coefficient dict per entry (i, j), a Terms, and returns
them as a TermMatrix: the Laplacian has no other representation.  The
ring-matrix formula d0 d0* + sum_r J(r)* J(r) is the test oracle
reference_laplacian, whose exact ring arithmetic and derivatives (the
product-rule fox_derivative) live in tests/_oracles.py.
Each relator's derivatives by all generators come from one walk along its
prefixes, every coefficient is an int, as Fox derivatives make it, and
each distinct product g*h is computed once per call, in a memo local to
the call: one kept per model would also keep every product that ball
enumeration asks the model for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .groups import FreeModel, GroupModel, Key, ball_elements
from .words import Presentation, Word


class Terms(dict):
    """One Laplacian entry: group element (a key) -> nonzero int coefficient."""

    __slots__ = ()

    def support(self) -> List[Key]:
        """The group elements with a coefficient, in key order."""
        return sorted(self)


class TermMatrix(NamedTuple):
    """Rows of entries over one model; perfbench reads exactly these two fields."""

    model: GroupModel
    entries: Sequence[Sequence[Mapping[Key, object]]]


def _derivative_row(model: GroupModel, w: Word, product) -> List[Dict[Key, int]]:
    """The derivatives of w by every generator, from one walk along w's prefixes.

    Entry j maps each group element to its integer coefficient in d(w)/d(s_j);
    a coefficient may be 0 where terms cancel.  product(g, h) is g*h in the
    model.
    """
    gens = model.generators()
    invs = [model.inverse(g) for g in gens]
    row: List[Dict[Key, int]] = [{} for _ in gens]
    prefix = model.identity()
    for idx, sign in w:
        coeffs = row[idx]
        if sign > 0:
            coeffs[prefix] = coeffs.get(prefix, 0) + 1
            prefix = product(prefix, gens[idx])
        else:
            prefix = product(prefix, invs[idx])
            coeffs[prefix] = coeffs.get(prefix, 0) - 1
    return row


def default_relator_indices(p: Presentation) -> List[int]:
    """All relators except the longest, when there is more than one.

    Excluding the longest relator keeps supports small while the certified
    bound stays valid for the full relator set; a one-relator presentation
    keeps its relator, since dropping it would change the problem rather
    than shrink it.  Without a torsion relator, as in the twelve Steinberg
    relators, the longest is an [e_ij, e_jk] e_ik^-1 relator, so the paper's
    operator needs every index (`--exclude-relator none`).
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

    matrix: TermMatrix
    presentation: Presentation
    relator_indices: Tuple[int, ...]


def laplacian1(
    model: GroupModel,
    p: Presentation,
    relator_indices: Optional[Sequence[int]] = None,
) -> Laplacian1:
    """d0 d0* + sum_r J(r)* J(r) over the given relators (default_relator_indices if None)."""
    indices = tuple(default_relator_indices(p) if relator_indices is None else relator_indices)
    if any(a >= b for a, b in zip(indices, indices[1:])):  # certificates store them: never sort
        raise ValueError("relator indices are not strictly increasing")
    for k in indices:
        if not 0 <= k < len(p.relators):
            raise ValueError(f"relator index {k!r} out of range")
    n = p.n_generators
    cells: List[List[Dict[Key, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    products: Dict[Tuple[Key, Key], Key] = {}

    def product(g, h):
        gh = products.get((g, h))
        if gh is None:
            gh = products[g, h] = model.multiply(g, h)
        return gh

    def add_outer(left, right):
        """cells[i][j] += left[i] * right[j]; each a list of (element, coefficient)."""
        for row, a in zip(cells, left):
            for cell, b in zip(row, right):
                for g, c in a:
                    for h, d in b:
                        gh = product(g, h)
                        cell[gh] = cell.get(gh, 0) + c * d

    def star(terms):
        return [[(model.inverse(g), c) for g, c in t] for t in terms]

    # d0 d0* = u u* for the column u = [1 - s_i]
    u = [[(model.identity(), 1), (s, -1)] for s in model.generators()]
    add_outer(u, star(u))
    for k in indices:
        # J(r)* J(r) = D* D for the derivative row D of r; J's zero rows add nothing
        row = [
            [(g, c) for g, c in coeffs.items() if c]
            for coeffs in _derivative_row(model, p.relators[k], product)
        ]
        add_outer(star(row), row)
    # coefficients that cancel to 0 leave the entry
    entries = tuple(tuple(Terms((g, c) for g, c in cell.items() if c) for cell in r) for r in cells)
    return Laplacian1(TermMatrix(model, entries), p, indices)


def evaluate_representation(
    M: TermMatrix,
    images: Sequence[np.ndarray],
    presentation: Presentation,
) -> np.ndarray:
    """Block matrix of the entrywise image sums; hermitian for *-invariant M.

    M is a TermMatrix whose rows of {group element: coefficient} may be
    rectangular: a column such as d0 is evaluated as a column of blocks.

    The generator images must be square, of one size and unitary to 1e-10.
    A BFS of at most 64 steps multiplies them out until each support
    element has an image; two paths to one normal form must agree to
    1e-8.  Each relator of the presentation, a product of the raw images,
    must be the identity to 1e-10, which the normal forms would hide.
    """
    model = M.model
    if len(images) != model.n_generators:
        raise ValueError("one image per generator required")
    mats = [np.asarray(m) for m in images]
    if any(m.ndim != 2 or m.shape[0] != m.shape[1] for m in mats):
        raise ValueError("generator images must be square matrices")
    mats = [m.astype(np.result_type(float, m)) for m in mats]  # float64 or complex128 copies
    k = mats[0].shape[0]
    eye = np.eye(k)
    for m in mats:
        if m.shape != (k, k):
            raise ValueError("generator images must share one dimension")
        if np.max(np.abs(m.conj().T @ m - eye)) > 1e-10:
            raise ValueError("generator image is not unitary")
    steps: Dict[Key, np.ndarray] = {}  # first seen wins, in symmetrized_generators' order
    for g, m in zip(model.generators(), mats):
        steps.setdefault(g, m)
        steps.setdefault(model.inverse(g), m.conj().T)
    table = {model.identity(): eye}
    pending = {g for row in M.entries for e in row for g in e} - table.keys()
    frontier = list(table)
    for _ in range(64):
        if not pending or not frontier:
            break
        nxt = []
        for el in frontier:
            for s, smat in steps.items():
                prod, pm = model.multiply(el, s), table[el] @ smat
                known = table.get(prod)
                if known is None:
                    table[prod] = pm
                    nxt.append(prod)
                    pending.discard(prod)
                elif np.max(np.abs(pm - known)) > 1e-8:
                    raise ValueError("images are inconsistent with the model's relations")
        frontier = nxt
    if pending:
        raise ValueError(f"{len(pending)} support elements unreachable from the generators")
    for label, rel in zip(presentation.labels, presentation.relators):
        img = eye
        for idx, sign in rel:
            img = img @ (mats[idx] if sign > 0 else mats[idx].conj().T)
        if np.max(np.abs(img - eye)) > 1e-10:
            raise ValueError(f"images violate relator {label}")
    out = np.zeros((len(M.entries) * k, len(M.entries[0]) * k), dtype=np.result_type(*mats))
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            block = np.zeros((k, k), dtype=out.dtype)
            for g in sorted(e):
                block += float(e[g]) * table[g]
            out[i * k:(i + 1) * k, j * k:(j + 1) * k] = block
    return out


def regular_representation_images(model: GroupModel):
    """Left-regular permutation images for a finite model.

    Enumerates the whole group, at most 200000 elements, as the ball of
    radius 200000 and returns (images, elements), the elements as keys;
    images[i][x, y] = 1 iff generator_i * elements[y] == elements[x].
    A free model, always infinite, is refused at once.
    """
    if isinstance(model, FreeModel):
        raise ValueError("a free group is infinite")
    # a group of at most 200000 elements has diameter below 200000
    elements = list(islice(ball_elements(model, 200000), 200001))
    if len(elements) > 200000:
        raise ValueError("group appears infinite or too large")
    order = {el: x for x, el in enumerate(elements)}
    images = [np.zeros((len(elements), len(elements))) for _ in model.generators()]
    for g, mat in zip(model.generators(), images):
        mat[[order[model.multiply(g, h)] for h in elements], range(len(elements))] = 1.0
    return images, elements
