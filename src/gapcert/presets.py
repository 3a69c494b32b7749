"""Builtin presentations and their canonical models.

The SL(3,Z) preset uses the six elementary matrices E_ij = I + delta_ij
as generators.  Its relator list takes the commutator relations over all
ordered triples of distinct indices, six of each kind, plus the single
torsion relator, for 13 relators total:

    r_ijk  = [e_ij, e_ik]            (commuting same-row pairs)
    rp_ijk = [e_ij, e_jk] * e_ik^-1  (producing the third elementary matrix)
    torsion = (e12 * e21^-1 * e12)^4

It is not the Steinberg presentation.  Each same-row commutator is
listed in both orders, and [a, b] and [b, a] give the same J(r)* J(r),
so that term counts twice in Delta_1; there are no same-column
commutators; and the torsion relator is kept.  Its Delta_1 (without the
torsion relator, the default subset) has smallest eigenvalue 0.129986 in
the regular representation of SL(3,Z/2), so no support radius
certifies more than that, and radius 2 cannot reach 0.32.  The Steinberg
set, each commuting pair once and no torsion relator, is STEINBERG_TEXT
in the tests; it certifies above 0.32 at radius 2.
"""

from __future__ import annotations

from typing import Tuple

from .groups import (
    CyclicModel,
    FreeModel,
    GroupModel,
    MatrixModel,
    validate_model,
)
from .words import Presentation, parse_presentation

SL3Z_TEXT = """\
# Steinberg presentation of SL(3,Z) on elementary matrix generators
gens: e12, e13, e21, e23, e31, e32
# same-row commutators over ordered triples (i,j,k)
rel r_123: [e12, e13]
rel r_132: [e13, e12]
rel r_213: [e21, e23]
rel r_231: [e23, e21]
rel r_312: [e31, e32]
rel r_321: [e32, e31]
# [e_ij, e_jk] = e_ik over ordered triples (i,j,k)
rel rp_123: [e12, e23] * e13^-1
rel rp_132: [e13, e32] * e12^-1
rel rp_213: [e21, e13] * e23^-1
rel rp_231: [e23, e31] * e21^-1
rel rp_312: [e31, e12] * e32^-1
rel rp_321: [e32, e21] * e31^-1
# torsion relator
rel torsion: (e12 * e21^-1 * e12)^4
"""

# (i, j) positions matching the generator order in SL3Z_TEXT
SL3Z_POSITIONS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))


def elementary_matrix(i: int, j: int, dim: int = 3):
    """E_ij = I + delta_ij with 1-based indices."""
    return [
        [1 if a == b else (1 if (a + 1, b + 1) == (i, j) else 0) for b in range(dim)]
        for a in range(dim)
    ]


def sl3z_images():
    return [elementary_matrix(i, j) for i, j in SL3Z_POSITIONS]


def _zn_presentation(n: int) -> Presentation:
    return parse_presentation(f"gens: t\nrel: t^{n}\n")


def _free_presentation(k: int) -> Presentation:
    names = ", ".join(f"s{i + 1}" for i in range(k))
    return parse_presentation(f"gens: {names}\n")


def load_preset(name: str) -> Tuple[Presentation, GroupModel]:
    """Return (presentation, model) for a builtin preset.

    Parametrized presets take a colon argument: zn:<n>, free:<k>,
    sl3z-mod:<m>.
    """
    base, _, arg = name.partition(":")
    if base in ("zn", "free", "sl3z-mod"):
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"preset {base} needs an integer after ':', got {name!r}") from None
    if base == "z3" and not arg:
        p, model = _zn_presentation(3), CyclicModel(3)
    elif base == "zn":  # the model first: its check names a bad k, the parser's does not
        model, p = CyclicModel(k), _zn_presentation(k)
    elif base == "z2-abelian" and not arg:
        p = parse_presentation("gens: a, b\nrel: [a, b]\n")
        # commuting translations: Z^2 embedded as I + p*delta_13 + q*delta_23
        model = MatrixModel([elementary_matrix(1, 3), elementary_matrix(2, 3)])
    elif base == "free":
        model, p = FreeModel(k, sound=True), _free_presentation(k)
    elif base == "sl3z" and not arg:
        p, model = parse_presentation(SL3Z_TEXT), MatrixModel(sl3z_images())
    elif base == "sl3z-mod":
        p, model = parse_presentation(SL3Z_TEXT), MatrixModel(sl3z_images(), k)
    else:
        raise KeyError(f"unknown preset {name!r}")
    validate_model(p, model)
    return p, model


PRESET_NAMES = ("z3", "zn:<n>", "z2-abelian", "free:<k>", "sl3z", "sl3z-mod:<m>")
