import random
import time
from collections import Counter
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from gapcert import groups
from gapcert.certify import Certificate, verify_certificate
from gapcert.groups import (
    CyclicModel,
    FreeModel,
    MatrixModel,
    ProductTable,
    SupportBasis,
    ball,
    model_from_spec,
    validate_model,
)
from gapcert.presets import load_preset, sl3z_images
from gapcert.words import Word, parse_presentation

from _oracles import (
    brute_ball_keys,
    class_elements,
    cofactor_det,
    invert_3x3_unimodular,
    mat_identity_3x3,
    mat_mul_3x3,
    support_basis_from_json,
    word_image_3x3,
)


def test_evaluate_identity_word():
    model = MatrixModel(sl3z_images())
    assert model.evaluate(Word()) == mat_identity_3x3()


def test_generator_image_is_elementary_matrix():
    model = MatrixModel(sl3z_images())
    e12 = model.generator(0)
    assert e12 == ((1, 1, 0), (0, 1, 0), (0, 0, 1))


def test_sl3z_relators_evaluate_to_identity_against_naive_oracle():
    p, model = load_preset("sl3z")
    images = [tuple(tuple(r) for r in img) for img in sl3z_images()]
    inverses = [invert_3x3_unimodular(img) for img in images]
    for rel in p.relators:
        assert word_image_3x3(rel, images, inverses) == mat_identity_3x3()
        assert model.evaluate(rel) == mat_identity_3x3()


def test_multiply_oracle_e12_e21():
    model = MatrixModel(sl3z_images())
    prod = model.multiply(model.generator(0), model.generator(2))
    assert prod == ((2, 1, 0), (1, 1, 0), (0, 0, 1))


def test_group_axioms_on_random_words():
    model = MatrixModel(sl3z_images())
    rng = random.Random(3)
    ident = model.identity()
    for _ in range(50):
        w = Word([(rng.randrange(6), rng.choice((1, -1))) for _ in range(rng.randrange(8))])
        g = model.evaluate(w)
        assert model.multiply(g, model.inverse(g)) == ident
        assert model.multiply(ident, g) == g
        v = Word([(rng.randrange(6), rng.choice((1, -1))) for _ in range(rng.randrange(8))])
        assert model.evaluate(Word(w.letters + v.letters)) == model.multiply(g, model.evaluate(v))


def test_ball_radius_zero():
    model = CyclicModel(5)
    b = ball(model, 0)
    assert list(b) == [0]


def test_ball_z3_brute_force():
    model = CyclicModel(3)
    b = ball(model, 1)
    expected = brute_ball_keys([1], [2], 1, lambda a, g: (a + g) % 3, 0)
    assert set(b) == expected == {0, 1, 2}


def test_ball_sl3z_radius1_has_13_elements():
    _, model = load_preset("sl3z")
    b = ball(model, 1)
    assert len(b) == 13
    images = [tuple(tuple(r) for r in img) for img in sl3z_images()]
    inverses = [invert_3x3_unimodular(img) for img in images]
    expected = brute_ball_keys(images, inverses, 1, mat_mul_3x3, mat_identity_3x3())
    assert set(b) == expected


def test_ball_monotone_and_inversion_closed():
    _, model = load_preset("sl3z")
    prev = set()
    for r in range(3):
        b = ball(model, r)
        keys = set(b)
        assert prev <= keys
        prev = keys
        for el in b:
            assert model.inverse(el) in keys


def test_ball_bfs_order_deterministic():
    _, model = load_preset("sl3z")
    a = list(ball(model, 2))
    b = list(ball(model, 2))
    assert a == b
    assert a[0] == mat_identity_3x3()
    # identity, then the 12 signed generators, then radius 2
    assert len(a) == 121 and len(set(a[:13])) == 13


def test_free_model_ball_and_soundness():
    model = FreeModel(2, sound=True)
    b = ball(model, 1)
    assert list(b) == [(), (1,), (-1,), (2,), (-2,)]
    unsound = FreeModel(2, sound=False)
    with pytest.raises(ValueError):
        ball(unsound, 1)


def test_validate_model_rejects_wrong_quotient():
    p = parse_presentation("gens: t\nrel: t^3\n")
    with pytest.raises(ValueError, match="^relator rel0 does not evaluate to the identity$"):
        validate_model(p, CyclicModel(4))
    validate_model(p, CyclicModel(3))


def test_validate_model_free_with_relators():
    p = parse_presentation("gens: a\nrel: a^2\n")
    with pytest.raises(
        ValueError, match="^free model marked sound but the presentation has relators$"
    ):
        validate_model(p, FreeModel(1, sound=True))
    validate_model(p, FreeModel(1, sound=False))


def test_modular_model_collapses_inverses_mod_2():
    _, model = load_preset("sl3z-mod:2")
    g = model.generator(0)
    assert model.inverse(g) == g
    assert len(ball(model, 1)) == 7


@pytest.mark.parametrize("preset", ["sl3z", "sl3z-mod:2", "sl3z-mod:3"])
def test_memoized_inverse_is_the_fresh_inverse(preset):
    _, model = load_preset(preset)
    ident = model.identity()
    for x in ball(model, 2):
        inv = model.inverse(x)
        assert model.multiply(x, inv) == ident == model.multiply(inv, x)
        assert inv == model._invert_key(x)
        assert model.inverse(x) == inv


@pytest.mark.parametrize("modulus", [None, 2])
def test_a_key_that_fails_to_invert_fails_every_time(monkeypatch, modulus):
    model = MatrixModel(sl3z_images(), modulus)
    singular = ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    calls = []
    invert = MatrixModel._invert_key

    def counting(self, key):
        calls.append(key)
        return invert(self, key)

    monkeypatch.setattr(MatrixModel, "_invert_key", counting)
    for attempt in range(1, 4):
        with pytest.raises(ValueError, match="not invertible"):
            model.inverse(singular)
        assert len(calls) == attempt  # never answered from the memo


def test_integer_and_mod_2_models_keep_their_own_inverses():
    # the generators have equal keys in both models, their inverses differ
    over_z, mod_2 = MatrixModel(sl3z_images()), MatrixModel(sl3z_images(), 2)
    for i in range(6):
        g2, gz = mod_2.generator(i), over_z.generator(i)
        assert g2 == gz
        assert mod_2.inverse(g2) == g2
        assert min(min(row) for row in over_z.inverse(gz)) == -1
        assert mod_2.inverse(g2) == g2


def test_support_basis_invariants():
    model = CyclicModel(4)
    with pytest.raises(ValueError):
        SupportBasis(model, [])
    with pytest.raises(ValueError):
        SupportBasis(model, [model.generator(0)])  # identity must come first
    with pytest.raises(ValueError):
        # not inversion closed: {e, t} lacks t^-1 = t^3
        SupportBasis(model, [model.identity(), model.generator(0)])


@pytest.mark.parametrize("preset", ["z3", "zn:5", "free:2", "sl3z-mod:2", "sl3z"])
def test_support_basis_json_round_trip(preset):
    _, model = load_preset(preset)
    b = ball(model, 2)
    back = support_basis_from_json(b.to_json())
    assert back.elements == b.elements
    assert back.radius == b.radius
    assert back.model.spec() == model.spec()
    ident = model.identity()
    for key in b:
        assert model.key_from_json(model.key_to_json(key)) == key
        assert model.multiply(key, model.inverse(key)) == ident


def test_model_spec_round_trip():
    for name in ("z3", "z2-abelian", "free:2", "sl3z", "sl3z-mod:2", "sl3z-mod:3"):
        _, model = load_preset(name)
        again = model_from_spec(model.spec())
        assert again.spec() == model.spec()
        assert again.model_id == model.model_id
        assert model.model_id.split(":")[0] == model.spec()["type"]


@pytest.mark.parametrize("sound", ["yes", 1, None, 0, 0.0, [], "false"], ids=repr)
def test_free_model_soundness_must_be_a_bool(sound):
    with pytest.raises(ValueError, match="soundness"):
        model_from_spec({"type": "free", "generators": 2, "sound": sound})


def test_free_model_soundness_defaults_to_sound():
    for spec, sound in (({}, True), ({"sound": True}, True), ({"sound": False}, False)):
        model = model_from_spec({"type": "free", "generators": 2, **spec})
        assert model.sound is sound and model.spec()["sound"] is sound


@pytest.mark.parametrize("preset", ["sl3z", "sl3z-mod:2", "z2-abelian"])
@pytest.mark.parametrize("dim", [4, 2, 0, None, "3", 3.0, True, "missing"], ids=repr)
def test_matrix_model_dim_must_be_the_image_size(preset, dim):
    spec = load_preset(preset)[1].spec()
    assert model_from_spec(spec).spec() == spec
    if dim == "missing":
        del spec["dim"]
    else:
        spec["dim"] = dim
    with pytest.raises(ValueError, match="dim"):
        model_from_spec(spec)


@pytest.mark.parametrize("name", ["sl3z", "sl3z-mod:2", "sl3z-mod:3", "z2-abelian"])
def test_matrix_model_rejects_keys_outside_its_ring(name):
    _, model = load_preset(name)
    d, m = model.dim, model.modulus
    ident = [[int(a == b) for b in range(d)] for a in range(d)]
    for entry in (-1, 2 if m is None else m):
        key = [list(row) for row in ident]
        key[0][1] = entry  # det stays 1
        if m is None:
            assert model.key_from_json(key) == tuple(map(tuple, key))
        else:
            with pytest.raises(ValueError, match="outside"):
                model.key_from_json(key)
    # det 0 is a unit in no ring, det 2 not over Z
    non_units = [[[0] * d] + ident[1:]]
    if m is None:
        non_units.append([[2] + [0] * (d - 1)] + ident[1:])
    for key in non_units:
        with pytest.raises(ValueError, match="not invertible"):
            model.key_from_json(key)
        with pytest.raises(ValueError, match="not invertible"):
            MatrixModel([key], m)


def test_product_table_identities():
    model = CyclicModel(3)
    b = ball(model, 1)
    table = b.products()
    # A_{g^-1} = A_g transposed, and the patterns tile all of E x E
    m = len(b)
    patterns = [set() for _ in range(len(table))]
    for x in range(m):
        for y in range(m):
            patterns[table.pid[x][y]].add((x, y))
    total = 0
    for pid, pat in enumerate(patterns):
        total += len(pat)
        inv = table.inverse_pid[pid]
        assert {(y, x) for (x, y) in pat} == patterns[inv]
    assert total == m * m
    ident_pattern = patterns[table.identity_pid]
    assert ident_pattern == {(x, x) for x in range(m)}


@pytest.mark.parametrize("preset,radius", [("z3", 1), ("sl3z-mod:2", 2), ("free:2", 2)])
def test_inverse_pid_matches_group_inversion(preset, radius):
    _, model = load_preset(preset)
    basis = ball(model, radius)
    table = basis.products()
    keys = [model.inverse(g) for g in class_elements(table, basis)]
    assert table.inverse_pid.tolist() == table.find(keys)


def _wide_model():
    # radius-2 entries reach 2^64, so int64 products could wrap around
    return MatrixModel([[[1, 2 ** 32], [0, 1]], [[1, 0], [2 ** 32, 1]]])


@pytest.mark.parametrize("preset", ["sl3z", "sl3z-mod:2"])
def test_batched_product_table_matches_generic_loop(monkeypatch, preset):
    _, model = load_preset(preset)
    basis = ball(model, 2)
    inverses = [model.inverse(x) for x in basis]
    assert groups._int64_products(model, inverses, basis.elements) is not None
    batched = ProductTable(basis)
    monkeypatch.setattr(groups, "_int64_products", lambda model, inverses, keys: None)
    generic = ProductTable(basis)
    assert batched.pid.dtype == batched.inverse_pid.dtype == np.int64
    assert np.array_equal(batched.pid, generic.pid)
    assert np.array_equal(batched.inverse_pid, generic.inverse_pid)
    keys = class_elements(generic, basis)
    assert batched.find(keys) == generic.find(keys) == list(range(len(generic)))
    assert batched.identity_pid == generic.identity_pid


def test_product_table_guard_keeps_large_entries_exact():
    model = _wide_model()
    basis = ball(model, 2)
    inverses = [model.inverse(x) for x in basis]
    assert groups._int64_products(model, inverses, basis.elements) is None
    table = basis.products()
    assert len(table) == 161
    elements = class_elements(table, basis)
    assert max(abs(v) for g in elements for row in g for v in row) > 2 ** 63
    assert table.find(elements) == list(range(161))
    for x, ex in enumerate(basis):
        for y, ey in enumerate(basis):
            assert elements[table.pid[x, y]] == model.multiply(model.inverse(ex), ey)


def test_cyclic_model_overflow_free_large_entries():
    # matrix models use python ints; no silent wraparound anywhere
    model = MatrixModel([[[1, 1], [0, 1]]])
    g = model.generator(0)
    big = model.identity()
    for _ in range(200):
        big = model.multiply(big, g)
    assert big[0][1] == 200


@pytest.mark.parametrize(
    "preset,outside",
    [
        ("sl3z", ((1, 100, 0), (0, 1, 0), (0, 0, 1))),  # e_12^100, far outside radius 4
        ("sl3z-mod:2", ((0, 0, 0), (0, 0, 0), (0, 0, 0))),  # not a group element
        ("free:2", (1,) * 10),
        ("z3", 3),  # not a residue mod 3
        ("wide", ((1, 2 ** 40), (0, 1))),  # the 256th power of a generator
    ],
)
def test_find_agrees_with_the_pair_index(preset, outside):
    model = _wide_model() if preset == "wide" else load_preset(preset)[1]
    basis = ball(model, 2)
    table = basis.products()
    keys = class_elements(table, basis)
    assert table.find(keys) == list(range(len(table)))
    assert outside not in keys
    last = len(keys) - 1
    assert table.find([outside, keys[last]]) == [None, last]
    assert table.find([]) == []
    assert table.identity_pid == keys.index(model.identity())
    # a key with an entry beyond int64 is no product of an int64 table
    huge = ((2 ** 70, 0, 0), (0, 1, 0), (0, 0, 1))
    assert table.find([huge, outside, keys[2]]) == [None, None, 2]


def test_det_is_the_cofactor_expansion():
    rng = random.Random(3)
    for _ in range(600):
        d = rng.randint(1, 6)
        bound = rng.choice([1, 3, 2 ** 70])
        a = [[rng.randint(-bound, bound) if rng.random() < 0.8 else 0 for _ in range(d)]
             for _ in range(d)]
        if d > 1 and rng.random() < 0.25:  # singular: one row a multiple of another
            a[-1] = [rng.randint(-3, 3) * x for x in a[0]]
        det, adj = groups._det_adjugate(a)
        assert det == cofactor_det(a)
        if det == 0:
            assert adj is None
        else:
            product = [[sum(map(mul, row, col)) for col in zip(*adj)] for row in a]
            assert product == [[det * (i == j) for j in range(d)] for i in range(d)]


def test_verify_eliminates_each_key_at_most_once(monkeypatch):
    calls = Counter()
    det_adjugate = groups._det_adjugate

    def counted(a):
        calls[a] += 1
        return det_adjugate(a)

    monkeypatch.setattr(groups, "_det_adjugate", counted)
    cert = Certificate.load(Path(__file__).parent / "data" / "sl3z-mod2-r1-certificate.json")
    assert verify_certificate(cert).passed
    assert len(calls) >= len(cert.fields["basis"]["keys"]) and max(calls.values()) == 1


@pytest.mark.parametrize("entry", [1.9, 1.0, "1", True, np.float64(1.0), np.True_])
def test_matrix_model_refuses_non_integer_image_entries(entry):
    with pytest.raises(ValueError, match="generator image entry must be an integer"):
        MatrixModel([[[1, entry], [0, 1]]])


def test_matrix_model_takes_numpy_integer_entries_as_ints():
    model = MatrixModel([np.array([[1, 2], [0, 1]], dtype=np.int64)], 5)
    assert model.images == [((1, 2), (0, 1))]
    assert all(type(x) is int for row in model.images[0] for x in row)


def test_a_12x12_unimodular_model_builds_quickly():
    # cofactor expansion would take minutes on each 12 x 12 image
    rng = random.Random(4)
    upper = [[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(12)] for i in range(12)]
    lower = [list(row) for row in zip(*upper)]
    start = time.perf_counter()
    model = MatrixModel([upper, lower])
    g = model.multiply(model.generator(0), model.generator(1))
    assert model.multiply(g, model.inverse(g)) == model.identity()
    assert time.perf_counter() - start < 1.0
