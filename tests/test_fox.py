import random
from fractions import Fraction

import numpy as np
import pytest

from gapcert.fox import (
    RepresentationError,
    d0,
    default_relator_indices,
    evaluate_representation,
    fox_derivative,
    laplacian1,
    regular_representation_images,
    relator_square,
)
from gapcert.groups import CyclicModel, FreeModel
from gapcert.presets import load_preset
from gapcert.ring import RingElement, RingMatrix
from gapcert.words import Word, parse_presentation


def _elem(model, *word):
    return RingElement.of(model.evaluate(Word(word)))


def _one(model):
    return RingElement.one(model)


def test_fox_derivative_inverse_rule_via_cancellation():
    # d(s s^-1)/ds = 1 + s * (-s^-1) must vanish; this pins the -s^-1 rule
    model = FreeModel(1)
    w = Word([(0, 1), (0, -1)])
    assert fox_derivative(model, w, 0).is_zero()
    w_raw = [(0, 1), (0, -1)]
    # also check on the unreduced composite a b b^-1 pattern
    model2 = FreeModel(2)
    w2 = Word([(0, -1)])
    d = fox_derivative(model2, w2, 0)
    g = model2.inverse(model2.generator(0))
    assert d == RingElement(model2, {g: Fraction(-1)})


def test_fox_derivative_t_cubed():
    model = CyclicModel(3)
    p = parse_presentation("gens: t\nrel: t^3\n")
    d = fox_derivative(model, p.relators[0], 0)
    ident, t = model.identity(), model.generator(0)
    t2 = model.multiply(t, t)
    assert d == RingElement(model, {ident: 1, t: 1, t2: 1})


def _sl3z_gen_index(p, i, j):
    return p.generators.index(f"e{i}{j}")


TRIPLES = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_steinberg_commutator_derivatives_match_closed_forms():
    p, model = load_preset("sl3z")
    for t_idx, (i, j, k) in enumerate(TRIPLES):
        r = p.relators[p.relator_index(f"r_{i}{j}{k}")]
        e_ij = _sl3z_gen_index(p, i, j)
        e_ik = _sl3z_gen_index(p, i, k)
        d_ij = fox_derivative(model, r, e_ij)
        d_ik = fox_derivative(model, r, e_ik)
        assert d_ij == _one(model) - _elem(model, (e_ik, 1))
        assert d_ik == _elem(model, (e_ij, 1)) - _one(model)
        for other in range(6):
            if other not in (e_ij, e_ik):
                assert fox_derivative(model, r, other).is_zero()


def test_steinberg_product_relator_derivatives_match_closed_forms():
    p, model = load_preset("sl3z")
    for (i, j, k) in TRIPLES:
        r = p.relators[p.relator_index(f"rp_{i}{j}{k}")]
        e_ij = _sl3z_gen_index(p, i, j)
        e_jk = _sl3z_gen_index(p, j, k)
        e_ik = _sl3z_gen_index(p, i, k)
        d_ik = fox_derivative(model, r, e_ik)
        d_ij = fox_derivative(model, r, e_ij)
        d_jk = fox_derivative(model, r, e_jk)
        assert d_ik == -_one(model)
        prod = RingElement.of(
            model.multiply(model.generator(e_ik), model.generator(e_jk))
        )
        assert d_ij == _one(model) - prod
        assert d_jk == _elem(model, (e_ij, 1)) - _elem(model, (e_ik, 1))
        for other in range(6):
            if other not in (e_ij, e_jk, e_ik):
                assert fox_derivative(model, r, other).is_zero()


def _random_word(rng, n_gens, max_len=20):
    return Word(
        [(rng.randrange(n_gens), rng.choice((1, -1))) for _ in range(rng.randrange(max_len + 1))]
    )


def test_fundamental_fox_identity_random_words():
    rng = random.Random(17)
    presets = ["z3", "zn:5", "free:2", "z2-abelian", "sl3z"]
    for _ in range(100):
        p, model = load_preset(rng.choice(presets))
        w = _random_word(rng, p.n_generators, 12)
        total = RingElement.zero(model)
        for j in range(p.n_generators):
            s_j = RingElement.of(model.generator(j))
            total = total + fox_derivative(model, w, j) * (s_j - _one(model))
        expected = RingElement.of(model.evaluate(w)) - _one(model)
        assert total == expected


def test_chain_condition_d1_compose_d0_vanishes():
    for name in ("z3", "z2-abelian", "sl3z"):
        p, model = load_preset(name)
        for r in p.relators:
            total = RingElement.zero(model)
            for j in range(p.n_generators):
                s_j = RingElement.of(model.generator(j))
                total = total + fox_derivative(model, r, j) * (_one(model) - s_j)
            assert total.is_zero()


def test_d0_cases():
    p, model = load_preset("z3")
    col = d0(model, p)
    assert col.n_rows == 1 and col.n_cols == 1
    t = RingElement.of(model.generator(0))
    assert col.entry(0, 0) == _one(model) - t

    p6, m6 = load_preset("sl3z")
    col6 = d0(m6, p6)
    assert col6.n_rows == 6
    for i in range(6):
        assert col6.entry(i, 0) == _one(m6) - RingElement.of(m6.generator(i))

    triv = [np.eye(1)] * 6
    img = evaluate_representation(col6, triv, presentation=p6)
    assert np.allclose(img, 0)


def test_jacobian_commutator_row_in_abelianized_model():
    p, model = load_preset("z2-abelian")
    a = RingElement.of(model.generator(0))
    b = RingElement.of(model.generator(1))
    # product rule on a b a^-1 b^-1 lands on [1 - b, a - 1] after collisions
    assert fox_derivative(model, p.relators[0], 0) == _one(model) - b
    assert fox_derivative(model, p.relators[0], 1) == a - _one(model)


def test_relator_square_structure():
    p, model = load_preset("sl3z")
    r = p.relators[0]
    J = relator_square(model, p, r)
    assert J.n_rows == J.n_cols == 6
    for j in range(6):
        assert J.entry(0, j) == fox_derivative(model, r, j)
        for i in range(1, 6):
            assert J.entry(i, j).is_zero()
    JJ = J.adjoint() * J
    for i in range(6):
        for j in range(6):
            expected = fox_derivative(model, r, i).star() * fox_derivative(model, r, j)
            assert JJ.entry(i, j) == expected


def test_relator_square_of_identity_word():
    p, model = load_preset("sl3z")
    J = relator_square(model, p, Word.identity())
    assert J == RingMatrix.zeros(model, 6, 6)


def test_laplacian_z3_full_relators():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    ident, t = model.identity(), model.generator(0)
    t2 = model.multiply(t, t)
    assert lap.relator_indices == (0,)
    assert lap.matrix.entry(0, 0) == RingElement(model, {ident: 5, t: 2, t2: 2})
    assert lap.matrix.l1() == 9


def test_laplacian_infinite_cyclic_no_relators():
    p = parse_presentation("gens: t\n")
    model = FreeModel(1)
    lap = laplacian1(model, p)
    t = RingElement.of(model.generator(0))
    tinv = RingElement.of(model.inverse(model.generator(0)))
    assert lap.matrix.entry(0, 0) == 2 * _one(model) - t - tinv


def test_default_relator_policy():
    p, _ = load_preset("sl3z")
    idx = default_relator_indices(p)
    assert len(idx) == 12 and p.labels.index("torsion") not in idx
    pz, _ = load_preset("z3")
    assert default_relator_indices(pz) == [0]


def test_laplacian_sl3z_regression_pins():
    # frozen after first exact assembly; guards against relator drift
    p, model = load_preset("sl3z")
    lap = laplacian1(model, p)
    ident = model.identity()
    assert [lap.matrix.entry(i, i).coefficient(ident) for i in range(6)] == [11] * 6
    assert lap.matrix.l1() == 246
    assert lap.matrix.is_star_invariant()


def test_laplacian_star_invariant_exact():
    for name in ("z3", "z2-abelian", "sl3z", "sl3z-mod:2"):
        p, model = load_preset(name)
        lap = laplacian1(model, p)
        assert lap.matrix.is_star_invariant()
        assert all(
            isinstance(c, Fraction)
            for row in lap.matrix.entries for e in row for c in e.coeffs.values()
        )


def test_monotone_relator_augmentation_keeps_sos():
    # adding relators only adds squares: an SOS list for Delta(R') extends
    # to one for Delta(R' + extra) by appending the extra J(r) factors
    from _oracles import verify_sos

    p, model = load_preset("sl3z")
    small = laplacian1(model, p, [6, 7])
    big = laplacian1(model, p, [6, 7, 0])
    extra = relator_square(model, p, p.relators[0])
    base_factors = [d0(model, p).adjoint(), relator_square(model, p, p.relators[6]),
                    relator_square(model, p, p.relators[7])]
    assert verify_sos(small.matrix, base_factors) == RingMatrix.zeros(model, 6, 6)
    assert verify_sos(big.matrix, base_factors + [extra]) == RingMatrix.zeros(model, 6, 6)


def test_evaluate_representation_trivial_on_z2_abelian():
    p, model = load_preset("z2-abelian")
    lap = laplacian1(model, p)
    pi = evaluate_representation(lap.matrix, [np.eye(1), np.eye(1)], presentation=p)
    assert pi.shape == (2, 2)
    assert np.abs(pi).max() == 0.0


def test_evaluate_representation_regular_z3_circulant():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    images, elements = regular_representation_images(model)
    assert len(elements) == 3
    pi = evaluate_representation(lap.matrix, images, presentation=p)
    w = np.sort(np.linalg.eigvalsh(pi))
    # circulant with first row (5, 2, 2): eigenvalues 5+2*2 and 5-2 twice
    assert np.allclose(w, [3.0, 3.0, 9.0], atol=1e-12)


def test_evaluate_representation_hermitian_for_star_invariant():
    p, model = load_preset("sl3z-mod:2")
    lap = laplacian1(model, p)
    images, _ = regular_representation_images(model)
    pi = evaluate_representation(lap.matrix, images, presentation=p)
    assert np.allclose(pi, pi.T.conj())


def test_evaluate_representation_star_homomorphism_random():
    rng = random.Random(71)
    model = CyclicModel(5)
    images, elements = regular_representation_images(model)
    from _oracles import random_ring_element

    for _ in range(20):
        a = random_ring_element(model, elements, rng)
        b = random_ring_element(model, elements, rng)
        A = evaluate_representation(RingMatrix(model, [[a]]), images)
        B = evaluate_representation(RingMatrix(model, [[b]]), images)
        AB = evaluate_representation(RingMatrix(model, [[a * b]]), images)
        Astar = evaluate_representation(RingMatrix(model, [[a.star()]]), images)
        assert np.allclose(AB, A @ B, atol=1e-8)
        assert np.allclose(Astar, A.conj().T, atol=1e-8)


def test_evaluate_representation_rejects_bad_images():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    with pytest.raises(RepresentationError):
        evaluate_representation(lap.matrix, [np.array([[2.0]])], presentation=p)
    # unitary but violating t^3 = e: rotation by 2pi/5 on the Z/3 model
    c, s = np.cos(2 * np.pi / 5), np.sin(2 * np.pi / 5)
    rot5 = np.array([[c, -s], [s, c]])
    with pytest.raises(RepresentationError):
        evaluate_representation(lap.matrix, [rot5], presentation=p)
