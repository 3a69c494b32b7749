import random
from fractions import Fraction

import numpy as np
import pytest

from gapcert.fox import (
    default_relator_indices,
    evaluate_representation,
    laplacian1,
    regular_representation_images,
)
from gapcert.groups import CyclicModel, FreeModel, MatrixModel, validate_model
from gapcert.presets import load_preset
from gapcert.ring import RingElement, RingMatrix
from gapcert.words import Presentation, Word, parse_presentation

from _oracles import add, adjoint, d0, element, fox_derivative, identity, l1, mul
from _oracles import reference_laplacian, relator_square, star


def _elem(model, *word):
    return element(model, model.evaluate(Word(word)))


def _one(model):
    return element(model, model.identity())

def test_fox_derivative_inverse_rule_via_cancellation():
    # d(s s^-1)/ds = 1 + s * (-s^-1) must vanish; this pins the -s^-1 rule
    model = FreeModel(1)
    w = Word([(0, 1), (0, -1)])
    assert not fox_derivative(model, w, 0).support()
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
        assert d_ij == add(_one(model), _elem(model, (e_ik, 1)), -1)
        assert d_ik == add(_elem(model, (e_ij, 1)), _one(model), -1)
        for other in range(6):
            if other not in (e_ij, e_ik):
                assert not fox_derivative(model, r, other).support()


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
        assert d_ik == element(model, model.identity(), -1)
        prod = element(
            model, model.multiply(model.generator(e_ik), model.generator(e_jk))
        )
        assert d_ij == add(_one(model), prod, -1)
        assert d_jk == add(_elem(model, (e_ij, 1)), _elem(model, (e_ik, 1)), -1)
        for other in range(6):
            if other not in (e_ij, e_jk, e_ik):
                assert not fox_derivative(model, r, other).support()


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
        total = RingElement(model, {})
        for j in range(p.n_generators):
            s_j = element(model, model.generator(j))
            total = add(total, mul(fox_derivative(model, w, j), add(s_j, _one(model), -1)))
        expected = add(element(model, model.evaluate(w)), _one(model), -1)
        assert total == expected


def test_chain_condition_d1_compose_d0_vanishes():
    for name in ("z3", "z2-abelian", "sl3z"):
        p, model = load_preset(name)
        for r in p.relators:
            total = RingElement(model, {})
            for j in range(p.n_generators):
                s_j = element(model, model.generator(j))
                total = add(total, mul(fox_derivative(model, r, j), add(_one(model), s_j, -1)))
            assert not total.support()


def test_d0_cases():
    p, model = load_preset("z3")
    col = d0(model, p)
    assert col.n_rows == 1 and col.n_cols == 1
    t = element(model, model.generator(0))
    assert col.entries[0][0] == add(_one(model), t, -1)

    p6, m6 = load_preset("sl3z")
    col6 = d0(m6, p6)
    assert col6.n_rows == 6
    for i in range(6):
        assert col6.entries[i][0] == add(_one(m6), element(m6, m6.generator(i)), -1)

    triv = [np.eye(1)] * 6
    img = evaluate_representation(col6, triv, presentation=p6)
    assert np.allclose(img, 0)


def test_jacobian_commutator_row_in_abelianized_model():
    p, model = load_preset("z2-abelian")
    a = element(model, model.generator(0))
    b = element(model, model.generator(1))
    # product rule on a b a^-1 b^-1 lands on [1 - b, a - 1] after collisions
    assert fox_derivative(model, p.relators[0], 0) == add(_one(model), b, -1)
    assert fox_derivative(model, p.relators[0], 1) == add(a, _one(model), -1)


def test_relator_square_structure():
    p, model = load_preset("sl3z")
    r = p.relators[0]
    J = relator_square(model, p, r)
    assert J.n_rows == J.n_cols == 6
    for j in range(6):
        assert J.entries[0][j] == fox_derivative(model, r, j)
        for i in range(1, 6):
            assert not J.entries[i][j].support()
    JJ = mul(adjoint(J), J)
    for i in range(6):
        for j in range(6):
            expected = mul(star(fox_derivative(model, r, i)), fox_derivative(model, r, j))
            assert JJ.entries[i][j] == expected


def test_relator_square_of_identity_word():
    p, model = load_preset("sl3z")
    J = relator_square(model, p, Word())
    assert J == identity(model, 6, 0)


def test_laplacian_z3_full_relators():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    ident, t = model.identity(), model.generator(0)
    t2 = model.multiply(t, t)
    assert lap.relator_indices == (0,)
    assert lap.matrix.entries[0][0] == RingElement(model, {ident: 5, t: 2, t2: 2})
    assert l1(lap.matrix) == 9


def test_laplacian_infinite_cyclic_no_relators():
    p = parse_presentation("gens: t\n")
    model = FreeModel(1)
    lap = laplacian1(model, p)
    t = element(model, model.generator(0))
    tinv = element(model, model.inverse(model.generator(0)))
    assert lap.matrix.entries[0][0] == add(add(element(model, model.identity(), 2), t, -1), tinv, -1)


def test_default_relator_policy():
    p, _ = load_preset("sl3z")
    idx = default_relator_indices(p)
    assert len(idx) == 12 and p.labels.index("torsion") not in idx
    pz, _ = load_preset("z3")
    assert default_relator_indices(pz) == [0]


@pytest.mark.parametrize(
    "indices, message",
    [([1, 0], "relator indices are not strictly increasing"),
     ([0, 0], "relator indices are not strictly increasing"),
     ([-1], "relator index -1 out of range"),
     ([0, 13], "relator index 13 out of range")],
    ids=["reversed", "repeated", "negative", "past_the_end"],
)
def test_laplacian_refuses_relator_indices_it_would_have_to_sort_or_cannot_index(indices, message):
    # a certificate stores the indices, so they are taken as given or refused
    p, model = load_preset("sl3z")
    with pytest.raises(ValueError, match=f"^{message}$"):
        laplacian1(model, p, indices)


def test_laplacian_sl3z_regression_pins():
    # frozen after first exact assembly; guards against relator drift
    p, model = load_preset("sl3z")
    lap = laplacian1(model, p)
    ident = model.identity()
    assert [lap.matrix.entries[i][i].coefficient(ident) for i in range(6)] == [11] * 6
    assert l1(lap.matrix) == 246
    assert adjoint(lap.matrix) == lap.matrix


def test_laplacian_star_invariant_exact():
    for name in ("z3", "z2-abelian", "sl3z", "sl3z-mod:2"):
        p, model = load_preset(name)
        lap = laplacian1(model, p)
        assert adjoint(lap.matrix) == lap.matrix
        assert all(
            type(c) is int
            for row in lap.matrix.entries for e in row for c in e.coeffs.values()
        )


@pytest.mark.parametrize("preset, products", [("sl3z-mod:2", 94), ("sl3z", 136)])
def test_laplacian_multiplies_each_distinct_pair_once(monkeypatch, preset, products):
    # each distinct product g*h once per call, prefix walks included; walking
    # each relator once per generator without a memo makes 714 on both
    p, model = load_preset(preset)
    calls = []
    multiply = MatrixModel.multiply

    def counted(self, a, b):
        calls.append((a, b))
        return multiply(self, a, b)

    monkeypatch.setattr(MatrixModel, "multiply", counted)
    laplacian1(model, p)
    assert len(calls) == len(set(calls)) == products


def _keyed(M):
    """Each entry's dict from group element to coefficient, apart from the matrix's model."""
    return [[e.coeffs for e in row] for row in M.entries]


def _assert_matches_reference(model, p, indices):
    lap = laplacian1(model, p, indices)
    got = _keyed(lap.matrix)
    assert got == _keyed(reference_laplacian(model, p, lap.relator_indices))
    assert all(type(c) is int and c for row in got for e in row for c in e.values())


@pytest.mark.parametrize(
    "preset", ["z3", "zn:5", "z2-abelian", "free:2", "sl3z-mod:2", "sl3z-mod:3", "sl3z"]
)
def test_laplacian_equals_the_ring_matrix_formula(preset):
    # outer-product assembly against d0 d0* + sum J(r)* J(r) through RingMatrix
    p, model = load_preset(preset)
    r = len(p.relators)
    subsets = [None, list(range(r))] + ([[0], [r - 1]] if r else [])
    for indices in subsets:
        _assert_matches_reference(model, p, indices)


def test_laplacian_equals_the_ring_matrix_formula_on_a_relabelled_presentation():
    p, model = load_preset("sl3z")
    rng = random.Random(13)
    gens = rng.sample(range(p.n_generators), p.n_generators)
    rels = rng.sample(range(len(p.relators)), len(p.relators))
    new_index = {old: new for new, old in enumerate(gens)}
    q = Presentation(
        generators=tuple(p.generators[k] for k in gens),
        relators=tuple(Word([(new_index[i], s) for i, s in p.relators[k]]) for k in rels),
        labels=tuple(p.labels[k] for k in rels),
    )
    relabelled = MatrixModel([model.images[k] for k in gens])
    validate_model(q, relabelled)
    for indices in (None, [2, 5, 11], [7]):
        _assert_matches_reference(relabelled, q, indices)
    # over all relators, relabelling permutes the rows and columns
    ours = _keyed(laplacian1(relabelled, q, range(len(rels))).matrix)
    theirs = _keyed(laplacian1(model, p, range(len(rels))).matrix)
    assert ours == [[theirs[a][b] for b in gens] for a in gens]


def test_monotone_relator_augmentation_keeps_sos():
    # adding relators only adds squares: an SOS list for Delta(R') extends
    # to one for Delta(R' + extra) by appending the extra J(r) factors
    from _oracles import verify_sos

    p, model = load_preset("sl3z")
    small = laplacian1(model, p, [6, 7])
    big = laplacian1(model, p, [0, 6, 7])
    extra = relator_square(model, p, p.relators[0])
    base_factors = [adjoint(d0(model, p)), relator_square(model, p, p.relators[6]),
                    relator_square(model, p, p.relators[7])]
    assert verify_sos(small.matrix, base_factors) == identity(model, 6, 0)
    assert verify_sos(big.matrix, base_factors + [extra]) == identity(model, 6, 0)


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
    p = parse_presentation("gens: t\nrel: t^5\n")
    images, elements = regular_representation_images(model)
    from _oracles import random_ring_element

    for _ in range(20):
        a = random_ring_element(model, elements, rng)
        b = random_ring_element(model, elements, rng)
        A = evaluate_representation(RingMatrix(model, [[a]]), images, presentation=p)
        B = evaluate_representation(RingMatrix(model, [[b]]), images, presentation=p)
        AB = evaluate_representation(RingMatrix(model, [[mul(a, b)]]), images, presentation=p)
        Astar = evaluate_representation(RingMatrix(model, [[star(a)]]), images, presentation=p)
        assert np.allclose(AB, A @ B, atol=1e-8)
        assert np.allclose(Astar, A.conj().T, atol=1e-8)


def test_evaluate_representation_rejects_bad_images():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    with pytest.raises(ValueError, match="^generator image is not unitary$"):
        evaluate_representation(lap.matrix, [np.array([[2.0]])], presentation=p)
    # unitary but violating t^3 = e: rotation by 2pi/5 on the Z/3 model
    c, s = np.cos(2 * np.pi / 5), np.sin(2 * np.pi / 5)
    rot5 = np.array([[c, -s], [s, c]])
    with pytest.raises(ValueError, match="^images violate relator rel0$"):
        evaluate_representation(lap.matrix, [rot5], presentation=p)


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize(
    "preset,images,message",
    [
        pytest.param("z3", [np.array([[2.0]])], "generator image is not unitary", id="not_unitary"),
        pytest.param("z3", [np.eye(1), np.eye(1)], "one image per generator required",
                     id="wrong_count"),
        pytest.param("z3", [np.ones((1, 2))], "generator images must be square matrices",
                     id="not_square"),
        pytest.param("z3", [np.array(1.0)], "generator images must be square matrices",
                     id="zero_dim"),
        pytest.param("z2-abelian", [np.eye(1), np.eye(2)],
                     "generator images must share one dimension", id="two_sizes"),
        # the square check sees every image before the unitarity check sees any
        pytest.param("z2-abelian", [np.array([[2.0]]), np.ones((1, 2))],
                     "generator images must be square matrices", id="square_first"),
    ],
)
def test_evaluate_representation_checks_images_without_a_presentation(preset, images, message):
    # each image check refuses the images before the presentation's relators are read
    p, model = load_preset(preset)
    lap = laplacian1(model, p)
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate_representation(lap.matrix, images, presentation=p)


def test_evaluate_representation_meets_two_paths_without_a_presentation():
    # on Z/4, t^2 is reached as t*t and as t^-1*t^-1; a rotation by 2pi/5
    # gives those two paths different images, which the search sees before
    # the relator t^4 is read
    model = CyclicModel(4)
    p = parse_presentation("gens: t\nrel: t^4\n")
    M = RingMatrix(model, [[RingElement(model, {g: Fraction(1) for g in range(4)})]])
    with pytest.raises(ValueError, match="^images are inconsistent with the model's relations$"):
        evaluate_representation(M, [_rotation(2 * np.pi / 5)], presentation=p)
    pi = evaluate_representation(M, [_rotation(2 * np.pi / 4)], presentation=p)
    assert np.abs(pi).max() < 1e-15  # 1 + t + t^2 + t^3 acts as 0 on the plane


def test_evaluate_representation_reaches_support_within_64_steps():
    # t^64 is 64 steps from the identity of Z/200, t^100 is 100 steps
    model = CyclicModel(200)
    p = parse_presentation("gens: t\nrel: t^200\n")
    image = np.array([[np.exp(2j * np.pi / 200)]])
    near = RingMatrix(model, [[RingElement(model, {64: Fraction(1)})]])
    assert np.allclose(evaluate_representation(near, [image], presentation=p), image[0, 0] ** 64)
    far = RingMatrix(model, [[RingElement(model, {100: Fraction(1)})]])
    with pytest.raises(ValueError,
                       match="^1 support elements unreachable from the generators$"):
        evaluate_representation(far, [image], presentation=p)


def test_evaluate_representation_checks_relators_through_the_raw_images():
    # the image -1 of t passes every check the search makes on Z/3, but (-1)^3 != 1
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    with pytest.raises(ValueError, match="^images violate relator rel0$"):
        evaluate_representation(lap.matrix, [np.array([[-1.0]])], presentation=p)
