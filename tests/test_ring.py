import random
from fractions import Fraction

import pytest

from gapcert.groups import CyclicModel, FreeModel, ball
from gapcert.presets import load_preset
from gapcert.ring import RingElement, RingMatrix

from _oracles import add, adjoint, element, identity, l1, mul, star, sum_of_squares
from _oracles import (
    NotStarInvariantError,
    order_unit_sos,
    random_ring_element,
    random_star_invariant_matrix,
    ring_matrix_from_json,
    verify_sos,
)


@pytest.fixture
def z3():
    return CyclicModel(3)


def _t_poly(model, *coeffs):
    """RingElement c0 + c1 t + c2 t^2 over Z/3."""
    ident = model.identity()
    t = model.generator(0)
    t2 = model.multiply(t, t)
    return RingElement(model, dict(zip((ident, t, t2), map(Fraction, coeffs))))


def test_convolution_hand_oracle_one_minus_t(z3):
    # (1 - t)(1 - t^-1) = 2 - t - t^2 after reducing t^-1 = t^2 by hand
    a = _t_poly(z3, 1, -1, 0)
    b = star(a)
    assert mul(a, b) == _t_poly(z3, 2, -1, -1)


def test_convolution_identity_neutral(z3):
    a = _t_poly(z3, 3, -2, 5)
    assert mul(a, element(z3, z3.identity())) == a
    assert mul(element(z3, z3.identity()), a) == a


def test_convolution_geometric_square(z3):
    # nine-term expansion collapsing mod 3
    s = _t_poly(z3, 1, 1, 1)
    assert mul(s, s) == _t_poly(z3, 3, 3, 3)


def test_star_cases(z3):
    a = _t_poly(z3, 1, -1, 0)
    assert star(a) == _t_poly(z3, 1, 0, -1)
    sym = _t_poly(z3, 2, -1, -1)
    assert star(sym) == sym
    assert star(star(a)) == a


def test_star_on_sl3z_difference():
    _, model = load_preset("sl3z")
    e12, e13 = model.generator(0), model.generator(1)
    a = add(element(model, e12), element(model, e13), -1)
    expected = add(element(model, model.inverse(e12)), element(model, model.inverse(e13)), -1)
    assert star(a) == expected


def test_star_antiautomorphism_random():
    model = FreeModel(2)
    elements = list(ball(model, 2))
    rng = random.Random(5)
    for _ in range(50):
        a = random_ring_element(model, elements, rng)
        b = random_ring_element(model, elements, rng)
        assert star(mul(a, b)) == mul(star(b), star(a))
        assert l1(star(a)) == l1(a)
        assert l1(mul(a, b)) <= l1(a) * l1(b)


def test_l1_norm_cases(z3):
    assert l1(RingElement(z3, {})) == 0
    assert l1(_t_poly(z3, 2, 2, 2)) == 6
    assert l1(_t_poly(z3, 5, 2, 2)) == 9  # the Laplacian entry for <t | t^3>


def test_matrix_ops_d0_oracle(z3):
    one_minus_t = _t_poly(z3, 1, -1, 0)
    col = RingMatrix(z3, [[one_minus_t]])
    assert mul(col, adjoint(col)) == RingMatrix(z3, [[_t_poly(z3, 2, -1, -1)]])


def test_adjoint_of_column():
    model = FreeModel(2)
    e = element(model, model.identity())
    s1, s2 = (element(model, model.generator(i)) for i in range(2))
    col = RingMatrix(model, [[add(e, s1, -1)], [add(e, s2, -1)]])
    adj = adjoint(col)
    assert adj.n_rows == 1 and adj.n_cols == 2
    assert adj.entries[0][0] == add(e, star(s1), -1)
    assert adj.entries[0][1] == add(e, star(s2), -1)
    assert adjoint(adj) == col


def test_mode_mixing_is_an_error(z3):
    # the ring is exact-only: a float or bool coefficient or scalar is a type error
    exact = _t_poly(z3, 1, 0, 0)
    for value in (0.5, 1.0, True):
        with pytest.raises(TypeError):
            RingElement(z3, {z3.identity(): value})
    with pytest.raises(TypeError):
        add(exact, exact, 0.5)
    with pytest.raises(TypeError):
        verify_sos(RingMatrix(z3, [[exact]]), [(0.5, RingMatrix(z3, [[exact]]))])


def test_adjoint_involution_and_product_rule(z3):
    rng = random.Random(9)
    elements = list(ball(z3, 1))
    A = random_star_invariant_matrix(z3, elements, rng, 2)
    B = random_star_invariant_matrix(z3, elements, rng, 2)
    assert adjoint(adjoint(A)) == A
    assert adjoint(mul(A, B)) == mul(adjoint(B), adjoint(A))


def test_verify_sos_round_trip_random():
    rng = random.Random(21)
    model = FreeModel(2)
    elements = list(ball(model, 1))
    for _ in range(20):
        n = rng.randint(1, 3)
        factors = [
            RingMatrix(
                model,
                [
                    [random_ring_element(model, elements, rng) for _ in range(n)]
                    for _ in range(rng.randint(1, n))
                ],
            )
            for _ in range(rng.randint(1, 3))
        ]
        residual = verify_sos(sum_of_squares(model, n, factors), factors)
        assert residual == identity(model, n, 0)


def test_verify_sos_explicit_z3_gap(z3):
    # Delta - 3I = 2 + 2t + 2t^2 = (2/3) * (1+t+t^2)*(1+t+t^2)
    target = RingMatrix(z3, [[_t_poly(z3, 2, 2, 2)]])
    factor = RingMatrix(z3, [[_t_poly(z3, 1, 1, 1)]])
    residual = verify_sos(target, [(Fraction(2, 3), factor)])
    assert residual == identity(z3, 1, 0)


def test_verify_sos_shape_errors(z3):
    target = identity(z3, 2)
    bad = identity(z3, 3)
    with pytest.raises(ValueError):
        verify_sos(target, [bad])


def test_order_unit_minus_g_plus_ginv(z3):
    # M = -(g + g^-1): the single factor is (1 - g)
    t = z3.generator(0)
    M = RingMatrix(z3, [[RingElement(z3, {t: -1, z3.inverse(t): -1})]])
    factors = order_unit_sos(M)
    shifted = add(M, identity(z3, 1, l1(M)))
    assert verify_sos(shifted, factors) == identity(z3, 1, 0)
    assert len(factors) == 1
    scale, f = factors[0]
    assert scale == 1
    assert f.entries[0][0] == add(element(z3, z3.identity()), element(z3, t), -1)


def test_order_unit_zero_matrix(z3):
    M = identity(z3, 2, 0)
    assert order_unit_sos(M) == []


def test_order_unit_off_diagonal_block(z3):
    t = z3.generator(0)
    zero = RingElement(z3, {})
    M = RingMatrix(
        z3,
        [
            [zero, element(z3, t)],
            [element(z3, z3.inverse(t)), zero],
        ],
    )
    factors = order_unit_sos(M)
    shifted = add(M, identity(z3, 2, l1(M)))
    assert verify_sos(shifted, factors) == identity(z3, 2, 0)
    # one (1/2)(I2 + X_g) block plus slack squares on both diagonal slots
    scales = sorted(s for s, _ in factors)
    assert Fraction(1, 2) in scales


def test_order_unit_random_star_invariant():
    rng = random.Random(33)
    for trial in range(100):
        model = FreeModel(2) if trial % 2 else CyclicModel(6)
        elements = list(ball(model, 1))
        n = rng.randint(1, 4)
        M = random_star_invariant_matrix(model, elements, rng, n)
        factors = order_unit_sos(M)
        shifted = add(M, identity(model, n, l1(M)))
        assert verify_sos(shifted, factors) == identity(model, n, 0)


def test_order_unit_rejects_non_star_invariant(z3):
    M = RingMatrix(z3, [[element(z3, z3.generator(0))]])
    with pytest.raises(NotStarInvariantError):
        order_unit_sos(M)


def test_ring_matrix_json_round_trip_exact():
    _, model = load_preset("sl3z")
    from gapcert.fox import laplacian1
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    data = lap.matrix.to_json()
    back = ring_matrix_from_json(data)
    assert back == lap.matrix
