"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its timing.  The full-scale SL(3,Z) reproduction attempt
is opt-in (`pytest -m stretch`); its gated deliverables (the exported
problem file and the external-solution certifier) run here by default.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from gapcert.certify import certified_gap, psd_sqrt, verify_certificate
from gapcert.cli import main
from gapcert.fox import (
    evaluate_representation,
    fox_derivative,
    laplacian1,
    regular_representation_images,
)
from gapcert.groups import CyclicModel, FreeModel, ball
from gapcert.presets import load_preset
from gapcert.ring import RingElement, RingMatrix
from gapcert.sdp import SolveOptions, build_problem, export_sdpa, import_sdpa, solve
from gapcert.words import Word

from _oracles import (
    order_unit_sos,
    q_rows_as_factors,
    random_star_invariant_matrix,
    verify_sos,
)


class _Timer:
    def __init__(self, number, name, limit):
        self.number = number
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.1f}s"
            )
            print(f"ACCEPTANCE {self.number} ({self.name}): PASS in {elapsed:.2f}s")
        else:
            print(f"ACCEPTANCE {self.number} ({self.name}): FAIL after {elapsed:.2f}s")
        return False


TRIPLES = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_criterion_1_steinberg_derivative_parity():
    with _Timer(1, "Fox-derivative parity on sl3z", 1.0):
        p, model = load_preset("sl3z")
        one = RingElement.one(model)

        def gen(i, j):
            return p.generators.index(f"e{i}{j}")

        def elem(idx):
            return RingElement.of(model.generator(idx))

        for (i, j, k) in TRIPLES:
            r = p.relators[p.relator_index(f"r_{i}{j}{k}")]
            rp = p.relators[p.relator_index(f"rp_{i}{j}{k}")]
            assert fox_derivative(model, r, gen(i, j)) == one - elem(gen(i, k))
            assert fox_derivative(model, r, gen(i, k)) == elem(gen(i, j)) - one
            assert fox_derivative(model, rp, gen(i, k)) == -one
            prod = RingElement.of(
                model.multiply(model.generator(gen(i, k)), model.generator(gen(j, k)))
            )
            assert fox_derivative(model, rp, gen(i, j)) == one - prod
            assert fox_derivative(model, rp, gen(j, k)) == elem(gen(i, j)) - elem(gen(i, k))
            for other in range(6):
                if other not in (gen(i, j), gen(i, k)):
                    assert fox_derivative(model, r, other).is_zero()
                if other not in (gen(i, j), gen(j, k), gen(i, k)):
                    assert fox_derivative(model, rp, other).is_zero()


def test_criterion_2_fundamental_fox_identity():
    with _Timer(2, "fundamental Fox identity, 500 random words", 10.0):
        rng = random.Random(2024)
        presets = ["z3", "zn:5", "zn:7", "free:2", "free:3", "z2-abelian", "sl3z"]
        for _ in range(500):
            p, model = load_preset(rng.choice(presets))
            w = Word(
                [
                    (rng.randrange(p.n_generators), rng.choice((1, -1)))
                    for _ in range(rng.randrange(21))
                ]
            )
            one = RingElement.one(model)
            total = RingElement.zero(model)
            for j in range(p.n_generators):
                s_j = RingElement.of(model.generator(j))
                total = total + fox_derivative(model, w, j) * (s_j - one)
            assert total == RingElement.of(model.evaluate(w)) - one


def test_criterion_3_z3_end_to_end():
    with _Timer(3, "Z/3 end-to-end", 5.0):
        p, model = load_preset("z3")
        lap = laplacian1(model, p)
        ident, t = model.identity(), model.generator(0)
        t2 = model.multiply(t, t)
        assert lap.matrix.entry(0, 0) == RingElement(model, {ident: 5, t: 2, t2: 2})
        images, _ = regular_representation_images(model)
        pi = evaluate_representation(lap.matrix, images, presentation=p)
        assert np.allclose(np.sort(np.linalg.eigvalsh(pi)), [3.0, 3.0, 9.0], atol=1e-12)
        basis = ball(model, 1)
        sol = solve(build_problem(lap, basis), SolveOptions(tol_primal=1e-9, tol_dual=1e-9))
        assert sol.status == "optimal"
        assert 2.999 <= sol.lam <= 3.001
        result = certified_gap(lap, basis, psd_sqrt(sol.P), sol.lam)
        assert result.lambda0 >= 2.99
        assert verify_certificate(result.certificate).passed


def test_criterion_4_z2_abelian_negative_control(tmp_path):
    with _Timer(4, "Z^2 negative control", 30.0):
        p, model = load_preset("z2-abelian")
        lap = laplacian1(model, p)
        pi = evaluate_representation(lap.matrix, [np.eye(1), np.eye(1)], presentation=p)
        assert np.abs(pi).max() == 0.0
        cert_path = tmp_path / "cert.json"
        code = main(
            [
                "pipeline", "--preset", "z2-abelian", "--radius", "2",
                "--tol", "1e-8", "--out", str(cert_path),
            ]
        )
        assert code == 0
        cert = json.loads(cert_path.read_text())
        assert float(cert["certified_lambda0"]) <= 1e-3
        assert cert["status"] == "no-positive-gap"


def _random_basis(rng):
    kind = rng.choice(("cyclic", "free"))
    if kind == "cyclic":
        model = CyclicModel(rng.randint(3, 8))
        return model, ball(model, rng.randint(1, 2))
    model = FreeModel(rng.randint(1, 2))
    return model, ball(model, 1)


def test_criterion_5_sos_round_trip_and_recovery():
    with _Timer(5, "SOS round trip + margin recovery", 60.0):
        rng = random.Random(55)
        from _oracles import random_ring_element

        for _ in range(200):
            model, basis = _random_basis(rng)
            elements = list(basis)
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
            total = RingMatrix.zeros(model, n, n)
            for f in factors:
                total = total + f.adjoint() * f
            assert verify_sos(total, factors) == RingMatrix.zeros(model, n, n)
        # margin recovery with exact (dyadic) square roots
        for mu in (Fraction(1, 10), Fraction(1), Fraction(10)):
            model, basis = CyclicModel(5), None
            basis = ball(model, 2)
            n, m = 2, len(basis)
            rows = [
                [Fraction(rng.randint(-4, 4), 2) for _ in range(n * m)]
                for _ in range(5)
            ]
            total = RingMatrix.zeros(model, n, n)
            for f in q_rows_as_factors(model, basis, n, rows):
                total = total + f.adjoint() * f
            target = total + RingMatrix.identity(model, n, mu)
            Q = np.array([[float(v) for v in row] for row in rows])
            got = certified_gap(target, basis, Q, float(mu))
            assert got.lambda0 >= float(mu) - 1e-6


def test_criterion_6_order_unit_construction():
    with _Timer(6, "order-unit construction, 100 random targets", 30.0):
        rng = random.Random(66)
        for _ in range(100):
            model, basis = _random_basis(rng)
            elements = list(basis)
            n = rng.randint(1, 4)
            M = random_star_invariant_matrix(model, elements, rng, n)
            factors = order_unit_sos(M)
            shifted = M + RingMatrix.identity(model, n, M.l1())
            assert verify_sos(shifted, factors) == RingMatrix.zeros(model, n, n)


def test_criterion_7_finite_quotient_consistency():
    with _Timer(7, "SL(3,Z/2) spectral-gap consistency", 600.0):
        p, model = load_preset("sl3z-mod:2")
        lap = laplacian1(model, p)  # Steinberg relators; torsion excluded
        basis = ball(model, 2)
        prob = build_problem(lap, basis)
        sol = solve(prob, SolveOptions(tol_primal=1e-7, tol_dual=1e-7, max_iter=8000))
        result = certified_gap(lap, basis, psd_sqrt(sol.P), sol.lam)
        assert result.lambda0 > 0, "expected a certified positive gap on the quotient"
        images, elements = regular_representation_images(model)
        assert len(elements) == 168
        pi = evaluate_representation(lap.matrix, images, presentation=p)
        assert pi.shape == (6 * 168, 6 * 168)
        min_eig = float(np.linalg.eigvalsh(pi)[0])
        assert min_eig >= result.lambda0 - 1e-8
        assert verify_certificate(result.certificate).passed


def test_criterion_8_gated_deliverables(tmp_path):
    # export of the radius-2 SL(3,Z) problem, its round trip, and the
    # external-(P, lambda) certifier's reject path; the accept path is
    # exercised on criteria 3 and 7.  The full reproduction attempt is
    # the opt-in stretch test below.
    with _Timer(8, "sl3z export + external certifier", 120.0):
        p, model = load_preset("sl3z")
        lap = laplacian1(model, p)
        assert lap.relator_indices == tuple(range(12))  # torsion excluded
        basis = ball(model, 2)
        prob = build_problem(lap, basis)
        assert prob.m == 121 and prob.npairs == 5455
        text = export_sdpa(prob)
        path = tmp_path / "sl3z_r2.dat-s"
        path.write_text(text)
        header = [l for l in text.splitlines() if not l.startswith("*")][:3]
        assert header == ["98193", "2", "726 -2"]
        assert import_sdpa(text).same_problem(prob)
        # reject: an overclaimed external solution certifies nothing
        bad = certified_gap(lap, basis, np.zeros((726, 726)), 0.32)
        assert bad.status == "no-positive-gap" and bad.lambda0 < 0


@pytest.mark.stretch
def test_criterion_8_stretch_full_reproduction():
    """Full-scale attempt at the radius-2 SL(3,Z) bound (not gating).

    The embedded splitting solver plateaus near lambda = 0.141 on this
    instance, an infeasible iterate; the SL(3,Z/2) quotient caps any
    certified bound for this relator subset at 0.129986, so the 0.28
    target is expected to fail; see the repository notes.
    """
    p, model = load_preset("sl3z")
    lap = laplacian1(model, p)
    basis = ball(model, 2)
    prob = build_problem(lap, basis)
    sol = solve(prob, SolveOptions(tol_primal=1e-8, tol_dual=1e-8, max_iter=12000))
    result = certified_gap(lap, basis, psd_sqrt(sol.P), sol.lam)
    print(
        f"stretch: solver lambda={sol.lam:.6f} status={sol.status} "
        f"certified lambda0={result.lambda0:.6f}"
    )
    assert result.lambda0 >= 0.28


def test_criterion_9_certificate_tamper_resistance():
    with _Timer(9, "certificate tamper resistance, 50 trials", 60.0):
        p, model = load_preset("z3")
        lap = laplacian1(model, p)
        basis = ball(model, 1)
        sol = solve(build_problem(lap, basis), SolveOptions(tol_primal=1e-9, tol_dual=1e-9))
        result = certified_gap(lap, basis, psd_sqrt(sol.P), sol.lam)
        cert = result.certificate
        rng = random.Random(99)
        original = json.loads(cert.to_bytes())
        rows = len(original["q"]["entries"])
        cols = len(original["q"]["entries"][0])
        for _ in range(50):
            data = json.loads(cert.to_bytes())
            i, j = rng.randrange(rows), rng.randrange(cols)
            bump = rng.choice((1.0, -1.0)) * (1e-3 + rng.random())
            data["q"]["entries"][i][j] = repr(float(data["q"]["entries"][i][j]) + bump)
            from gapcert.certify import Certificate

            tampered = Certificate.from_json_dict(data)
            check = verify_certificate(tampered)
            assert (not check.passed) and check.lambda0 < check.stored_lambda0
