import hashlib
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from gapcert import sdp
from gapcert.certify import certified_gap, psd_sqrt
from gapcert.fox import laplacian1
from gapcert.groups import CyclicModel, SupportBasis, ball, model_from_spec
from gapcert.presets import load_preset
from gapcert.ring import RingElement, RingMatrix
from gapcert.sdp import (
    GramSymmetry,
    SdpProblem,
    SolveOptions,
    SupportTooSmallError,
    _psd_project,
    _psd_project_blocks,
    build_problem,
    export_sdpa,
    gram_symmetry,
    import_sdpa,
    solve,
)
from gapcert.words import Presentation, Word

from _oracles import reconstruct_exact

DATA = Path(__file__).parent / "data"


def _z3_problem():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    return lap, basis, build_problem(lap, basis)


def test_build_z3_constraint_structure():
    lap, basis, prob = _z3_problem()
    assert prob.n == 1 and prob.m == 3 and prob.npairs == 3
    # one matrix entry (n = 1) times three product classes
    assert prob.constraint_count() == 3
    table = prob.table
    # A_e is the identity pattern
    for x in range(3):
        for y in range(3):
            assert (table.pid[x][y] == table.identity_pid) == (x == y)
    assert prob.targets[0, 0, table.identity_pid] == 5.0


def test_build_rejects_small_basis():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    tiny = SupportBasis([model.identity()])
    with pytest.raises(SupportTooSmallError) as exc:
        build_problem(lap, tiny)
    assert exc.value.uncovered  # names the missing group elements


def test_build_rejects_non_star_invariant():
    model = CyclicModel(3)
    basis = ball(model, 1)
    M = RingMatrix(model, [[RingElement.of(model.generator(0))]])
    with pytest.raises(ValueError):
        build_problem(M, basis)


def test_sl3z_radius2_problem_size_regression():
    p, model = load_preset("sl3z")
    lap = laplacian1(model, p)
    basis = ball(model, 2)
    prob = build_problem(lap, basis)
    # frozen after the first run: |E| = 121, |E*E| = 5455 products,
    # 21 entry pairs (i <= j) over n = 6
    assert prob.m == 121
    assert prob.npairs == 5455
    assert prob.constraint_count() == 21 * 5455


def test_constraint_completeness_rational_reconstruction():
    # any P maps back to exactly the ring matrix the constraints encode
    rng = random.Random(13)
    model = CyclicModel(4)
    basis = ball(model, 2)
    m = len(basis)
    for n in (1, 2):
        rows = n * m
        P = [[Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rows)] for _ in range(rows)]
        # symmetrize and star-symmetrize the target
        M = reconstruct_exact(SdpProblem(n, basis, np.zeros((n, n, len(basis.products())))), P)
        prob = build_problem(M + M.adjoint(), basis)
        Psym = [
            [P[i][j] + P[j][i] for j in range(rows)] for i in range(rows)
        ]
        back = reconstruct_exact(prob, Psym)
        assert back == M + M.adjoint()
        for (i, j, pid), v in np.ndenumerate(prob.targets):
            coeff = (M + M.adjoint()).entry(i, j).coefficient(prob.table.pair_elements[pid])
            assert float(coeff) == v


def test_export_matches_golden_file():
    _, _, prob = _z3_problem()
    golden = (DATA / "z3_problem.dat-s").read_text()
    assert export_sdpa(prob) == golden


def test_export_import_round_trip_z3_and_sl3z_mod2():
    _, _, prob = _z3_problem()
    assert import_sdpa(export_sdpa(prob)).same_problem(prob)

    p, model = load_preset("sl3z-mod:2")
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    prob2 = build_problem(lap, basis)
    assert import_sdpa(export_sdpa(prob2)).same_problem(prob2)


def test_export_bytes_sl3z_mod2_radius2():
    # pins the order of the class member lists in the entry lines
    p, model = load_preset("sl3z-mod:2")
    prob = build_problem(laplacian1(model, p), ball(model, 2))
    text = export_sdpa(prob).encode()
    assert len(text) == 314644
    assert hashlib.sha256(text).hexdigest() == (
        "9d2dcc940fff6878c02f6d140c1e2b1a42e1498beafcc43a505d1d9ce7184056"
    )


def test_import_rejects_an_edited_entry_line():
    _, _, prob = _z3_problem()
    lines = export_sdpa(prob).splitlines(keepends=True)
    # the first entry line after the objective's two
    k = next(i for i, line in enumerate(lines) if line.startswith("1 1 "))
    for edited in ("1 1 1 1 2.0\n", "1 1 1 2 1.0\n", "2 1 1 1 1.0\n", ""):
        assert lines[k] != edited
        with pytest.raises(ValueError, match="entry lines"):
            import_sdpa("".join(lines[:k] + [edited] + lines[k + 1:]))
    # whitespace is not significant
    assert import_sdpa("".join(lines[:k] + ["  " + lines[k].replace(" ", "\t")] + lines[k + 1:])).same_problem(prob)


def test_import_rejects_foreign_files():
    with pytest.raises(ValueError):
        import_sdpa("2\n1\n3\n1.0 2.0\n")


def test_degenerate_empty_basis_rejected_upstream():
    with pytest.raises(ValueError):
        SupportBasis([])


def test_solve_z3_reaches_lambda_3():
    lap, basis, prob = _z3_problem()
    sol = solve(prob, SolveOptions(tol_primal=1e-9, tol_dual=1e-9))
    assert sol.status == "optimal"
    assert abs(sol.lam - 3.0) < 1e-6
    assert np.allclose(sol.P, sol.P.T)
    assert np.linalg.eigvalsh(sol.P)[0] >= -1e-12


def test_solve_z2_abelian_no_gap():
    p, model = load_preset("z2-abelian")
    lap = laplacian1(model, p)
    basis = ball(model, 2)
    prob = build_problem(lap, basis)
    sol = solve(prob, SolveOptions(tol_primal=1e-8, tol_dual=1e-8, max_iter=40000))
    assert sol.status == "optimal"
    assert abs(sol.lam) < 1e-4


def test_solve_infeasible_fixed_lambda():
    # demanding lambda = 3.5 forces tr(P) = 1.5 while the off-diagonal
    # constraint needs mass 2, impossible for a PSD matrix on this basis
    lap, basis, prob = _z3_problem()
    sol = solve(
        prob,
        SolveOptions(tol_primal=1e-9, tol_dual=1e-9, max_iter=20000, fixed_lambda=3.5),
    )
    assert sol.status == "infeasible-suspected"


def test_solve_feasible_fixed_lambda():
    lap, basis, prob = _z3_problem()
    sol = solve(
        prob,
        SolveOptions(tol_primal=1e-9, tol_dual=1e-9, fixed_lambda=2.5),
    )
    assert sol.status == "optimal"
    assert sol.lam == 2.5


def test_optimal_solution_exact_l1_residual_bound():
    # reconstruct x* P x exactly from the returned P and compare with the
    # exact target Delta - lambda*I in l1
    lap, basis, prob = _z3_problem()
    tol = 1e-9
    sol = solve(prob, SolveOptions(tol_primal=tol, tol_dual=tol))
    recon = reconstruct_exact(prob, sol.P)
    lam = Fraction(sol.lam)
    target = lap.matrix - RingMatrix.identity(lap.matrix.model, 1, lam)
    diff = recon - target
    assert float(diff.l1()) < 10 * tol * prob.constraint_count()


def test_solver_is_deterministic():
    lap, basis, prob = _z3_problem()
    a = solve(prob, SolveOptions(tol_primal=1e-9, tol_dual=1e-9))
    b = solve(prob, SolveOptions(tol_primal=1e-9, tol_dual=1e-9))
    assert a.lam == b.lam and a.iterations == b.iterations
    assert np.array_equal(a.P, b.P)


def _sl3_instance(preset, seed=0, relators=None):
    """(lap, basis, problem) with generators, images and relators permuted by the seed."""
    p, model = load_preset(preset)
    rng = random.Random(seed)
    gens = rng.sample(range(6), 6) if seed else list(range(6))
    rels = rng.sample(range(len(p.relators)), len(p.relators)) if seed else list(range(len(p.relators)))
    new = {old: k for k, old in enumerate(gens)}
    p = Presentation(
        generators=tuple(p.generators[k] for k in gens),
        relators=tuple(Word([(new[i], e) for i, e in p.relators[k]]) for k in rels),
        labels=tuple(p.labels[k] for k in rels),
    )
    spec = model.spec()
    model = model_from_spec(dict(spec, images=[spec["images"][k] for k in gens]))
    lap = laplacian1(model, p, relators)
    basis = ball(model, 2)
    return lap, basis, build_problem(lap, basis)


def _conjugation_actions(problem):
    """The Gram-coordinate permutation of each conjugation by a 3x3 permutation matrix.

    Computed with numpy matrix products, apart from the code under test.
    """
    model, m = problem.basis.model, problem.m
    images = {tuple(map(tuple, k)): a for a, k in enumerate(model.images)}
    keys = np.array([el.key for el in problem.basis])
    acts = []
    for Q in np.eye(3, dtype=np.int64)[list(permutations(range(3)))]:
        conj = [tuple(map(tuple, c)) for c in Q @ np.concatenate([model.images, keys]) @ Q.T]
        sigma = np.array([images[k] for k in conj[:problem.n]])
        phi = np.array([problem.basis.index[k] for k in conj[problem.n:]])
        acts.append((sigma[:, None] * m + phi).ravel())
    return acts


@pytest.mark.parametrize("preset,seed", [("sl3z", 0), ("sl3z", 11), ("sl3z-mod:2", 0), ("sl3z-mod:2", 3)])
def test_gram_symmetry_finds_s3(preset, seed):
    _, _, prob = _sl3_instance(preset, seed)
    sym = gram_symmetry(prob)
    N = prob.n * prob.m
    assert sym.dims == (1, 1, 2) and sym.fourier.shape == (6, 6)
    assert np.allclose(sym.fourier.T @ sym.fourier, np.eye(6), atol=1e-15)
    assert np.array_equal(np.sort(sym.order), np.arange(N))
    # every orbit is one coordinate's image under the six conjugations
    orbits = {frozenset(orbit) for orbit in np.array(_conjugation_actions(prob)).T.tolist()}
    assert orbits == {frozenset(o) for o in sym.order.reshape(-1, 6).tolist()}


def test_gram_symmetry_is_trivial_without_an_exact_symmetry():
    p, model = load_preset("z3")
    problems = [build_problem(laplacian1(model, p), ball(model, 1))]
    p, model = load_preset("free:2")
    problems.append(build_problem(laplacian1(model, p), ball(model, 2)))
    # the torsion relator is not invariant under the index permutations
    problems.append(_sl3_instance("sl3z-mod:2", relators=range(13))[2])
    _, _, prob = _sl3_instance("sl3z-mod:2")
    targets = prob.targets.copy()
    pid = prob.table.pid[0, 5]
    targets[0, 1, pid] += 1.0
    targets[1, 0, prob.inverse_pid[pid]] += 1.0
    problems.append(SdpProblem(prob.n, prob.basis, targets))
    for prob in problems:
        sym = gram_symmetry(prob)
        assert sym.fourier.shape == (1, 1) and sym.dims == (1,)
        assert np.array_equal(sym.order, np.arange(prob.n * prob.m))


@pytest.mark.parametrize("preset", ["sl3z-mod:2", "sl3z"])
def test_reduced_projection_matches_dense_projection(preset):
    _, _, prob = _sl3_instance(preset)
    sym = gram_symmetry(prob)
    N = prob.n * prob.m
    assert N == {"sl3z-mod:2": 186, "sl3z": 726}[preset]
    A = np.random.default_rng(5).normal(size=(N, N))
    acts = _conjugation_actions(prob)
    invariant = sum(A[np.ix_(act, act)] for act in acts) / len(acts)
    # an indefinite and a positive semidefinite invariant matrix
    for A in (invariant, invariant @ invariant.T):
        A = A[np.ix_(sym.order, sym.order)]
        dense = _psd_project(A)
        reduced = _psd_project_blocks(A, sym)
        assert np.abs(reduced - dense).max() <= 1e-12 * np.abs(dense).max()


def test_reduced_solve_matches_dense_solve(monkeypatch):
    lap, basis, prob = _sl3_instance("sl3z-mod:2")
    opts = SolveOptions(tol_primal=1e-5, tol_dual=1e-5, max_iter=8000)
    reduced = solve(prob, opts)
    monkeypatch.setattr(sdp, "gram_symmetry", lambda problem: GramSymmetry.trivial(problem.n * problem.m))
    dense = solve(prob, opts)
    assert reduced.status == dense.status == "optimal"
    assert reduced.iterations == dense.iterations
    assert abs(reduced.lam - dense.lam) <= 1e-10
    gaps = [certified_gap(lap, basis, psd_sqrt(s.P), s.lam).lambda0 for s in (reduced, dense)]
    assert gaps[0] > 0 and abs(gaps[0] - gaps[1]) <= 1e-10


def test_symmetric_solver_is_deterministic():
    _, _, prob = _sl3_instance("sl3z-mod:2")
    a = solve(prob, SolveOptions(max_iter=300))
    b = solve(prob, SolveOptions(max_iter=300))
    assert a.lam == b.lam and a.iterations == b.iterations
    assert np.array_equal(a.P, b.P)
