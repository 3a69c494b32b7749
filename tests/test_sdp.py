import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import groupby, permutations
from pathlib import Path

import numpy as np
import pytest

from gapcert import sdp
from gapcert.certify import certified_gap, psd_sqrt
from gapcert.fox import TermMatrix, laplacian1
from gapcert.groups import CyclicModel, SupportBasis, ball, model_from_spec
from gapcert.presets import load_preset
from gapcert.sdp import (
    GramSymmetry,
    SdpProblem,
    SolveOptions,
    SupportTooSmallError,
    _InvariantConstraints,
    _Iterate,
    _psd_factor,
    _psd_project_invariant,
    _rebalance,
    _residuals,
    _step,
    build_problem,
    export_sdpa,
    gram_symmetry,
    import_sdpa,
    solve,
)
from gapcert.words import Presentation, Word

from _oracles import export_keys, first_difference, psd_project_by_cases, reconstruct_exact
from _oracles import entry_lines, sdpa_text
from _oracles import add, adjoint, class_elements, element, identity, l1
from _oracles import RingMatrix, as_target, ring_matrix

DATA = Path(__file__).parent / "data"


def _z3_problem():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    return lap, basis, build_problem(lap, basis)


def test_build_z3_constraint_structure():
    lap, basis, prob = _z3_problem()
    assert prob.n == 1 and prob.m == 3 and prob.npairs == 3
    # one matrix entry (n = 1): the class e, and t with its inverse class t^2
    assert prob.constraint_count() == 2
    table = prob.table
    # A_e is the identity pattern
    for x in range(3):
        for y in range(3):
            assert (table.pid[x][y] == table.identity_pid) == (x == y)
    assert prob.targets[0, 0, table.identity_pid] == 5.0


def test_build_rejects_small_basis():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    tiny = SupportBasis(model, [model.identity()])
    with pytest.raises(SupportTooSmallError) as exc:
        build_problem(lap, tiny)
    assert exc.value.uncovered  # names the missing group elements


def test_build_rejects_non_star_invariant():
    model = CyclicModel(3)
    basis = ball(model, 1)
    M = RingMatrix(model, [[element(model, model.generators()[0])]])
    with pytest.raises(ValueError):
        build_problem(as_target(M), basis)


def _assert_walk_refuses(target, basis, message):
    """The target walk refuses target with message, in build_problem and in certified_gap."""
    with pytest.raises(ValueError, match=message):
        build_problem(target, basis)
    with pytest.raises(ValueError, match=message):
        certified_gap(target, basis, np.zeros((1, 3)), 0.0)  # the walk comes before Q's shape


@pytest.mark.parametrize("entries", [
    (), ((),), (({0: 1}, {}),), (({0: 1},), ({},)), (({0: 1}, {}), ({},)),
], ids=["empty", "no_columns", "wide", "tall", "ragged"])
def test_target_walk_refuses_empty_ragged_and_non_square_targets(entries):
    model = CyclicModel(3)
    message = r"^target matrix must be square and \*-invariant$"
    _assert_walk_refuses(TermMatrix(model, entries), ball(model, 1), message)


@pytest.mark.parametrize("c", [True, False, 1.0, 0.5], ids=["true", "false", "one", "half"])
def test_target_walk_refuses_float_and_bool_coefficients(c):
    # exact only: ints and Fractions; a bool is refused before its zero is skipped
    model = CyclicModel(3)
    target = TermMatrix(model, (({0: 2, 1: c, 2: c},),))
    message = f"^target coefficients must be ints or Fractions, got {c!r}$"
    _assert_walk_refuses(target, ball(model, 1), message)


def test_target_walk_skips_zero_coefficients():
    # zeros on 2 and 3 are neither uncovered nor a break of *-invariance
    model = CyclicModel(5)
    basis = SupportBasis(model, [model.identity()])
    with pytest.raises(SupportTooSmallError) as exc:
        build_problem(TermMatrix(model, (({0: 2, 1: 1, 4: 1, 2: 0, 3: Fraction(0)},),)), basis)
    assert exc.value.uncovered == [1, 4]
    zeros = TermMatrix(model, (({0: 2, 2: 0}, {1: 0}), ({}, {0: Fraction(3)})))
    plain = TermMatrix(model, (({0: 2}, {}), ({}, {0: 3})))
    assert np.array_equal(build_problem(zeros, basis).targets, build_problem(plain, basis).targets)
    Q = np.array([[1.0, 0.5]])
    assert certified_gap(zeros, basis, Q, 1.0) == certified_gap(plain, basis, Q, 1.0)


def test_sl3z_radius2_problem_size_regression():
    p, model = load_preset("sl3z")
    lap = laplacian1(model, p)
    basis = ball(model, 2)
    prob = build_problem(lap, basis)
    # frozen after the first run: |E| = 121, |E*E| = 5455 products; 15
    # entry pairs i < j over n = 6 take every class, and each of the 6
    # diagonal entries one class of each mutually inverse pair
    assert prob.m == 121
    assert prob.npairs == 5455
    assert prob.constraint_count() == 98193


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
        target = add(M, adjoint(M))
        prob = build_problem(as_target(target), basis)
        Psym = [
            [P[i][j] + P[j][i] for j in range(rows)] for i in range(rows)
        ]
        back = reconstruct_exact(prob, Psym)
        assert back == target
        elements = class_elements(prob.table, basis)
        for (i, j, pid), v in np.ndenumerate(prob.targets):
            coeff = target.entries[i][j].coefficient(elements[pid])
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


@pytest.mark.parametrize(
    "preset,radius,size,digest",
    [
        ("sl3z-mod:2", 2, 314644, "9d2dcc940fff6878c02f6d140c1e2b1a42e1498beafcc43a505d1d9ce7184056"),
        # the generic product table: cyclic and free models
        ("z3", 1, 387, "c48d9a1a9ecebcc2a26af5973d356883359b724dc5e1154200e8ad96b3085265"),
        ("zn:5", 2, 503, "d2787b1f20864c89a5f4c8d6361ba7cb8fd862f89f4d063ca378002ea63dc687"),
        ("free:2", 2, 10632, "5587fe17449a677e3d9255ab45b55aa8ba6ef1870393b7b2997cf5c8306b5d00"),
    ],
    ids=["sl3z-mod:2-r2", "z3-r1", "zn:5-r2", "free:2-r2"],
)
def test_export_bytes_sl3z_mod2_radius2(preset, radius, size, digest):
    # pins the order of the class member lists in the entry lines
    p, model = load_preset(preset)
    prob = build_problem(laplacian1(model, p), ball(model, radius))
    text = export_sdpa(prob).encode()
    assert len(text) == size
    assert hashlib.sha256(text).hexdigest() == digest


def _import_peak(preset):
    """(len(text), tracemalloc peak of import_sdpa(text)) for the preset's radius-2 export."""
    prob = _preset_problem(preset, 2)
    text = export_sdpa(prob)
    tracemalloc.start()
    try:
        back = import_sdpa(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.same_problem(prob)
    return len(text), peak


def test_import_memory_is_a_small_multiple_of_the_text():
    # no list of all lines or of all keys: the import walks the text
    size, peak = _import_peak("sl3z-mod:2")
    assert peak < 3 * size


def test_import_memory_holds_no_array_of_all_keys():
    # the text and the targets are all the import must hold; a (K, 3)
    # int64 array of the constraint keys would take another 0.4 of the text
    size, peak = _import_peak("sl3z")
    assert peak < 1.25 * size


def test_export_keys_order():
    _, _, prob = _sl3_instance("sl3z-mod:2")
    keys = export_keys(prob)
    entries = list(sdp._entries(prob))
    got = [(i, j, pid) for i, j, pids in entries for pid in pids.tolist()]
    assert all(pids.dtype == np.int64 for _, _, pids in entries) and got == keys
    assert len(keys) == prob.constraint_count()


def test_import_rejects_an_edited_entry_line():
    _, _, prob = _z3_problem()
    lines = export_sdpa(prob).splitlines(keepends=True)
    # the first entry line after the objective's two
    k = next(i for i, line in enumerate(lines) if line.startswith("1 1 "))
    for edited in ("1 1 1 1 2.0\n", "1 1 1 2 1.0\n", "2 1 1 1 1.0\n", ""):
        assert lines[k] != edited
        with pytest.raises(ValueError, match="entry lines"):
            import_sdpa("".join(lines[:k] + [edited] + lines[k + 1:]))
    # nor may its whitespace change
    for edited in ("  " + lines[k], lines[k].replace(" ", "\t")):
        with pytest.raises(ValueError, match="entry lines"):
            import_sdpa("".join(lines[:k] + [edited] + lines[k + 1:]))


def _preset_problem(preset, radius):
    p, model = load_preset(preset)
    return build_problem(laplacian1(model, p), ball(model, radius))


@pytest.mark.parametrize(
    "preset,radius",
    [("z3", 1), ("sl3z-mod:2", 1), ("sl3z-mod:2", 2), ("sl3z", 2), ("free:2", 2)],
)
def test_export_matches_the_line_by_line_oracle(preset, radius):
    prob = _preset_problem(preset, radius)
    text = export_sdpa(prob)
    assert first_difference(text, sdpa_text(prob)) is None
    back = import_sdpa(text)
    assert back.same_problem(prob) and export_sdpa(back) == text


@pytest.mark.parametrize("chunk", [1, 3])
def test_export_blocks_join_to_the_oracle_at_any_block_size(monkeypatch, chunk):
    monkeypatch.setattr(sdp, "_LINES", chunk)
    for preset, radius in (("z3", 1), ("sl3z-mod:2", 1)):
        prob = _preset_problem(preset, radius)
        # after F_0's two lines, each entry's lines in blocks of `chunk`, its last block maybe fewer
        keys = export_keys(prob)
        owner = [keys[int(line.split()[0]) - 1][:2] for line in list(entry_lines(prob, keys))[2:]]
        sizes = [len(list(run)) for _, run in groupby(owner)]
        blocks = list(sdp._entry_chunks(prob))
        assert blocks[0] == "0 2 1 1 1.0\n0 2 2 2 -1.0\n"
        assert [block.count("\n") for block in blocks[1:]] == [
            min(chunk, size - a) for size in sizes for a in range(0, size, chunk)
        ]
        text = export_sdpa(prob)
        assert first_difference(text, sdpa_text(prob)) is None
        assert import_sdpa(text).same_problem(prob)


def test_export_prints_hand_edited_objective_values_as_repr_does():
    # -0.0 and nan differ from 0.0 only in their bits
    _, _, prob = _z3_problem()
    lines = export_sdpa(prob).splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("0 2 1 1 "))
    assert lines[k - 1] != "-0.0 nan\n"
    back = import_sdpa("".join(lines[:k - 1] + ["-0.0 nan\n"] + lines[k:]))
    text = export_sdpa(back)
    assert first_difference(text, sdpa_text(back)) is None
    assert "\n-0.0 nan\n" in text


def test_import_reads_the_objective_only_as_the_export_writes_it():
    prob = _preset_problem("sl3z-mod:2", 2)
    lines = export_sdpa(prob).splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("0 2 1 1 "))
    head, objective, entries = lines[:k - 1], lines[k - 1].split(), lines[k:]
    # the objective spans several blocks, one an entry, and no cut below falls on a boundary
    ends = np.cumsum([len(pids) for _, _, pids in sdp._entries(prob)]).tolist()
    assert ends[-1] == len(objective) and ends[2] < 513 and not {513, 700} & set(ends)
    spread = [
        # one token a line, with a comment and a blank line in between
        ("\n".join(objective[:700]) + "\n* note\n\n" + "\n".join(objective[700:]) + "\n", "objective has"),
        # other whitespace str.split() knows, a token cut off at no block boundary
        ("\u2003".join(objective[:513]) + "\t\xa0" + " ".join(objective[513:]) + "\n", "float"),
        # a value that reads back the same but is not its repr
        (" ".join([objective[0] + "0"] + objective[1:]) + "\n", "objective or entry lines"),
    ]
    assert float(objective[0] + "0") == float(objective[0])
    for text, message in spread:
        with pytest.raises(ValueError, match=message):
            import_sdpa("".join(head + [text] + entries))
    # on the line of the block sizes
    joined = head[:-1] + [head[-1].rstrip("\n") + " " + lines[k - 1]]
    with pytest.raises(ValueError, match="header"):
        import_sdpa("".join(joined + entries))
    # a token left on the objective's line, or too few tokens, is rejected
    moved = [lines[k - 1].rstrip("\n") + " 0\n", entries[0][2:]] + entries[1:]
    with pytest.raises(ValueError, match="objective has"):
        import_sdpa("".join(head + moved))
    with pytest.raises(ValueError, match="objective has"):
        import_sdpa("".join(head + [" ".join(objective[:-1])]))


def test_import_rejects_an_entry_line_past_the_first_block(monkeypatch):
    monkeypatch.setattr(sdp, "_LINES", 1)
    prob = _preset_problem("sl3z-mod:2", 1)
    lines = export_sdpa(prob).splitlines(keepends=True)
    last = lines[-1]
    for edited in (last.replace(" 0.5", " 0.25"), "", last + last):
        with pytest.raises(ValueError, match="entry lines"):
            import_sdpa("".join(lines[:-1] + [edited]))
    # a comment line, a missing final newline, tabs, CRLF endings and a
    # line before the preamble are changes too
    for edited, message in (
        (lines[:-1] + ["* note\n", last], "entry lines"),
        (lines[:-1] + [last.rstrip("\n")], "entry lines"),
        (lines[:-1] + [last.replace(" ", "\t")], "entry lines"),
        ([line.replace("\n", "\r\n") for line in lines], "missing"),
        (["* note\n"] + lines, "missing"),
    ):
        with pytest.raises(ValueError, match=message):
            import_sdpa("".join(edited))


def _with_meta(text, **changes):
    lines = text.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("*META "))
    meta = dict(json.loads(lines[k][len("*META "):]), **changes)
    return "".join(lines[:k] + ["*META " + json.dumps(meta) + "\n"] + lines[k + 1:])


@pytest.mark.parametrize(
    "preset,changes",
    [
        pytest.param("z3", {"n": 1.9}, id="n_float"),
        pytest.param("z3", {"n": "1"}, id="n_string"),
        pytest.param("z3", {"n": True}, id="n_bool"),
        pytest.param("z3", {"radius": "abc"}, id="radius_string"),
        pytest.param("z3", {"radius": True}, id="radius_bool"),
        pytest.param("z3", {"radius": 0}, id="radius_too_small"),
        pytest.param("z3", {"radius": -1}, id="radius_negative"),
        pytest.param("sl3z-mod:2", {"radius": 7}, id="radius_too_large"),
        pytest.param("z3", {"n": 10 ** 6}, id="n_too_large_for_the_text"),
    ],
)
def test_import_rejects_meta_integers_the_basis_does_not_bear_out(preset, changes):
    p, model = load_preset(preset)
    prob = build_problem(laplacian1(model, p), ball(model, 1))
    text = export_sdpa(prob)
    assert import_sdpa(_with_meta(text)).same_problem(prob)
    assert import_sdpa(_with_meta(text, radius=None)).basis.radius is None
    with pytest.raises(ValueError):
        import_sdpa(_with_meta(text, **changes))


def _with_meta_text(text, meta):
    """text with its META line's JSON replaced by the string meta."""
    head, _, rest = text.partition("*META ")
    return head + "*META " + meta + "\n" + rest.partition("\n")[2]


@pytest.mark.parametrize(
    "meta,match",
    [
        pytest.param("[" * 100000, "nested too deeply", id="nested"),
        pytest.param("[]", "JSON object", id="list"),
        pytest.param("1", "JSON object", id="number"),
        pytest.param("{}", "model spec", id="empty_object"),
        pytest.param("not json", "Expecting value", id="not_json"),
    ],
)
def test_import_refuses_a_malformed_meta_with_a_value_error(meta, match):
    _, _, prob = _z3_problem()
    with pytest.raises(ValueError, match=match):
        import_sdpa(_with_meta_text(export_sdpa(prob), meta))


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("model", "missing", "model spec"),
        ("basis", "missing", "basis keys"),
        ("n", "missing", "n must be an integer"),
        ("basis", {"0": 1}, "basis keys"),
        ("basis", 3, "basis keys"),
    ],
    ids=["model_missing", "basis_missing", "n_missing", "basis_object", "basis_number"],
)
def test_import_refuses_a_missing_or_misshapen_meta_field(field, value, match):
    _, _, prob = _z3_problem()
    text = export_sdpa(prob)
    meta = json.loads(text.partition("*META ")[2].partition("\n")[0])
    if value == "missing":
        del meta[field]
    else:
        meta[field] = value
    with pytest.raises(ValueError, match=match):
        import_sdpa(_with_meta_text(text, json.dumps(meta)))


def test_import_rejects_foreign_files():
    with pytest.raises(ValueError):
        import_sdpa("2\n1\n3\n1.0 2.0\n")


def test_degenerate_empty_basis_rejected_upstream():
    _, model = load_preset("z3")
    with pytest.raises(ValueError):
        SupportBasis(model, [])


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


def test_solve_needs_an_iteration():
    _, _, prob = _z3_problem()
    with pytest.raises(ValueError, match="max_iter"):
        solve(prob, SolveOptions(max_iter=0))


def _symmetric(kind, rng):
    """A random symmetric matrix of the named inertia."""
    if kind == "empty":
        return np.zeros((0, 0))
    if kind == "one_by_one":
        return rng.normal(size=(1, 1))
    M = rng.normal(size=(40, 40))
    if kind == "positive_definite":
        return M @ M.T + np.eye(40)
    if kind == "negative_semidefinite":  # one eigenvalue exactly zero
        S = -(M @ M.T + np.eye(40))
        S[-1], S[:, -1] = 0.0, 0.0
        return S
    if kind == "singular":  # exactly: two equal rows and columns
        S = M + M.T
        S[-1], S[:, -1] = S[0], S[0]
        S[-1, -1] = S[0, 0]
        return S
    return M + M.T  # mixed inertia


_INERTIAS = [
    "positive_definite", "negative_semidefinite", "mixed", "singular", "one_by_one", "empty",
]


@pytest.mark.parametrize("kind", _INERTIAS)
def test_psd_factor_projects_like_the_case_by_case_formula(kind):
    rng = np.random.default_rng(_INERTIAS.index(kind))
    for _ in range(5):
        A = _symmetric(kind, rng)
        B = _psd_factor(A)
        P = B @ B.T
        assert np.array_equal(P, P.T)
        trivial = GramSymmetry.trivial(len(A))
        assert np.array_equal(_psd_project_invariant(A[None], trivial)[0], P)
        ref = psd_project_by_cases(A)
        assert np.abs(P - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)
        if len(A):
            assert np.linalg.eigvalsh(P)[0] >= -1e-13 * np.abs(P).max(initial=1.0)
        if kind == "negative_semidefinite":
            assert B.shape == (len(A), 0) and not P.any()


@pytest.mark.parametrize("kind", _INERTIAS)
def test_psd_factor_keeps_the_eigenpairs_above_the_cut(kind):
    rng = np.random.default_rng(10 + _INERTIAS.index(kind))
    A = _symmetric(kind, rng)
    w = np.linalg.eigh(0.5 * (A + A.T))[0]
    for rtol in (0.0, len(A) * np.finfo(float).eps, 1e-3, 0.3, 1.0):
        B = _psd_factor(A, rtol)
        keep = w > rtol * max(w.max(initial=0.0), 0.0)
        assert B.shape == (len(A), keep.sum())
        # columns in eigh's ascending order: their squared norms are the kept eigenvalues
        assert np.allclose((B ** 2).sum(axis=0), w[keep], rtol=1e-12, atol=0.0)


def _record_progress(prob, max_iter):
    """solve's solution and the (rp, rd) its progress callback saw, by iteration."""
    seen = {}

    def progress(it, lam, rp, rd):
        seen[it] = (rp, rd)

    return solve(prob, SolveOptions(max_iter=max_iter, progress=progress)), seen


def test_solve_reports_its_last_iterates_residuals():
    _, _, prob = _sl3_instance("sl3z-mod:2")
    sol, seen = _record_progress(prob, 50)
    assert sol.status == "max-iter" and sol.iterations == 50
    assert (sol.primal_residual, sol.dual_residual) == seen[50]
    sol, seen = _record_progress(prob, 26)
    assert sol.iterations == 26 and max(seen) == 25
    last = (sol.primal_residual, sol.dual_residual)
    assert all(map(math.isfinite, last)) and last[0] != seen[25][0] and last[1] != seen[25][1]


def test_step_driven_from_outside_solve_repeats_its_trajectory():
    # solve's driver loop over its step, residuals and rebalance; on z3 r1
    # the rebalance first fires at iteration 400, where rp > 10 rd
    _, _, prob = _z3_problem()
    opts = SolveOptions(tol_primal=0.0, tol_dual=0.0, max_iter=500)
    sol = solve(prob, opts)
    sym = gram_symmetry(prob)
    cons = _InvariantConstraints(prob, sym)
    cur = _Iterate(np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), 0.0, sdp._RHO)
    rho = {}
    for it in range(1, opts.max_iter + 1):
        new, X, xlam = _step(cur, cons, sym)
        check = it % sdp._CHECK_EVERY == 0 or it == 1
        if check or it == opts.max_iter:
            rp, rd = _residuals(cur, new, X)
        cur = new
        if check:
            if rp <= opts.tol_primal and rd <= opts.tol_dual:
                break
            if it % 100 == 0:
                dual = cur.rho * cur.U
                cur = _rebalance(cur, rp, rd)
                assert np.array_equal(cur.rho * cur.U, dual)
                rho[it] = cur.rho
    assert rho == {100: 1.0, 200: 1.0, 300: 1.0, 400: 2.0, 500: 2.0}
    assert it == sol.iterations == 500 and sol.status == "max-iter"
    assert float(xlam) == sol.lam
    assert np.array_equal(sym.expand(cur.Z), sol.P)


@pytest.mark.parametrize("preset,radius", [("z3", 1), ("sl3z-mod:2", 1), ("free:2", 2)])
def test_free_lambda_problem_has_a_positive_definite_feasible_point(preset, radius):
    # why solve has no infeasible status: spread each target evenly over
    # the cells of its class, which *-invariance makes symmetric, add c*I
    # to lift the smallest eigenvalue to 1 and cancel its m*c per diagonal
    # identity slot through lambda = -m*c
    p, model = load_preset(preset)
    prob = build_problem(laplacian1(model, p), ball(model, radius))
    n, m, pid = prob.n, prob.m, prob.table.pid
    count = np.bincount(pid.ravel(), minlength=prob.npairs)
    spread = (prob.targets[:, :, pid] / count[pid]).transpose(0, 2, 1, 3).reshape(n * m, n * m)
    assert np.array_equal(spread, spread.T)
    c = 1.0 - np.linalg.eigvalsh(spread)[0]
    P, lam = spread + c * np.eye(n * m), -m * c
    scale = np.abs(prob.targets).max() + m * c
    assert np.abs(_dense_residual(prob, P, lam)).max() <= 1e-14 * scale
    assert np.linalg.eigvalsh(P)[0] >= 0.0


def test_optimal_solution_exact_l1_residual_bound():
    # reconstruct x* P x exactly from the returned P and compare with the
    # exact target Delta - lambda*I in l1
    lap, basis, prob = _z3_problem()
    tol = 1e-9
    sol = solve(prob, SolveOptions(tol_primal=tol, tol_dual=tol))
    recon = reconstruct_exact(prob, sol.P)
    lam = Fraction(sol.lam)
    target = add(ring_matrix(lap.matrix), identity(lap.matrix.model, 1, lam), -1)
    diff = add(recon, target, -1)
    pairs = prob.n * (prob.n + 1) // 2 * prob.npairs  # (i <= j, class) pairs
    assert float(l1(diff)) < 10 * tol * pairs


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
    keys = np.array(problem.basis.elements)
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
    assert [rho.shape for rho in sym.irreps] == [(6, 1, 1), (6, 1, 1), (6, 2, 2)]
    _assert_irreps(sym)
    assert np.array_equal(np.sort(sym.order), np.arange(N))
    # every orbit is one coordinate's image under the six conjugations
    acts = np.array(_conjugation_actions(prob))
    orbits = {frozenset(orbit) for orbit in acts.T.tolist()}
    assert orbits == {frozenset(o) for o in sym.order.reshape(-1, 6).tolist()}
    # column h of the layout is the image under conjugation h, and ldiv
    # composes the actions: act[h^-1 h'] = act[h]^-1 act[h']
    assert np.array_equal(sym.order.reshape(-1, 6), acts[:, sym.order[::6]].T)
    for h in range(6):
        for h2 in range(6):
            assert np.array_equal(acts[sym.ldiv[h, h2]], np.argsort(acts[h])[acts[h2]])


def _assert_irreps(sym):
    """Check the irreps of sym and their block maps to 1e-15.

    Each rho is orthogonal with rho[0] = I and multiplies as ldiv says,
    the characters are orthonormal, and back @ into.T = I.
    """
    g = len(sym.ldiv)
    for rho in sym.irreps:
        eye = np.eye(rho.shape[1])
        assert rho.shape[0] == g and np.allclose(rho[0], eye, rtol=0, atol=1e-15)
        for h in range(g):
            assert np.allclose(rho[h].T @ rho[h], eye, rtol=0, atol=1e-15)
            for h2 in range(g):
                assert np.allclose(rho[sym.ldiv[h, h2]], rho[h].T @ rho[h2], rtol=0, atol=1e-15)
    chars = np.array([np.trace(rho, axis1=1, axis2=2) for rho in sym.irreps])
    assert np.allclose(chars @ chars.T / g, np.eye(len(chars)), rtol=0, atol=1e-15)
    into, back = sym.maps
    assert into.shape == back.shape == (g, g)
    assert np.allclose(back @ into.T, np.eye(g), rtol=0, atol=1e-15)


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
    targets[1, 0, prob.table.inverse_pid[pid]] += 1.0
    problems.append(SdpProblem(prob.n, prob.basis, targets))
    for prob in problems:
        sym = gram_symmetry(prob)
        assert [rho.tolist() for rho in sym.irreps] == [[[[1.0]]]] and sym.ldiv.tolist() == [[0]]
        _assert_irreps(sym)
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
        B = _psd_factor(A)
        dense = B @ B.T
        C = _psd_project_invariant(_invariant_coordinates(A, sym), sym)
        reduced = sym.expand(C)[np.ix_(sym.order, sym.order)]
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


def _invariant_coordinates(A, sym):
    """C[t][o, o'] = A[(o, e), (o', t)] of an orbit-major matrix A."""
    g = len(sym.ldiv)
    k = len(A) // g
    return A.reshape(k, g, k, g)[:, 0].transpose(2, 0, 1).copy()


def _random_invariant(prob, seed):
    """A random symmetric matrix that every conjugation fixes exactly.

    Each entry is a random value chosen by the smallest flat index in the
    orbit of its cell and of the transposed cell.
    """
    N = prob.n * prob.m
    label = np.full((N, N), N * N)
    for act in _conjugation_actions(prob):
        cells = act[:, None] * N + act[None, :]
        np.minimum(label, np.minimum(cells, cells.T), out=label)
    return np.random.default_rng(seed).normal(size=N * N)[label]


def _slots(prob):
    """Slot (i*n + j)*npairs + pid[x, y] of each Gram cell (i*m + x, j*m + y)."""
    n, N = prob.n, prob.n * prob.m
    base = np.arange(n * n).reshape(n, n) * prob.npairs
    return (base[:, None, :, None] + prob.table.pid[None, :, None, :]).reshape(N, N)


def _dense_residual(prob, V, vlam):
    """Constraint value minus target at every slot, for a dense P in the original layout."""
    n, npairs = prob.n, prob.npairs
    r = np.bincount(_slots(prob).ravel(), weights=V.ravel(), minlength=n * n * npairs)
    r -= prob.targets.ravel()
    r[np.arange(n) * (n + 1) * npairs + prob.table.identity_pid] += vlam
    return r


def _dense_affine_projection(prob, V, vlam):
    """The solver's affine step on a dense P, one row per slot."""
    n, m = prob.n, float(prob.m)
    slots = _slots(prob).ravel()
    cnt = np.tile(np.bincount(prob.table.pid.ravel(), minlength=prob.npairs), n * n)
    lam_ids = np.arange(n) * (n + 1) * prob.npairs + prob.table.identity_pid
    resid = _dense_residual(prob, V, vlam)
    mu = resid / cnt
    rl = resid[lam_ids]
    mu[lam_ids] = rl / m - rl.sum() / (m * (m + n))
    return V - mu[slots].reshape(V.shape), vlam - mu[lam_ids].sum()


_INVARIANT_CASES = [("sl3z-mod:2", 0), ("sl3z-mod:2", 11), ("sl3z", 0), ("sl3z", 11)]


@pytest.mark.parametrize("preset,seed", _INVARIANT_CASES)
def test_invariant_coordinates_expand_exactly(preset, seed):
    _, _, prob = _sl3_instance(preset, seed)
    sym = gram_symmetry(prob)
    P = _random_invariant(prob, seed)
    C = _invariant_coordinates(P[np.ix_(sym.order, sym.order)], sym)
    assert C.shape == (6, len(P) // 6, len(P) // 6)
    assert np.array_equal(sym.expand(C), P)


@pytest.mark.parametrize("preset,seed", _INVARIANT_CASES)
def test_invariant_affine_step_matches_dense(preset, seed):
    _, _, prob = _sl3_instance(preset, seed)
    sym = gram_symmetry(prob)
    P = _random_invariant(prob, seed)
    C = _invariant_coordinates(P[np.ix_(sym.order, sym.order)], sym)
    cons = _InvariantConstraints(prob, sym)
    X, lam = cons.project(C, 0.7)
    dense, dense_lam = _dense_affine_projection(prob, P, 0.7)
    assert np.abs(sym.expand(X) - dense).max() <= 1e-12 * np.abs(dense).max()
    assert abs(lam - dense_lam) <= 1e-12 * abs(dense_lam)
    assert cons.norm(cons.residual(X, lam)) <= 1e-12 * np.linalg.norm(P)
    assert cons.norm(cons.residual(C, 0.7)) == pytest.approx(
        np.linalg.norm(_dense_residual(prob, P, 0.7)), rel=1e-12
    )


@pytest.mark.parametrize("preset,seed", _INVARIANT_CASES)
def test_invariant_psd_step_matches_dense(preset, seed):
    _, _, prob = _sl3_instance(preset, seed)
    sym = gram_symmetry(prob)
    P = _random_invariant(prob, seed)
    C = _invariant_coordinates(P[np.ix_(sym.order, sym.order)], sym)
    B = _psd_factor(P)
    dense = B @ B.T
    reduced = sym.expand(_psd_project_invariant(C, sym))
    assert np.abs(reduced - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("preset", ["sl3z-mod:2", "sl3z"])
def test_slot_orbits_are_numbered_as_np_unique_numbers_their_least_slots(preset):
    _, _, prob = _sl3_instance(preset)
    sym = gram_symmetry(prob)
    n, m, npairs, g = prob.n, prob.m, prob.npairs, len(sym.ldiv)
    a = np.arange(n * m)
    slot = (a[:, None] // m * n + a // m) * npairs + prob.table.pid[np.ix_(a % m, a % m)]
    least = np.min([slot[np.ix_(act, act)] for act in _conjugation_actions(prob)], axis=0)
    # coordinate (t, o, o') is the cell (r_o, t.r_o'), and cols[o', t] = t.r_o'
    rows, cols = sym.order[::g], sym.order.reshape(-1, g)
    rep, cid = np.unique(least[rows[None, :, None], cols.T[:, None, :]], return_inverse=True)
    cons = _InvariantConstraints(prob, sym)
    assert np.array_equal(cons.cid, cid.ravel())
    assert np.array_equal(cons.b, prob.targets.ravel()[rep])
    assert np.array_equal(cons.cnt, np.bincount(prob.table.pid.ravel())[rep % npairs])


def test_trivial_group_coordinates_are_the_matrix():
    _, _, prob = _z3_problem()
    sym = gram_symmetry(prob)
    A = np.random.default_rng(2).normal(size=(3, 3))
    A = A + A.T
    assert np.array_equal(sym.expand(A[None]), A)
    B = _psd_factor(A)
    assert np.array_equal(_psd_project_invariant(A[None], sym)[0], B @ B.T)


def _z2_translation():
    """zn:2 over its whole group, with H = Z/2 acting by translation x -> x + 1.

    Translation fixes every class x^-1 y, so each slot is fixed by all of
    H, unlike under the S3 conjugations, whose slot stabilizers are trivial.
    """
    p, model = load_preset("zn:2")
    prob = build_problem(laplacian1(model, p), ball(model, 1))
    assert (prob.n, prob.m) == (1, 2)
    irreps = (np.ones((2, 1, 1)), np.array([1.0, -1.0])[:, None, None])
    sym = GramSymmetry(np.array([0, 1]), irreps, np.array([[0, 1], [1, 0]]))
    _assert_irreps(sym)
    return prob, sym


def test_affine_step_with_nontrivial_stabilizers():
    prob, sym = _z2_translation()
    P = np.array([[0.9, -0.4], [-0.4, 0.9]])
    C = _invariant_coordinates(P[np.ix_(sym.order, sym.order)], sym)
    assert np.array_equal(sym.expand(C), P)
    cons = _InvariantConstraints(prob, sym)
    assert cons.stab.tolist() == [2.0, 2.0]
    X, lam = cons.project(C, 0.7)
    dense, dense_lam = _dense_affine_projection(prob, P, 0.7)
    assert np.abs(sym.expand(X) - dense).max() <= 1e-12 * np.abs(dense).max()
    assert abs(lam - dense_lam) <= 1e-12 * abs(dense_lam)
    assert cons.norm(cons.residual(C, 0.7)) == pytest.approx(
        np.linalg.norm(_dense_residual(prob, P, 0.7)), rel=1e-12
    )


def test_translation_reduced_solve_matches_dense_solve(monkeypatch):
    prob, sym = _z2_translation()
    opts = SolveOptions(tol_primal=1e-9, tol_dual=1e-9)
    dense = solve(prob, opts)
    monkeypatch.setattr(sdp, "gram_symmetry", lambda problem: sym)
    reduced = solve(prob, opts)
    assert reduced.status == dense.status == "optimal"
    assert reduced.iterations == dense.iterations
    assert abs(reduced.lam - dense.lam) <= 1e-10
    assert np.abs(reduced.P - dense.P).max() <= 1e-10
