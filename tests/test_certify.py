import json
import math
import os
import random
import struct
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gapcert
from gapcert import certify
from gapcert.certify import (
    Certificate,
    _enclose,
    _exact_sum,
    _gram_class_sums,
    _rho,
    _round_digits,
    certified_gap,
    floor_display,
    psd_sqrt,
    verify_certificate,
)
from gapcert.cli import main
from gapcert.fox import laplacian1
from gapcert.groups import CyclicModel, FreeModel, MatrixModel, SupportBasis, ball
from gapcert.groups import basis_from_json, model_from_spec
from gapcert.presets import load_preset
from gapcert.sdp import SolveOptions, build_problem, solve
from gapcert.words import parse_presentation

from _oracles import certificate_from_json_dict, certificate_json_dict, exact_certified_gap
from _oracles import load_certificate
from _oracles import symmetric_psd_sqrt
from _oracles import rank_cut_psd_sqrt
from _oracles import identity, l1, sum_of_squares
from _oracles import RingElement, RingMatrix, as_target, ring_matrix


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4))


def test_psd_sqrt_clamps_negative_eigenvalues():
    Q = psd_sqrt(np.diag([4.0, -1e-12]))
    assert Q.shape == (1, 2)
    assert np.allclose(Q.T @ Q, np.diag([4.0, 0.0]))
    w = np.linalg.eigvalsh(Q.T @ Q)
    assert w[0] >= 0.0


def test_psd_sqrt_random_psd_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.normal(size=(8, 8))
        P = A @ A.T
        Q = psd_sqrt(P)
        assert np.linalg.norm(Q.T @ Q - P) <= 1e-10 * np.linalg.norm(P)


def test_psd_sqrt_rejects_nonsquare():
    with pytest.raises(ValueError):
        psd_sqrt(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psd_sqrt_rejects_non_finite_entries(bad):
    # a rank cut on NaN eigenvalues would silently drop every row
    with pytest.raises(ValueError, match="non-finite"):
        psd_sqrt(np.diag([bad, 1.0]))


def test_psd_sqrt_keeps_only_the_numerical_rank():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(8, 3))
    P = A @ A.T
    Q = psd_sqrt(P)
    assert Q.shape == (3, 8) and Q.flags.c_contiguous
    assert np.abs(Q.T @ Q - P).max() <= 1e-10
    # rows in eigh's ascending order: squared row norms are the eigenvalues
    assert np.allclose((Q ** 2).sum(axis=1), np.linalg.eigvalsh(P)[-3:])


@pytest.mark.parametrize("P", [-np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3))],
                         ids=["negative_definite", "zero"])
def test_psd_sqrt_without_positive_eigenvalues_has_no_rows(tmp_path, P):
    Q = psd_sqrt(P)
    assert Q.shape == (0, 3)
    p, model = load_preset("z3")
    result = certified_gap(laplacian1(model, p), ball(model, 1), Q, -1.0)
    path = tmp_path / "cert.json"
    result.certificate.save(path)
    loaded = Certificate.load(path)
    assert loaded.q.shape == (0, 3)
    assert loaded.to_bytes() == result.certificate.to_bytes()
    check = verify_certificate(loaded)
    assert check.passed and check.lambda0 == result.lambda0


def test_psd_sqrt_is_the_rank_cut_factor_bit_for_bit():
    rng = np.random.default_rng(12)
    matrices = [rng.normal(size=(n, n)) for n in (1, 2, 9, 40)]
    matrices += [A @ A.T for A in (rng.normal(size=(30, 7)), rng.normal(size=(30, 30)))]
    p, model = load_preset("sl3z-mod:2")
    sol = solve(build_problem(laplacian1(model, p), ball(model, 2)), SolveOptions(max_iter=300))
    for P in matrices + [sol.P]:
        assert np.array_equal(psd_sqrt(P), _round_digits(rank_cut_psd_sqrt(P)))


def test_rank_sized_factor_certifies_like_the_symmetric_root():
    p, model = load_preset("sl3z-mod:2")
    lap = laplacian1(model, p)
    basis = ball(model, 2)
    sol = solve(build_problem(lap, basis), SolveOptions(max_iter=300))
    Q = psd_sqrt(sol.P)
    assert Q.shape[0] < len(lap.matrix.entries) * len(basis) == Q.shape[1]
    ours = certified_gap(lap, basis, Q, sol.lam).lambda0
    oracle = certified_gap(lap, basis, symmetric_psd_sqrt(sol.P), sol.lam).lambda0
    assert abs(ours - oracle) <= 1e-9


def test_verify_inverts_each_matrix_key_once(tmp_path, monkeypatch):
    # a count, not a timing: every repeat inversion is answered from the model's memo
    p, model = load_preset("sl3z-mod:2")
    basis = ball(model, 1)
    Q = np.random.default_rng(8).normal(size=(6 * len(basis), 6 * len(basis))) / 40
    path = tmp_path / "cert.json"
    certified_gap(laplacian1(model, p), basis, Q, 0.1).certificate.save(path)
    cert = Certificate.load(path)
    calls = Counter()
    invert = MatrixModel._invert_key

    def counting(self, key):
        calls[key] += 1
        return invert(self, key)

    monkeypatch.setattr(MatrixModel, "_invert_key", counting)
    assert verify_certificate(cert).passed
    assert calls and max(calls.values()) == 1


def _z3_pipeline(tol=1e-9):
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    prob = build_problem(lap, basis)
    sol = solve(prob, SolveOptions(tol_primal=tol, tol_dual=tol))
    Q = psd_sqrt(sol.P)
    return lap, basis, sol, certified_gap(lap, basis, Q, sol.lam)


def test_z3_end_to_end_certifies_near_three():
    lap, basis, sol, result = _z3_pipeline()
    assert result.lambda0 >= 2.99
    assert result.status == "certified-positive"
    assert result.certificate is not None
    check = verify_certificate(result.certificate)
    assert check.passed and check.lambda0 >= result.lambda0


def test_zero_square_root_gives_minus_l1_bound():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    result = certified_gap(lap, basis, np.zeros((3, 3)), 0.0)
    assert result.status == "no-positive-gap"
    assert -9.001 < result.lambda0 <= -9.0
    # degenerate but valid: the certificate still verifies
    check = verify_certificate(result.certificate)
    assert check.passed


def test_zero_row_q_round_trips_and_reverifies(tmp_path):
    p, model = load_preset("z3")
    result = certified_gap(laplacian1(model, p), ball(model, 1), np.zeros((0, 3)), 0.0)
    path = tmp_path / "cert.json"
    result.certificate.save(path)
    loaded = Certificate.load(path)
    assert loaded.q.shape == (0, 3)
    assert loaded.to_bytes() == result.certificate.to_bytes()
    check = verify_certificate(loaded)
    assert check.passed and check.lambda0 == result.lambda0
    # Q is shaped by the stored rows and cols, which its entries must fill
    data = certificate_json_dict(result.certificate)
    data["q"] = {"rows": 1, "cols": 3, "entries": []}
    with pytest.raises(
        ValueError, match="^malformed certificate: Q entries do not fill its stored shape"
    ):
        certificate_from_json_dict(data)
    _, _, _, full = _z3_pipeline()
    data = certificate_json_dict(full.certificate)
    data["q"] = dict(data["q"], rows=1, cols=9)
    with pytest.raises(
        ValueError, match="^malformed certificate: Q entries do not fill its stored shape"
    ):
        certificate_from_json_dict(data)


def test_certified_gap_dimension_mismatch():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    with pytest.raises(ValueError):
        certified_gap(lap, basis, np.zeros((3, 4)), 0.0)
    with pytest.raises(ValueError):
        certified_gap(lap, basis, np.full((3, 3), np.nan), 0.0)


def test_certified_gap_refuses_non_square_and_non_star_invariant_targets():
    # the l1 domination holds only for a square *-invariant target
    model = CyclicModel(3)
    basis = ball(model, 1)
    e, t = model.identity(), model.generators()[0]
    wide = RingMatrix(model, [[RingElement(model, {e: 1}), RingElement(model, {})]])
    skew = RingMatrix(model, [[RingElement(model, {e: 2, t: 1})]])
    for target in (wide, skew):
        with pytest.raises(ValueError, match="square and \\*-invariant"):
            certified_gap(as_target(target), basis, np.zeros((1, 3 * target.n_cols)), 0.0)


def test_coefficients_outside_the_basis_products_are_charged():
    # over the basis {e}, 2t and 2t^2 of the z3 Laplacian 5 + 2t + 2t^2 lie
    # outside every product, so |r|_1 >= 4 whatever Q is
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    basis = SupportBasis(model, [model.identity()])
    got = certified_gap(lap, basis, np.array([[2.0]]), 1.0)
    exact_bound, _ = exact_certified_gap(ring_matrix(lap.matrix), basis, [[2.0]], 1.0)
    assert exact_bound == -3
    assert got.lambda0 <= exact_bound
    # the enclosure of the exact 4 is a few ulps wide
    assert 3.999 < got.residual_l1.lo <= 4 <= got.residual_l1.hi


def test_interval_bound_never_beats_exact_rational_oracle():
    # dyadic Q so both pipelines see the same square root
    rng = random.Random(23)
    model = CyclicModel(4)
    basis = ball(model, 2)
    m = len(basis)
    for n in (1, 2):
        for _ in range(10):
            rows = [
                [Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(n * m)]
                for _ in range(rng.randint(1, n * m))
            ]
            lam = Fraction(rng.randint(-4, 4), 2)
            from _oracles import q_rows_as_factors

            # target = sum F*F + lam*I makes the residual exactly zero
            target = sum_of_squares(model, n, q_rows_as_factors(model, basis, n, rows), lam)
            Q = np.array([[float(v) for v in row] for row in rows])
            got = certified_gap(as_target(target), basis, Q, float(lam))
            exact_bound, _ = exact_certified_gap(target, basis, rows, lam)
            assert got.lambda0 <= exact_bound
            assert exact_bound - got.lambda0 < 1e-9


def test_sos_plus_margin_recovers_margin():
    rng = random.Random(31)
    model = FreeModel(2)
    basis = ball(model, 1)
    n = 2
    m = len(basis)
    rows = [
        [Fraction(rng.randint(-3, 3), 2) for _ in range(n * m)] for _ in range(4)
    ]
    from _oracles import q_rows_as_factors

    for mu in (Fraction(1, 10), Fraction(1), Fraction(10)):
        target = sum_of_squares(model, n, q_rows_as_factors(model, basis, n, rows), mu)
        Q = np.array([[float(v) for v in row] for row in rows])
        got = certified_gap(as_target(target), basis, Q, float(mu))
        assert got.lambda0 >= float(mu) - 1e-6


def test_certificate_round_trip_and_determinism(tmp_path):
    _, _, _, result = _z3_pipeline()
    path = tmp_path / "cert.json"
    result.certificate.save(path)
    again = Certificate.load(path)
    assert again.to_bytes() == result.certificate.to_bytes()
    # rebuilding the whole pipeline reproduces the same bytes
    _, _, _, result2 = _z3_pipeline()
    assert result2.certificate.to_bytes() == result.certificate.to_bytes()


def _json_bytes(cert):
    return json.dumps(certificate_json_dict(cert), separators=(",", ":")).encode("utf-8")


def test_certificate_bytes_are_the_compact_json_of_the_dict():
    lap, basis, _, z3 = _z3_pipeline()
    no_rows = certified_gap(lap, basis, np.zeros((0, 3)), 0.0)
    p, model = load_preset("sl3z-mod:2")
    lap, basis = laplacian1(model, p), ball(model, 2)
    sol = solve(build_problem(lap, basis), SolveOptions(max_iter=50))
    mod2 = certified_gap(lap, basis, psd_sqrt(sol.P), sol.lam)
    for result in (z3, mod2, no_rows):
        assert result.certificate.to_bytes() == _json_bytes(result.certificate)
    assert mod2.certificate.q.shape[0] > 0 and no_rows.certificate.q.shape == (0, 3)


_EDGE_ENTRIES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.99999999999999e-09, 1e-08, 1e-05,
                 0.0001, 1e15, 1e16, 3.0, -7.0, 1.7976931348623157e+308, 1e+100, 1e-100]


def test_certificate_bytes_are_the_reprs_of_q_at_any_block_size(monkeypatch):
    rng = np.random.default_rng(19)
    edge = np.array(_EDGE_ENTRIES)
    spread = rng.normal(size=(40, 60)) * 10.0 ** rng.integers(-20, 41, size=(40, 60))
    short = rng.integers(-999, 1000, size=(30, 20)) * 10.0 ** rng.integers(-12, 14, size=(30, 20))
    qs = [
        edge.reshape(1, -1), edge.reshape(-1, 1), np.resize(edge, (4, 9)),
        rng.normal(size=(7, 11)),  # not rounded: every entry takes repr
        _round_digits(spread),  # 15 digits from 1e-20 to 1e40: both notations and repr
        _round_digits(short),  # fewer digits: trailing zeros and integral values
        _round_digits(rng.normal(size=(13, 5)) / 30), np.zeros((0, 3)), np.zeros((3, 0)),
    ]
    fields = {"format": certify._FORMAT, "status": "no-positive-gap"}
    for entries in (1, 5, 64, certify._TEXT_ENTRIES):  # one row, or a few, per block
        monkeypatch.setattr(certify, "_TEXT_ENTRIES", entries)
        for Q in qs:
            assert Certificate(fields, Q).to_bytes() == _json_bytes(Certificate(fields, Q))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "-0.0"])
def test_certificate_bytes_of_a_loaded_file_are_the_reprs_of_its_q(text):
    data = json.loads(_z3_pipeline()[3].certificate.to_bytes())
    data["q"]["entries"][0][0] = data["q"]["entries"][-1][-1] = text
    cert = certificate_from_json_dict(data)
    assert cert.to_bytes() == _json_bytes(cert)
    assert json.loads(cert.to_bytes())["q"]["entries"][-1][-1] == repr(float(text))


def test_save_writes_to_bytes_in_less_memory_than_the_file(tmp_path):
    # a certificate-sized Q (sl3z r2 at 50 iterations has 295 x 726); save
    # holds one block of rows at a time.  Measured on this Q: a 4.6 MB file,
    # a 1.2 MB tracemalloc peak; writing the whole text at once peaked at 13.8 MB
    Q = _round_digits(np.random.default_rng(20).normal(size=(295, 726)) / 20)
    cert = Certificate({"format": certify._FORMAT}, Q)
    path = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        cert.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_bytes() == cert.to_bytes() == _json_bytes(cert)
    assert peak < size / 2


def _certificate_bytes(preset, radius, max_iter):
    p, model = load_preset(preset)
    lap, basis = laplacian1(model, p), ball(model, radius)
    sol = solve(build_problem(lap, basis), SolveOptions(max_iter=max_iter))
    return certified_gap(lap, basis, psd_sqrt(sol.P), sol.lam).certificate.to_bytes()


@pytest.fixture(scope="module")
def certificate_bytes():
    """Certificate files by name: the two in tests/data and three fresh runs."""
    data = Path(__file__).parent / "data"
    return {
        "data_z3_r1": (data / "z3-r1-certificate.json").read_bytes(),
        "data_sl3z_mod2_r1": (data / "sl3z-mod2-r1-certificate.json").read_bytes(),
        "z3_r1": _certificate_bytes("z3", 1, 300),
        "sl3z_mod2_r2": _certificate_bytes("sl3z-mod:2", 2, 50),
        "sl3z_r2": _certificate_bytes("sl3z", 2, 20),
    }


def _assert_loads_like_the_oracle(data):
    cert = Certificate.from_bytes(data)
    fields, Q = load_certificate(data)
    assert cert.fields == fields and list(cert.fields) == list(fields)
    assert cert.q.shape == Q.shape and cert.q.tobytes() == Q.tobytes()
    return cert


def _assert_refused_like_the_oracle(data):
    with pytest.raises(ValueError) as oracle:
        load_certificate(data)
    with pytest.raises(ValueError) as ours:
        Certificate.from_bytes(data)
    assert str(ours.value) == str(oracle.value)


_STYLES = {
    "saved": None,
    "compact": {"separators": (",", ":")},
    "dumps_defaults": {},
    "indented_sorted": {"indent": 2, "sort_keys": True},
}


@pytest.mark.parametrize("style", list(_STYLES))
@pytest.mark.parametrize(
    "name", ["data_z3_r1", "data_sl3z_mod2_r1", "z3_r1", "sl3z_mod2_r2", "sl3z_r2"])
def test_reader_loads_every_serialization_like_the_per_entry_oracle(certificate_bytes, name, style):
    data = certificate_bytes[name]
    if _STYLES[style] is not None:
        data = json.dumps(json.loads(data), **_STYLES[style]).encode("utf-8")
    cert = _assert_loads_like_the_oracle(data)
    assert cert.q.shape[0] > 0


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-be", "utf-32", "utf-32-le"])
def test_reader_reads_the_encodings_json_loads_reads(certificate_bytes, encoding):
    _assert_loads_like_the_oracle(certificate_bytes["z3_r1"].decode("utf-8").encode(encoding))


def _z3_text():
    return _z3_pipeline()[3].certificate.to_bytes().decode("utf-8")


def test_reader_finds_the_entries_of_the_top_level_q_object():
    text = _z3_text()
    entries = text[text.index('"entries":') + len('"entries":'):-2]
    other = '[["7","8","9"]]'
    later = text[:-2] + ',"entries":' + other + '}}'
    variants = [
        # entries keys and look-alikes outside the top-level q
        text.replace('"model":{', '"model":{"entries":[["1","2","3"]],"q":{"entries":[]},'),
        text.replace('"toolchain":{', '"toolchain":{"note":"\\"q\\":{\\"entries\\":[[\\"5\\"]]}",'),
        text.replace('"format":', '"x\\"q":{"entries":[["4","5","6"]]},"format":'),
        text[:-1] + ',"z":{"entries":[["4","5","6"]]},"y":[{"q":{"entries":[["4","5","6"]]}}]}',
        # equal keys: json.loads keeps the last
        text.replace('"q":{', '"q":{"entries":' + other + ','),
        later,
        text.replace('"format":', '"q":{"rows":1,"cols":3,"entries":' + other + '},"format":'),
        text[:-1] + ',"\\u0071":{"rows":1,"cols":3,"entries":' + other + '}}',
        text.replace('"entries":', '"entries":' + other + ',"\\u0065ntries":'),
        # keys in any order, whitespace anywhere between tokens
        text.replace('"q":{"rows":1,"cols":3,"entries":' + entries,
                     '"q" :\n{ "entries"\t: ' + entries.replace(",", " ,\r\n ") + ' , "cols":3,"rows":1 '),
    ]
    for variant in variants:
        assert variant != text
        _assert_loads_like_the_oracle(variant.encode("utf-8"))
    assert Certificate.from_bytes(later.encode()).q.tolist() == [[7.0, 8.0, 9.0]]


def test_reader_stays_linear_in_the_number_of_entries_keys():
    # each entries key inside q is checked where it stands; translating the
    # whole 2 MB document for each of them would take about a minute
    note = "x" * 2_000_000
    text = '{"format":"gapcert-certificate-v1","note":"' + note + '","q":{"rows":1,"cols":1'
    data = (text + ',"entries":[["1"]]' * 20000 + "}}").encode()
    start = time.perf_counter()
    assert _assert_loads_like_the_oracle(data).q.tolist() == [[1.0]]
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 1), (1, 2)])
def test_reader_loads_every_shape_like_the_oracle(shape):
    Q = np.arange(np.prod(shape), dtype=float).reshape(shape) - 0.5
    data = Certificate({"format": certify._FORMAT, "status": "no-positive-gap"}, Q).to_bytes()
    for style in _STYLES.values():
        text = data if style is None else json.dumps(json.loads(data), **style).encode()
        assert _assert_loads_like_the_oracle(text).q.shape == shape


def test_reader_parses_entries_bit_for_bit_like_float():
    rng = np.random.default_rng(21)
    values = np.concatenate([
        _EDGE_ENTRIES, rng.normal(size=2000) * 10.0 ** rng.integers(-320, 300, size=2000),
        rng.integers(-2 ** 62, 2 ** 62, size=500).astype(np.int64).view(float),  # any bits
    ])
    values = values[np.isfinite(values)]
    texts = [repr(v) for v in values.tolist()] + [
        "0.30000000000000004", "4.9e-325", "1e400", "-1e400", "-0.0", "nan", "NaN", "+nan",
        "inf", "-Infinity", "+INF", "iNfInItY", "1.", ".5", "-.5e-3", "1E+05", "0001", " 1.5",
        "2.5  ", "123456789012345678901234567890", "2.4703282292062328e-324",
        "2.2250738585072011e-308", "1.7976931348623158e+308", "9007199254740993",
    ]
    for cols in (1, 7, len(texts)):
        rows = len(texts) // cols
        entries = [texts[r * cols:(r + 1) * cols] for r in range(rows)]
        data = {"format": certify._FORMAT, "q": {"rows": rows, "cols": cols, "entries": entries}}
        text = json.dumps(data).encode()
        cert = _assert_loads_like_the_oracle(text)
        assert cert.q.size == rows * cols
    # the sign of a NaN is not kept; any NaN in Q fails certification
    data = {"format": certify._FORMAT, "q": {"rows": 1, "cols": 1, "entries": [["-nan"]]}}
    assert np.isnan(certificate_from_json_dict(data).q).all()


def _with_entries(array: str) -> bytes:
    text = _z3_text()
    start = text.index('"entries":') + len('"entries":')
    return (text[:start] + array + text[-2:]).encode("utf-8")


@pytest.mark.parametrize(
    "array",
    [
        pytest.param('[["1","2",null]]', id="null_entry"),
        pytest.param('[["1","2",3.5]]', id="number_entry"),
        pytest.param('[["1","2",false]]', id="bool_entry"),
        pytest.param('[["1","2",["3"]]]', id="list_entry"),
        pytest.param('[["1","2"],["3"]]', id="ragged_rows"),
        pytest.param('[["1","2"]]', id="short_row"),
        pytest.param('[["1","2","3"],["4","5","6"]]', id="extra_row"),
        pytest.param('[]', id="no_rows"),
        pytest.param('[["1","2",""]]', id="empty_entry_last"),
        pytest.param('[["","1","2"]]', id="empty_entry_first"),
        pytest.param('[["1", "", "2"]]', id="empty_entry_spaced"),
        pytest.param('[["1","2"," "]]', id="blank_entry"),
        pytest.param('[[" ","1","2"]]', id="blank_entry_first"),
        pytest.param('[["1","1,5","2"]]', id="comma_in_entry"),
        pytest.param('[["1","[1]","2"]]', id="brackets_in_entry"),
        pytest.param('[["1","2","]]"]]', id="closing_brackets_in_entry"),
        pytest.param('[["1","]], [[","2"]]', id="bracket_pair_in_entry"),
        pytest.param('[["1","2","1e"]]', id="exponent_without_digits"),
        pytest.param('[["1","2","1 5"]]', id="space_in_entry"),
        pytest.param('[["1","2","nan(1)"]]', id="nan_payload"),
        pytest.param('[["1","2","0x1p3"]]', id="hex_float"),
        pytest.param('[["1","2","\\"3\\""]]', id="escaped_quotes"),
        pytest.param('[["1","2","3\n"]]', id="control_character_in_entry"),
        pytest.param('[["1","2","3"]', id="unclosed"),
        pytest.param('[' * 100000, id="nested_too_deeply"),
        pytest.param('[[' * 50000 + ']]' * 50000, id="nested_deep_and_closed"),
        pytest.param('null', id="entries_null"),
        pytest.param('"1,2,3"', id="entries_string"),
        pytest.param('{"0": "1"}', id="entries_object"),
    ],
)
def test_reader_refuses_malformed_entries_with_the_oracles_message(array):
    _assert_refused_like_the_oracle(_with_entries(array))


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda q: q.pop("rows"), id="no_rows"),
        pytest.param(lambda q: q.pop("entries"), id="no_entries"),
        pytest.param(lambda q: q.update(rows="1"), id="rows_string"),
        pytest.param(lambda q: q.update(rows=1.0), id="rows_float"),
        pytest.param(lambda q: q.update(cols=-1), id="cols_negative"),
    ],
)
def test_reader_refuses_a_malformed_q_with_the_oracles_message(edit):
    data = json.loads(_z3_text())
    edit(data["q"])
    _assert_refused_like_the_oracle(json.dumps(data).encode())
    for q in (None, [], "q"):
        _assert_refused_like_the_oracle(json.dumps(dict(data, q=q)).encode())


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param("1_0", id="underscore"),
        pytest.param("١.5", id="arabic_indic_digit"),
        pytest.param("１", id="fullwidth_digit"),
        pytest.param("\\u0031.5", id="escaped_digit"),
        pytest.param("\\t1.5", id="escaped_tab"),
    ],
)
def test_reader_refuses_what_only_float_accepts(entry):
    # numpy's parser refuses these spellings and float() takes them; no
    # writer emits them, and they load as the per-entry reader loads them
    data = _with_entries(f'[["1","2","{entry}"]]')
    assert _assert_loads_like_the_oracle(data).q[0, 2] == float(json.loads(f'"{entry}"'))


@pytest.mark.parametrize("name", ["z3_r1", "sl3z_mod2_r2"])
def test_saved_certificates_are_read_with_one_numpy_call(certificate_bytes, monkeypatch, name):
    def per_entry(data):
        raise AssertionError("read entry by entry")

    monkeypatch.setattr(certify, "_q_per_entry", per_entry)
    data = certificate_bytes[name]
    for style in ("saved", "compact", "dumps_defaults"):
        kwargs = _STYLES[style]
        text = data if kwargs is None else json.dumps(json.loads(data), **kwargs).encode()
        assert _assert_loads_like_the_oracle(text).q.shape[0] > 0


def test_reader_takes_a_last_array_only_as_the_entries_of_the_top_level_q():
    # each ends in a plain array and two closing braces, as to_bytes writes
    # Q, but the array is not what json.loads keeps as q's entries
    text = _z3_text()
    head = text[:text.index('"q":{')]
    for tail in ('"q":{"rows":1,"cols":3},"z":{"entries":[["1","2","3"]]}}',
                 '"q":{"rows":1,"cols":3,"x\\"entries":[["1","2","3"]]}}'):
        _assert_refused_like_the_oracle((head + tail).encode())


def test_load_holds_at_most_three_and_a_half_times_the_file(tmp_path):
    # the sl3z r2 shape at 50 iterations, as in the save test: 4.6 MB of
    # text.  Measured peaks: 2.8x the file here, 5.4x for a per-entry reader
    Q = _round_digits(np.random.default_rng(20).normal(size=(295, 726)) / 20)
    path = tmp_path / "cert.json"
    Certificate({"format": certify._FORMAT}, Q).save(path)
    tracemalloc.start()
    try:
        cert = Certificate.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.q.tobytes() == Q.tobytes()
    assert peak <= 3.5 * path.stat().st_size


def test_tampered_q_entry_strictly_lowers_bound():
    _, _, _, result = _z3_pipeline()
    cert = result.certificate
    data = json.loads(cert.to_bytes())
    rng = random.Random(2)
    for _ in range(5):
        mutated = json.loads(cert.to_bytes())
        i = rng.randrange(len(mutated["q"]["entries"]))
        j = rng.randrange(len(mutated["q"]["entries"][0]))
        mutated["q"]["entries"][i][j] = repr(float(mutated["q"]["entries"][i][j]) + 1e-3)
        tampered = certificate_from_json_dict(mutated)
        check = verify_certificate(tampered)
        assert (not check.passed) and check.lambda0 < check.stored_lambda0


def test_tampered_presentation_raises_hash_mismatch():
    _, _, _, result = _z3_pipeline()
    data = json.loads(result.certificate.to_bytes())
    data["presentation"]["text"] = data["presentation"]["text"] + "# extra\n"
    with pytest.raises(ValueError, match="^presentation text does not match its stored hash$"):
        verify_certificate(certificate_from_json_dict(data))


@pytest.mark.parametrize("indices", [[0, *range(12)], [*range(11, -1, -1)]], ids=["repeated", "reversed"])
def test_relator_indices_out_of_order_are_refused(indices):
    # sorted and deduplicated, these would pass: laplacian1 refuses them instead
    data = json.loads((Path(__file__).parent / "data" / "sl3z-mod2-r1-certificate.json").read_bytes())
    labels = data["relators"]["labels"]  # of the indices 0 to 11
    data["relators"] = {"indices": indices, "labels": [labels[k] for k in indices]}
    with pytest.raises(ValueError, match="^relator indices are not strictly increasing$"):
        verify_certificate(certificate_from_json_dict(data))


def test_tampered_radius_fails_support_reconstruction():
    _, _, _, result = _z3_pipeline()
    data = json.loads(result.certificate.to_bytes())
    data["basis"]["radius"] = 0  # stored keys are the radius-1 ball
    with pytest.raises(
        ValueError, match="^stored basis is invalid: basis does not match the ball of radius 0$"
    ):
        verify_certificate(certificate_from_json_dict(data))


def test_huge_stored_radius_is_rejected_quickly():
    p, model = load_preset("sl3z")
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    Q = np.zeros((1, len(lap.matrix.entries) * len(basis)))
    data = json.loads(certified_gap(lap, basis, Q, 0.0).certificate.to_bytes())
    data["basis"]["radius"] = 12  # a ball of billions of elements
    cert = certificate_from_json_dict(data)
    start = time.perf_counter()
    with pytest.raises(
        ValueError, match="^stored basis is invalid: basis does not match the ball of radius 12$"
    ):
        verify_certificate(cert)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("value", ["-inf", "nan", "inf"], ids=["minus_inf", "nan", "inf"])
def test_verify_refuses_a_non_finite_stored_lambda0(capsys, tmp_path, value):
    # "-inf" with a no-positive-gap status once passed, and printed -Infinity, which is not JSON
    data = json.loads((Path(__file__).parent / "data" / "z3-r1-certificate.json").read_bytes())
    data.update(certified_lambda0=value, status="no-positive-gap")
    message = f"certified_lambda0 must be finite, got {value!r}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_certificate(certificate_from_json_dict(data))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


@pytest.mark.parametrize("field", ["solver_lambda", "residual_l1_sup"])
def test_verify_refuses_the_other_non_finite_stored_claims(field):
    data = json.loads((Path(__file__).parent / "data" / "z3-r1-certificate.json").read_bytes())
    for value in ("nan", "inf", "-inf"):
        data[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            verify_certificate(certificate_from_json_dict(data))


def test_certificate_for_raw_matrix_is_none():
    model = CyclicModel(3)
    basis = ball(model, 1)
    target = identity(model, 1, 4)
    result = certified_gap(as_target(target), basis, np.zeros((3, 3)), 0.0)
    assert result.certificate is None
    assert result.lambda0 <= -4.0


def test_floor_display():
    assert floor_display(0.329999) == "0.32"
    assert floor_display(2.9999999) == "2.99"
    assert floor_display(-0.001) == "-0.01"


def test_floor_display_floors_the_exact_value():
    # x * 100 in floating point rounds up to an integer for 4,106 of these
    # 80,000 doubles, the two just below each k/100
    for k in range(-20000, 20000):
        below = math.nextafter(k / 100, -math.inf)
        for x in (math.nextafter(below, -math.inf), below):
            n, d = x.as_integer_ratio()
            assert floor_display(x) == f"{Decimal(100 * n // d).scaleb(-2):.2f}", x
    assert floor_display(0.33999999999999997) == "0.33"
    assert floor_display(0.049999999999999996) == "0.04"


def test_theorem_consistency_z3_regular_representation():
    # a certified positive bound must stay below every unitary evaluation
    from gapcert.fox import evaluate_representation, regular_representation_images

    lap, basis, sol, result = _z3_pipeline()
    assert result.lambda0 > 0
    p, model = load_preset("z3")
    images, _ = regular_representation_images(model)
    pi = evaluate_representation(lap.matrix, images, presentation=p)
    assert np.linalg.eigvalsh(pi)[0] >= result.lambda0 - 1e-8


def _hostile_q(rng, k, N):
    """Mixed magnitudes 1e+-150, underflowing products, subnormals, and
    a second block of rows that cancels the first up to one ulp."""
    scale = rng.choice([1e150, 1.0, 1e-150, 1e-170, 0.0], size=(k, N))
    B = scale * rng.uniform(-1.0, 1.0, size=(k, N))
    sub = rng.random((k, N)) < 0.15
    B[sub] = rng.integers(-(2 ** 20), 2 ** 20, size=int(sub.sum())) * 5e-324
    signs = rng.choice([-1.0, 1.0], size=N)
    return np.vstack([B, np.nextafter(B * signs, np.inf)])


def _exact_gram(Q):
    F = [[Fraction(v) for v in row] for row in Q.tolist()]
    N = Q.shape[1]
    return [[sum(row[i] * row[j] for row in F) for j in range(N)] for i in range(N)]


def _assert_radius_covers(Q, pid, n):
    """sum_c |mid(c) - S(c)| <= radius, S the exact class sums of Q^T Q.

    Class (i, j, c) holds the cells (i*m + x, j*m + y) with pid[x, y] = c;
    with n = 1, pid classes the cells of the whole Gram matrix.
    """
    mid, radius = _gram_class_sums(Q, pid, n)
    m, size = len(pid), int(pid.max()) + 1
    assert mid.shape == (n, n, size) and math.isfinite(radius) and radius >= 0.0
    S = [Fraction(0)] * mid.size
    cls = pid.tolist()
    for a, row in enumerate(_exact_gram(Q)):
        for b, value in enumerate(row):
            S[((a // m) * n + b // m) * size + cls[a % m][b % m]] += value
    assert sum(abs(Fraction(x) - y) for x, y in zip(mid.ravel().tolist(), S)) <= Fraction(radius)
    return mid


def test_gram_class_sums_cover_the_exact_gram_entrywise():
    rng = np.random.default_rng(11)
    cases = [_hostile_q(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6))) for _ in range(30)]
    # 40 products of 0.49 * 2^-1074 each round to zero; only the underflow term covers them
    cases.append(np.array([[2.0 ** -537, 0.49 * 2.0 ** -537]] * 40))
    # widths off the einsum block size, with more and with fewer rows than columns
    cases += [_hostile_q(rng, k, N) for k, N in ((3, 1), (2, 31), (20, 33), (4, 65))]
    for Q in cases:
        N = Q.shape[1]
        # one class per cell: the class sums are the Gram entries themselves
        G = _assert_radius_covers(Q, np.arange(N * N).reshape(N, N), 1).reshape(N, N)
        assert np.array_equal(G, G.T)


def test_gram_class_sums_cover_cancelling_classes():
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(8):
        # Q = [X | Y | -X]: cell (2M + a, b) cancels cell (a, b) exactly, and
        # the class of the two puts the cell (M + a, b) between them, so its
        # small summand is lost to rounding
        X = rng.choice([1e150, 1.0, 1e-150], size=(3, 5)) * rng.uniform(-1, 1, (3, 5))
        Y = rng.choice([1.0, 1e-150, 1e-170], size=(3, 5)) * rng.uniform(-1, 1, (3, 5))
        Q = np.hstack([X, Y, -X])
        M, N = X.shape[1], Q.shape[1]
        cells = np.arange(N * N).reshape(N, N)
        cells[M:2 * M, :M] = cells[:M, :M]
        cells[2 * M:, :M] = cells[:M, :M]
        cases.append((Q, cells, 1))
    # the class sums of row 0 are 1 + 0.9u + 0.9u + ...: each addition rounds down
    Q = np.array([[1.0] + [0.9 * 2.0 ** -53] * 40])
    cases.append((Q, np.repeat(np.arange(41), 41).reshape(41, 41), 1))
    # the product classes of a two-row problem over a cyclic ball
    table = ball(CyclicModel(12), 6).products()
    for _ in range(4):
        Q = _hostile_q(rng, 3, 2 * len(table.pid))
        cases.append((Q, table.pid, 2))
    for Q, cells, n in cases:
        _, classes = np.unique(cells, return_inverse=True)
        _assert_radius_covers(Q, classes.reshape(cells.shape), n)


def _fsum_outcome(f, *args):
    """f's value as its bits, or its exception as its type and message."""
    try:
        return struct.pack("<d", f(*args))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_sums_like_fsum(x, extra):
    want = _fsum_outcome(lambda: math.fsum(x.tolist() + extra))
    assert _fsum_outcome(_exact_sum, x, extra) == want


def test_exact_sum_is_fsum_bit_for_bit():
    rng = np.random.default_rng(14)
    cases = [np.array([]), np.zeros(9), np.array([-0.0, 0.0, -0.0]),
             np.array([5e-324, 5e-324, -5e-324]), np.array([5e-324] * 3 + [2.0 ** -1022])]
    for _ in range(150):
        n = int(rng.integers(1, 300))
        x = rng.uniform(-1, 1, n) * np.ldexp(1.0, rng.integers(-1000, 980, n))
        # heavy cancellation: each value and its negation, off by an ulp or by nothing
        twin = -np.where(rng.random(n) < 0.5, x, np.nextafter(x, np.inf))
        x = rng.permutation(np.concatenate([x, twin]))
        sub = rng.random(2 * n) < 0.2
        x[sub] = rng.integers(-(2 ** 20), 2 ** 20, size=int(sub.sum())) * 5e-324
        cases.append(x)
    for x in cases:
        extra = [float(rng.uniform(-1, 1)) * 2.0 ** int(rng.integers(-1074, 900)), 5e-324]
        _assert_sums_like_fsum(x, [])
        _assert_sums_like_fsum(x, extra)


def test_exact_sum_leaves_non_finite_and_overflowing_totals_to_fsum():
    inf, nan, big = math.inf, math.nan, 1.7e308
    cases = [([inf], []), ([nan], []), ([1.0, inf, -inf], []), ([1.0], [inf, -inf]),
             ([nan, inf], []), ([1.0], [nan]), ([big, big], []), ([big, big, -big], []),
             ([big], [big]), ([big, -big, 1e300], []), ([1.79e308, -1e308], [-1e308]),
             ([2.0 ** 1000] * 3, [])]
    for values, extra in cases:
        _assert_sums_like_fsum(np.array(values), extra)


def test_bound_encloses_the_exact_residual_l1():
    # lo <= |r|_1 <= hi for Qs with inexact Gram products and class sums
    from _oracles import q_rows_as_factors

    rng = np.random.default_rng(13)
    for preset, radius in (("z3", 1), ("zn:5", 2), ("free:2", 1)):
        p, model = load_preset(preset)
        lap = laplacian1(model, p)
        basis = ball(model, radius)
        n = len(lap.matrix.entries)
        N = n * len(basis)
        for _ in range(3):
            Q = rng.uniform(-1, 1, size=(int(rng.integers(1, N + 1)), N)) / 3
            lam = float(rng.uniform(-2, 4))
            # the Laplacian, and a target that this Q meets exactly: |r|_1 = 0
            factors = q_rows_as_factors(model, basis, n, Q.tolist())
            exact_sos = sum_of_squares(model, n, factors, Fraction(lam))
            for target in (ring_matrix(lap.matrix), exact_sos):
                got = certified_gap(as_target(target), basis, Q, lam)
                exact_bound, residual = exact_certified_gap(target, basis, Q.tolist(), lam)
                lo, hi = got.residual_l1
                assert Fraction(lo) <= l1(residual) <= Fraction(hi)
                assert got.lambda0 <= exact_bound


_TINY = Fraction(2) ** -1074  # smallest positive subnormal


def _enclosure_cases():
    rng = random.Random(41)
    yield from (Fraction(1, 3), Fraction(1, 10), Fraction(10) ** 400 / Fraction(3) ** 800)
    yield Fraction(2, 3) * 2 ** -1060  # subnormal range
    # below the smallest subnormal, and between two (5/2 is a tie)
    yield from (_TINY / 3, _TINY * 2 / 3, _TINY * 5 / 2, Fraction(1, 10 ** 400))
    for _ in range(300):
        scale = Fraction(2) ** rng.randint(-1130, 60)
        yield Fraction(rng.randint(1, 10 ** 20), rng.randint(1, 10 ** 20)) * scale
    # integers around and beyond the last run of consecutive doubles, 2^53
    for k in (0, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 60 + 1, 10 ** 30, 3 * 2 ** 1000):
        yield from (k, -k)


def test_enclose_gives_equal_endpoints_on_doubles():
    rng = random.Random(40)
    doubles = [0.0, 0.75, 0.1, 1e308, 2.0 ** -1074, 3 * 2.0 ** -1074, 2.0 ** -1022]
    doubles += [rng.uniform(0, 1) * 2.0 ** rng.randint(-1074, 1000) for _ in range(200)]
    for x in doubles + [-x for x in doubles]:
        lo, hi = _enclose(Fraction(x))
        assert lo == hi == x


def test_enclose_is_one_ulp_around_inexact_rationals():
    inexact = 0
    for r in _enclosure_cases():
        for q in (r, -r):
            lo, hi = _enclose(q)
            assert Fraction(lo) <= q <= Fraction(hi)
            if q in (Fraction(lo), Fraction(hi)):
                assert lo == hi  # q is a double
            else:
                assert hi == math.nextafter(lo, math.inf)
                inexact += 1
    assert inexact >= 500


def test_enclose_of_abs_mirrors_the_enclosure():
    # certify encloses |c| as _enclose(abs(c)): that must be c's enclosure
    # mirrored, never one that straddles 0
    for q in _enclosure_cases():
        lo, hi = _enclose(-q)
        assert _enclose(q) == (-hi, -lo)
        assert not lo < 0.0 < hi


def test_rho_rounds_up():
    for k in (1, 2, 3, 726, 5298, 10 ** 6, 2 ** 40, 2 ** 51 - 1):
        ku = Fraction(k, 2 ** 53)
        exact = ku / (1 - 2 * ku)
        rho = _rho(k)
        assert Fraction(math.nextafter(rho, -math.inf)) < exact <= Fraction(rho)
    with pytest.raises(ValueError, match="too many"):
        _rho(2 ** 53)


def test_bound_bits_are_pinned_on_a_dyadic_q():
    # every Gram product and class sum of this Q is exact, so the bits below
    # depend only on the rounding policy, including the outward ulps on the
    # identity diagonal that an exact subtraction of lambda does not need
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    Q = np.array([[3, -1, 2], [0, 4, -3], [-2, 1, 1]]) / 8.0
    expected = {
        0.1: (-8.534375000000008, 8.634374999999995, 8.634375000000006),
        1.5: (-5.734375000000004, 7.2343749999999964, 7.2343750000000036),
    }
    for lam, bits in expected.items():
        got = certified_gap(lap, ball(model, 1), Q, lam)
        assert (got.lambda0, *got.residual_l1) == bits


def test_bound_bits_are_pinned_on_the_committed_six_row_certificate():
    # n = 6 and Q is 29 x 42: the class sums of all 36 blocks meet in these bits
    cert = Certificate.load(Path(__file__).parent / "data" / "sl3z-mod2-r1-certificate.json")
    f = cert.fields
    model = model_from_spec(f["model"])
    lap = laplacian1(model, parse_presentation(f["presentation"]["text"]), f["relators"]["indices"])
    basis = basis_from_json(model, f["basis"]["keys"], f["basis"]["radius"])
    assert cert.q.shape == (29, 42) and len(lap.matrix.entries) == 6
    got = certified_gap(lap, basis, cert.q, float(f["solver_lambda"]))
    assert (got.lambda0, *got.residual_l1) == (
        -0.5167651378009, 3.2732122770155433e-06, 3.273223463118534e-06
    )


def test_non_finite_lambda_is_rejected():
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    for lam in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="lambda must be finite"):
            certified_gap(lap, basis, np.eye(3), lam)


def test_overflowing_gram_is_a_clear_value_error(capsys, tmp_path):
    p, model = load_preset("z3")
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    for big in (1e200, 1e154):
        with pytest.raises(ValueError, match="overflows"):
            certified_gap(lap, basis, np.full((3, 3), big), 0.0)
    # lambda itself near the top of the range overflows lambda - |r|_1
    with pytest.raises(ValueError, match="overflows"):
        certified_gap(lap, basis, np.full((3, 3), 1e153), -1.7e308)
    # finite row sums of |G| whose total overflows in math.fsum
    message = "Q or lambda too large: the residual bound overflows"
    data = json.loads((Path(__file__).parent / "data" / "sl3z-mod2-r1-certificate.json").read_bytes())
    data["q"]["entries"][0][:5] = ["1e308"] * 5
    cert = certificate_from_json_dict(data)
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_certificate(cert)
    p, model = load_preset("sl3z-mod:2")
    with pytest.raises(ValueError, match=f"^{message}$"):
        certified_gap(laplacian1(model, p), ball(model, 1), cert.q, float(data["solver_lambda"]))
    cert_path, sol_path = tmp_path / "cert.json", tmp_path / "sol.json"
    cert_path.write_text(json.dumps(data))
    sol_path.write_text(json.dumps({"lambda": float(data["solver_lambda"]), "Q": cert.q.tolist()}))
    for argv in (["verify", str(cert_path)],
                 ["certify", "--preset", "sl3z-mod:2", "--radius", "1", "--solution", str(sol_path)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


_THREADS_SCRIPT = """
import sys
import numpy as np
from gapcert import Certificate, ball, certified_gap, laplacian1, load_preset, verify_certificate
mode, path = sys.argv[1:]
if mode == "make":
    p, model = load_preset("sl3z-mod:2")
    basis = ball(model, 2)
    Q = np.random.default_rng(7).normal(size=(186, 186)) / 40
    result = certified_gap(laplacian1(model, p), basis, Q, 0.1)
    result.certificate.save(path)
    print(repr(result.lambda0))
else:
    check = verify_certificate(Certificate.load(path))
    print(repr(check.lambda0) if check.passed else check.message)
"""


def test_verify_does_not_depend_on_blas_thread_count(tmp_path):
    src = str(Path(gapcert.__file__).resolve().parents[1])

    def run(threads, mode):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT, mode, str(tmp_path / "cert.json")],
            env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()

    stored = run(2, "make")
    assert run(1, "verify") == stored
    assert run(2, "verify") == stored


def test_bound_does_not_depend_on_the_memory_layout_of_q():
    # verify reads Q back in C order, so certify must sum as it does
    for preset, radius, iters in (("zn:5", 2, 10), ("sl3z-mod:2", 1, 20)):
        p, model = load_preset(preset)
        lap, basis = laplacian1(model, p), ball(model, radius)
        sol = solve(build_problem(lap, basis), SolveOptions(max_iter=iters))
        Q = psd_sqrt(sol.P)
        got = certified_gap(lap, basis, np.asfortranarray(Q), sol.lam)
        assert got.lambda0 == certified_gap(lap, basis, Q, sol.lam).lambda0
        back = certificate_from_json_dict(json.loads(got.certificate.to_bytes()))
        assert verify_certificate(back).passed


_MUTANT_VALUES = [math.nan, math.inf, 1e308, 5e-324, "nan", "inf", "1e308", "5e-324", "",
                  "١", "1\n", None, True, "x", [], {}]


def _json_mutant(rng: random.Random, text: bytes) -> bytes:
    """text with one field replaced, deleted, shuffled or shortened, or an int moved by 1 or 1e20.

    Half the edits start in Q's entries, the others anywhere in the document.
    """
    doc = json.loads(text)
    parent, key = (doc["q"], "entries") if rng.random() < 0.5 else (doc, rng.choice(list(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and rng.random() < 0.75:
        node = parent[key]
        parent, key = node, rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
    value, op = parent[key], rng.randrange(5)
    if op == 0 and type(value) is int:
        parent[key] = value + rng.choice([1, -1, 10 ** 20, -10 ** 20])
    elif op == 1:
        del parent[key]
    elif op == 2 and isinstance(value, (dict, list)):
        items = rng.sample(list(value.items()) if isinstance(value, dict) else value, len(value))
        parent[key] = dict(items) if isinstance(value, dict) else items
    elif op == 3 and isinstance(value, (str, list)) and value:
        parent[key] = value[:rng.randrange(len(value))]
    else:
        parent[key] = rng.choice(_MUTANT_VALUES)
    return json.dumps(doc).encode()


def _byte_mutant(rng: random.Random, text: bytes) -> bytes:
    """text with one byte flipped, deleted or inserted, or cut short."""
    data, at = bytearray(text), rng.randrange(len(text))
    op = rng.randrange(4)
    if op == 0:
        data[at] ^= 1 << rng.randrange(8)
    elif op == 1:
        del data[at]
    elif op == 2:
        data.insert(at, rng.randrange(256))
    else:
        del data[at:]
    return bytes(data)


@pytest.mark.parametrize("count", [2000, pytest.param(20000, marks=pytest.mark.stretch)])
def test_mutated_certificates_fail_only_with_value_errors(count):
    # every outcome is a ValueError or a VerifyResult; a mutant that passes
    # re-verifies to the same bits after a save and load, below its lambda
    data = Path(__file__).parent / "data"
    texts = [(data / name).read_bytes()
             for name in ("z3-r1-certificate.json", "sl3z-mod2-r1-certificate.json")]
    rng = random.Random(37)
    outcomes, strays = Counter(), []
    for n in range(count):
        mutant = (_json_mutant if n % 4 < 2 else _byte_mutant)(rng, texts[n % 2])
        try:
            cert = Certificate.from_bytes(mutant)
            got = verify_certificate(cert)
        except ValueError:
            outcomes["error"] += 1
            continue
        except Exception as exc:  # anything else breaks verify's contract
            strays.append((n, repr(exc)))
            continue
        outcomes[got.passed] += 1
        if got.passed:
            again = verify_certificate(Certificate.from_bytes(cert.to_bytes()))
            assert again.passed and again.lambda0.hex() == got.lambda0.hex()
            assert got.lambda0 <= float(cert.fields["solver_lambda"])
    assert strays == []
    assert outcomes["error"] and outcomes[True] and outcomes[False]
