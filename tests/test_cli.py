import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapcert
from gapcert.certify import Certificate, certified_gap, psd_sqrt
from gapcert.cli import main
from gapcert.fox import laplacian1
from gapcert.groups import CyclicModel, SupportBasis, ball
from gapcert.presets import load_preset
from gapcert.sdp import SolveOptions, build_problem, solve


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_show_preset(capsys):
    code, out, _ = _run(capsys, "show", "--preset", "sl3z")
    assert code == 0
    info = json.loads(out)
    assert len(info["generators"]) == 6
    assert len(info["relators"]) == 13
    assert "torsion" not in info["default_relator_subset"]


def test_show_requires_exactly_one_source(capsys):
    for argv, message in (("", "one of the arguments --preset --file is required"),
                          ("--preset z3 --file x", "not allowed with argument --preset")):
        with pytest.raises(SystemExit) as exc:
            main(["show", *argv.split()])
        assert exc.value.code == 2 and message in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["--preset foo", "--preset zn:abc", "--preset zn:1",
                                  "--preset sl3z-mod:0", "--preset free:0",
                                  "--preset sl3z --model modular:x",
                                  "--preset sl3z --model modular:1", "--preset sl3z --model bogus"])
def test_bad_input_selection_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["show", *argv.split()])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"argument {argv.split()[-2]}: " in err
    assert not any(text in err for text in ("invalid literal", "column", "Traceback"))


def test_ball_text_and_json(capsys, tmp_path):
    code, out, _ = _run(capsys, "ball", "--preset", "z3", "--radius", "1")
    assert code == 0
    assert [json.loads(line) for line in out.strip().splitlines()] == [0, 1, 2]
    out_path = tmp_path / "basis.json"
    code, _, _ = _run(
        capsys, "ball", "--preset", "z3", "--radius", "1", "--json", "--out", str(out_path)
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["keys"] == [0, 1, 2] and data["radius"] == 1


def test_ball_out_writes_what_stdout_would_get(capsys, tmp_path):
    for mode in ((), ("--json",)):
        argv = ("ball", "--preset", "sl3z-mod:2", "--radius", "1", *mode)
        code, printed, _ = _run(capsys, *argv)
        assert code == 0
        path = tmp_path / "ball.txt"
        code, out, _ = _run(capsys, *argv, "--out", str(path))
        assert code == 0 and out == "" and path.read_text() == printed


def test_laplacian_json_round_trip(capsys):
    from _oracles import l1, ring_matrix_from_json

    code, out, _ = _run(capsys, "laplacian", "--preset", "z3")
    assert code == 0
    mat = ring_matrix_from_json(json.loads(out))
    assert mat.n_rows == 1
    assert float(l1(mat)) == 9.0


@pytest.mark.parametrize("argv,digest", [
    ("sl3z", "14bbd266ed45217739fadb146e4784247c2272dcdf2c0ee433221d1d4354f5e4"),
    ("sl3z-mod:2 --exclude-relator none", "68d6045a6aae121a3ec5962fed0d2a6bac87723dc0a040e232f1ade249ef314c"),
])
def test_laplacian_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = _run(capsys, "laplacian", "--preset", *argv.split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_sdp_build_stats(capsys):
    code, out, _ = _run(
        capsys, "sdp", "build", "--preset", "z3", "--radius", "1"
    )
    assert code == 0
    stats = json.loads(out)
    assert stats == {"n": 1, "basis_size": 3, "products": 3, "constraints": 2}


def test_printed_constraint_count_is_the_exported_one(capsys, tmp_path):
    # a diagonal entry constrains a class and its inverse class once
    path = tmp_path / "problem.dat-s"
    stage = ["--preset", "sl3z-mod:2", "--radius", "2"]
    code, out, _ = _run(capsys, "sdp", "export", *stage, "--export", str(path))
    assert code == 0
    declared = next(x for x in path.read_text().splitlines() if not x.startswith("*"))
    assert json.loads(out)["constraints"] == int(declared) == 2622
    code, out, _ = _run(capsys, "sdp", "build", *stage)
    assert code == 0 and json.loads(out)["constraints"] == 2622


@pytest.mark.parametrize(
    "action,option",
    [("build", "--export"), ("build", "--out"), ("build", "--tol"), ("build", "--max-iter"),
     ("export", "--out"), ("export", "--tol"), ("export", "--max-iter")],
)
def test_sdp_action_refuses_an_option_it_does_not_read(capsys, tmp_path, action, option):
    value = {"--tol": "1e-3", "--max-iter": "5"}.get(option, str(tmp_path / "f"))
    with pytest.raises(SystemExit) as exc:
        main(["sdp", action, "--preset", "z3", "--radius", "1", option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_sdp_export_writes_file(capsys, tmp_path):
    path = tmp_path / "problem.dat-s"
    code, out, _ = _run(
        capsys,
        "sdp", "export", "--preset", "z3", "--radius", "1", "--export", str(path),
    )
    assert code == 0
    from gapcert.sdp import import_sdpa

    prob = import_sdpa(path.read_text())
    assert prob.n == 1 and prob.m == 3


def test_pipeline_z3_certifies(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = _run(
        capsys,
        "pipeline", "--preset", "z3", "--radius", "1",
        "--tol", "1e-9", "--out", str(cert_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["lambda0"] >= 2.99
    assert summary["verified"] is True
    assert cert_path.exists()


def test_pipeline_z2_abelian_no_gap_exit_codes(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    args = [
        "pipeline", "--preset", "z2-abelian", "--radius", "2",
        "--tol", "1e-8", "--out", str(cert_path),
    ]
    code, out, _ = _run(capsys, *args)
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "no-positive-gap"
    assert summary["lambda0"] <= 1e-3
    code, _, err = _run(capsys, *args, "--require-gap")
    assert code == 1 and "no positive gap" in err


def test_pipeline_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = _run(
            capsys,
            "pipeline", "--preset", "z3", "--radius", "1",
            "--tol", "1e-9", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_pipeline_matches_composed_subcommands(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    cert_a = tmp_path / "a.json"
    cert_b = tmp_path / "b.json"
    code, _, _ = _run(
        capsys,
        "sdp", "solve", "--preset", "z3", "--radius", "1",
        "--tol", "1e-9", "--out", str(sol_path),
    )
    assert code == 0
    code, _, _ = _run(
        capsys,
        "certify", "--preset", "z3", "--radius", "1",
        "--solution", str(sol_path), "--out", str(cert_a),
    )
    assert code == 0
    code, _, _ = _run(
        capsys,
        "pipeline", "--preset", "z3", "--radius", "1",
        "--tol", "1e-9", "--out", str(cert_b),
    )
    assert code == 0
    assert cert_a.read_bytes() == cert_b.read_bytes()


def test_verify_pass_and_tamper(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = _run(
        capsys,
        "pipeline", "--preset", "z3", "--radius", "1",
        "--tol", "1e-9", "--out", str(cert_path),
    )
    assert code == 0
    code, out, _ = _run(capsys, "verify", str(cert_path))
    assert code == 0 and json.loads(out)["passed"] is True

    data = json.loads(cert_path.read_text())
    data["q"]["entries"][0][0] = repr(float(data["q"]["entries"][0][0]) + 0.5)
    cert_path.write_text(json.dumps(data))
    code, out, _ = _run(capsys, "verify", str(cert_path))
    assert code == 1


def test_verify_rejects_hostile_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = _run(
        capsys,
        "pipeline", "--preset", "z3", "--radius", "1",
        "--tol", "1e-9", "--out", str(cert_path),
    )
    assert code == 0
    good = json.loads(cert_path.read_text())
    infinite_lambda = json.loads(json.dumps(good))
    infinite_lambda["solver_lambda"] = "inf"
    huge_q = json.loads(json.dumps(good))
    huge_q["q"]["entries"] = [["1e+200"] * len(row) for row in good["q"]["entries"]]
    for data, reason in ((infinite_lambda, "finite"), (huge_q, "overflows")):
        cert_path.write_text(json.dumps(data))
        code, out, err = _run(capsys, "verify", str(cert_path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and reason in err


def _set(path, value):
    def edit(data):
        *outer, last = path
        for key in outer:
            data = data[key]
        data[last] = value
    return edit


@pytest.fixture(scope="module")
def good_certificates(tmp_path_factory):
    """Certificate JSON by preset, from one radius-1 pipeline run each.

    The tests that use them need valid certificates, not converged ones,
    so the solver stops at 300 iterations.
    """
    out = {}
    for preset in ("z3", "sl3z-mod:2"):
        path = tmp_path_factory.mktemp("cert") / "cert.json"
        code = main([
            "pipeline", "--preset", preset, "--radius", "1", "--max-iter", "300",
            "--out", str(path),
        ])
        assert code == 0
        out[preset] = path.read_text()
    return out


@pytest.mark.parametrize(
    "preset,edit",
    [
        pytest.param("z3", _set(["solver_lambda"], None), id="solver_lambda"),
        pytest.param("z3", _set(["certified_lambda0"], None), id="certified_lambda0"),
        pytest.param("z3", _set(["q", "entries", 0, 1], None), id="q_entry"),
        pytest.param("z3", _set(["q", "entries", 0], ["1.0"]), id="ragged_q"),
        pytest.param("z3", _set(["basis", "keys", 1], None), id="basis_key"),
        pytest.param("z3", _set(["basis", "radius"], "1"), id="basis_radius"),
        pytest.param("z3", _set(["relators", "indices", 0], "0"), id="relator_index"),
        pytest.param("z3", _set(["model"], None), id="model"),
        pytest.param("z3", _set(["presentation", "text"], None), id="presentation_text"),
        pytest.param("z3", _set(["presentation"], None), id="presentation"),
        pytest.param("z3", lambda data: [data], id="list_root"),
        pytest.param("z3", _set(["model", "n"], "3"), id="cyclic_n_string"),
        pytest.param("z3", _set(["model", "n"], None), id="cyclic_n_null"),
        pytest.param("z3", _set(["basis", "keys", 1], 1.5), id="cyclic_key_float"),
        pytest.param("z3", _set(["model"], {"type": "free", "generators": "6"}),
                     id="free_generators_string"),
        pytest.param("sl3z-mod:2", _set(["model", "modulus"], 2.5), id="modulus_float"),
        pytest.param("sl3z-mod:2", _set(["model", "modulus"], "2"), id="modulus_string"),
        pytest.param("sl3z-mod:2", _set(["model", "modulus"], None), id="modulus_null"),
        pytest.param("sl3z-mod:2", _set(["model", "images"], None), id="images_null"),
        pytest.param("sl3z-mod:2", _set(["model", "images", 0, 0, 0], 1.5),
                     id="image_entry_float"),
        pytest.param("sl3z-mod:2", _set(["basis", "keys", 1, 0, 0], 1.5),
                     id="matrix_key_float"),
        pytest.param("z3", _set(["basis", "radius"], True), id="basis_radius_bool"),
        pytest.param("sl3z-mod:2", _set(["relators", "indices", 1], True), id="relator_index_bool"),
        # stored claims the certificate does not bear out
        pytest.param("sl3z-mod:2", _set(["status"], "certified-positive"), id="status_positive"),
        pytest.param("z3", _set(["status"], "no-positive-gap"), id="status_no_gap"),
        pytest.param("sl3z-mod:2", _set(["status"], None), id="status_null"),
        pytest.param("sl3z-mod:2", lambda data: data["relators"].update(
            labels=["torsion"] * len(data["relators"]["labels"])), id="relator_labels"),
        pytest.param("sl3z-mod:2", _set(["residual_l1_sup"], "0.0"), id="residual_l1_sup_zero"),
        pytest.param("z3", _set(["residual_l1_sup"], "nan"), id="residual_l1_sup_nan"),
        # decimal fields are JSON strings, as the writer stores them
        pytest.param("z3", _set(["certified_lambda0"], True), id="certified_lambda0_bool"),
        pytest.param("z3", _set(["residual_l1_sup"], 1e9), id="residual_l1_sup_number"),
        pytest.param("z3", lambda data: data.update(solver_lambda=float(data["solver_lambda"])),
                     id="solver_lambda_number"),
        pytest.param("z3", lambda data: data["q"]["entries"][0].__setitem__(
            0, float(data["q"]["entries"][0][0])), id="q_entry_number"),
        pytest.param("z3", _set(["q", "entries", 0, 0], False), id="q_entry_bool"),
        # a matrix model's dim must be its images' size
        pytest.param("sl3z-mod:2", _set(["model", "dim"], 4), id="dim_too_large"),
        pytest.param("sl3z-mod:2", _set(["model", "dim"], "3"), id="dim_string"),
        pytest.param("sl3z-mod:2", lambda data: data["model"].pop("dim") and None, id="dim_missing"),
        # generator images that are no matrices of one size, or not invertible
        pytest.param("sl3z-mod:2", _set(["model", "images", 0, 1], [0, 1]), id="image_ragged"),
        pytest.param("sl3z-mod:2", lambda data: data["model"]["images"][0].append([0, 0, 0]),
                     id="image_fourth_row"),
        pytest.param("sl3z-mod:2", _set(["model", "images", 0], [[1, 1], [0, 1]]),
                     id="images_of_two_sizes"),
        pytest.param("sl3z-mod:2", _set(["model", "images", 0], [[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
                     id="image_singular_mod_2"),
        pytest.param("sl3z-mod:2", lambda data: data["model"].update(
            type="matrix",
            images=[[[2, 0, 0], [0, 1, 0], [0, 0, 1]]] + data["model"]["images"][1:],
        ), id="matrix_image_det_2"),
        pytest.param("sl3z-mod:2", _set(["model", "modulus"], 1), id="modulus_1"),
        pytest.param("sl3z-mod:2", _set(["model", "modulus"], -3), id="modulus_negative"),
        pytest.param("sl3z-mod:2", lambda data: data["model"]["images"].pop() and None,
                     id="image_missing"),
        pytest.param("sl3z-mod:2", _set(["model", "images"], []), id="images_empty"),
    ],
)
def test_verify_rejects_malformed_certificate(capsys, tmp_path, good_certificates, preset, edit):
    data = json.loads(good_certificates[preset])
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(edit(data) or data))
    code, out, err = _run(capsys, "verify", str(cert_path))
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("indices", [[0, *range(12)], [*range(11, -1, -1)]], ids=["repeated", "reversed"])
def test_verify_refuses_relator_indices_out_of_order(capsys, tmp_path, indices):
    data = json.loads((Path(__file__).parent / "data" / "sl3z-mod2-r1-certificate.json").read_bytes())
    labels = data["relators"]["labels"]  # of the indices 0 to 11
    data["relators"] = {"indices": indices, "labels": [labels[k] for k in indices]}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "verify", str(cert_path))
    assert code == 1 and out == ""
    assert err == "error: relator indices are not strictly increasing\n"


def test_verify_refuses_a_presentation_that_expands_to_terabytes(capsys, tmp_path, good_certificates):
    # the hash binds the text only to itself; expanded, t^1000000000000 is 8 TB
    data = json.loads(good_certificates["z3"])
    text = "gens: t\nrel: t^1000000000000\n"
    data["presentation"] = {"text": text, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "verify", str(cert_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "letters" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [["verify"], ["certify", "--preset", "z3", "--radius", "1", "--solution"]],
    ids=["verify", "certify_solution"],
)
def test_deeply_nested_json_is_an_error(capsys, tmp_path, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000)
    code, out, err = _run(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("depth", [500, 5000])
@pytest.mark.parametrize("opening", ["(", "["])
def test_deeply_nested_presentation_is_an_error(capsys, tmp_path, good_certificates, opening, depth):
    inner = "(" * depth + "a" + ")" * depth if opening == "(" else "[a, " * depth + "b" + "]" * depth
    text = f"gens: a, b\nrel: {inner}\n"
    path = tmp_path / "deep.txt"
    path.write_text(text)
    # verify reads a certificate whose text only has to match its own hash
    data = json.loads(good_certificates["z3"])
    data["presentation"] = {"text": text, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(data))
    for argv in (["show", "--file", str(path), "--model", "free"], ["verify", str(cert_path)]):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        # the 101st bracket is at column 106 of "rel: (((..." and 406 of "rel: [a, [a, ..."
        column = 106 if opening == "(" else 406
        assert err == f"error: line 2, column {column}: brackets nested more than 100 deep\n"


def test_verify_refuses_a_free_model_whose_soundness_is_not_a_bool(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = _run(
        capsys, "pipeline", "--preset", "free:2", "--radius", "1", "--max-iter", "50",
        "--out", str(cert_path),
    )
    assert code == 0
    code, _, _ = _run(capsys, "verify", str(cert_path))
    assert code == 0
    data = json.loads(cert_path.read_text())
    assert data["model"]["sound"] is True
    data["model"]["sound"] = 1
    cert_path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "verify", str(cert_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "soundness" in err


@pytest.mark.parametrize(
    "path",
    [["presentation"], ["model"], ["relators"], ["basis"], ["solver_lambda"],
     ["certified_lambda0"], ["residual_l1_sup"], ["status"], ["q"],
     ["presentation", "sha256"], ["relators", "labels"], ["basis", "keys"],
     ["basis", "radius"], ["q", "rows"]],
    ids=".".join,
)
def test_verify_names_a_missing_field(capsys, tmp_path, good_certificates, path):
    data = json.loads(good_certificates["z3"])
    *outer, last = path
    section = data
    for key in outer:
        section = section[key]
    del section[last]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "verify", str(cert_path))
    assert code == 1 and out == ""
    assert err == f"error: malformed certificate: no field {last!r}\n"


def test_verify_charges_coefficients_outside_the_basis_products(capsys, tmp_path):
    # over the basis {e}, Q = 2 meets 5 + 2t + 2t^2 - 1 on e alone: 2t and
    # 2t^2 lie outside every product and cost 4
    p, model = load_preset("z3")
    basis = SupportBasis(model, [model.identity()])
    result = certified_gap(laplacian1(model, p), basis, np.array([[2.0]]), 1.0)
    path = tmp_path / "cert.json"
    result.certificate.save(path)
    data = json.loads(path.read_text())
    assert data["basis"] == {"radius": None, "keys": [0]}
    code, out, _ = _run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["reverified_lambda0"] <= -3
    # the claims of a certifier that charged only the coefficients on e
    data.update(certified_lambda0="0.5", status="certified-positive", residual_l1_sup="0.5")
    path.write_text(json.dumps(data))
    code, out, _ = _run(capsys, "verify", str(path))
    assert code == 1 and json.loads(out)["passed"] is False


def test_verify_checks_the_model_against_the_presentation(capsys, tmp_path):
    # t^3 is not the identity of Z/4, yet the library certifies there
    p, _ = load_preset("z3")
    model = CyclicModel(4)
    lap = laplacian1(model, p)
    basis = ball(model, 1)
    sol = solve(build_problem(lap, basis), SolveOptions(max_iter=3000))
    result = certified_gap(lap, basis, psd_sqrt(sol.P), sol.lam)
    assert result.lambda0 > 2.749
    path = tmp_path / "cert.json"
    result.certificate.save(path)
    code, out, err = _run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err == "error: relator rel0 does not evaluate to the identity\n"


def test_certify_accepts_external_q(capsys, tmp_path):
    # externally produced exact square root of the optimal z3 Gram matrix
    sol = {"lambda": 3.0, "Q": [[(2.0 / 3.0) ** 0.5 / 3 ** 0.5] * 3] * 3}
    sol_path = tmp_path / "ext.json"
    sol_path.write_text(json.dumps(sol))
    code, out, _ = _run(
        capsys,
        "certify", "--preset", "z3", "--radius", "1",
        "--solution", str(sol_path), "--require-gap",
    )
    assert code == 0
    assert json.loads(out)["lambda0"] > 2.99


def test_certify_rejects_overclaimed_lambda(capsys, tmp_path):
    sol = {"lambda": 4.0, "Q": [[0.0] * 3] * 3}
    sol_path = tmp_path / "bad.json"
    sol_path.write_text(json.dumps(sol))
    code, out, _ = _run(
        capsys,
        "certify", "--preset", "z3", "--radius", "1",
        "--solution", str(sol_path), "--require-gap",
    )
    assert code == 1


@pytest.mark.parametrize(
    "lam", [None, [1], True, False, "3.0", {"value": 3.0}, float("nan"), float("inf"), 10 ** 400],
    ids=["null", "list", "true", "false", "string", "object", "nan", "inf", "huge_int"],
)
def test_certify_requires_lambda_to_be_a_finite_number(capsys, tmp_path, lam):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"lambda": lam, "Q": [[0.0] * 3] * 3}))
    code, out, err = _run(capsys, "certify", "--preset", "z3", "--radius", "1", "--solution", str(sol_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: solution {sol_path}: 'lambda' must be a finite JSON number")


def test_certify_takes_an_integer_lambda(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"lambda": 0, "Q": [[0.0] * 3] * 3}))
    code, out, _ = _run(capsys, "certify", "--preset", "z3", "--radius", "1", "--solution", str(sol_path))
    assert code == 0 and json.loads(out)["lambda"] == 0.0


_MATRIX = "must be a list of equal-length lists of finite JSON numbers"


@pytest.mark.parametrize(
    "fields,message",
    [
        pytest.param({"P": {"a": 1}}, f"'P' {_MATRIX}", id="p_object"),
        pytest.param({"Q": [["1.5", "0", "0"]]}, f"'Q' {_MATRIX}", id="q_strings"),
        pytest.param({"Q": [[True, False, False]]}, f"'Q' {_MATRIX}", id="q_bools"),
        pytest.param({"Q": [[1.0, 0.0, 0.0], [1.0]]}, f"'Q' {_MATRIX}", id="q_ragged"),
        pytest.param({"Q": [1.0, 0.0, 0.0]}, f"'Q' {_MATRIX}", id="q_flat"),
        pytest.param({"Q": [[10 ** 400, 0, 0]]}, f"'Q' {_MATRIX}", id="q_huge_int"),
        pytest.param({"P": [[float("nan")] * 3] * 3}, f"'P' {_MATRIX}", id="p_nan"),
        pytest.param({}, "must have exactly one of 'P' and 'Q'", id="neither"),
        pytest.param({"P": [[1.0, 0.0, 0.0]] * 3, "Q": [[0.0] * 3]},
                     "must have exactly one of 'P' and 'Q'", id="both"),
    ],
)
def test_certify_checks_the_solution_matrix(capsys, tmp_path, fields, message):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"lambda": 1.0, **fields}))
    code, out, err = _run(capsys, "certify", "--preset", "z3", "--radius", "1", "--solution", str(sol_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: solution {sol_path}") and message in err


def test_certify_takes_integer_matrix_entries(capsys, tmp_path):
    for name, rows in (("P", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), ("Q", [[1, 0, 0]])):
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps({"lambda": 0, name: rows}))
        code, out, _ = _run(capsys, "certify", "--preset", "z3", "--radius", "1", "--solution", str(sol_path))
        assert code == 0 and json.loads(out)["lambda"] == 0.0


def test_certify_names_a_missing_lambda(capsys, tmp_path):
    sol_path = tmp_path / "no-lambda.json"
    sol_path.write_text(json.dumps({"Q": [[0.0] * 3]}))
    code, _, err = _run(capsys, "certify", "--preset", "z3", "--radius", "1", "--solution", str(sol_path))
    assert code == 1 and err == f"error: solution {sol_path} has no 'lambda' field\n"


def test_file_input_needs_free_model(capsys, tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text("gens: a, b\n")
    code, _, err = _run(capsys, "show", "--file", str(path))
    assert code == 1 and "--model free" in err
    code, out, _ = _run(capsys, "show", "--file", str(path), "--model", "free")
    assert code == 0


def test_file_with_duplicate_relator_labels_exits_1(capsys, tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text("gens: a\nrel x: a^2\nrel x: a^3\n")
    code, out, err = _run(capsys, "show", "--file", str(path), "--model", "free")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "duplicate relator label" in err


def test_model_override_modular(capsys):
    code, out, _ = _run(capsys, "show", "--preset", "sl3z", "--model", "modular:2")
    assert code == 0
    assert json.loads(out)["model"]["modulus"] == 2


def test_model_matrix_refuses_a_modular_preset(capsys):
    code, out, err = _run(capsys, "show", "--preset", "sl3z-mod:2", "--model", "matrix")
    assert code == 1 and out == ""
    assert err == "error: --model matrix needs a matrix preset without a modulus\n"
    code, out, _ = _run(capsys, "show", "--preset", "sl3z", "--model", "matrix")
    assert code == 0 and json.loads(out)["model"]["type"] == "matrix"


def test_exclude_relator_by_label(capsys):
    code, out_all, _ = _run(
        capsys, "laplacian", "--preset", "sl3z", "--exclude-relator", "none"
    )
    assert code == 0
    code, out_named, _ = _run(
        capsys, "laplacian", "--preset", "sl3z", "--exclude-relator", "torsion"
    )
    assert code == 0
    code, out_default, _ = _run(capsys, "laplacian", "--preset", "sl3z")
    assert code == 0
    # dropping the longest relator by name matches the default policy
    assert out_named == out_default != out_all
    code, _, err = _run(
        capsys, "laplacian", "--preset", "sl3z", "--exclude-relator", "nope"
    )
    assert code == 1 and err == "error: no relator labeled 'nope'\n"


def test_exclude_relator_default_is_a_label(capsys, tmp_path):
    # only a missing option selects the default policy, which here drops big
    path, only_big = tmp_path / "p.txt", tmp_path / "big.txt"
    path.write_text("gens: a\nrel default: a^3\nrel big: a^5\n")
    only_big.write_text("gens: a\nrel big: a^5\n")

    def laplacian(f, *policy):
        code, out, _ = _run(capsys, "laplacian", "--file", str(f), "--model", "free", *policy)
        assert code == 0
        return out

    dropped_default = laplacian(path, "--exclude-relator", "default")
    assert dropped_default == laplacian(only_big, "--exclude-relator", "none")
    assert laplacian(path) == laplacian(path, "--exclude-relator", "big") != dropped_default


def test_exclude_relator_is_described_alike_by_every_command(capsys):
    described = set()
    for argv in (["laplacian"], ["sdp", "build"], ["pipeline"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        option = out[out.index("\n  --exclude-relator"):].split("\n  -")[1]
        described.add(" ".join(option.split()))
    assert len(described) == 1 and "(default: longest" in described.pop()


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["sdp"])  # missing action
    assert exc.value.code == 2


def test_closed_pipe_exits_quietly():
    # the sl3z radius-3 ball is far more JSON than a pipe buffer holds, so
    # the writer is still printing when the reader goes away
    src = str(Path(gapcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gapcert", "ball", "--preset", "sl3z", "--radius", "3", "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_closed_pipe_wins_over_other_os_errors():
    # a broken pipe is an OSError, but must end as quietly as above: the
    # line-by-line text of the sl3z radius-4 ball outgrows a pipe buffer
    src = str(Path(gapcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gapcert", "ball", "--preset", "sl3z", "--radius", "4"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"[[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    ["verify", "show --file", "certify --preset z3 --radius 1 --solution",
     "pipeline --preset z3 --radius 1 --out", "sdp export --preset z3 --radius 1 --export"],
)
def test_a_directory_in_place_of_a_file_is_an_error(capsys, tmp_path, argv):
    code, out, err = _run(capsys, *argv.split(), str(tmp_path))
    assert code == 1 and out == ""
    assert "\nerror: " in "\n" + err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    ["pipeline --preset z3 --radius 1 --out", "sdp solve --preset z3 --radius 1 --out",
     "sdp solve --preset z3 --radius 1 --export"],
)
def test_an_unwritable_output_fails_before_the_solve(capsys, tmp_path, argv):
    code, out, err = _run(capsys, *argv.split(), str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "iter " not in err  # no solver progress line


def test_the_output_check_keeps_an_existing_file_and_leaves_no_new_one(capsys, tmp_path):
    kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
    kept.write_bytes(b"old")
    # the solution path is checked first; then the export path fails, and no solve runs
    for path in (kept, absent):
        code, _, err = _run(capsys, "sdp", "solve", "--preset", "z3", "--radius", "1",
                            "--out", str(path), "--export", str(tmp_path))
        assert code == 1 and "iter " not in err
    assert kept.read_bytes() == b"old" and not absent.exists()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_solve_with_no_iterations_is_a_usage_error(capsys):
    args = ("sdp", "solve", "--preset", "z3", "--radius", "1")
    with pytest.raises(SystemExit) as exc:
        main([*args, "--max-iter", "0"])
    assert exc.value.code == 2
    assert "--max-iter" in capsys.readouterr().err
    code, out, _ = _run(capsys, *args, "--max-iter", "1")
    assert code == 0
    payload = _strict_json(out)
    assert payload["iterations"] == 1 and payload["status"] == "max-iter"


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_tolerance_must_be_finite_and_positive(capsys, tol):
    # no residual is ever <= nan or <= -1: such a run would only stop at --max-iter
    for command in (("sdp", "solve"), ("pipeline",)):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--preset", "z3", "--radius", "1", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,option,expected",
    [
        (("sdp", "solve", "--radius", "1", "--tol", "abc"), "--tol", "expected a number"),
        (("pipeline", "--radius", "1", "--tol", "1e-x"), "--tol", "expected a number"),
        (("ball", "--radius", "two"), "--radius", "expected an integer"),
        (("sdp", "build", "--radius", "1.5"), "--radius", "expected an integer"),
        (("sdp", "solve", "--radius", "1", "--max-iter", "many"), "--max-iter",
         "expected an integer"),
    ],
)
def test_non_numeric_option_is_a_plain_usage_error(capsys, args, option, expected):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--preset", "z3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: {expected}" in err
    # argparse names a type function that raises ValueError: "invalid parse value"
    assert not any(name in err for name in ("invalid", "_tolerance", "_at_least", "parse"))


@pytest.mark.parametrize(
    "name", ["z3-r1-certificate.json", "sl3z-mod2-r1-certificate.json"]
)
def test_committed_certificates_of_an_earlier_release_verify(capsys, name):
    # made by the release before the single aggregate rounding radius; the
    # bound recomputed now must be at least the one they store
    path = Path(__file__).parent / "data" / name
    code, out, _ = _run(capsys, "verify", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["reverified_lambda0"] >= payload["stored_lambda0"]


@pytest.mark.parametrize(
    "name", ["z3-r1-certificate.json", "sl3z-mod2-r1-certificate.json"]
)
def test_committed_certificates_round_trip_byte_for_byte(name):
    path = Path(__file__).parent / "data" / name
    cert = Certificate.load(path)
    assert "q" not in cert.fields  # Q is held once, as doubles
    assert cert.to_bytes() == path.read_bytes()


def test_certificate_fields_keep_their_order_and_q_goes_last(capsys, tmp_path):
    data = json.loads((Path(__file__).parent / "data" / "z3-r1-certificate.json").read_bytes())
    rest = {k: v for k, v in data.items() if k not in ("q", "format")}
    moved = {"q": data["q"], **rest, "format": data["format"]}
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(moved))
    written = json.loads(Certificate.load(path).to_bytes())
    assert written == moved and list(written) == [*rest, "format", "q"]
    code, out, _ = _run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["passed"] is True


def test_negative_radius_is_a_usage_error(capsys):
    for command in (("ball",), ("sdp", "build"), ("pipeline",)):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--preset", "z3", "--radius", "-1"])
        assert exc.value.code == 2
        assert "--radius" in capsys.readouterr().err
    code, out, _ = _run(capsys, "ball", "--preset", "z3", "--radius", "0")
    assert code == 0 and out.split() == ["0"]


def test_streamed_exports_equal_export_sdpa(capsys, tmp_path, monkeypatch):
    from gapcert import sdp
    from _oracles import first_difference, sdpa_text

    # blocks of 3 lines, so every writer writes many blocks
    monkeypatch.setattr(sdp, "_LINES", 3)
    pres = tmp_path / "free.txt"
    pres.write_text("gens: a, b\n")
    for source in (
        ("--preset", "sl3z-mod:2", "--radius", "1"),
        ("--file", str(pres), "--model", "free", "--radius", "2"),
    ):
        path = tmp_path / "export.dat-s"
        code, out, _ = _run(capsys, "sdp", "export", *source, "--export", str(path))
        assert code == 0 and json.loads(out)["written"] == str(path)
        expected = path.read_bytes().decode("ascii")
        prob = sdp.import_sdpa(expected)
        assert first_difference(sdp.export_sdpa(prob), expected) is None
        assert first_difference(sdpa_text(prob), expected) is None
        code, out, _ = _run(capsys, "sdp", "export", *source)
        assert code == 0 and first_difference(out, expected) is None
        for argv in (
            ("sdp", "solve", *source, "--max-iter", "1", "--out", str(tmp_path / "sol.json")),
            ("pipeline", *source, "--max-iter", "1", "--out", str(tmp_path / "cert.json")),
        ):
            path.unlink()
            code, _, _ = _run(capsys, *argv, "--export", str(path))
            assert first_difference(path.read_bytes().decode("ascii"), expected) is None


def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch):
    import shlex

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("gapcert ")]
    assert len(lines) >= 9
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = _run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
