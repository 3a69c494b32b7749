import json

import pytest

from gapcert.cli import main


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
    code, _, err = _run(capsys, "show")
    assert code == 1 and "exactly one" in err
    code, _, err = _run(capsys, "show", "--preset", "z3", "--file", "x")
    assert code == 1


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


def test_laplacian_json_round_trip(capsys):
    from gapcert.ring import RingMatrix

    code, out, _ = _run(capsys, "laplacian", "--preset", "z3")
    assert code == 0
    mat = RingMatrix.from_json(json.loads(out))
    assert mat.n_rows == 1
    assert float(mat.l1()) == 9.0


def test_sdp_build_stats(capsys):
    code, out, _ = _run(
        capsys, "sdp", "build", "--preset", "z3", "--radius", "1"
    )
    assert code == 0
    stats = json.loads(out)
    assert stats == {"n": 1, "basis_size": 3, "products": 3, "constraints": 3}


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
    """Certificate JSON by preset, from one radius-1 pipeline run each."""
    out = {}
    for preset in ("z3", "sl3z-mod:2"):
        path = tmp_path_factory.mktemp("cert") / "cert.json"
        code = main(["pipeline", "--preset", preset, "--radius", "1", "--out", str(path)])
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
    ],
)
def test_verify_rejects_malformed_certificate(capsys, tmp_path, good_certificates, preset, edit):
    data = json.loads(good_certificates[preset])
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(edit(data) or data))
    code, out, err = _run(capsys, "verify", str(cert_path))
    assert code == 1 and out == ""
    assert err.startswith("error:")


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


def test_exclude_relator_by_label(capsys):
    from gapcert.ring import RingMatrix

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
    assert code == 1 and "nope" in err


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["sdp"])  # missing action
    assert exc.value.code == 2
