"""Smoke test of the benchmark on the z3 radius-1 instance."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import gapbench

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "z3-r1",
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_present_with_its_unit(trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_tampered_certificate_raises_fail_ratio(tmp_path):
    wl = gapbench.WORKLOADS["z3-r1"]
    inst = gapbench.setup(wl, 0)
    gate = gapbench.Gate()
    cert = tmp_path / "cert.json"
    gapbench.run_chain(inst, wl, gapbench.NoTrace(), gate, cert)
    assert gate.attempted == 1 and gate.fail_ratio == 0.0
    data = json.loads(cert.read_text())
    q = data["q"]["entries"]
    q[0][0] = repr(float(q[0][0]) + 0.1)
    cert.write_text(json.dumps(data))
    gapbench.verify_stage(cert, gapbench.NoTrace(), gate)
    assert gate.attempted == 2 and gate.fail_ratio == 0.5
