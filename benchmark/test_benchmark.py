"""Self-test of the benchmark: brief runs of every workload, and failures that must count.

    PYTHONPATH=src python3 -m pytest benchmark -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from agentway import agency, wire  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("benchmark") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_brief_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if trace and workload == "push-tree":
        assert result["metrics"]["distribution.inter_segment_code_frames"]["value"] == 2


def start(workload: str, seed: int = 1):
    return workloads.WORKLOADS[workload](workloads.Inputs(workload, seed))()


@pytest.mark.parametrize("workload", ["pingpong-modeled", "push-tree"])
def test_wire_bytes_per_op_repeat_across_seeds(workload):
    per_op = set()
    for seed in (1, 2):
        rig = start(workload, seed)
        try:
            ops, before = run.Ops(), rig.wire_bytes()
            run.run_phase(rig, 0.2, ops)
            per_op.add((rig.wire_bytes() - before) / ops.attempted)
        finally:
            rig.close()
        assert ops.failed == 0
    assert len(per_op) == 1


def test_host_missing_code_is_a_failed_op():
    rig = start("pingpong-modeled")
    try:
        rig.agencies[1].cache = agency.CodeCache()  # B loses the pushed image
        ops = run.Ops()
        run.run_phase(rig, 0.05, ops)
    finally:
        rig.close()
    assert ops.attempted > 0 and ops.failed == ops.attempted
    assert all(f"code {wire.ERR_CODE_MISSING}" in error for error in ops.errors)


def test_unreachable_host_fails_every_push():
    rig = start("push-tree")
    try:
        rig.agencies[-1].stop()  # a host behind a relay goes away
        ops = run.Ops()
        run.run_phase(rig, 0.05, ops)
    finally:
        rig.close()
    assert ops.attempted > 0 and ops.failed == ops.attempted
    assert all("10/11 hosts acked" in error for error in ops.errors)


def test_inputs_follow_the_seed():
    a, b, c = (workloads.Inputs("w", seed) for seed in (1, 1, 2))
    assert a.agent_id() == b.agent_id() != c.agent_id()
    text = a.state_text()
    assert text == b.state_text() != c.state_text()
    assert len(text) == workloads.STATE_TEXT_CHARS
    ratio = len(text) / len(wire.compress_payload(text.encode()))
    assert 2.0 < ratio < 4.0  # prose-like, not a repeated pattern


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "pingpong-modeled", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
