"""The call-count tool: two runs count the same calls, and it takes the modeled workloads only."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "calls_per_op.py"
_spec = importlib.util.spec_from_file_location("calls_per_op", TOOL)
calls_per_op = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calls_per_op)


def test_two_runs_count_the_same_calls_per_round_trip(capsys):
    printed = []
    for _ in range(2):
        assert calls_per_op.main(["--workload", "pingpong-modeled", "--n", "50"]) == 0
        printed.append(capsys.readouterr().out.splitlines())
    (calls, timing), (again, _) = printed
    assert calls == again
    assert calls.startswith("pingpong-modeled: ") and calls.endswith(
        " calls per warm round trip (cProfile, 50 round trips)")
    assert 100 < int(calls.split()[1]) < 1000
    assert timing.endswith("us per warm round trip, unscaled (best of 7 x 50)")


def test_a_socket_workload_is_refused():
    with pytest.raises(SystemExit):
        calls_per_op.main(["--workload", "pingpong-tcp", "--n", "50"])
    with pytest.raises(ValueError, match="not one of"):
        calls_per_op.measure("push-tree", 50)
