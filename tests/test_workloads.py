"""The benchmark's ``Waiter`` swaps an agency's ``completions`` and ``failures``
for dicts of its own, so the agency must keep writing to and trimming those very
objects. The benchmark's workloads module is loaded here to check that."""

import importlib.util
import threading
from pathlib import Path

import pytest

from agentway import agency as agency_module
from agentway.agency import AgencyError, Behavior
from conftest import Cluster

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_waiter_wakes_and_the_bound_trims_its_own_dicts(monkeypatch, demo_record, demo_image):
    monkeypatch.setattr(agency_module, "COMPLETIONS_STATE_BYTES", 1)  # one completion at a time
    workloads = load_workloads()
    cluster = Cluster(2)
    cluster.install_everywhere(demo_image, demo_record.fields, behavior="pingpong")
    origin, remote = cluster.agency(0), cluster.agency(1)
    itinerary = [cluster.endpoints[1], cluster.endpoints[0]]
    waiter = workloads.Waiter([origin, remote])
    completions = origin.completions
    try:
        launched = []
        for _ in range(2):
            agent_id = origin.launch(demo_record.copy(), itinerary)
            launched.append(agent_id)
            runner = threading.Thread(target=cluster.network.run)
            with waiter.cond:
                runner.start()
                while not waiter.finished(agent_id):
                    assert waiter.cond.wait(5)  # woken by the agency's write, not timed out
            runner.join(5)
            assert not runner.is_alive()
        assert origin.completions is completions
        assert isinstance(completions, workloads._NotifyingDict)
        assert list(completions) == launched[-1:]  # the first was trimmed, in place

        def boom(state, ctx):
            raise RuntimeError("kaboom")

        remote.register_behavior(demo_record.kind_name,
                                 Behavior("boom", list(demo_record.fields), boom, boom))
        agent_id = origin.launch(demo_record.copy(), itinerary)
        cluster.network.run()
        assert waiter.finished(agent_id)
        assert remote.failures[agent_id] == origin.failures[agent_id] == "kaboom"
        with pytest.raises(AgencyError, match="^kaboom$"):
            origin.wait(agent_id, 1, 0)
    finally:
        cluster.stop()
