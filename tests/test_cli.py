import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import agentway
from agentway import bench
from agentway.cli import main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestUsage:
    def test_no_command_is_exit_1(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_exit_1(self, capsys):
        assert main(["push", "--topology", "x.json"]) == 1  # no --code/--kind

    @pytest.mark.parametrize("argv", [
        ["push", "--topology", "t.json", "--code", "c", "--kind", "K", "--protocol=udp"],
        ["push", "--topology", "t.json", "--code", "c", "--kind", "K", "--compress"],
        ["push", "--topology", "t.json", "--code", "c", "--kind", "K", "--buffer-size=1"],
        ["serve", "--config", "c.json", "--buffer-size=1"],
        ["launch", "--config", "c.json", "--kind", "K", "--itinerary", "10.0.0.1:1", "--buffer-size=1"],
        ["bench-pingpong", "--buffer-size=1"],
        ["serve", "--config", "c.json", "--protocol=tcp"],
        ["launch", "--config", "c.json", "--kind", "K", "--itinerary", "10.0.0.1:1", "--protocol=tcp"],
        ["bench-pingpong", "--protocol=tcp"],
    ], ids=lambda argv: argv[0] + argv[-1].split("=")[0])
    def test_flags_that_were_removed_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_usage_error_opens_no_sockets(self, monkeypatch, capsys):
        def forbidden(*a, **kw):
            raise AssertionError("socket opened during a usage error")

        monkeypatch.setattr(socket, "socket", forbidden)
        monkeypatch.setattr(socket, "create_connection", forbidden)
        assert main(["launch", "--itinerary", "10.0.0.1:1"]) == 1  # missing --config

    def test_missing_file_is_runtime_failure(self, tmp_path, capsys):
        assert main(["push", "--topology", str(tmp_path / "nope.json"),
                     "--code", "also-nope", "--kind", "K"]) == 2


class TestBenchCommands:
    def test_bench_size_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sizes.csv"
        assert main(["bench-size", "--out", str(out)]) == 0
        text = out.read_text()
        assert "non-optimised composite" in text and "178" in text
        assert "59.0" in text

    def test_bench_pingpong_small_run(self, tmp_path, capsys):
        config = write_json(tmp_path / "bench.json",
                            {"repetitions": 3, "warmup": 1, "mode": "modeled"})
        out = tmp_path / "runs.csv"
        assert main(["bench-pingpong", "--config", config,
                     "--out", str(out), "--format", "csv"]) == 0
        assert out.read_text().count("\n") >= 4  # header + 3 runs
        stdout = capsys.readouterr().out
        assert "share_pct" in stdout

    def test_bench_crossover_prints_verdicts(self, tmp_path, capsys):
        config = write_json(tmp_path / "x.json", {
            "state_bytes": [4000],
            "bandwidths_bps": [64000, 10000000],
            "reps": 5,
        })
        assert main(["bench-crossover", "--config", config]) == 0
        stdout = capsys.readouterr().out
        assert "4000B state" in stdout

    def test_report_summarizes_a_csv(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        timings = bench.run_pingpong(bench.RunConfig(repetitions=3, warmup=1))
        bench.emit_report(timings, str(runs), "csv")
        assert main(["report", "--in", str(runs)]) == 0
        assert "p3_transfer_AtoB" in capsys.readouterr().out

    def test_report_on_empty_csv_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["report", "--in", str(empty)]) == 2


class TestConfigFiles:
    def test_keys_a_file_leaves_out_take_the_library_defaults(self, monkeypatch):
        import argparse
        from dataclasses import dataclass, field

        from agentway import cli
        from agentway.agency import Agency
        from agentway.transport import LinkModel

        @dataclass
        class RunConfig(bench.RunConfig):
            repetitions: int = 7
            link: LinkModel = field(default_factory=lambda: LinkModel(64_000, 0.002))

        class SmallCacheAgency(Agency):
            def __init__(self, *args, cache_capacity=3, cache_byte_limit=999, **kwargs):
                super().__init__(*args, cache_capacity=cache_capacity,
                                 cache_byte_limit=cache_byte_limit, **kwargs)

        monkeypatch.setattr(bench, "RunConfig", RunConfig)
        monkeypatch.setattr(cli, "Agency", SmallCacheAgency)
        args = argparse.Namespace()
        config = cli._run_config_from({"warmup": 2, "link": {"latency_s": 0.005}}, args)
        assert (config.repetitions, config.warmup) == (7, 2)
        assert config.link == LinkModel(64_000, 0.005)
        agency = cli._build_agency({"bind": "127.0.0.1:0", "cache_byte_limit": 5000}, args)
        agency.stop()
        assert (agency.cache.capacity, agency.cache.byte_limit) == (3, 5000)

    def test_unknown_transport_keys_are_a_usage_error(self, tmp_path, capsys):
        config = write_json(tmp_path / "bench.json", {
            "repetitions": 1,
            "transport": {"ack_timeout_s": 0.5, "buffer_size": 8192, "compress_level": 6, "no_delay": True},
        })
        assert main(["bench-pingpong", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            'error: unknown "transport" key(s) in config: ack_timeout_s, buffer_size, compress_level')
        assert "Traceback" not in err

    def test_udp_is_refused_everywhere_with_one_message(self, tmp_path, capsys, monkeypatch):
        import argparse
        import dataclasses

        from agentway import cli
        from agentway.distribution import Topology
        from agentway.transport import TransportOpts

        topology = {"segments": {"s": ["10.0.0.1:1"]}, "manager": "10.0.0.1:1", "protocol": "udp"}
        messages = []
        for refused in (lambda: TransportOpts(protocol="udp"), lambda: Topology.from_dict(topology)):
            with pytest.raises(ValueError, match="UDP was removed") as info:
                refused()
            messages.append(str(info.value))
        def started(agency):  # serve would then wait for SIGINT
            raise AssertionError("serve started an agency on a refused config")

        monkeypatch.setattr(cli.Agency, "start", started)
        config = write_json(tmp_path / "serve.json", {"bind": "127.0.0.1:0", "transport": {"protocol": "udp"}})
        assert main(["serve", "--config", config]) == 1
        assert messages[0] == messages[1]
        assert capsys.readouterr().err == f"error: {messages[0]}\n"
        # "tcp" is still taken, from a config and from the benchmark's own call, and is no field
        assert cli._opts_from({"transport": {"protocol": "tcp"}}, argparse.Namespace()) == TransportOpts()
        assert TransportOpts(protocol="tcp", no_delay=True, compress=True) == TransportOpts(no_delay=True, compress=True)
        assert [f.name for f in dataclasses.fields(TransportOpts)] == ["no_delay", "compress", "connect_timeout_s"]
        assert Topology.from_dict(dict(topology, protocol="tcp")).manager.port == 1

    @pytest.mark.parametrize("command", ["launch", "bench-pingpong", "push"])
    def test_a_file_that_names_udp_is_exit_1_before_any_socket(self, tmp_path, capsys, monkeypatch, command):
        def forbidden(*a, **kw):
            raise AssertionError("socket opened for a refused config")

        monkeypatch.setattr(socket, "socket", forbidden)
        monkeypatch.setattr(socket, "create_connection", forbidden)
        config = write_json(tmp_path / "config.json", {"bind": "127.0.0.1:0", "transport": {"protocol": "udp"}})
        topology = write_json(tmp_path / "topology.json", {
            "segments": {"s": ["10.0.0.1:1"]}, "manager": "10.0.0.1:1", "protocol": "udp"})
        argv = {
            "launch": ["launch", "--config", config, "--kind", "K", "--itinerary", "10.0.0.1:1"],
            "bench-pingpong": ["bench-pingpong", "--config", config],
            "push": ["push", "--topology", topology, "--code", str(tmp_path / "no-code"), "--kind", "K"],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: protocol must be 'tcp', not 'udp': UDP was removed\n"

    @pytest.mark.parametrize("value", [0, -1.0, float("inf"), 1e12, 1e300])  # json writes and reads inf as Infinity
    def test_a_timeout_that_is_not_a_positive_finite_number_is_exit_1(self, tmp_path, capsys, value):
        config = write_json(tmp_path / "bench.json", {"repetitions": 1, "transport": {"connect_timeout_s": value}})
        assert main(["bench-pingpong", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: connect_timeout_s must be a positive finite number")
        assert "Traceback" not in err


def serve_agency(tmp_path, name, port=0, behaviors=None):
    """Start a real-socket agency from a config file; returns (agency, endpoint)."""
    from agentway.cli import _build_agency
    import argparse

    config = {
        "bind": f"127.0.0.1:{port}",
        "host_name": name,
        "behaviors": behaviors or [{"kind": "MAExample", "behavior": "collector"}],
    }
    agency = _build_agency(config, argparse.Namespace())
    agency.start()
    return agency, agency.bind


class TestEndToEnd:
    def test_push_over_loopback_installs_remotely(self, tmp_path, capsys):
        a, ep_a = serve_agency(tmp_path, "origin")
        b, ep_b = serve_agency(tmp_path, "remote")
        code_file = tmp_path / "agent.bin"
        code_file.write_bytes(b"\xfa\xce" * 100)
        topology = write_json(tmp_path / "topo.json", {
            "segments": {"lan": [str(ep_a), str(ep_b)]},
            "manager": str(ep_a),
        })
        try:
            assert main(["push", "--topology", topology, "--code", str(code_file),
                         "--kind", "MAExample"]) == 0
            pushed = capsys.readouterr().out
            assert "ok" in pushed
            assert b.lookup_code("MAExample") is not None
        finally:
            a.stop()
            b.stop()

    def test_launch_completes_round_trip(self, tmp_path, capsys):
        from agentway.agency import CodeImage

        b, ep_b = serve_agency(tmp_path, "remote")
        code_file = tmp_path / "agent.bin"
        code_file.write_bytes(b"\xfa\xce" * 100)
        b.install_code(CodeImage.from_code("MAExample", code_file.read_bytes()))
        origin_config = write_json(tmp_path / "origin.json", {
            "bind": "127.0.0.1:0",
            "behaviors": [{"kind": "MAExample", "behavior": "collector"}],
        })
        try:
            rc = main(["launch", "--config", origin_config, "--code", str(code_file),
                       "--kind", "MAExample", "--itinerary", str(ep_b)])
            out = capsys.readouterr().out
        finally:
            b.stop()
        assert rc == 0
        assert "remote" in out  # the collector picked up the remote host's name

    def test_launch_refuses_when_target_lacks_code(self, tmp_path, capsys):
        b, ep_b = serve_agency(tmp_path, "remote")
        code_file = tmp_path / "agent.bin"
        code_file.write_bytes(b"\x01\x02\x03")
        origin_config = write_json(tmp_path / "origin.json", {
            "bind": "127.0.0.1:0",
            "behaviors": [{"kind": "MAExample", "behavior": "collector"}],
        })
        try:
            rc = main(["launch", "--config", origin_config, "--code", str(code_file),
                       "--kind", "MAExample", "--itinerary", str(ep_b)])
            err = capsys.readouterr().err
        finally:
            b.stop()
        assert rc == 2
        assert "push first" in err

    def test_launch_that_the_agency_refuses_is_exit_2(self, tmp_path, capsys):
        from agentway.agency import CodeImage

        b, ep_b = serve_agency(tmp_path, "remote")
        code_file = tmp_path / "agent.bin"
        code_file.write_bytes(b"\xfa\xce" * 100)
        b.install_code(CodeImage.from_code("MAExample", code_file.read_bytes()))
        origin_config = write_json(tmp_path / "origin.json", {"bind": "127.0.0.1:0"})  # no behaviors
        try:
            rc = main(["launch", "--config", origin_config, "--code", str(code_file),
                       "--kind", "MAExample", "--itinerary", str(ep_b)])
            err = capsys.readouterr().err
        finally:
            b.stop()
        assert rc == 2
        assert "error: no behavior registered for 'MAExample'" in err

    def test_agent_that_fails_remotely_is_exit_2(self, tmp_path, capsys):
        from agentway.agency import Behavior, CodeImage

        def boom(state, ctx):
            raise RuntimeError("kaboom")

        b, ep_b = serve_agency(tmp_path, "remote")
        schema = list(bench.optimised_record().fields)
        b.register_behavior("MAExample", Behavior("boom", schema, boom, boom))
        code_file = tmp_path / "agent.bin"
        code_file.write_bytes(b"\xfa\xce" * 100)
        b.install_code(CodeImage.from_code("MAExample", code_file.read_bytes()))
        origin_config = write_json(tmp_path / "origin.json", {
            "bind": "127.0.0.1:0",
            "behaviors": [{"kind": "MAExample", "behavior": "collector"}],
        })
        try:
            rc = main(["launch", "--config", origin_config, "--code", str(code_file),
                       "--kind", "MAExample", "--itinerary", str(ep_b)])
            err = capsys.readouterr().err
        finally:
            b.stop()
        assert rc == 2
        assert "agent failed: kaboom" in err


class TestServeCommand:
    def test_serve_takes_a_push_and_a_launch_and_exits_0_on_sigint(self, tmp_path, capsys):
        config = write_json(tmp_path / "serve.json", {
            "bind": "127.0.0.1:0",
            "host_name": "served",
            "behaviors": [{"kind": "MAExample", "behavior": "collector"}],
        })
        env = dict(os.environ, AGENTWAY_LOG="INFO",
                   PYTHONPATH=str(Path(agentway.__file__).resolve().parent.parent))
        proc = subprocess.Popen([sys.executable, "-m", "agentway.cli", "serve", "--config", config],
                                stderr=subprocess.PIPE, text=True, env=env)
        try:
            ready, _, _ = select.select([proc.stderr], [], [], 30)
            assert ready, "serve printed nothing"
            served = re.search(r"serving on (\S+)$", proc.stderr.readline().strip()).group(1)
            code_file = tmp_path / "agent.bin"
            code_file.write_bytes(b"\xfa\xce" * 100)
            topology = write_json(tmp_path / "topo.json", {
                "segments": {"lan": ["127.0.0.1:1", served]},  # the manager is never sent to
                "manager": "127.0.0.1:1",
            })
            assert main(["push", "--topology", topology, "--code", str(code_file),
                         "--kind", "MAExample"]) == 0
            assert f"{served}  ok" in capsys.readouterr().out
            origin = write_json(tmp_path / "origin.json", {
                "bind": "127.0.0.1:0",
                "behaviors": [{"kind": "MAExample", "behavior": "collector"}],
            })
            assert main(["launch", "--config", origin, "--code", str(code_file),
                         "--kind", "MAExample", "--itinerary", served]) == 0
            assert "served" in capsys.readouterr().out  # the collector visited the served agency
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
            assert "Traceback" not in proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
