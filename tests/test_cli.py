import json
import socket

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
