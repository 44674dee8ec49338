"""The pairing tool's arithmetic: seed lists, wins, the gain rule, the bound, and
what a failed run leaves out."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LATENCY = {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.25}
RATE = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs(name, values):
    return [{"metrics": {name: {"value": v}}} for v in values]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("301-305") == [301, 302, 303, 304, 305]
    assert bench_pairs.parse_seeds("1,5,9-10") == [1, 5, 9, 10]


def test_clear_gain_on_a_lower_is_better_metric():
    parent = [1600, 1650, 1700, 1620, 1680, 1640, 1660, 1610, 1690, 1630]
    change = [700, 710, 720, 705, 715, 702, 712, 708, 718, 1700]  # the last pair is a loss
    m = bench_pairs.compare(LATENCY, runs("op_p50_us", parent), runs("op_p50_us", change))
    assert (m["pairs"], m["change_wins"]) == (10, 9)
    assert m["gain_shown"] and not m["worse_than_bound"]
    assert m["median_change_pct"] < -50


def test_no_gain_inside_the_parents_spread():
    parent = [100, 120, 90, 110, 105, 95, 115, 85, 125, 100]
    change = [v - 1 for v in parent]  # wins every pair, by less than the parent's quartile spread
    m = bench_pairs.compare(LATENCY, runs("op_p50_us", parent), runs("op_p50_us", change))
    assert m["change_wins"] == 10 and not m["gain_shown"]


def test_worse_than_bound_on_a_higher_is_better_metric():
    parent = [1000.0] * 4
    m = bench_pairs.compare(RATE, runs("ops_per_s", parent), runs("ops_per_s", [740.0] * 4))
    assert m["worse_than_bound"] and m["change_wins"] == 0
    m = bench_pairs.compare(RATE, runs("ops_per_s", parent), runs("ops_per_s", [760.0] * 4))
    assert not m["worse_than_bound"]
    m = bench_pairs.compare(RATE, runs("ops_per_s", parent), runs("ops_per_s", parent))
    assert m["change_wins"] == 0 and not m["gain_shown"]  # ties count for neither side


def test_src_lines_counts_newlines_of_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "agentway"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n\nfour\n")
    (package / "b.py").write_text("x = 1\ny = 2")  # no final newline: wc -l counts 1
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not\ncounted\n")
    assert bench_pairs.src_lines(tmp_path) == 5


def test_a_failed_run_leaves_out_its_own_workload_only():
    def good(values):
        return [{**r, "exit_code": 0, "correct": True} for r in runs("op_p50_us", values)]

    crashed = {"seed": 2, "exit_code": 1, "correct": False, "metrics": {}}
    by_workload = {
        "pingpong-tcp": {"parent": good([650, 660]), "change": [good([640])[0], crashed]},
        "push-tree": {"parent": good([3500, 3600]), "change": good([3000, 3100])},
    }
    summary = bench_pairs.summarise([LATENCY], by_workload)
    assert list(summary) == ["push-tree"]
    assert summary["push-tree"]["op_p50_us"]["change_wins"] == 2


def test_main_compares_the_workloads_that_ran_and_exits_1_on_a_failed_run(tmp_path, monkeypatch):
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]

    def run_once(checkout, workload, seed, seconds):  # the parent's second pingpong-tcp run fails
        if workload == "pingpong-tcp" and seed == 2 and checkout != bench_pairs.ROOT:
            return {"seed": seed, "exit_code": 1, "correct": False, "metrics": {}}
        return {"seed": seed, "exit_code": 0, "correct": True,
                "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "export_commit", lambda rev, dest: "0" * 40)
    head = SimpleNamespace(stdout="1" * 40 + "\n")  # what `git rev-parse HEAD` prints
    monkeypatch.setattr(bench_pairs, "subprocess", SimpleNamespace(run=lambda *args, **kwargs: head))
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--parent", "HEAD", "--seeds", "1-2", "--workdir", str(tmp_path),
                             "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert code == 1
    assert doc["failed_runs"] == ["pingpong-tcp parent seed 2"]
    assert sorted(doc["summary"]) == sorted(w["name"] for w in spec["workloads"] if w["name"] != "pingpong-tcp")


def test_a_runs_seconds_and_windows_come_from_its_samples_line():
    stdout = ("workload pingpong-tcp, seed 901, 10 s, trace 0, on CPU 1\n"
              "samples: 51734 correct ops of 51734 in 9.87 s (50 windows); 10 set-ups\n"
              "unscaled: ops_per_s 5241.6\n")
    assert bench_pairs.parse_samples(stdout) == {"measured_s": 9.87, "windows": 50}
    assert bench_pairs.parse_samples("traced: 9082 ops in 2.50 s; untraced: 12135 ops in 2.68 s\n") == {}


def test_pairs_that_ran_a_different_number_of_windows_are_listed():
    def run(seed, windows):
        return {"seed": seed, "windows": windows}

    by_workload = {
        "pingpong-tcp": {"parent": [run(1, 150), run(2, 150)], "change": [run(1, 150), run(2, 145)]},
        "push-tree": {"parent": [run(1, 150)], "change": [run(1, 150)]},
    }
    assert bench_pairs.unequal_windows(by_workload) == ["pingpong-tcp seed 2: parent 150 windows, change 145"]
