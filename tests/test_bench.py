import statistics

import pytest

from agentway import bench, wire
from agentway.bench import (
    BenchError,
    FieldSpec,
    PhaseTimings,
    RunConfig,
    SizeVariant,
)
from agentway.transport import LinkModel, TransportOpts


class TestStateVariants:
    def test_unknown_field_type(self):
        with pytest.raises(BenchError, match="unknown field type"):
            FieldSpec("x", "quaternion").descriptor()

    def test_pattern_values_have_requested_length(self):
        assert len(FieldSpec("s", "string", size=37).make_value()) == 37
        assert FieldSpec("s", "string", size=4).make_value() == "AGEN"

    def test_sized_variant_hits_target_exactly(self):
        for target in (500, 4000, 32768):
            record = bench.sized_variant(target)
            assert len(wire.encode_state(record)) == target

    def test_composite_sizes_are_pinned(self):
        non_opt = wire.encode_state(bench.non_optimised_record())
        opt = wire.encode_state(bench.optimised_record())
        assert (len(non_opt), len(opt)) == (178, 73)

    def test_explicit_value_wins_over_generated(self):
        assert FieldSpec("s", "string", size=10, value="custom").make_value() == "custom"


class TestPingpongModeled:
    def run(self, **kw):
        kw.setdefault("repetitions", 10)
        kw.setdefault("warmup", 2)
        return bench.run_pingpong(RunConfig(**kw))

    def test_repetition_count_excludes_warmup(self):
        assert len(self.run(repetitions=7, warmup=3)) == 7

    def test_transfer_phases_match_the_link_formula_exactly(self):
        link = LinkModel(10_000_000, 0.001)
        timings = self.run(link=link)
        # both legs carry the same bytes: the demo record's only mutated field
        # ("hop") is transient, so the wire image is identical in each direction
        state = bench.optimised_record()
        state.set("it", ["10.0.0.2:7002", "10.0.0.1:7001"])
        frame_bytes = (len(wire.encode_state(state))
                       + wire.AgentTransferPayload.HEADER_LEN + wire.FRAME_OVERHEAD)
        expected_ns = link.delay_s(frame_bytes) * 1e9
        for t in timings:
            assert t.p3_transfer_AtoB == t.p6_transfer_BtoA
            assert t.p3_transfer_AtoB == pytest.approx(expected_ns, rel=1e-9)

    def test_pre_created_state_zeroes_the_creation_phase(self):
        timings = self.run(pre_create=True)
        assert all(t.p1_create == 0 for t in timings)
        assert all(t.p2_serialize_A > 0 for t in timings)

    def test_residual_is_a_small_slice_of_the_total(self):
        timings = self.run(repetitions=30, warmup=5)
        ratios = [t.residual_ns / t.total_ns for t in timings]
        assert statistics.median(ratios) <= 0.10
        assert all(t.residual_ns >= 0 for t in timings)

    def test_phase_sum_plus_residual_is_the_total(self):
        for t in self.run():
            assert sum(t.phases()) + t.residual_ns == t.total_ns

    def test_slow_link_makes_transfer_dominate(self):
        timings = self.run(link=LinkModel(64_000, 0.01), repetitions=5, warmup=1)
        summary = bench.summarize(timings)
        shares = {p.name: p.share_pct for p in summary.phases}
        assert shares["p3_transfer_AtoB"] + shares["p6_transfer_BtoA"] > 90.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(repetitions=0)
        with pytest.raises(ValueError):
            RunConfig(mode="simulated")


class TestPingpongReal:
    def test_loopback_sockets_report_combined_transfer(self):
        config = RunConfig(repetitions=3, warmup=1, mode="real",
                           opts=TransportOpts(no_delay=True))
        timings = bench.run_pingpong(config)
        assert len(timings) == 3
        for t in timings:
            assert t.p6_transfer_BtoA == 0
            assert t.p3_transfer_AtoB >= 0
            assert t.total_ns > 0


class TestSummaries:
    def test_single_nonzero_phase_gets_the_whole_share(self):
        t = PhaseTimings(0, 0, 1000, 0, 0, 0, 0, total_ns=1000)
        summary = bench.summarize([t])
        shares = {p.name: p.share_pct for p in summary.phases}
        assert shares["p3_transfer_AtoB"] == 100.0
        assert summary.share_sum() == pytest.approx(100.0)

    def test_equal_phases_split_evenly(self):
        t = PhaseTimings(70, 70, 70, 70, 70, 70, 70, total_ns=490)
        summary = bench.summarize([t])
        for p in summary.phases:
            if p.name != "residual":
                assert p.share_pct == pytest.approx(100 / 7)

    def test_mean_over_runs(self):
        a = PhaseTimings(10, 0, 0, 0, 0, 0, 0, total_ns=10)
        b = PhaseTimings(30, 0, 0, 0, 0, 0, 0, total_ns=30)
        summary = bench.summarize([a, b])
        assert summary.mean_total_ns == 20.0
        assert summary.phases[0].mean_ns == 20.0
        assert summary.phases[0].stddev_ns == 10.0

    def test_empty_run_is_an_error(self):
        with pytest.raises(BenchError):
            bench.summarize([])


class TestSizeExperiment:
    def test_default_table_deltas(self):
        table = bench.run_size_experiment(bench.default_size_variants())
        deltas = {r.description: r.delta_uncompressed for r in table.rows
                  if r.delta_uncompressed is not None}
        assert deltas["20-char string value shortened to 3 chars"] == -17
        assert deltas["add persistent 10-char string field 's2'"] == 18  # 2-byte name
        assert deltas["add persistent int32 field 'n'"] == 7
        assert deltas["make int32 field 'hop' transient"] == -9

    def test_composite_reduction_is_pinned(self):
        table = bench.run_size_experiment(bench.default_size_variants())
        assert table.reduction_pct_uncompressed == 59.0
        assert table.reduction_pct_compressed == 51.6

    def test_no_composites_means_no_reduction_figure(self):
        table = bench.run_size_experiment(
            [SizeVariant("just one", bench.sized_variant(100))]
        )
        assert table.reduction_pct_uncompressed is None

    def test_compression_helps_large_but_not_tiny_states(self):
        table = bench.run_size_experiment([
            SizeVariant("tiny", bench.sized_variant(60)),
            SizeVariant("large", bench.sized_variant(4000)),
        ])
        tiny, large = table.rows
        assert tiny.compressed >= tiny.uncompressed  # container overhead dominates
        assert large.compressed < large.uncompressed


class TestCrossover:
    def test_infinite_bandwidth_favours_skipping_compression(self):
        report = bench.run_compression_crossover(
            [("4000B", bench.sized_variant(4000))],
            [LinkModel(float("inf"), 0.0)],
            reps=10,
        )
        (cell,) = report.cells
        assert cell.diff_ns > 0  # compression is pure overhead here

    def test_slow_link_favours_compression_for_large_state(self):
        report = bench.run_compression_crossover(
            [("4000B", bench.sized_variant(4000))],
            [LinkModel(64_000, 0.01)],
            reps=10,
        )
        (cell,) = report.cells
        assert cell.diff_ns < 0

    def test_diff_grows_with_bandwidth(self):
        links = [LinkModel(bw, 0.001) for bw in (64_000, 1_000_000, 10_000_000)]
        report = bench.run_compression_crossover(
            [("4000B", bench.sized_variant(4000))], links, reps=10
        )
        diffs = [c.diff_ns for c in sorted(report.cells, key=lambda c: c.bandwidth_bps)]
        assert diffs == sorted(diffs)

    def test_crossover_bandwidth_formula(self):
        report = bench.run_compression_crossover(
            [("4000B", bench.sized_variant(4000))], [LinkModel(64_000, 0.0)], reps=10
        )
        cost = report.costs["4000B"]
        bw = report.crossover_bandwidth_bps["4000B"]
        if bw not in (None, float("inf")):
            extra = cost.pipeline_compressed_ns - cost.pipeline_uncompressed_ns
            assert bw == pytest.approx(8 * cost.roundtrip_bytes_saved / (extra / 1e9))
            # at exactly the crossover bandwidth the two totals tie
            tie = LinkModel(bw, 0.0)
            saved_transfer = (tie.delay_s(cost.uncompressed_frame_bytes)
                              - tie.delay_s(cost.compressed_frame_bytes)) * 2e9
            assert saved_transfer == pytest.approx(extra, rel=1e-6)

    def test_bytes_saved_counts_both_legs(self):
        cost = bench.measure_serdes_cost("x", bench.sized_variant(4000), reps=5)
        assert cost.roundtrip_bytes_saved == 2 * (
            cost.uncompressed_frame_bytes - cost.compressed_frame_bytes
        )


class TestSchemaHandOver:
    def test_each_records_schema_builds_its_codec_once(self, codec_builds):
        pingpong, sized = bench.optimised_record(), bench.sized_variant(4000)
        variants = bench.default_size_variants()
        schemas = [pingpong.fields, sized.fields] + [
            r.fields for v in variants for r in (v.record, v.baseline) if r is not None]
        codec_builds.clear()  # sized_variant measured a record of its own
        bench.run_pingpong(RunConfig(repetitions=1000, state=pingpong))
        bench.measure_serdes_cost("x", sized, reps=5)
        bench.run_size_experiment(variants)
        # a list rebuilt from a schema would make a schema of its own, and compile it
        assert all(any(s is schema for schema in schemas) for s in codec_builds)
        assert len({id(s) for s in codec_builds}) == len(codec_builds)
        assert any(s is pingpong.fields for s in codec_builds)
        assert any(s is sized.fields for s in codec_builds)


class TestReports:
    def test_pingpong_csv_has_one_row_per_run(self, tmp_path):
        timings = bench.run_pingpong(RunConfig(repetitions=5, warmup=1))
        out = tmp_path / "runs.csv"
        bench.emit_report(timings, str(out), "csv")
        import csv

        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert set(bench.PHASE_NAMES) <= set(rows[0])
        assert int(rows[0]["total_ns"]) > 0

    def test_summary_report_carries_reference_block_but_not_our_numbers(self, tmp_path):
        timings = bench.run_pingpong(RunConfig(repetitions=3, warmup=1))
        text = bench.render_report(bench.summarize(timings), "csv")
        assert "paper reference" in text
        assert "66.7" in text and "25.4" in text

    def test_size_markdown_mentions_reduction(self):
        text = bench.render_report(
            bench.run_size_experiment(bench.default_size_variants()), "markdown"
        )
        assert "59.0% uncompressed" in text

    def test_empty_results_never_touch_the_filesystem(self, tmp_path):
        out = tmp_path / "never.csv"
        with pytest.raises(BenchError):
            bench.emit_report([], str(out), "csv")
        assert not out.exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(BenchError):
            bench.emit_report([], str(tmp_path / "x"), "yaml")

    def test_report_roundtrips_through_csv(self, tmp_path):
        timings = bench.run_pingpong(RunConfig(repetitions=4, warmup=1))
        out = tmp_path / "runs.csv"
        bench.emit_report(timings, str(out), "csv")
        import csv

        with open(out, newline="") as fh:
            back = [
                PhaseTimings(*(int(r[n]) for n in bench.PHASE_NAMES),
                             total_ns=int(r["total_ns"]))
                for r in csv.DictReader(fh)
            ]
        assert [t.phases() for t in back] == [t.phases() for t in timings]
