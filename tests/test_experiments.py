"""Integration tests for the experiment harnesses (short configurations).

These run every table/figure harness with small parameters and assert the
qualitative results the paper reports; the benchmarks under ``benchmarks/``
run the same harnesses at full scale.
"""

import pytest

from repro.experiments import (
    OverloadConfig,
    RateAdaptationConfig,
    build_dataset,
    evaluate_loss_rate,
    headline_numbers,
    run_agent_bytes,
    run_capture_summary,
    run_concurrency,
    run_design_space_sweep,
    run_improvement_sweep,
    run_latency_comparison,
    run_overload_experiment,
    run_packet_accounting,
    run_rate_adaptation,
    run_resource_report,
    run_rewrite_overhead_sweep,
    run_streams_per_meeting,
    run_svc_adaptation_example,
)
from repro.experiments.table_packets import format_table
from repro.experiments.fig_scalability import format_design_space, format_headline


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset(num_meetings=400, seed=5)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_packet_accounting(duration_s=15.0)

    def test_data_plane_handles_most_packets(self, result):
        assert result.data_plane_packet_share > 0.93
        assert result.data_plane_byte_share > 0.99

    def test_rtp_dominates(self, result):
        assert result.row("RTP").packet_share > 0.90
        assert result.row("RTP-Video").byte_share > 0.90
        assert result.row("STUN").packet_share < 0.02

    def test_row_consistency(self, result):
        total = result.row("Total")
        control = result.row("Control-Plane")
        data = result.row("Data-Plane")
        assert total.packets == pytest.approx(control.packets + data.packets, rel=1e-6)

    def test_format_is_table_like(self, result):
        text = format_table(result)
        assert "RTP" in text and "STUN" in text and "Data plane handles" in text


class TestFigure19Latency:
    def test_scallop_forwarding_is_much_faster(self):
        result = run_latency_comparison(duration_s=6.0)
        assert result.median_improvement > 5.0
        assert result.scallop.median < 0.05        # ~12 us switch pipeline
        assert result.software.median > 0.1        # user-space forwarding


class TestFigure18Rewrite:
    def test_overhead_grows_then_stays_bounded(self):
        points = run_rewrite_overhead_sweep(loss_rates=[0.0, 0.1, 0.2, 0.5], num_frames=1_500)
        rates = {p.loss_rate: p.erroneous_retransmission_rate for p in points}
        assert rates[0.0] <= 0.02
        assert rates[0.1] <= 0.05
        assert rates[0.2] <= 0.10
        assert rates[0.5] <= 0.20
        assert all(p.duplicates_emitted == 0 for p in points)

    def test_s_lr_beats_s_lm_under_loss(self):
        lr = evaluate_loss_rate(0.2, variant="s_lr", num_frames=2_000)
        lm = evaluate_loss_rate(0.2, variant="s_lm", num_frames=2_000)
        assert lr.erroneous_retransmission_rate <= lm.erroneous_retransmission_rate + 0.01


class TestFigures15to17:
    def test_headlines_match_paper_scale(self):
        headline = headline_numbers()
        assert headline.nra_meetings == pytest.approx(128_000, rel=0.05)
        assert headline.ra_r_meetings == pytest.approx(42_700, rel=0.05)
        assert headline.ra_sr_meetings_10_participants == pytest.approx(4_300, rel=0.05)
        assert headline.two_party_meetings == pytest.approx(533_000, rel=0.01)
        assert headline.software_10_party_meetings == pytest.approx(192, rel=0.01)
        assert 2 < headline.improvement_min < 20
        assert 100 < headline.improvement_max < 700
        assert "128K" in format_headline(headline)

    def test_sweeps_cover_requested_sizes(self):
        improvement = run_improvement_sweep([2, 10, 50])
        assert [p.participants for p in improvement] == [2, 10, 50]
        design = run_design_space_sweep([2, 10, 50])
        assert len(format_design_space(design).splitlines()) == 4


class TestFigure14RateAdaptation:
    def test_constrained_participant_is_adapted_without_freezing(self):
        result = run_rate_adaptation(
            RateAdaptationConfig(total_duration_s=60.0, first_constraint_at_s=14.0, second_constraint_at_s=34.0, sample_interval_s=2.0)
        )
        assert result.adapted()
        assert result.freezes_at_constrained == 0
        assert result.constrained_frame_rate_fps < result.unconstrained_frame_rate_fps
        assert result.unconstrained_frame_rate_fps > 22.0
        # time series were recorded for every origin stream
        assert len(result.receive_frame_rates) == 2
        assert len(result.receive_bitrates_kbps) == 2


class TestFigures3and4Overload:
    def test_overload_collapses_qoe(self):
        config = OverloadConfig(
            num_meetings=4,
            participants_per_meeting=6,
            seconds_per_join=0.5,
            media_scale=0.12,
            saturation_participants=12,
        )
        result = run_overload_experiment(config)
        assert result.saturation_participants is not None

        # QoE is fine while the core still has headroom: the received frame
        # rate reaches (close to) the nominal rate at some point of the sweep
        peak_fps = max(s.normalized_frame_rate_fps for s in result.samples)
        peak_sample = next(s for s in result.samples if s.normalized_frame_rate_fps == peak_fps)
        assert peak_fps > 12.0

        # ... and collapses once the core is saturated (Figure 4)
        tail = result.samples[-3:]
        assert min(s.normalized_frame_rate_fps for s in tail) < 0.4 * peak_fps

        # tail jitter explodes past saturation (Figure 3)
        tail_jitter = max(s.p95_jitter_ms for s in tail)
        assert tail_jitter > 20.0
        assert tail_jitter > 10 * max(peak_sample.p95_jitter_ms, 0.5)

        # the series are exposed in the Figure 3 / Figure 4 layout
        assert len(result.jitter_series()) == len(result.samples)
        assert len(result.frame_rate_series()) == len(result.samples)


class TestTraceFigures:
    def test_streams_per_meeting_shape(self, small_dataset):
        result = run_streams_per_meeting(small_dataset)
        assert result.summary
        ten = result.median_for(10)
        if ten is not None:
            assert 20 <= ten <= result.upper_bound(10) + 50

    def test_concurrency(self, small_dataset):
        result = run_concurrency(small_dataset, step_s=3600.0)
        assert result.peak_participants >= result.peak_meetings > 0

    def test_agent_bytes_reduction(self, small_dataset):
        result = run_agent_bytes(small_dataset, step_s=6 * 3600.0)
        assert result.reduction_factor > 100

    def test_capture_summary(self, small_dataset):
        summary = run_capture_summary(small_dataset)
        assert summary.zoom_packets > 0
        assert summary.zoom_bitrate_bps > 0

    def test_svc_adaptation_example(self):
        figures = run_svc_adaptation_example()
        assert figures.receiver_rate_dropped()

    def test_resource_report(self, small_dataset):
        report = run_resource_report(small_dataset)
        assert report.peak_campus_egress_bps > 0
        assert report.max_utilization_egress_bps > report.peak_campus_egress_bps
        assert any(row.resource == "Egress Tput." for row in report.rows)
