"""End-to-end experiment tests: every artifact runs and matches the
paper's *shape* at small scale.

One shared context (simulated internet + pipeline + campaign) backs all
tests in this module; it is the expensive part, built once.
"""

import pytest

from repro.core.allocation import AllocationInference
from repro.core.records import ProbeObservation
from repro.core.rotation_pool import RotationPoolInference
from repro.experiments import ablations, fig3, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments import fig10, fig11_12, headline, streaming, table1, tracking
from repro.experiments.context import ExperimentContext
from repro.experiments.scale import SMALL, TINY
from repro.stream import columnar
from repro.stream.engine import StreamConfig, StreamEngine
from repro.util import np


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(SMALL)


class TestTable1:
    def test_versatel_dominates(self, context):
        result = table1.run(context)
        top = result.top_asns()
        assert top[0][0] == 8881  # Versatel first, as in the paper
        assert top[0][1] >= 2 * top[2][1]  # clear dominance

    def test_germany_leads_countries(self, context):
        result = table1.run(context)
        countries = result.top_countries()
        assert countries[0][0] == "DE"
        assert countries[1][0] == "GR"

    def test_render(self, context):
        text = table1.run(context).render()
        assert "AS8881" in text and "Total" in text


class TestFig3:
    def test_all_three_exemplars_inferred_correctly(self, context):
        result = fig3.run(context)
        assert result.inferred[6568] == 56  # Entel
        assert result.inferred[9146] == 60  # BH Telecom
        assert result.inferred[7682] == 64  # Starcat
        assert "Entel" in result.render()


class TestFig4:
    def test_homogeneity_shape(self, context):
        result = fig4.run(context)
        assert len(result.values) >= 10
        # Paper: >half of ASes above 0.9, ~3/4 above 0.67; the scaled
        # scenario lands slightly lower on the 0.9 bar.
        assert result.report.fraction_above(0.9) > 0.3
        assert result.report.fraction_above(0.67) > 0.6
        assert "homogeneity" in result.render()


class TestFig5:
    def test_as_level_shape(self, context):
        result = fig5.run(context)
        # /56 is the dominant per-AS median (paper: ~half of ASes).
        assert result.fraction_of_ases_at(56) > 0.4
        histogram = result.as_histogram()
        assert set(histogram) <= {48, 56, 60, 64}

    def test_per_iid_covers_sizes(self, context):
        result = fig5.run(context)
        histogram = result.iid_histogram()
        assert histogram.get(56, 0) > 0
        assert histogram.get(64, 0) > 0
        assert "Figure 5" in result.render()


class TestFig6:
    def test_two_allocation_sizes_one_provider(self, context):
        result = fig6.run(context)
        assert result.inferred[56] == 56
        assert result.inferred[64] == 64
        assert "Versatel" in result.render()


class TestFig7:
    def test_pool_vs_bgp_shape(self, context):
        result = fig7.run(context)
        # A sizable non-rotating fraction (paper: >1/2; scaled scenario
        # skews toward rotators by construction).
        assert 0.15 <= result.fraction_non_rotating() <= 0.7
        # The pool/BGP gap is in the paper's ~16-bit ballpark.
        assert 12 <= result.median_gap_bits() <= 26
        assert "Figure 7" in result.render()


class TestFig8:
    def test_most_iids_rotate(self, context):
        result = fig8.run(context)
        assert result.fraction_multi() > 0.6  # paper: >70%
        assert max(result.values) > 5
        assert "Figure 8" in result.render()


class TestFig9:
    def test_increment_staircase(self, context):
        result = fig9.run(context)
        assert len(result.trajectories) == 3
        modal = result.modal_increments()
        # One /56 delegation per day = 256 /64 numbers.
        assert all(step == 256 for step in modal.values())
        assert "Figure 9" in result.render()


class TestFig10:
    def test_density_changes_in_rotation_window(self, context):
        result = fig10.run(context)
        assert len(result.series) == 4  # the /46's four /48s
        assert result.fraction_changes_in_window() > 0.8
        assert "Figure 10" in result.render()


class TestFig11And12:
    def test_mac_reuse_exhibit(self, context):
        result = fig11_12.run_fig11(context)
        assert result.exhibit_iid is not None
        assert len(result.exhibit_days_by_asn) >= 3  # several ASes at once
        assert "MAC reuse" in result.render()

    def test_zero_mac_spread(self, context):
        result = fig11_12.run_fig11(context)
        assert result.report.max_as_spread() >= 5

    def test_german_switches_detected(self, context):
        result = fig11_12.run_fig12(context)
        german = result.german_switches()
        assert len(german) >= 1
        switch = german[0]
        assert {switch.from_asn, switch.to_asn} == {8881, 3320}
        assert "Figure 12" in result.render()


class TestTracking:
    def test_random_cohort_found_consistently(self, context):
        result = tracking.run_fig13a(context)
        assert result.n_tracked >= 8
        assert result.min_found_per_day() >= result.n_tracked - 2

    def test_rotating_cohort_mostly_found(self, context):
        result = tracking.run_fig13b(context)
        assert result.n_tracked >= 8
        assert result.min_found_per_day() >= result.n_tracked // 2
        # Rotating cohort: prefix changes observed during tracking.
        assert sum(result.report.changed_prefix_per_day().values()) >= 3

    def test_table2_renders_with_metadata(self, context):
        result = tracking.run_table2(context)
        text = result.render_table2()
        assert "Mean Probes" in text
        countries = {meta[1] for meta in result.meta.values()}
        assert len(countries) == result.n_tracked  # one per country

    def test_probe_costs_far_below_naive(self, context):
        result = tracking.run_table2(context)
        for track in result.report.tracks.values():
            assert track.mean_probes < 2**20  # naive would be 2^32


class TestHeadlineAndAblations:
    def test_headline_counters(self, context):
        result = headline.run(context)
        assert result.pipeline_summary["rotating_48s"] > 50
        assert result.n_rotating_ases >= 20
        assert result.address_reuse_factor > 3.0
        assert "headline" in result.render().lower()

    def test_search_ablation_reductions(self, context):
        result = ablations.run_search_ablation(context)
        assert len(result.bounds) >= 10
        for bound in result.bounds.values():
            assert bound.reduction_factor >= 1
        assert any(b.reduction_factor > 1e4 for b in result.bounds.values())
        assert "A1" in result.render()

    def test_remediation_kills_tracking(self, context):
        result = ablations.run_remediation_ablation(context)
        assert result.remediated_devices > 100
        assert result.found_before > 0
        assert result.found_after == 0  # privacy IIDs end EUI-64 tracking
        assert "remediation" in result.render()

    def test_blocklist_policies(self, context):
        result = ablations.run_blocklist_ablation(context)
        prefix = result.outcomes["prefix"]
        iid = result.outcomes["iid"]
        asn = result.outcomes["asn"]
        assert prefix.block_rate < iid.block_rate
        assert iid.collateral_rate < 0.1
        assert asn.collateral_rate == 1.0
        assert "A3" in result.render()


class TestStreaming:
    def test_batch_and_stream_identical(self, context):
        result = streaming.run(context)
        assert result.stores_identical
        assert result.summaries_identical
        assert result.inferences_identical
        assert result.identical
        assert result.responses > 0

    def test_render(self, context):
        text = streaming.run(context).render()
        assert "batch" in text and "stream" in text
        assert "identical" in text


def batch_inferences(store, origin_of, algorithm) -> dict:
    """*algorithm*'s batch inference of every routed AS in *store*."""
    inferences = {}
    for asn, observations in store.group_eui64_by_asn(origin_of).items():
        if asn:
            inferences[asn] = algorithm.from_observations(asn, observations)
    return inferences


def kernel_less_engine(store, origin_of) -> StreamEngine:
    """*store* fed and flushed as the context feeds its engines, with the
    columnar kernel off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "np", None)
        engine = StreamEngine(
            StreamConfig(keep_observations=False), origin_of=origin_of
        )
        assert engine._acc is None
        for batch in store.scan_columns():
            engine.ingest_columns(batch)
        engine.flush()
    return engine


def plens(inferences: dict) -> dict:
    return {asn: (i.inferred_plen, i.per_iid_plen) for asn, i in inferences.items()}


@pytest.fixture(scope="module")
def tiny():
    return ExperimentContext(TINY)


class TestInferencesAreTheEngines:
    """The context's per-AS inferences are a stream engine's, and equal
    the batch Algorithms 1 and 2 per AS, with the kernel and without."""

    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no-kernel"])
    @pytest.mark.parametrize("scale", ["tiny", "context"], ids=["TINY", "SMALL"])
    def test_engine_equals_batch(self, request, scale, kernel):
        ctx = request.getfixturevalue(scale)
        sample, corpus = ctx.allocation_sample_store, ctx.campaign_store
        if kernel:
            allocations, pools = ctx.allocation_inferences, ctx.pool_inferences
        else:
            engine = kernel_less_engine(sample, ctx.origin_of)
            allocations = engine.allocation_inferences()
            pools = kernel_less_engine(corpus, ctx.origin_of).pool_inferences()
        want = batch_inferences(sample, ctx.origin_of, AllocationInference)
        assert plens(allocations) == plens(want)
        want = batch_inferences(corpus, ctx.origin_of, RotationPoolInference)
        assert plens(pools) == plens(want)

    @pytest.mark.skipif(np is None, reason="a kernel-less engine folds objects")
    def test_campaign_set_up_builds_no_observation(self, monkeypatch):
        """Set-up reads its scans and inferences as columns: grouping the
        allocation sample for the batch algorithms built 15,329."""
        built = []
        init = ProbeObservation.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProbeObservation, "__init__", counting)
        ExperimentContext(TINY).build_campaign()
        assert len(built) == 0
