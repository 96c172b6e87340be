"""Integration: the paper's full attack narrative on one small world.

Builds a two-provider internet, runs discovery, learns the provider
layouts, tracks a household for a week, predicts its next prefix, and
verifies the remediation story -- asserting at each step the privacy
claim the paper makes.
"""

import pytest

from repro.core.allocation import AllocationInference
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.pipeline import DiscoveryPipeline, PipelineConfig
from repro.core.predictor import fit_increment_model, prediction_hit_rate
from repro.core.records import ObservationStore
from repro.core.rotation_pool import RotationPoolInference
from repro.core.timeseries import iid_trajectory
from repro.core.tracker import AsProfile, DeviceTracker, TrackerConfig
from repro.net.addr import iid_of
from repro.net.eui64 import is_eui64_iid
from repro.scan.targets import one_target_per_subnet
from repro.scan.zmap import ScanConfig, Zmap6
from repro.simnet.builder import InternetSpec, PoolSpec, ProviderSpec, build_internet
from repro.simnet.rotation import IncrementRotation

ALWAYS = (("admin_prohibited", 1.0),)


@pytest.fixture(scope="module")
def world():
    spec = InternetSpec(
        providers=(
            ProviderSpec(
                asn=65001, name="RotorNet", country="DE",
                pools=(PoolSpec(46, 56, 0.8, IncrementRotation(24.0)),),
                eui64_fraction=1.0, online_fraction=1.0,
                new_since_seed_fraction=0.0, retired_fraction=0.0,
                response_mix=ALWAYS,
            ),
            ProviderSpec(
                asn=65002, name="PrivacyNet", country="FR",
                pools=(PoolSpec(46, 56, 0.8, IncrementRotation(24.0)),),
                eui64_fraction=0.0,  # all CPE use privacy extensions
                online_fraction=1.0,
                new_since_seed_fraction=0.0, retired_fraction=0.0,
                response_mix=ALWAYS,
            ),
        ),
        seed=21,
    )
    internet = build_internet(spec)
    pipeline_result = DiscoveryPipeline(
        internet, PipelineConfig(seed=21, coverage_48s=16)
    ).run()
    campaign = Campaign(
        internet,
        sorted(pipeline_result.rotating_48s, key=lambda p: p.network),
        CampaignConfig(days=8, start_day=2, seed=21),
    )
    campaign_result = campaign.run()
    return internet, pipeline_result, campaign_result


class TestDiscoveryStep:
    def test_only_eui64_provider_discovered(self, world):
        internet, pipeline_result, _ = world
        rotor = internet.provider_of_asn(65001).pools[0]
        privacy = internet.provider_of_asn(65002).pools[0]
        rotor_found = {
            p for p in pipeline_result.rotating_48s
            if rotor.prefix.contains_prefix(p)
        }
        privacy_found = {
            p for p in pipeline_result.rotating_48s
            if privacy.prefix.contains_prefix(p)
        }
        assert len(rotor_found) == 4
        # PrivacyNet answers probes, but never with EUI-64 sources, so
        # the EUI-64-driven pipeline ignores it entirely: privacy
        # extensions work when the CPE actually uses them.
        assert not privacy_found

    def test_campaign_sees_stable_iids_at_moving_addresses(self, world):
        _, _, campaign_result = world
        store = campaign_result.store
        iids = store.eui64_iids()
        assert iids
        moved = sum(1 for iid in iids if len(store.net64s_of_iid(iid)) > 1)
        assert moved / len(iids) > 0.95


class TestInferenceStep:
    def test_learned_layout_matches_ground_truth(self, world):
        internet, _, campaign_result = world
        rng_scan = Zmap6(internet, ScanConfig(seed=5))
        import random
        sample = internet.provider_of_asn(65001).pools[0].prefix.subnet(0, 52)
        scan = rng_scan.scan(
            one_target_per_subnet(sample, 64, random.Random(5)),
            start_seconds=2 * 86400.0 + 3600.0,
        )
        sample_store = ObservationStore()
        sample_store.extend_columns(scan.batch(2))
        allocation = AllocationInference.from_observations(
            65001, sample_store.eui64_only()
        )
        assert allocation.inferred_plen == 56

        pool_inference = RotationPoolInference.from_observations(
            65001, campaign_result.store.eui64_only()
        )
        assert pool_inference.rotates
        assert pool_inference.inferred_plen < 56


class TestTrackingStep:
    def test_household_followed_all_week(self, world):
        internet, _, campaign_result = world
        store = campaign_result.store
        iid = sorted(store.eui64_iids())[7]
        last = max(store.observations_of_iid(iid), key=lambda o: o.t_seconds)
        tracker = DeviceTracker(
            internet,
            {65001: AsProfile(65001, 56, 50)},
            TrackerConfig(seed=21),
        )
        track = tracker.track(iid, last.source, days=list(range(10, 17)))
        assert track.days_found == 7
        assert track.distinct_net64s == 8
        for outcome in track.outcomes:
            assert outcome.probes_sent <= 64 + 256  # /50 sweep + one widening

    def test_prediction_collapses_cost_to_one_probe(self, world):
        internet, _, campaign_result = world
        store = campaign_result.store
        iid = sorted(store.eui64_iids())[3]
        pool = internet.provider_of_asn(65001).pools[0]
        points = iid_trajectory(store, iid)
        model = fit_increment_model(points[:5], pool.prefix)
        assert model is not None
        assert prediction_hit_rate(model, points) == 1.0
        # Predict tomorrow's address, probe only it.
        future_day = max(p.day for p in points) + 1
        predicted = model.predict_address(future_day, 0x1234)
        response = internet.probe(predicted, (future_day * 24 + 12) * 3600.0)
        assert response is not None
        assert iid_of(response.source) == iid


class TestRemediationStep:
    def test_firmware_update_breaks_the_attack(self, world):
        internet, _, campaign_result = world
        store = campaign_result.store
        iid = sorted(store.eui64_iids())[11]
        last = max(store.observations_of_iid(iid), key=lambda o: o.t_seconds)
        # Locate the device and flip it to privacy addressing at day 12.
        residence = internet.resolve(last.source, last.t_seconds / 3600.0)
        residence.device.privacy_switch_hours = 12 * 24.0

        tracker = DeviceTracker(
            internet, {65001: AsProfile(65001, 56, 50)}, TrackerConfig(seed=4)
        )
        track = tracker.track(iid, last.source, days=[10, 11, 12, 13])
        found_by_day = {o.day: o.found for o in track.outcomes}
        assert found_by_day[10] and found_by_day[11]
        assert not found_by_day[12] and not found_by_day[13]

    def test_post_remediation_addresses_unlinkable(self, world):
        internet, _, _ = world
        pool = internet.provider_of_asn(65001).pools[0]
        device = pool.devices[0]
        device.privacy_switch_hours = 0.0
        wan_day1 = pool.wan_address_of(0, 30.0)
        wan_day2 = pool.wan_address_of(0, 54.0)
        assert not is_eui64_iid(iid_of(wan_day1))
        assert iid_of(wan_day1) != iid_of(wan_day2)
        device.privacy_switch_hours = None  # restore for other tests
