"""The Saidi et al. scenario's acceptance properties.

Passive-only tracking success must rise monotonically with vantage
coverage, and hybrid must never drop below active-only.
"""

from repro.experiments import one_bad_apple

COVERAGES = (0.0, 0.25, 0.5, 0.75, 1.0)
PARAMS = dict(coverages=COVERAGES, n_days=3, n_devices=24, seed=0)


def test_passive_monotone_hybrid_bounded():
    result = one_bad_apple.run(**PARAMS)
    passive = [result.passive_success[c] for c in COVERAGES]
    # Nested tap coverage: success never decreases, and a full tap
    # strictly beats a blind one.
    assert passive == sorted(passive)
    assert passive[0] == 0.0
    assert passive[-1] > 0.0
    # The hybrid adversary is bounded below by the paper's
    # active-only pursuit at every coverage point.
    for coverage in COVERAGES:
        assert result.hybrid_success[coverage] >= result.active_success
    # A blind tap adds nothing; a full tap must add something here
    # (the active pursuit misses some days to ICMP rate limiting).
    assert result.hybrid_success[0.0] == result.active_success
    assert result.hybrid_success[1.0] > result.active_success


def test_render_mentions_modes():
    result = one_bad_apple.run(coverages=(0.0, 1.0), n_days=2, n_devices=8, seed=1)
    text = result.render()
    assert "passive-only" in text and "hybrid" in text and "active-only" in text
