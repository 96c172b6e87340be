"""The one configuration resolver: keyword beats environment beats default."""

import pytest

from repro import config
from repro.replicate import SegmentShipper


class TestSettings:
    def test_explicit_overrides_beat_environment(self, monkeypatch):
        monkeypatch.setenv(config.ENV_REPLICATE_CONNECT_TIMEOUT, "7.5")
        assert config.current().replicate_connect_timeout == 7.5
        assert (
            config.current(replicate_connect_timeout=0.25).replicate_connect_timeout
            == 0.25
        )

    def test_empty_string_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(config.ENV_REPLICATE_BIND, "")
        assert config.current().replicate_bind is None

    def test_none_override_falls_through(self, monkeypatch):
        monkeypatch.setenv(config.ENV_REPLICATE_OUTBOX, "3")
        assert config.current(replicate_outbox_frames=None).replicate_outbox_frames == 3

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError, match="unknown setting"):
            config.current(heartbeat=1.0)

    def test_bad_number_is_loud(self, monkeypatch):
        monkeypatch.setenv(config.ENV_REPLICATE_OUTBOX, "huge")
        with pytest.raises(ValueError, match="expected an integer"):
            config.current()

    def test_shipper_resolves_env_knobs(self, monkeypatch):
        monkeypatch.setenv(config.ENV_REPLICATE_AUTHKEY, "from-env")
        monkeypatch.setenv(config.ENV_REPLICATE_OUTBOX, "5")
        monkeypatch.setenv(config.ENV_REPLICATE_CONNECT_TIMEOUT, "4.2")
        shipper = SegmentShipper()
        try:
            assert shipper.authkey == "from-env"
            assert shipper._bound == 5
            assert shipper._timeout == 4.2
        finally:
            shipper.close()
