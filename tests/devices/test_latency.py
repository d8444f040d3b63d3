"""Tests for the profile-derived device latency/availability models."""

import numpy as np
import pytest

from repro.devices.latency import (
    LATENCY_REGIMES,
    DeviceLatencyModel,
    LatencyRegime,
    build_latency_model,
    build_latency_models,
    get_regime,
    mean_round_trip,
)
from repro.devices.profiles import get_device


class TestDerivation:
    def test_tier_orders_compute_rate(self):
        high = build_latency_model("S22", "mild")
        mid = build_latency_model("S9", "mild")
        low = build_latency_model("S6", "mild")
        assert high.compute_rate > mid.compute_rate > low.compute_rate

    def test_market_share_orders_network(self):
        # S6 owns 38% of the fleet (congested class); Pixel5 1% (fast class).
        mass = build_latency_model("S6", "mild")
        rare = build_latency_model("Pixel5", "mild")
        assert mass.network_seconds > rare.network_seconds

    def test_vendor_multiplier_applies(self):
        # VELVET (lg, 2%) and Pixel5 (google, 1%) share the fast network
        # class; the vendor multiplier separates them.
        lg = build_latency_model("VELVET", "mild")
        google = build_latency_model("Pixel5", "mild")
        assert lg.network_seconds > google.network_seconds

    def test_tier_orders_availability(self):
        high = build_latency_model("Pixel5", "mild")
        low = build_latency_model("Nexus5X", "mild")
        assert high.on_fraction > low.on_fraction
        assert high.mean_session_seconds > low.mean_session_seconds

    def test_profile_instance_accepted(self):
        by_name = build_latency_model("G7", "mild")
        by_profile = build_latency_model(get_device("G7"), "mild")
        assert by_name == by_profile

    def test_fallback_for_unknown_devices(self):
        a = build_latency_model("synthetic-device-a", "mild")
        b = build_latency_model("synthetic-device-b", "mild")
        assert a.device == "synthetic-device-a"
        assert a.compute_rate > 0 and a.network_seconds > 0
        # Name-hashed perturbation keeps distinct devices distinct.
        assert (a.compute_rate, a.network_seconds) != (b.compute_rate, b.network_seconds)
        # And the derivation is deterministic.
        assert build_latency_model("synthetic-device-a", "mild") == a


class TestRegimes:
    def test_presets_available(self):
        assert set(LATENCY_REGIMES) == {"uniform", "mild", "extreme"}

    def test_get_regime_passthrough_and_lookup(self):
        custom = LatencyRegime("c", 1.0, 1.0, 0.1, 1.0)
        assert get_regime(custom) is custom
        assert get_regime("mild") is LATENCY_REGIMES["mild"]

    def test_get_regime_unknown_lists_available(self):
        with pytest.raises(KeyError, match="extreme.*mild.*uniform"):
            get_regime("bogus")

    def test_uniform_collapses_heterogeneity(self):
        models = build_latency_models(["S22", "S6", "Pixel5", "G4"], "uniform")
        assert len({m.compute_rate for m in models.values()}) == 1
        assert len({m.network_seconds for m in models.values()}) == 1
        assert all(m.always_online for m in models.values())

    def test_extreme_widens_spread(self):
        def spread(regime):
            models = build_latency_models(["S22", "S6"], regime)
            rates = [m.compute_rate for m in models.values()]
            return max(rates) / min(rates)

        assert spread("extreme") > spread("mild") > 1.0

    def test_churn_scales_session_length(self):
        mild = build_latency_model("S6", "mild")
        extreme = build_latency_model("S6", "extreme")
        assert extreme.mean_session_seconds < mild.mean_session_seconds
        assert not mild.always_online

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            LatencyRegime("x", compute_skew=-1.0, network_skew=0.0,
                          jitter_sigma=0.1, churn=0.0)
        with pytest.raises(ValueError):
            LatencyRegime("x", compute_skew=0.0, network_skew=0.0,
                          jitter_sigma=0.1, churn=-0.5)


class TestSampling:
    def test_round_trip_deterministic_per_rng(self):
        model = build_latency_model("S9", "mild")
        a = model.sample_round_trip(100, np.random.default_rng(7))
        b = model.sample_round_trip(100, np.random.default_rng(7))
        assert a == b

    def test_round_trip_without_jitter_is_exact(self):
        model = DeviceLatencyModel("d", compute_rate=50.0, network_seconds=10.0,
                                   jitter_sigma=0.0, on_fraction=1.0,
                                   mean_session_seconds=float("inf"))
        assert model.sample_round_trip(100, np.random.default_rng(0)) == \
            pytest.approx(100 / 50.0 + 10.0)
        assert mean_round_trip(model, 100) == pytest.approx(12.0)

    def test_session_sampling(self):
        model = build_latency_model("S6", "mild")
        rng = np.random.default_rng(0)
        online = [model.sample_session(True, np.random.default_rng(i))
                  for i in range(200)]
        offline = [model.sample_session(False, np.random.default_rng(i))
                   for i in range(200)]
        assert all(s > 0 for s in online + offline)
        # Offline gaps are scaled so the duty cycle matches on_fraction:
        # mean_off = mean_on * (1 - f) / f.
        ratio = np.mean(offline) / np.mean(online)
        expected = (1.0 - model.on_fraction) / model.on_fraction
        assert ratio == pytest.approx(expected, rel=0.35)
        assert isinstance(model.sample_initially_online(rng), bool)

    def test_always_online_has_no_sessions(self):
        model = build_latency_model("S6", "uniform")
        assert model.always_online
        assert model.sample_initially_online(np.random.default_rng(0)) is True
        with pytest.raises(RuntimeError):
            model.sample_session(True, np.random.default_rng(0))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DeviceLatencyModel("d", compute_rate=0.0, network_seconds=1.0,
                               jitter_sigma=0.1, on_fraction=0.5,
                               mean_session_seconds=10.0)
        with pytest.raises(ValueError):
            DeviceLatencyModel("d", compute_rate=1.0, network_seconds=1.0,
                               jitter_sigma=0.1, on_fraction=1.5,
                               mean_session_seconds=10.0)


class TestPopulation:
    def test_build_models_dedupes_devices(self):
        models = build_latency_models(["S6", "S6", "S9"], "mild")
        assert set(models) == {"S6", "S9"}
