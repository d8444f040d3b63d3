"""Tests for the Table 1 device profiles and market shares."""

import numpy as np
import pytest

from repro.devices.profiles import (
    DEVICE_NAMES,
    DEVICE_PROFILES,
    DOMINANT_DEVICES,
    DeviceProfile,
    get_device,
    market_shares,
)
from repro.devices.sensor import SensorModel
from repro.isp.pipeline import ISPConfig


def profiles_in_tier(tier):
    return [p for p in DEVICE_PROFILES.values() if p.tier == tier]


class TestTable1Composition:
    def test_nine_devices(self):
        assert len(DEVICE_PROFILES) == 9

    def test_expected_device_names(self):
        expected = {"Pixel5", "Pixel2", "Nexus5X", "VELVET", "G7", "G4", "S22", "S9", "S6"}
        assert set(DEVICE_NAMES) == expected

    def test_three_vendors_three_tiers(self):
        vendors = {p.vendor for p in DEVICE_PROFILES.values()}
        tiers = {p.tier for p in DEVICE_PROFILES.values()}
        assert vendors == {"samsung", "lg", "google"}
        assert tiers == {"high", "mid", "low"}

    def test_each_vendor_has_one_device_per_tier(self):
        for vendor in ("samsung", "lg", "google"):
            tiers = [p.tier for p in DEVICE_PROFILES.values() if p.vendor == vendor]
            assert sorted(tiers) == ["high", "low", "mid"]

    def test_market_shares_match_table1(self):
        shares = {name: p.market_share for name, p in DEVICE_PROFILES.items()}
        assert shares["S6"] == pytest.approx(0.38)
        assert shares["S9"] == pytest.approx(0.27)
        assert shares["S22"] == pytest.approx(0.12)
        assert shares["Pixel5"] == pytest.approx(0.01)

    def test_dominant_devices_are_s9_s6(self):
        assert set(DOMINANT_DEVICES) == {"S9", "S6"}

    def test_dominant_devices_have_highest_shares(self):
        shares = {name: p.market_share for name, p in DEVICE_PROFILES.items()}
        top_two = sorted(shares, key=shares.get, reverse=True)[:2]
        assert set(top_two) == set(DOMINANT_DEVICES)


class TestProfiles:
    def test_each_profile_has_sensor_and_isp(self):
        for profile in DEVICE_PROFILES.values():
            assert isinstance(profile.sensor, SensorModel)
            assert isinstance(profile.isp, ISPConfig)

    def test_lower_tiers_lower_resolution(self):
        high = profiles_in_tier("high")
        low = profiles_in_tier("low")
        assert min(p.sensor.resolution[0] for p in high) > max(p.sensor.resolution[0] for p in low)

    def test_lower_tiers_noisier(self):
        high = profiles_in_tier("high")
        low = profiles_in_tier("low")
        assert max(p.sensor.read_noise for p in high) < min(p.sensor.read_noise for p in low)

    def test_same_vendor_more_similar_color_response(self):
        """Pixel5/Pixel2 colour matrices are closer than Pixel5/S22 (Table 2 structure)."""
        pixel5 = get_device("Pixel5").sensor.color_response
        pixel2 = get_device("Pixel2").sensor.color_response
        s22 = get_device("S22").sensor.color_response
        same_vendor = np.abs(pixel5 - pixel2).sum()
        cross_vendor = np.abs(pixel5 - s22).sum()
        assert same_vendor < cross_vendor

    def test_isp_configs_differ_across_devices(self):
        configs = {name: p.isp.as_dict() for name, p in DEVICE_PROFILES.items()}
        distinct = {tuple(sorted(c.items())) for c in configs.values()}
        assert len(distinct) >= 5  # many distinct ISP configurations

    def test_get_device_unknown_raises(self):
        with pytest.raises(KeyError):
            get_device("iPhone15")

    def test_get_device_unknown_lists_available(self):
        with pytest.raises(KeyError, match="Pixel5"):
            get_device("iPhone15")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="x", vendor="v", tier="extreme", market_share=0.1,
                          sensor=SensorModel(), isp=ISPConfig())
        with pytest.raises(ValueError):
            DeviceProfile(name="x", vendor="v", tier="high", market_share=0.0,
                          sensor=SensorModel(), isp=ISPConfig())


class TestMarketShares:
    def test_normalized_sums_to_one(self):
        assert sum(market_shares().values()) == pytest.approx(1.0)

    def test_unnormalized_matches_profiles(self):
        raw = market_shares(normalize=False)
        for name, share in raw.items():
            assert share == DEVICE_PROFILES[name].market_share

    def test_all_devices_present(self):
        assert set(market_shares()) == set(DEVICE_NAMES)

    def test_zero_total_share_raises_instead_of_dividing(self, monkeypatch):
        import repro.devices.profiles as profiles_module

        monkeypatch.setattr(profiles_module, "DEVICE_PROFILES", {})
        with pytest.raises(ValueError, match="cannot normalize"):
            market_shares(normalize=True)
        assert market_shares(normalize=False) == {}
