"""Tests for the device capture simulation (scene -> RAW -> ISP -> tensor)."""

import threading

import numpy as np
import pytest
from oracle.scalar_capture import capture_with_device_scalar

from repro.data.capture import (
    CAPTURE_CHUNK,
    CaptureConfig,
    build_device_datasets,
    capture_with_device,
    derive_capture_seeds,
)
from repro.data.scenes import generate_scene_dataset
from repro.devices.profiles import DEVICE_PROFILES, get_device
from repro.isp.pipeline import BASELINE_CONFIG, OPTION1_CONFIG, OPTION2_CONFIG
from repro.isp.raw import bayer_mosaic_batch


@pytest.fixture(scope="module")
def scenes_and_labels():
    return generate_scene_dataset(2, num_classes=3, image_size=32, seed=0)


class TestCaptureWithDevice:
    def test_output_layout(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(scenes, labels, get_device("Pixel5"),
                                      CaptureConfig(image_size=16, seed=0))
        assert dataset.features.shape == (len(scenes), 3, 16, 16)
        np.testing.assert_array_equal(dataset.labels, labels)

    def test_value_range(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(scenes, labels, get_device("S6"),
                                      CaptureConfig(image_size=16, seed=0))
        assert dataset.features.min() >= 0.0 and dataset.features.max() <= 1.0

    def test_metadata_populated(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(scenes, labels, get_device("G7"),
                                      CaptureConfig(image_size=16, seed=0))
        assert dataset.metadata["device"] == "G7"
        assert dataset.metadata["vendor"] == "lg"
        assert dataset.metadata["raw"] is False

    def test_raw_mode(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(scenes, labels, get_device("Pixel5"),
                                      CaptureConfig(image_size=16, raw=True, seed=0))
        assert dataset.metadata["isp"] == "raw"
        assert dataset.features.shape == (len(scenes), 3, 16, 16)

    def test_raw_differs_from_processed(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        device = get_device("Pixel5")
        raw = capture_with_device(scenes, labels, device, CaptureConfig(16, raw=True, seed=0))
        processed = capture_with_device(scenes, labels, device, CaptureConfig(16, seed=0))
        assert not np.allclose(raw.features, processed.features)

    def test_different_devices_produce_different_images(self, scenes_and_labels):
        """The core system-induced heterogeneity mechanism: same scene, different tensors."""
        scenes, labels = scenes_and_labels
        a = capture_with_device(scenes, labels, get_device("Pixel5"), CaptureConfig(16, seed=0))
        b = capture_with_device(scenes, labels, get_device("S22"), CaptureConfig(16, seed=0))
        assert np.abs(a.features - b.features).mean() > 0.01

    def test_same_vendor_devices_more_similar(self, scenes_and_labels):
        """Pixel5 vs Pixel2 captures are closer than Pixel5 vs S22 (Table 2 structure)."""
        scenes, labels = scenes_and_labels
        cfg = CaptureConfig(16, seed=0)
        pixel5 = capture_with_device(scenes, labels, get_device("Pixel5"), cfg).features
        pixel2 = capture_with_device(scenes, labels, get_device("Pixel2"), cfg).features
        s22 = capture_with_device(scenes, labels, get_device("S22"), cfg).features
        same_vendor_gap = np.abs(pixel5 - pixel2).mean()
        cross_vendor_gap = np.abs(pixel5 - s22).mean()
        assert same_vendor_gap < cross_vendor_gap

    def test_isp_override(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(
            scenes, labels, get_device("S6"),
            CaptureConfig(image_size=16, isp_override=BASELINE_CONFIG, seed=0),
        )
        assert dataset.metadata["isp"] == "baseline"

    def test_rejects_bad_scene_shape(self):
        with pytest.raises(ValueError):
            capture_with_device(np.zeros((2, 8, 8)), np.zeros(2), get_device("S6"))

    def test_rejects_mismatched_labels(self, scenes_and_labels):
        scenes, _ = scenes_and_labels
        with pytest.raises(ValueError):
            capture_with_device(scenes, np.zeros(1), get_device("S6"))


class TestBatchedScalarEquivalence:
    """The tentpole guarantee: batched capture == per-scene loop, bitwise."""

    @pytest.mark.parametrize("device", sorted(DEVICE_PROFILES))
    def test_every_device_isp(self, device, scenes_and_labels):
        scenes, labels = scenes_and_labels
        cfg = CaptureConfig(image_size=16, seed=11)
        batched = capture_with_device(scenes, labels, get_device(device), cfg)
        scalar = capture_with_device_scalar(scenes, labels, get_device(device), cfg)
        np.testing.assert_array_equal(batched.features, scalar.features)
        np.testing.assert_array_equal(batched.labels, scalar.labels)
        assert batched.metadata == scalar.metadata

    @pytest.mark.parametrize("device", ["Pixel5", "S22", "S6"])
    def test_raw_path(self, device, scenes_and_labels):
        scenes, labels = scenes_and_labels
        cfg = CaptureConfig(image_size=16, raw=True, seed=12)
        batched = capture_with_device(scenes, labels, get_device(device), cfg)
        scalar = capture_with_device_scalar(scenes, labels, get_device(device), cfg)
        np.testing.assert_array_equal(batched.features, scalar.features)

    def test_isp_override(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        cfg = CaptureConfig(image_size=16, isp_override=OPTION2_CONFIG, seed=13)
        batched = capture_with_device(scenes, labels, get_device("G4"), cfg)
        scalar = capture_with_device_scalar(scenes, labels, get_device("G4"), cfg)
        np.testing.assert_array_equal(batched.features, scalar.features)

    def test_rng_stream_matches_legacy_per_scene_draws(self, scenes_and_labels):
        """The batched noise block must consume the generator exactly like the
        legacy loop: per scene, a shot-noise draw then a read-noise draw."""
        scenes, _ = scenes_and_labels
        sensor = get_device("S9").sensor
        rng_legacy = np.random.default_rng(99)
        legacy_mosaics = []
        for scene in scenes:
            irradiance = sensor.expose_batch(scene[None])
            shot_sigma = np.sqrt(np.maximum(irradiance, 0.0)) * sensor.shot_noise_scale
            noisy = irradiance + rng_legacy.normal(0.0, 1.0, size=irradiance.shape) * shot_sigma
            noisy = noisy + rng_legacy.normal(0.0, sensor.read_noise, size=irradiance.shape)
            noisy = np.clip(noisy, 0.0, 1.0)
            legacy_mosaics.append(bayer_mosaic_batch(noisy, pattern=sensor.bayer_pattern)[0])
        batched = sensor.capture_raw_batch(scenes, np.random.default_rng(99))
        np.testing.assert_array_equal(batched.mosaics, np.stack(legacy_mosaics))


# One full chunk, and two full chunks plus a one-scene tail.
CHUNKED_POOL_SIZES = [CAPTURE_CHUNK, 2 * CAPTURE_CHUNK + 1]


@pytest.fixture(scope="module", params=CHUNKED_POOL_SIZES, ids=lambda n: f"{n}scenes")
def chunked_scenes(request):
    scenes, labels = generate_scene_dataset(6, num_classes=3, image_size=32, seed=5)
    return scenes[:request.param], labels[:request.param]


def assert_matches_scalar(scenes, labels, device, cfg):
    chunked = capture_with_device(scenes, labels, device, cfg)
    scalar = capture_with_device_scalar(scenes, labels, device, cfg)
    np.testing.assert_array_equal(chunked.features, scalar.features)
    np.testing.assert_array_equal(chunked.labels, scalar.labels)
    assert chunked.features.flags.c_contiguous
    assert chunked.metadata == scalar.metadata


class TestChunkBoundaryEquivalence:
    """Pools that fill a chunk exactly or cross chunk boundaries: the chunks
    share one generator, so they must still match the per-scene loop."""

    @pytest.mark.parametrize("device", sorted(DEVICE_PROFILES))
    def test_every_device_isp(self, device, chunked_scenes):
        assert_matches_scalar(*chunked_scenes, get_device(device),
                              CaptureConfig(image_size=16, seed=21))

    @pytest.mark.parametrize("device", ["Pixel5", "S22", "S6"])
    def test_raw_path(self, device, chunked_scenes):
        assert_matches_scalar(*chunked_scenes, get_device(device),
                              CaptureConfig(image_size=16, raw=True, seed=22))

    @pytest.mark.parametrize("override", [OPTION1_CONFIG, OPTION2_CONFIG], ids=lambda c: c.name)
    def test_isp_override(self, override, chunked_scenes):
        assert_matches_scalar(*chunked_scenes, get_device("G4"),
                              CaptureConfig(image_size=16, isp_override=override, seed=23))

    def test_rng_stream_matches_legacy_per_scene_draws(self, chunked_scenes):
        """Chunk-by-chunk noise draws from one generator consume it exactly
        like the legacy loop: per scene, a shot-noise then a read-noise draw."""
        scenes, _ = chunked_scenes
        sensor = get_device("S9").sensor
        rng_legacy = np.random.default_rng(99)
        legacy_mosaics = []
        for scene in scenes:
            irradiance = sensor.expose_batch(scene[None])
            shot_sigma = np.sqrt(np.maximum(irradiance, 0.0)) * sensor.shot_noise_scale
            noisy = irradiance + rng_legacy.normal(0.0, 1.0, size=irradiance.shape) * shot_sigma
            noisy = noisy + rng_legacy.normal(0.0, sensor.read_noise, size=irradiance.shape)
            legacy_mosaics.append(bayer_mosaic_batch(np.clip(noisy, 0.0, 1.0),
                                                     pattern=sensor.bayer_pattern)[0])
        rng = np.random.default_rng(99)
        chunked = [sensor.capture_raw_batch(scenes[start:start + CAPTURE_CHUNK], rng).mosaics
                   for start in range(0, len(scenes), CAPTURE_CHUNK)]
        np.testing.assert_array_equal(np.concatenate(chunked), np.stack(legacy_mosaics))


class TestBuildDeviceDatasets:
    def test_bundle_structure(self):
        bundle = build_device_datasets(
            samples_per_class_train=2, samples_per_class_test=1, num_classes=3,
            image_size=16, scene_size=32, devices=["Pixel5", "S6"], seed=0,
        )
        assert set(bundle.train) == {"Pixel5", "S6"}
        assert set(bundle.test) == {"Pixel5", "S6"}
        assert bundle.num_classes == 3
        assert len(bundle.train["Pixel5"]) == 6
        assert len(bundle.test["S6"]) == 3

    def test_same_labels_across_devices(self):
        """Every device captures the same scenes, so labels align across devices."""
        bundle = build_device_datasets(
            samples_per_class_train=2, samples_per_class_test=1, num_classes=3,
            image_size=16, scene_size=32, devices=["Pixel5", "S6", "G7"], seed=0,
        )
        np.testing.assert_array_equal(bundle.train["Pixel5"].labels, bundle.train["S6"].labels)
        np.testing.assert_array_equal(bundle.test["S6"].labels, bundle.test["G7"].labels)

    def test_train_test_scenes_disjoint(self):
        bundle = build_device_datasets(
            samples_per_class_train=2, samples_per_class_test=2, num_classes=3,
            image_size=16, scene_size=32, devices=["Pixel5"], seed=0,
        )
        # Train and test pools come from different seeds, so images differ.
        assert not np.allclose(bundle.train["Pixel5"].features[:3],
                               bundle.test["Pixel5"].features[:3])

    def test_unknown_device_rejected(self):
        with pytest.raises(KeyError):
            build_device_datasets(devices=["Pixel5", "iPhone"], samples_per_class_train=1,
                                  samples_per_class_test=1, num_classes=2)

    def test_devices_helper(self):
        bundle = build_device_datasets(
            samples_per_class_train=1, samples_per_class_test=1, num_classes=2,
            image_size=16, scene_size=32, devices=["Pixel5", "S6"], seed=0,
        )
        assert bundle.devices() == ["Pixel5", "S6"]


# Per-(device, split) feature sums and sums of squares of one tiny fleet build
# (``GOLDEN_BUILD``), as (train sum, train sum of squares, test sum, test sum
# of squares) per device.  They pin the capture numerics themselves: the
# batch-independence tests compare each kernel with itself, so a change inside
# a kernel would pass them but not these.  rtol=1e-12 absorbs last-bit BLAS
# differences between hosts, not real drift.
GOLDEN_BUILD = dict(samples_per_class_train=2, samples_per_class_test=1, num_classes=4,
                    image_size=16, scene_size=32, seed=3)
GOLDEN_MODES = {
    "device_isp": {},
    "raw": {"raw": True},
    "option1": {"isp_override": OPTION1_CONFIG},
    "option2": {"isp_override": OPTION2_CONFIG},
    # JPEG quantization rounds small upstream changes away, so the Table 3
    # columns are pinned without compression too.
    "baseline_uncompressed": {"isp_override": BASELINE_CONFIG.with_stage("compression", "none")},
    "option2_uncompressed": {"isp_override": OPTION2_CONFIG.with_stage("compression", "none")},
}
GOLDEN_SUMS = {
    "device_isp": {
        "Pixel5": (3143.647308604931, 1690.0869021815888, 1659.280885675537, 943.2003705096965),
        "Pixel2": (3061.294088940498, 1603.1325876469987, 1618.6057903847393, 898.8578975300029),
        "Nexus5X": (3040.120017261618, 1834.4162426563134, 1648.775079631339, 1049.1581696834903),
        "VELVET": (4854.6658319809485, 3983.718105856804, 2453.6176748546395, 2039.8927061588638),
        "G7": (3326.258733895449, 2294.7871292646873, 1636.4315255752, 1137.205482773205),
        "G4": (1171.8285989764208, 285.71078638610567, 666.3633448885141, 184.56047018691027),
        "S22": (3519.03066885268, 2499.0443107373617, 1685.0726035008206, 1187.367418197594),
        "S9": (3128.2543094083444, 1676.0809455205185, 1654.024476983959, 938.294597730553),
        "S6": (2892.3178045095483, 1463.3300498740127, 1535.865426760022, 822.689672447048),
    },
    "raw": {
        "Pixel5": (1484.7144882774817, 492.4471338399238, 839.2480597619307, 308.2187222423122),
        "Pixel2": (1406.1036877406282, 438.90601072893634, 797.4251981710339, 278.3282913141495),
        "Nexus5X": (1184.817210957276, 324.011100977856, 673.6237547812135, 202.03152790702444),
        "VELVET": (1480.4914664632122, 486.53987826240837, 837.5085741169087, 305.62745477458503),
        "G7": (1298.8596595839049, 371.0731069583958, 738.0435324538532, 235.81007794812794),
        "G4": (1189.4713016487963, 327.0126452784053, 678.6270601324113, 206.60122726694888),
        "S22": (1674.493578603925, 677.1589379921156, 946.2650750979228, 414.7226208980943),
        "S9": (1475.225915087473, 500.96161533048235, 836.3214378359435, 312.88781041633445),
        "S6": (1285.0677415167602, 401.7073048984815, 728.4895296187016, 246.3575007900792),
    },
    "option1": {
        "Pixel5": (1475.8709158506028, 489.8888026205543, 834.3168857706326, 305.7470409786367),
        "Pixel2": (1396.6462234175956, 437.3400963102274, 789.1311601329227, 274.9006431776379),
        "Nexus5X": (1184.817210957276, 324.011100977856, 673.6237547812135, 202.03152790702444),
        "VELVET": (1472.0021528190898, 484.05152748657923, 832.7889772239585, 303.2129955542131),
        "G7": (1290.7067578590547, 369.83346564006376, 731.5895725081634, 233.22997022832868),
        "G4": (1189.4713016487963, 327.0126452784053, 678.6270601324113, 206.60122726694888),
        "S22": (1664.592327242929, 675.4630084511118, 940.499676815996, 411.9463068272808),
        "S9": (1466.6536768468977, 500.7085730987161, 827.9809325320979, 309.31407283392764),
        "S6": (1285.0677415167602, 401.7073048984815, 728.4895296187016, 246.3575007900792),
    },
    "option2": {
        "Pixel5": (3414.072261636342, 2421.5511146355957, 1663.6493656556158, 1182.6161254082976),
        "Pixel2": (3353.0266668012437, 2341.067616262061, 1651.996235011205, 1160.4920871775635),
        "Nexus5X": (3341.6090895031666, 2327.1089509147014, 1665.0946443601129, 1173.5075289349218),
        "VELVET": (3420.106115067506, 2423.3834976125318, 1669.3812348429947, 1187.5741513724865),
        "G7": (3350.9051279757377, 2336.0514883972746, 1651.5174250706038, 1158.7011479329326),
        "G4": (3331.6643206085314, 2308.308075545334, 1664.5818971356912, 1171.2463269478758),
        "S22": (3424.1198980723148, 2432.208339269646, 1664.3044821933108, 1183.1916994276835),
        "S9": (3360.5511329007477, 2344.9117344832744, 1655.702677124639, 1163.392662370412),
        "S6": (3344.884213705338, 2330.6409635920722, 1652.9909510927791, 1161.2246728857008),
    },
    "baseline_uncompressed": {
        "Pixel5": (3144.398018632488, 1690.9805961221664, 1659.9586353599489, 943.9581670031663),
        "Pixel2": (3062.472741500852, 1604.171852187901, 1617.2646596682946, 897.5495276264603),
        "Nexus5X": (2809.698587214315, 1356.7520769945127, 1485.1872909111557, 761.3433436324265),
        "VELVET": (3146.849117606097, 1688.184197554383, 1661.7455001422704, 943.1852591657342),
        "G7": (2956.9644626583745, 1491.859787989325, 1563.9014903944262, 836.7646932465195),
        "G4": (2821.264011856055, 1363.6299767934456, 1491.2356131482702, 766.187229675841),
        "S22": (3314.792131651042, 1886.0883145054372, 1752.2990483157748, 1053.1847927468384),
        "S9": (3128.8801998304234, 1676.4991570889242, 1654.0166669840519, 938.2414603543859),
        "S6": (2915.737515091836, 1462.6494659841062, 1539.1890676444145, 817.8093436680629),
    },
    "option2_uncompressed": {
        "Pixel5": (3415.6621256681183, 2424.9562366856926, 1666.9223888067024, 1186.0065672305325),
        "Pixel2": (3362.3101925034107, 2355.5963625941085, 1658.6888188505695, 1170.8914038937214),
        "Nexus5X": (3347.21515267029, 2340.217647814914, 1674.770484367536, 1188.200079017754),
        "VELVET": (3422.1438496263254, 2429.0055827038273, 1672.6463640429786, 1193.0740266009232),
        "G7": (3358.5572283976962, 2348.2943176825647, 1655.3795180340364, 1164.8897847459746),
        "G4": (3343.3749965751636, 2332.8754207319835, 1668.9612273771934, 1182.7871888361444),
        "S22": (3426.991468348765, 2436.436714705076, 1666.3487461234813, 1186.6149511036301),
        "S9": (3368.1307819239883, 2361.1571747357866, 1658.6340248793229, 1170.183755590163),
        "S6": (3351.7783907827584, 2351.1979345350446, 1665.573910256409, 1178.0673095395202),
    },
}


class TestCaptureGolden:
    @pytest.mark.parametrize("mode", sorted(GOLDEN_MODES))
    def test_feature_moments_match_golden(self, mode):
        bundle = build_device_datasets(**GOLDEN_BUILD, **GOLDEN_MODES[mode])
        assert bundle.devices() == list(GOLDEN_SUMS[mode])
        for name, expected in GOLDEN_SUMS[mode].items():
            moments = []
            for split in (bundle.train, bundle.test):
                features = split[name].features
                moments += [features.sum(), (features * features).sum()]
            np.testing.assert_allclose(moments, expected, rtol=1e-12, atol=0.0,
                                       err_msg=f"{mode}/{name}")


class TestThreadedBuild:
    """The threaded build returns exactly what sequential captures return."""

    KW = dict(samples_per_class_train=3, samples_per_class_test=2, num_classes=3,
              image_size=16, scene_size=32, seed=4)

    def test_equals_sequential_captures(self):
        bundle = build_device_datasets(**self.KW)
        assert bundle.devices() == list(DEVICE_PROFILES)
        pools = {
            "train": generate_scene_dataset(3, num_classes=3, image_size=32, seed=4),
            "test": generate_scene_dataset(2, num_classes=3, image_size=32, seed=10_004),
        }
        for offset, (name, profile) in enumerate(DEVICE_PROFILES.items()):
            for split, capture_seed in zip(("train", "test"), derive_capture_seeds(4, offset)):
                expected = capture_with_device(*pools[split], profile,
                                               CaptureConfig(image_size=16, seed=capture_seed))
                actual = getattr(bundle, split)[name]
                np.testing.assert_array_equal(actual.features, expected.features)
                np.testing.assert_array_equal(actual.labels, expected.labels)
                assert actual.metadata == expected.metadata

    def test_joins_every_thread(self):
        before = threading.active_count()
        build_device_datasets(**{**self.KW, "devices": ["Pixel5", "S6", "G7"]})
        assert threading.active_count() == before

    def test_capture_error_propagates(self, monkeypatch):
        def failing(scenes, labels, device, config):
            if device.name == "S6":
                raise RuntimeError("sensor fault")
            return capture_with_device(scenes, labels, device, config)

        monkeypatch.setattr("repro.data.capture.capture_with_device", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sensor fault"):
            build_device_datasets(**{**self.KW, "devices": ["Pixel5", "S6", "G7"]})
        assert threading.active_count() == before
