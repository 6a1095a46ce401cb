import hashlib
import math
import threading

import numpy as np
import pytest
from scipy.special import j0

from icfsim import (
    FrameOptics,
    FrameStack,
    HarmonicModulation,
    NoiseModel,
    ProcessedSeries,
    RoiSpec,
    ScanPattern,
    SourceModel,
    estimate_fringe_period,
    fringe_visibility,
    g3_profile,
    g4_profile,
    mean_profile,
    roi_average,
    scan,
    synth_frames,
)
from icfsim.errors import (
    BadOptics,
    DivisionByZeroMean,
    ReferenceOutOfRange,
    RoiOutOfBounds,
)
import icfsim.frames as frames_module
from icfsim.constants import DEFAULT_SEED
from icfsim.frames import GOLDEN_FRACTION, HARMONIC_AMPLITUDE_CALIBRATED

COHERENT = SourceModel.coherent()
THERMAL = SourceModel.thermal()

NOISELESS = FrameOptics(noise=NoiseModel.none(), bit_depth=None)
SMALL_NOISELESS = FrameOptics(noise=NoiseModel.none(), bit_depth=None,
                              frame_height=8)
SMALL_ROI = RoiSpec(width=600, height=8, reference_column=300)


class TestSynth:
    def test_frozen_phase_gives_identical_unit_visibility_frames(self):
        stack = synth_frames(COHERENT, NOISELESS, n=5, seed=1,
                             modulation=HarmonicModulation(amplitude=0.0))
        assert np.array_equal(stack.frames[0], stack.frames[1])
        profile = stack.frames[0, 0]
        vis = (profile.max() - profile.min()) / (profile.max() + profile.min())
        assert vis == pytest.approx(1.0, abs=1e-12)

    def test_frozen_phase_matches_fringe_formula(self):
        stack = synth_frames(COHERENT, NOISELESS, n=1, seed=2,
                             modulation=HarmonicModulation(amplitude=0.0))
        x = np.arange(600)
        expected = 30000.0 * (1 + np.cos(2 * np.pi * x / 60.0)) / 2
        assert np.allclose(stack.frames[0, 0], expected, rtol=1e-12)

    def test_mean_frame_fringes_erased_with_uniform_phase(self):
        stack = synth_frames(COHERENT, n=500, seed=3)
        profile = mean_profile(roi_average(stack))
        assert fringe_visibility(profile, 60.0) < 0.1

    def test_thermal_per_column_g2_near_two(self):
        # across frames, a fixed column sees the same-point second-order
        # value (g2+1)/2 + 1/2 = 2; the frame total instead sums the two
        # source energies (interference cancels over whole periods), so its
        # g2 is 1.5 for independent exponentials
        stack = synth_frames(THERMAL, NOISELESS, n=500, seed=4)
        profiles = roi_average(stack).profiles
        g2_cols = (profiles ** 2).mean(axis=0) / profiles.mean(axis=0) ** 2
        assert abs(g2_cols.mean() - 2.0) < 0.30  # within 15% of 2
        totals = profiles.sum(axis=1)
        g2_total = (totals ** 2).mean() / totals.mean() ** 2
        assert abs(g2_total - 1.5) < 0.15

    def test_envelope_shapes_frame(self):
        flat_optics = FrameOptics(noise=NoiseModel.none(), bit_depth=None,
                                  frame_height=4)
        env_optics = FrameOptics(noise=NoiseModel.none(), bit_depth=None,
                                 envelope_fwhm_px=200.0, frame_height=4)
        frozen = HarmonicModulation(amplitude=0.0)
        flat = synth_frames(COHERENT, flat_optics, n=1, seed=5, modulation=frozen)
        shaped = synth_frames(COHERENT, env_optics, n=1, seed=5, modulation=frozen)
        envelope = shaped.frames[0, 0] / np.maximum(flat.frames[0, 0], 1e-9)
        center = 0.5 * (600 - 1)
        assert envelope[299] == pytest.approx(1.0, rel=1e-4)
        # columns a half-FWHM from center carry half the central intensity
        assert envelope[int(center - 100)] == pytest.approx(0.5, rel=0.02)
        assert envelope[int(center + 100)] == pytest.approx(0.5, rel=0.02)

    def test_quantization_and_dtype(self):
        stack = synth_frames(COHERENT, n=10, seed=6)
        assert stack.frames.dtype == np.uint16
        assert stack.frames.max() < 2 ** 16

    def test_bad_optics(self):
        with pytest.raises(BadOptics):
            synth_frames(COHERENT, FrameOptics(fringe_period_px=2.0), n=1, seed=1)
        # a level of inf, or one too large for numpy's Poisson, ended in
        # numpy's ValueError
        for level in (0.0, -1.0, math.nan, math.inf, 1e300):
            with pytest.raises(BadOptics):
                synth_frames(COHERENT, FrameOptics(peak_level=level), n=1, seed=1)
        with pytest.raises(ValueError):
            synth_frames(COHERENT, n=0, seed=1)
        # a negative read noise was recorded and rendered as none, a zero
        # envelope width gave dark frames, a negative one its absolute value
        for optics in (FrameOptics(noise=NoiseModel(gaussian_sigma=-5.0)),
                       FrameOptics(noise=NoiseModel(gaussian_sigma=math.nan)),
                       FrameOptics(envelope_fwhm_px=0.0),
                       FrameOptics(envelope_fwhm_px=-40.0)):
            with pytest.raises(BadOptics):
                synth_frames(COHERENT, optics, n=1, seed=1)
        # a non-finite drive or read noise, an infinite period and float
        # pixels that overflow to inf wrote NaN-cast frames or an Infinity
        # period, or ended in a traceback
        with pytest.raises(BadOptics, match="drive"):
            synth_frames(COHERENT, FrameOptics(noise=NoiseModel.none()), n=2, seed=1,
                         modulation=HarmonicModulation(amplitude=math.nan))
        with pytest.raises(BadOptics, match="drive"):
            synth_frames(COHERENT, FrameOptics(noise=NoiseModel.none()), n=2, seed=1,
                         modulation=HarmonicModulation(frequency=math.inf))
        with pytest.raises(BadOptics, match="gaussian_sigma"):
            synth_frames(COHERENT, FrameOptics(noise=NoiseModel(gaussian_sigma=math.inf)),
                         n=1, seed=1)
        with pytest.raises(BadOptics, match="finite"):
            synth_frames(COHERENT, FrameOptics(noise=NoiseModel(gaussian_sigma=1e308),
                                               bit_depth=None), n=1, seed=1)
        with pytest.raises(BadOptics, match="fringe_period_px"):
            synth_frames(COHERENT, FrameOptics(fringe_period_px=math.inf), n=1, seed=1)
        # a frame of no width or height ended in a ZeroDivisionError, a
        # negative width in numpy's "negative dimensions" ValueError
        for optics in (FrameOptics(frame_width=0), FrameOptics(frame_height=0),
                       FrameOptics(frame_width=-3)):
            with pytest.raises(BadOptics, match="frame_width and frame_height must be at least 1"):
                synth_frames(COHERENT, optics, n=3)

    @pytest.mark.parametrize("bit_depth, dtype, full_scale", [
        (None, np.float64, None), (1, np.uint16, 1), (8, np.uint16, 255),
        (16, np.uint16, 65535), (17, np.uint32, 131071), (32, np.uint32, 2 ** 32 - 1),
        (np.int64(12), np.uint16, 4095)])
    def test_pixel_format_of_each_bit_depth(self, bit_depth, dtype, full_scale):
        assert frames_module.pixel_format(bit_depth) == (dtype, full_scale)
        stack = synth_frames(COHERENT, FrameOptics(bit_depth=bit_depth, frame_width=64,
                                                   frame_height=2), n=2, seed=1)
        assert stack.frames.dtype == dtype

    # 8.5 clipped at 361 but counted no saturated pixel, and wrote a stack
    # that FrameReader rejects
    @pytest.mark.parametrize("bit_depth", [0, 33, 8.5, True])
    def test_bad_bit_depth(self, bit_depth):
        with pytest.raises(BadOptics, match="bit_depth must be an integer in 1..32"):
            synth_frames(COHERENT, FrameOptics(bit_depth=bit_depth), n=1, seed=1)

    def test_worker_determinism(self):
        a = synth_frames(THERMAL, n=40, seed=7)
        b = synth_frames(THERMAL, n=40, seed=7, workers=4)
        assert np.array_equal(a.frames, b.frames)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            synth_frames(COHERENT, n=2, seed=7, workers=workers)

    def test_metadata_records_configuration(self):
        stack = synth_frames(COHERENT, n=3, seed=8,
                             modulation=HarmonicModulation(amplitude=1.5, frequency=0.25))
        assert stack.metadata["kind"] == "coherent"
        assert stack.metadata["phase_modulation"] == {
            "type": "harmonic", "amplitude": 1.5, "frequency": 0.25}


# Stacks at explicit peak levels, 23 frames of 97x5 pixels at seed 5, with
# the SHA-256 of their frames as rendered one frame at a time.  The pins
# depend on numpy's random streams and elementwise kernels; remake them
# from a per-frame renderer if numpy changes those.
RENDER_CASES = {
    "thermal-noisy": (THERMAL, {"peak_level": 30000.0}, None,
                      "0a9fb9fb5e32ab190f678136b5a94cc62e7f65c2c7d827095c03341be3f3b196"),
    "coherent-noisy": (COHERENT, {"peak_level": 30000.0, "envelope_fwhm_px": 40.0}, None,
                       "cdabb047186d8876bfbeddc32779266af6f1ac208e0bb7478ed84709f75b6c02"),
    "noise-free": (THERMAL, {"peak_level": 8000.0, "noise": NoiseModel.none()}, None,
                   "b047f4f9270e6c67d4609b2beed286b2c3360d707bebcc6c1b4449fe21fd1aaa"),
    "harmonic": (COHERENT, {"peak_level": 30000.0}, HarmonicModulation(),
                 "a13bbbfc6fbc24643c769b1a9d203cf97ae65bfb0f1f694228a3c4ce65641d04"),
    "float": (THERMAL, {"peak_level": 30000.0, "bit_depth": None}, None,
              "9f68dfae8c006b14d2843631729e34c495f144ff6932b35a459e11232d66be1c"),
}
CASE_PIXELS = 97 * 5


def render_case(name, workers=1):
    model, optics, modulation, _ = RENDER_CASES[name]
    return synth_frames(model, FrameOptics(frame_width=97, frame_height=5, **optics),
                        n=23, seed=5, modulation=modulation, workers=workers)


def sha(frames):
    return hashlib.sha256(frames.tobytes()).hexdigest()


class TestRenderTasks:
    @pytest.mark.parametrize("name", RENDER_CASES)
    def test_stack_matches_per_frame_pin(self, name):
        assert sha(render_case(name).frames) == RENDER_CASES[name][3]

    def test_benchmark_width_matches_per_frame_pin(self):
        stack = synth_frames(THERMAL, FrameOptics(peak_level=30000.0, frame_height=8),
                             n=12, seed=5)
        assert sha(stack.frames) == \
            "9281f91490d8b715a484b214c91ea8c9a28a6ddefcf51fb0d83af8aaa95d24ee"

    # 300 frames of 64x16 pixels render in tasks of 128, 128 and 44 frames;
    # pinned while each frame's generator came from SeedSequence.spawn and
    # default_rng, seed None standing for DEFAULT_SEED
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model, seed, digest", [
        (THERMAL, 41, "0f94c188bfab7df10a326e11db1268b41b191dec6e7b9398314f287a7c0289d3"),
        (COHERENT, None, "2b6fe637454d1ce81f1b9832337510bd8cb3ab6f4be9c825b3466c5456707a49"),
    ], ids=["thermal", "coherent"])
    def test_multi_task_stack_matches_pin(self, model, seed, digest, workers):
        optics = FrameOptics(frame_width=64, frame_height=16, peak_level=30000.0)
        stack = synth_frames(model, optics, n=300, seed=seed, workers=workers)
        assert stack.frames.dtype == np.uint16
        assert sha(stack.frames) == digest

    # One thermal stack rendered four ways, with its SHA-256 and saturation
    # counts pinned while noise-free stacks broadcast their rows and float
    # stacks rendered into the output in place.
    @pytest.mark.parametrize("bit_depth, noise, digest, saturated", [
        (None, NoiseModel.none(),
         "2b35ac53a4586f79ebad03726627491a0419a499999516482e4de31ac2ebc522", (0, 0)),
        (None, NoiseModel(gaussian_sigma=300.0),
         "c97ea504e5fcf3a3e1131604cc5669d094b686f1a8fd2db0c5983ab1cfea58ad", (0, 0)),
        (12, NoiseModel.none(),
         "2b262a610c7a301790d4600e72bcc2d645266dfa1d44f12af0343a447fc9977f", (205, 2)),
        (12, NoiseModel(gaussian_sigma=300.0),
         "e5a2d9d5046f2c457fe5279b61d532b6d6e39753f28bc70a92ac10cda74e5d7a", (198, 3)),
    ], ids=["float-noise-free", "float-noisy", "12-bit-noise-free", "12-bit-noisy"])
    def test_noise_chain_matches_pin(self, bit_depth, noise, digest, saturated):
        optics = FrameOptics(frame_width=97, frame_height=5, peak_level=3000.0,
                             envelope_fwhm_px=60.0, noise=noise, bit_depth=bit_depth)
        stack = synth_frames(THERMAL, optics, n=23, seed=5)
        assert sha(stack.frames) == digest
        assert (stack.metadata["saturated_pixels"], stack.metadata["saturated_frames"]) \
            == saturated

    @pytest.mark.parametrize("name", RENDER_CASES)
    def test_frames_equal_across_task_splits_and_workers(self, name, monkeypatch):
        expected = render_case(name).frames
        for frames_per_task in (1, 3, 7):
            monkeypatch.setattr(frames_module, "_TASK_PIXELS", frames_per_task * CASE_PIXELS)
            for workers in (1, 2, 4):
                stack = render_case(name, workers)
                assert stack.frames.dtype == expected.dtype
                assert np.array_equal(stack.frames, expected), (frames_per_task, workers)

    def test_one_pool_per_multi_task_call(self, monkeypatch):
        import icfsim.montecarlo as mc
        created = []

        class SpyPool(mc.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("max_workers", args[0] if args else None))
                super().__init__(*args, **kwargs)

        # frames render through the Monte Carlo task runner and its pool
        monkeypatch.setattr(mc, "ThreadPoolExecutor", SpyPool)
        render_case("thermal-noisy", workers=2)  # 23 frames fit one task
        assert created == []
        monkeypatch.setattr(frames_module, "_TASK_PIXELS", 3 * CASE_PIXELS)
        render_case("thermal-noisy", workers=1)
        assert created == []
        render_case("thermal-noisy", workers=2)
        assert created == [2]
        # two tasks: a pool of two threads, not four
        monkeypatch.setattr(frames_module, "_TASK_PIXELS", 12 * CASE_PIXELS)
        render_case("thermal-noisy", workers=4)
        assert created == [2, 2]

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(frames_module, "_TASK_PIXELS", CASE_PIXELS)
        sample_batch = frames_module.sample_batch
        calls = []

        def failing_sample_batch(model, rng, size):
            calls.append(size)
            if len(calls) == 5:
                raise RuntimeError("sampling failed")
            return sample_batch(model, rng, size)

        before = set(threading.enumerate())
        render_case("thermal-noisy", workers=2)
        assert set(threading.enumerate()) == before
        monkeypatch.setattr(frames_module, "sample_batch", failing_sample_batch)
        with pytest.raises(RuntimeError, match="sampling failed"):
            render_case("thermal-noisy", workers=2)
        assert set(threading.enumerate()) == before

    def test_saturation_counts_in_metadata(self):
        stack = synth_frames(THERMAL, FrameOptics(peak_level=30000.0, frame_height=4),
                             n=60, seed=3)
        full = stack.frames == 65535
        assert stack.metadata["saturated_pixels"] == np.count_nonzero(full) > 0
        assert stack.metadata["saturated_frames"] == np.count_nonzero(full.any(axis=(1, 2)))
        assert 0 < stack.metadata["saturated_frames"] < 60
        for name in ("float", "coherent-noisy"):
            metadata = render_case(name).metadata
            assert metadata["saturated_pixels"] == metadata["saturated_frames"] == 0
        # counted at the clip level of a narrow and of a uint32 bit depth,
        # alike by the synthesizer and by roi_average
        for bits, level in ((8, 120.0), (20, 480000.0)):
            stack = synth_frames(THERMAL, FrameOptics(peak_level=level, bit_depth=bits,
                                                      noise=NoiseModel.none(), frame_height=4),
                                 n=60, seed=3)
            full = stack.frames == 2 ** bits - 1
            assert stack.metadata["saturated_pixels"] == np.count_nonzero(full) > 0
            assert roi_average(stack, RoiSpec(height=4)).saturated_pixels == np.count_nonzero(full)


class TestDefaultPeakLevel:
    @pytest.mark.parametrize("model, bit_depth, level", [
        (THERMAL, 16, 2 * 65535 / math.log(1e7)),
        (THERMAL, 12, 2 * 4095 / math.log(1e7)),
        (THERMAL, None, 30000.0),
        (COHERENT, 16, 30000.0),
    ], ids=["thermal-16", "thermal-12", "thermal-float", "coherent-16"])
    def test_resolved_by_kind_and_recorded(self, model, bit_depth, level):
        optics = FrameOptics(bit_depth=bit_depth, frame_width=64, frame_height=2)
        stack = synth_frames(model, optics, n=3, seed=2)
        assert stack.metadata["peak_level"] == level
        explicit = synth_frames(model, FrameOptics(peak_level=level, bit_depth=bit_depth,
                                                   frame_width=64, frame_height=2),
                                n=3, seed=2)
        assert np.array_equal(stack.frames, explicit.frames)

    def test_explicit_level_used_as_given(self):
        stack = synth_frames(THERMAL, FrameOptics(peak_level=30000.0, frame_height=2),
                             n=2, seed=2)
        assert stack.metadata["peak_level"] == 30000.0

    def test_thermal_defaults_reproduce_three_fifths_and_seven_ninths(self):
        # At a peak level of 30000, 1.2% of these pixels clip and this seed
        # gives V3 = 0.561 and V4 = 0.718.
        optics = FrameOptics(noise=NoiseModel.none(), frame_height=4)
        stack = synth_frames(THERMAL, optics, n=20_000, seed=DEFAULT_SEED)
        # 240 columns hold the g3 and g4 offsets of a whole 60-px period
        series = roi_average(stack, RoiSpec(width=240, height=4, reference_column=120))
        assert series.saturated_pixels == 0
        assert abs(g3_profile(series).visibility - 3 / 5) < 0.02
        assert abs(g4_profile(series).visibility - 7 / 9) < 0.02


class TestRoiAverage:
    def test_constant_frames(self):
        frames = np.full((3, 10, 20), 7.0)
        stack = FrameStack(frames=frames, fringe_period_px=8.0)
        series = roi_average(stack, RoiSpec(0, 0, 20, 10, 10))
        assert np.all(series.profiles == 7.0)

    def test_height_one_roi_equals_row(self):
        rng = np.random.default_rng(0)
        frames = rng.uniform(0, 5, (2, 6, 9))
        stack = FrameStack(frames=frames, fringe_period_px=5.0)
        series = roi_average(stack, RoiSpec(1, 2, 7, 1, 3))
        assert np.array_equal(series.profiles[0], frames[0, 2, 1:8])

    def test_noiseless_synthetic_matches_formula(self):
        stack = synth_frames(COHERENT, NOISELESS, n=3, seed=9)
        series = roi_average(stack)
        for j in range(3):
            assert np.allclose(series.profiles[j], stack.frames[j, 0], rtol=1e-9)

    def test_counts_full_scale_pixels_inside_roi_only(self):
        frames = np.zeros((2, 4, 6), dtype=np.uint16)
        frames[0, 1, 2] = frames[1, 3, 4] = 4095  # inside the ROI
        frames[0, 0, 0] = frames[1, 1, 5] = 4095  # outside it
        frames[1, 2, 3] = 4094
        roi = RoiSpec(x0=1, y0=1, width=4, height=3, reference_column=2)
        stack = FrameStack(frames=frames, fringe_period_px=4.0,
                           metadata={"bit_depth": 12})
        assert roi_average(stack, roi).saturated_pixels == 2
        no_depth = FrameStack(frames=frames, fringe_period_px=4.0)
        assert roi_average(no_depth, roi).saturated_pixels == 0

    def test_out_of_bounds(self):
        stack = synth_frames(COHERENT, SMALL_NOISELESS, n=1, seed=10)
        with pytest.raises(RoiOutOfBounds):
            roi_average(stack, RoiSpec(0, 0, 601, 8, 300))
        with pytest.raises(RoiOutOfBounds):
            roi_average(stack, RoiSpec(0, 0, 600, 9, 300))
        with pytest.raises(RoiOutOfBounds):
            roi_average(stack, RoiSpec(0, 0, 600, 8, 600))


class TestMeanProfile:
    def test_identical_frames(self):
        frames = np.tile(np.arange(12, dtype=float).reshape(1, 2, 6), (4, 1, 1))
        stack = FrameStack(frames=frames, fringe_period_px=4.0)
        series = roi_average(stack, RoiSpec(0, 0, 6, 2, 3))
        assert np.array_equal(mean_profile(series), series.profiles[0])

    def test_two_frame_average(self):
        zero = np.zeros((1, 1, 4))
        two = np.full((1, 1, 4), 2.0)
        stack = FrameStack(frames=np.concatenate([zero, two]), fringe_period_px=4.0)
        series = roi_average(stack, RoiSpec(0, 0, 4, 1, 2))
        assert np.array_equal(mean_profile(series), np.ones(4))


class TestCorrelationProfiles:
    def test_coherent_500_frames_visibilities(self):
        stack = synth_frames(COHERENT, NOISELESS, n=500, seed=11)
        series = roi_average(stack)
        g3 = g3_profile(series)
        g4 = g4_profile(series)
        assert abs(g3.visibility - 9 / 11) < 0.05
        assert abs(g4.visibility - 17 / 18) < 0.05

    def test_coherent_shape_matches_analytic_scan(self):
        stack = synth_frames(COHERENT, NOISELESS, n=500, seed=11)
        g3 = g3_profile(roi_average(stack))
        truth = scan(COHERENT, ScanPattern(order=3, scheme="symmetric_opposite",
                                           grid=g3.xs))
        within = np.abs(g3.values - truth.values) <= 3 * g3.stderrs
        assert within.mean() >= 0.95
        assert np.all(np.abs(g3.values - truth.values) <= 6 * g3.stderrs)

    def test_estimator_consistency_at_large_n(self):
        # both profile estimators converge pointwise to the analytic scans
        stack = synth_frames(COHERENT, SMALL_NOISELESS, n=5000, seed=21)
        series = roi_average(stack, SMALL_ROI)
        g3 = g3_profile(series)
        g4 = g4_profile(series)
        truth3 = scan(COHERENT, ScanPattern(order=3, scheme="symmetric_opposite",
                                            grid=g3.xs))
        truth4 = scan(COHERENT, ScanPattern(order=4, scheme="four_point_double_speed",
                                            grid=g4.xs))
        assert np.all(np.abs(g3.values - truth3.values) <= 5 * g3.stderrs)
        assert np.all(np.abs(g4.values - truth4.values) <= 5 * g4.stderrs)

    def test_admissible_ranges_follow_reference(self):
        stack = synth_frames(COHERENT, NOISELESS, n=5, seed=12)
        series = roi_average(stack)
        g3 = g3_profile(series)
        g4 = g4_profile(series)
        scale = 2 * np.pi / 60.0
        assert len(g3.xs) == 299  # x in 1..min(300, 299)
        assert len(g4.xs) == 150  # x in 1..min(150, 299)
        assert g3.xs[0] == pytest.approx(scale)
        assert g4.xs[-1] == pytest.approx(150 * scale)

    @pytest.mark.parametrize("w", [64, 100])
    @pytest.mark.parametrize("r", [0, 10, 31, 50, 63, 70])
    def test_offsets_near_each_edge(self, w, r):
        # x runs over 1..min(r, w-1-r) for (x, 0, -x) and 1..min(r//2, w-1-r)
        # for (x, 0, -x, -2x), whose reference must also lie inside (w/4, 3w/4)
        p = np.random.default_rng(w + r).uniform(1.0, 2.0, (20, w))
        series = ProcessedSeries(profiles=p, reference_column=r, pixel_to_phase=1.0)
        for profile, steps, x_max, window in (
                (g3_profile, (1, 0, -1), min(r, w - 1 - r), True),
                (g4_profile, (1, 0, -1, -2), min(r // 2, w - 1 - r), w / 4 < r < 3 * w / 4)):
            if x_max < 1 or not window:
                with pytest.raises(ReferenceOutOfRange):
                    profile(series)
                continue
            got = profile(series, n_batches=2)
            assert got.xs.tolist() == list(range(1, x_max + 1))
            for value, x in ((got.values[0], 1), (got.values[-1], x_max)):
                cols = [r + k * x for k in steps]
                expected = p[:, cols].prod(axis=1).mean() / p[:, cols].mean(axis=0).prod()
                assert value == pytest.approx(expected, rel=1e-12)

    def test_frozen_phase_factorizes_to_unity(self):
        # an odd fringe period keeps the frozen pattern's zeros off the
        # pixel grid, so the normalization is well defined everywhere
        optics = FrameOptics(noise=NoiseModel.none(), bit_depth=None,
                             fringe_period_px=63.0, frame_height=4)
        stack = synth_frames(COHERENT, optics, n=20, seed=13,
                             modulation=HarmonicModulation(amplitude=0.0))
        series = roi_average(stack, RoiSpec(0, 0, 600, 4, 300))
        g3 = g3_profile(series)
        assert np.all(np.abs(g3.values - 1.0) < 1e-12)

    def test_blocked_source_gives_flat_unity(self):
        # one source blocked: constant frames for coherent light, so the
        # products factorize exactly
        frames = np.full((30, 4, 200), 5.0)
        stack = FrameStack(frames=frames, fringe_period_px=20.0)
        series = roi_average(stack, RoiSpec(0, 0, 200, 4, 100))
        g3 = g3_profile(series)
        assert np.all(g3.values == 1.0)

    def test_blocked_thermal_source_gives_source_moment(self):
        rng = np.random.default_rng(14)
        energies = rng.exponential(1.0, 4000)
        frames = np.tile(energies[:, None, None], (1, 2, 64))
        stack = FrameStack(frames=frames, fringe_period_px=8.0)
        g3 = g3_profile(roi_average(stack, RoiSpec(0, 0, 64, 2, 32)))
        target = (energies ** 3).mean() / energies.mean() ** 3
        assert np.allclose(g3.values, target, rtol=1e-9)

    def test_even_in_offset_sign_by_construction(self):
        # swapping +x and -x permutes the same columns, so the estimate is
        # exactly even in the offset
        stack = synth_frames(THERMAL, SMALL_NOISELESS, n=50, seed=15)
        p = roi_average(stack, SMALL_ROI).profiles
        r = 300
        for x in (10, 77, 150):
            forward = (p[:, r + x] * p[:, r] * p[:, r - x]).mean()
            backward = (p[:, r - x] * p[:, r] * p[:, r + x]).mean()
            assert forward == backward

    def test_reference_out_of_range_for_g4(self):
        stack = synth_frames(COHERENT, SMALL_NOISELESS, n=5, seed=16)
        series = roi_average(stack, RoiSpec(0, 0, 600, 8, 100))
        g3_profile(series)  # fine for third order
        with pytest.raises(ReferenceOutOfRange):
            g4_profile(series)

    def test_division_by_zero_mean(self):
        frames = np.full((10, 2, 64), 3.0)
        frames[:, :, 40] = 0.0  # dead column inside the admissible range
        stack = FrameStack(frames=frames, fringe_period_px=8.0)
        series = roi_average(stack, RoiSpec(0, 0, 64, 2, 32))
        with pytest.raises(DivisionByZeroMean):
            g3_profile(series)

    def test_stderrs_present_with_enough_frames(self):
        stack = synth_frames(COHERENT, SMALL_NOISELESS, n=40, seed=17)
        g3 = g3_profile(roi_average(stack, SMALL_ROI), n_batches=10)
        assert g3.stderrs is not None
        g3_few = g3_profile(roi_average(stack, SMALL_ROI), n_batches=30)
        assert g3_few.stderrs is None  # 40 frames cannot fill 30 batches
        # a batch needs two frames: 2 n_batches - 1 frames give no stderr
        series = roi_average(stack, SMALL_ROI)
        for n, formed in ((19, False), (20, True)):
            edge = ProcessedSeries(profiles=series.profiles[:n], reference_column=300,
                                   pixel_to_phase=series.pixel_to_phase)
            assert (g3_profile(edge, n_batches=10).stderrs is not None) == formed



def _pin_profiles(n):
    """n seeded thermal fringe profiles of 9 columns, period 8 px."""
    rng = np.random.default_rng(31)
    ia, ib = rng.exponential(size=(2, 1005))
    theta = rng.uniform(0, 2 * np.pi, 1005)
    fringe = np.cos(2 * np.pi * np.arange(9) / 8 + theta[:, None])
    profiles = (ia + ib)[:, None] + 2 * np.sqrt(ia * ib)[:, None] * fringe + 0.25
    return ProcessedSeries(profiles=profiles[:n], reference_column=4,
                           pixel_to_phase=2 * np.pi / 8)


# (frames, batches) -> g3 and g4 (values, stderrs), made before the frame
# profiles shared the Monte Carlo estimator; 1005 frames leave 5 frames out
# of the batches, and 40 frames cannot fill 30 batches of two.
PINNED_PROFILES = {
    (1000, 10): (
        ([4.0175107046358, 1.9295334973076697, 1.4463519567324497, 1.708865909283319],
         [0.49502036968060986, 0.177370305983417, 0.07268943889445703, 0.11511256989251849]),
        ([9.544293550239168, 2.3405682685710376], [1.8596172155025594, 0.19225205238727616])),
    (1005, 10): (
        ([4.006741300936074, 1.9214767430355773, 1.4418869339712834, 1.7035305495225412],
         [0.49502036968060986, 0.177370305983417, 0.07268943889445703, 0.11511256989251849]),
        ([9.506141642862938, 2.3265772735883092], [1.8596172155025594, 0.19225205238727616])),
    (40, 30): (
        ([2.28767454272305, 1.4065057603257338, 1.580219196140079, 2.2450673719580023], None),
        ([3.190731767540752, 2.059448843267122], None)),
}


@pytest.mark.parametrize("frames, batches", list(PINNED_PROFILES))
def test_profiles_match_pins(frames, batches):
    series = _pin_profiles(frames)
    for profile, (values, stderrs) in zip((g3_profile, g4_profile),
                                          PINNED_PROFILES[frames, batches]):
        got = profile(series, n_batches=batches)
        np.testing.assert_allclose(got.values, values, rtol=1e-13, atol=0)
        if stderrs is None:
            assert got.stderrs is None
        else:
            np.testing.assert_allclose(got.stderrs, stderrs, rtol=1e-13, atol=0)


class TestHarmonicModulation:
    def test_calibrated_amplitude_minimizes_bessel_leakage(self):
        # the frozen constant must sit where J0(kA) is small for k = 1..3;
        # scipy's Bessel evaluation is the independent reference
        a = HARMONIC_AMPLITUDE_CALIBRATED
        assert max(abs(j0(a)), abs(j0(2 * a)), abs(j0(3 * a))) < 0.02

    def test_harmonic_uniform_equivalence_at_calibrated_amplitude(self):
        n = 5000
        uniform = synth_frames(COHERENT, SMALL_NOISELESS, n=n, seed=18)
        harmonic = synth_frames(COHERENT, SMALL_NOISELESS, n=n, seed=18,
                                modulation=HarmonicModulation())
        gu = g3_profile(roi_average(uniform, SMALL_ROI))
        gh = g3_profile(roi_average(harmonic, SMALL_ROI))
        combined = np.sqrt(gu.stderrs ** 2 + gh.stderrs ** 2)
        assert np.all(np.abs(gu.values - gh.values) <= 5 * combined)

    def test_harmonic_erases_mean_fringes(self):
        stack = synth_frames(COHERENT, SMALL_NOISELESS, n=2000, seed=19,
                             modulation=HarmonicModulation())
        profile = mean_profile(roi_average(stack, SMALL_ROI))
        assert fringe_visibility(profile, 60.0) < 0.05

    def test_golden_fraction_default(self):
        assert HarmonicModulation().frequency == GOLDEN_FRACTION


class TestFringeTools:
    def test_fringe_visibility_of_clean_fringe(self):
        x = np.arange(600)
        for v in (0.2, 0.7, 1.0):
            profile = 10.0 * (1 + v * np.cos(2 * np.pi * x / 60.0))
            assert fringe_visibility(profile, 60.0) == pytest.approx(v, abs=1e-12)

    def test_fringe_visibility_ignores_smooth_envelope(self):
        x = np.arange(600)
        env = np.exp(-((x - 300.0) / 250.0) ** 2)
        profile = env * (1 + 0.5 * np.cos(2 * np.pi * x / 60.0))
        assert fringe_visibility(profile, 60.0) == pytest.approx(0.5, abs=0.02)

    def test_period_estimation(self):
        stack = synth_frames(COHERENT, NOISELESS, n=1, seed=20,
                             modulation=HarmonicModulation(amplitude=0.0))
        assert estimate_fringe_period(stack.frames[0]) == pytest.approx(60.0, abs=0.2)


class TestFrameStackInvariants:
    def test_negative_pixels_rejected(self):
        with pytest.raises(ValueError):
            FrameStack(frames=np.full((1, 2, 2), -1.0), fringe_period_px=8.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_pixels_rejected(self, value):
        frames = np.ones((2, 2, 2))
        frames[1, 0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            FrameStack(frames=frames, fringe_period_px=8.0)

    def test_bit_depth_bound_enforced(self):
        frames = np.full((1, 2, 2), 70000.0)
        with pytest.raises(ValueError):
            FrameStack(frames=frames, fringe_period_px=8.0,
                       metadata={"bit_depth": 16})

    def test_bit_depth_integrality_enforced(self):
        frames = np.full((1, 2, 2), 3.5)
        with pytest.raises(ValueError):
            FrameStack(frames=frames, fringe_period_px=8.0,
                       metadata={"bit_depth": 16})

    def test_series_properties(self):
        series = ProcessedSeries(profiles=np.ones((5, 30)), reference_column=15,
                                 pixel_to_phase=0.1)
        assert series.n_frames == 5
        assert series.width == 30


def reference_series(frames, roi, full_scale):
    """Profiles and saturation count of a frame-by-frame float64 reduction."""
    crops = [f[roi.y0:roi.y0 + roi.height, roi.x0:roi.x0 + roi.width] for f in frames]
    profiles = np.array([c.mean(axis=0, dtype=np.float64) for c in crops])
    saturated = 0 if full_scale is None else sum(int(np.count_nonzero(c == full_scale))
                                                 for c in crops)
    return profiles, saturated


class TestRoiAverageBits:
    """Block reductions give the bits of a frame-by-frame float64 mean."""

    @pytest.mark.parametrize("bit_depth, fmt", [(16, "pgm"), (12, "pgm"), (24, "csv"),
                                                (None, "csv")],
                             ids=["uint16", "12-bit", "uint32", "float"])
    @pytest.mark.parametrize("roi", [RoiSpec(0, 0, 40, 9, 20), RoiSpec(3, 2, 31, 5, 11)],
                             ids=["full-height", "offset"])
    @pytest.mark.parametrize("budget", [None, 3], ids=["default-blocks", "3-frame-blocks"])
    def test_matches_frame_by_frame_mean(self, tmp_path, monkeypatch, bit_depth, fmt, roi,
                                         budget):
        from icfsim.frameio import FrameReader, save_frames

        rng = np.random.default_rng(bit_depth or 0)
        shape = (10, 9, 40)
        if bit_depth is None:
            frames = rng.uniform(0.0, 1e4, shape)
        else:
            frames = rng.integers(0, 2 ** bit_depth, shape).astype(
                np.uint16 if bit_depth <= 16 else np.uint32)
            frames[4] = 2 ** bit_depth - 1  # a full-scale frame
            frames[7, :, 5] = 2 ** bit_depth - 1
        if budget:
            itemsize = 8 if fmt == "csv" else 2
            monkeypatch.setattr(frames_module, "_BLOCK_BYTES", budget * frames[0].size * itemsize)
        stack = FrameStack(frames=frames, fringe_period_px=8.0,
                           metadata={"bit_depth": bit_depth})
        reader = FrameReader(save_frames(stack, tmp_path / "stack", fmt=fmt))
        profiles, saturated = reference_series(frames, roi, 2 ** bit_depth - 1
                                               if bit_depth else None)
        for source in (stack, reader):
            series = roi_average(source, roi)
            assert series.profiles.tobytes() == profiles.tobytes()
            assert series.saturated_pixels == saturated
        assert saturated >= (roi.width * roi.height if bit_depth else 0)

    # uint16 columns of 65537 full-scale rows fill uint32, of 65538 need
    # uint64; uint32 columns of 2^21 rows stay below 2^53 and of 2^21 + 1
    # reach it, where the sum is taken in float64
    @pytest.mark.parametrize("dtype, rows, accumulator", [
        (np.uint16, 65537, np.uint32), (np.uint16, 65538, np.uint64),
        (np.uint32, 2 ** 21, np.uint64), (np.uint32, 2 ** 21 + 1, None),
        (np.float64, 3, None),
    ])
    def test_accumulator_at_its_limits(self, dtype, rows, accumulator):
        assert frames_module._sum_dtype(np.dtype(dtype), rows) is accumulator
        full = 7.0 if dtype == np.float64 else np.iinfo(dtype).max
        frames = np.full((1, rows, 1), full, dtype=dtype)
        frames[0, ::3] -= 1
        roi = RoiSpec(0, 0, 1, rows, 0)
        series = roi_average(FrameStack(frames=frames, fringe_period_px=8.0), roi)
        assert series.profiles.tobytes() == reference_series(frames, roi, None)[0].tobytes()
