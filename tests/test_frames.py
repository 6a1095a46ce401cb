import math

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
        with pytest.raises(BadOptics):
            synth_frames(COHERENT, FrameOptics(peak_level=0.0), n=1, seed=1)
        with pytest.raises(ValueError):
            synth_frames(COHERENT, n=0, seed=1)

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
