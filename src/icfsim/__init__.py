"""Multi-detector intensity interference of two classical light sources.

Closed-form correlation functions (orders 2-4) with scan schemes and
classical visibility limits, a brute-force expansion oracle for arbitrary
order, seeded Monte Carlo estimation, and a digital-frame pipeline
(synthesis, ROI averaging, correlation profiles).
"""

from .analytic import (
    CLASSICAL_LIMITS,
    InterferencePattern,
    PhaseConfig,
    ScanPattern,
    classical_limit,
    extremal_phases,
    g2_point,
    g3_point,
    g4_point,
    scan,
    visibility,
)
from .constants import DEFAULT_SEED
from .expansion import (
    icf_general,
    term_count,
    verify_closed_form,
)
from .frameio import FrameReader, load_frames, save_frames
from .frames import (
    FrameOptics,
    FrameStack,
    HarmonicModulation,
    NoiseModel,
    ProcessedSeries,
    RoiSpec,
    estimate_fringe_period,
    fringe_visibility,
    g3_profile,
    g4_profile,
    mean_profile,
    roi_average,
    synth_frames,
)
from .montecarlo import IcfEstimate, estimate_icf, estimate_scan
from .patternio import (
    read_pattern_csv,
    read_pattern_json,
    write_pattern_csv,
    write_pattern_json,
)
from .sources import (
    SourceModel,
    coherence_envelope,
    moment,
    sample_batch,
)
from .svgplot import write_pattern_svg

__version__ = "0.1.0"
