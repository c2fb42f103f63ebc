"""Forward simulation and parameter extraction for piezo-optomechanical
microwave-to-optics transducers."""

__version__ = "0.1.0"

from .em_circuit import (
    BvdParams,
    KineticInductanceModel,
    MatchDesign,
    MatchingParams,
    bvd_motional_branch,
    electrical_s11,
    electromechanical_efficiency,
    input_impedance,
    kinetic_inductance_at,
    match_design,
    matched_load,
    resonance_vs_temperature,
)
from .errors import (
    CalibrationError,
    FitConvergenceError,
    FitError,
    InconsistentAsymmetryError,
    ParameterError,
    RankDeficiencyError,
    SignConventionError,
    SpectrumFormatError,
    TableRangeError,
    TransducerError,
    ValidationError,
)
from .extraction import (
    FitResult,
    SParamQuad,
    bcs_resonance_fit,
    bidirectional_efficiency,
    g0_from_damping,
    lorentzian_fit,
    optical_s11_fit,
    sqrt_lorentzian_fit,
)
from .optomech import (
    DriveTone,
    MechanicalMode,
    OpticalCavity,
    cavity_reflection,
    continuous_efficiency_shape,
    cooperativity,
    intracavity_photons,
    mechanics_to_optics_efficiency,
    optomechanical_damping,
    red_sideband_response,
    single_photon_cooperativity,
    stokes_leakage,
    swap_probability,
    thermal_occupation,
    three_tone_s11,
)
from .piezo import PiezoTensor, out_of_plane_coupling, rotated_piezo_tensor
from .pulsed import (
    EfficiencyBudget,
    JitterModel,
    OperatingPoint,
    PulseSchedule,
    anchor_loading_window,
    calibrate_jitter,
    conversion_spectrum,
    efficiency_budget,
    fit_decay_rate,
    fit_rise_time,
    loading_efficiency_penalty,
    mode_population_trace,
    thermal_vs_pulse_energy,
)
from .device import DeviceModel, Losses, load_config, paper_device_path
from .spectra import ComplexSpectrum, load_spectrum, save_spectrum
