"""Monte Carlo simulation and analysis of stroboscopic QND spin probing.

An unpolarized cold-atom ensemble is modelled as a Gaussian collective
spin; Faraday-rotation pulses read its components stroboscopically at
one third of the Larmor period; repeated vector measurements are
analyzed for conditional-variance spin squeezing and entanglement.
"""

from .analysis import (
    AnalysisOptions,
    AnalysisResult,
    ConditionalCovariance,
    CovarianceReport,
    FitResult,
    WitnessResult,
    analyze_dataset,
    conditional_covariance,
    cutoff_scan,
    fit_noise_scaling,
    fit_snr_model,
    sample_covariance,
    select_shots,
    squeezing_parameter,
)
from .config import RunConfig, config_from_dict, config_to_dict, load_config
from .errors import (
    CalibrationError,
    ConfigError,
    EstimationError,
    FitError,
    InvariantError,
    SchemaError,
)
from .magnetometry import (
    FieldEstimate,
    fid_signal,
    fit_fid,
    read_fid_csv,
)
from .probe import (
    ProbeConfig,
    PulseOutcome,
    calibrate_g1,
    readout_noise_sigma,
    simulate_pulse,
    snr,
)
from .sequence import (
    CampaignConfig,
    SequenceConfig,
    ShotTable,
    engine_covariance,
    read_dataset,
    run_campaign,
    simulate_shots,
    write_dataset,
)
from .spins import (
    GYROMAGNETIC_RATIO,
    CollectiveSpinState,
    MagneticField,
    apply_rotation,
    larmor_period,
    larmor_rotation_matrix,
    make_tss,
)

__version__ = "0.1.0"
