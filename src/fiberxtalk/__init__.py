"""Single-photon inter-fiber crosstalk: simulation, OTDR-style analysis, planning."""

__version__ = "0.1.0"

from .errors import DataError, InputError, ParameterError, ResourceError, XtalkError
from .units import (
    C_BAND_NM,
    C_M_PER_S,
    DEFAULT_GROUP_INDEX,
    H_JOULE_S,
    O_BAND_NM,
)
from .plant import (
    CrosstalkPoint,
    FiberSpan,
    MpoConnector,
    Topology,
    crosstalk_points,
    load_topology,
    mpo_coupling_db,
    path_loss_db,
)
from .simulate import (
    Detector,
    LeakLine,
    PulsedSource,
    SpectralScan,
    TagStream,
    TunableFilter,
    simulate_otdr_tags,
    simulate_spectral_scan,
)
from .analysis import (
    BaselineEstimate,
    Histogram,
    LocatedCrosstalk,
    Peak,
    SpectralLine,
    SpectralReport,
    detect_peaks,
    detect_spectral_lines,
    estimate_baseline,
    estimate_coupling_db,
    fit_poisson_amplitudes,
    fold_histogram,
    localize,
    run_otdr_analysis,
)
from .switchlab import (
    Assignment,
    SwitchModel,
    brute_force_assignment,
    optimize_assignment,
    sweep_configs,
    sweep_wavelength,
    switch_xtalk_db,
)

__all__ = [name for name in dir() if not name.startswith("_")]
