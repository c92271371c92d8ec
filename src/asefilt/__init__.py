"""Robust adaptive filtering with a saturating sinusoidal error weighting.

Public API: the estimator functions, the budgeted coordinate-descent
solver, the recursive filter steps, signal generators and the Monte
Carlo experiment harness.  The ``asefilt`` console command exposes the
benchmark experiments.
"""

from .counting import OpCounter, OpsPerIteration
from .dcd import DcdParams, DcdSolveResult, dcd_solve
from .estimator import AseParams, ase_cost, ase_score, ase_weight
from .filters import (
    FilterConfig,
    FilterError,
    FilterState,
    NoStepsError,
    StepOutput,
    correlation_update,
    dcd_ase_step,
    filter_init,
    iwf_ase_step,
    iwf_step,
    rmcc_step,
    update_ratio,
)
from .harness import (
    ALGORITHMS,
    AlgoSpec,
    AncSpec,
    NominalOps,
    RunRecord,
    count_ops,
    default_algorithms,
    make_sysid_scenario,
    nmsd,
    random_spd_system,
    run_anc,
    run_sysid,
    steady_state,
)
from .signals import (
    BgNoiseSpec,
    PdPulseSpec,
    ScenarioSpec,
    gen_background,
    gen_bg_noise,
    gen_pd_pulses,
    gen_system,
    iir_shape,
    load_waveform,
    regressors,
    save_waveform,
)

__version__ = "0.1.0"

__all__ = [
    "OpCounter",
    "OpsPerIteration",
    "DcdParams",
    "DcdSolveResult",
    "dcd_solve",
    "AseParams",
    "ase_cost",
    "ase_score",
    "ase_weight",
    "FilterConfig",
    "FilterError",
    "FilterState",
    "NoStepsError",
    "StepOutput",
    "correlation_update",
    "dcd_ase_step",
    "filter_init",
    "iwf_ase_step",
    "iwf_step",
    "rmcc_step",
    "update_ratio",
    "ALGORITHMS",
    "AlgoSpec",
    "AncSpec",
    "NominalOps",
    "RunRecord",
    "count_ops",
    "default_algorithms",
    "make_sysid_scenario",
    "nmsd",
    "random_spd_system",
    "run_anc",
    "run_sysid",
    "steady_state",
    "BgNoiseSpec",
    "PdPulseSpec",
    "ScenarioSpec",
    "gen_background",
    "gen_bg_noise",
    "gen_pd_pulses",
    "gen_system",
    "iir_shape",
    "load_waveform",
    "regressors",
    "save_waveform",
    "__version__",
]
