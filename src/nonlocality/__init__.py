"""Quantitative machinery for two-input Bell scenarios.

Three strands, each importable from the top level:

- a reverse triangle inequality for trace distance: states individually far
  from a target keep their mixture far from it (`rti`),
- fraction-of-determinism and classical-fraction decompositions of
  no-signalling boxes (`boxes`, `decomp`),
- universal lower bounds on the deterministic fraction of quantum boxes and
  the Bell-value ceilings they imply (`bounds`).
"""

from types import ModuleType as _ModuleType

from .linalg import (
    max_commutator_entry,
    partial_trace,
    psd_sqrt,
    tensor,
    trace_norm,
)
from .states import (
    DensityMatrix,
    Ensemble,
    Povm,
    SubnormalizedState,
    basis_state,
    ensemble_average,
    fidelity,
    maximally_mixed,
    pure_state,
    sample_density,
    sample_povm,
    singlet,
    steer,
    trace_distance,
    truncate_ensemble,
    xz_spin_povm,
)
from .rti import (
    ClassicalSharpExample,
    RtiInstance,
    RtiReport,
    classical_sharp_example,
    embed_subnormalized,
    extremal_family,
    extremal_gaps,
    fvdg_check,
    rotfeld_check,
    rti_campaign,
    rti_commuting_bound,
    rti_general_bound,
    sample_rti_instance,
    subnormalized_gap,
    verify_rti,
)
from .boxes import (
    BellFunctional,
    Box,
    DeterministicStrategy,
    Scenario,
    assignments,
    bell_algebraic_max,
    bell_det_max,
    bell_value,
    chsh_functional,
    chsh_scenario,
    deterministic_box,
    enumerate_deterministic,
    local_box,
    maximally_mixed_box,
    pr_box,
    quantum_box,
    tsirelson_realization,
    validate_ns,
)
from .decomp import Decomposition, bell_bound_from_fod, cf_exact, fod_exact
from .bounds import (
    BinaryBobBounds,
    PipelineTrace,
    UniversalBound,
    binary_bob_bounds,
    close_pair,
    confusing_outcome,
    epsilon_from_average_distance,
    fod_floor_pipeline,
    mu_objective,
    optimize_mu,
    universal_fod_bound,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
