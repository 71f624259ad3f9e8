"""Simulation and certificate checking for hybrid dynamical systems.

Subpackages cover set geometry, hybrid system data structures, a fixed-step
event-refining simulator, behavioral spec monitors, Lyapunov/barrier
certificate checkers, a sample-and-hold CLF-CBF controller, and two built-in
case studies (a bouncing ball and a Moore-Greitzer surge model).
"""

from .geometry import (
    AxisBox,
    Ball,
    Complement,
    DegenerateDomain,
    EmptySet,
    Implicit,
    Inflated,
    Intersection,
    SamplingError,
    SetRegion,
    Union,
    UnsupportedDistance,
    contains,
    dist_to_set,
    make_proper_indicator,
    sample_region,
)
from .hybrid import (
    DimensionMismatch,
    Disturbance,
    HybridArc,
    HybridSystem,
    OutOfDomain,
    Termination,
    arc_from_csv,
    arc_from_json,
    arc_to_csv,
    make_system,
    perturb,
)
from .report import CheckReport, Counterexample, Verdict
from .simulate import (
    BadInitialCondition,
    HorizonTooShort,
    SimConfig,
    SolveReport,
    closeness,
    companion_radius_bound,
    construct_perturbed,
    estimate_lipschitz,
    reachable_sample,
    solve,
    solve_many,
    verify_solution,
)
from .monitor import (
    EmptyEstimate,
    RASSpec,
    StabSafeSpec,
    check_forward_invariance,
    check_ras,
    check_stability_safety,
    estimate_invariant_core,
)
from .certificates import (
    CertificatePair,
    GridSpec,
    MissingBarrier,
    MissingIndicator,
    ScalarField,
    check_pair_VB,
    check_single_V,
    condition_margin_fn,
    decrement_along_arc,
    falsify,
    grad_check,
)
from .controller import (
    ControlledPlant,
    QPProblem,
    SampleHoldConfig,
    admissible_constraints,
    augment_sample_hold,
    initial_augmented,
    make_sample_hold_policy,
    qp_policy,
    solve_qp,
)
from .examples import (
    BouncingBallParams,
    DomainViolation,
    MooreGreitzerParams,
    NoConvergence,
    ball_attractor,
    ball_operating_box,
    bouncing_ball,
    first_impact_time,
    mg_closed_loop,
    mg_equilibrium,
    moore_greitzer,
    psi_c,
)
from .expressions import ExpressionError, predicate_fn, scalar_fn, vector_fn

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
