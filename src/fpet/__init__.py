"""Computable fractional-polynomial multiple ergodic averages on torus flows.

Exact-rational fractional polynomials and their goodness taxonomy, the
precedence induction order with its descent DAG, tempered interval sequences
and fractional-power time changes, torus translation systems with
trigonometric-polynomial observables and integer-lattice factors, and the
averages themselves: finite-interval values by Fresnel closed forms or
oscillatory quadrature, limits and self-joining moments by exact character
arithmetic.
"""

from .averages import (
    AverageResult,
    CharacteristicReport,
    ConvergenceReport,
    ConvergenceRow,
    VdcReport,
    convergence_diagnostic,
    furstenberg_moment,
    multiple_average,
    partially_characteristic_check,
    symbolic_limit,
    vdc_bound_check,
)
from .fpoly import (
    FPoly,
    FPolyFamily,
    degree,
    family_from_text,
    family_is_good,
    family_to_text,
    is_good,
    is_top_degree,
    lift_to_independent,
    lower_part,
    random_good_family,
    subtract,
)
from .interval import (
    TemperedSequence,
    TimeChangeWeights,
    standard_tempered_families,
    tempered_family,
    time_change_weights,
    time_changed_average,
    time_changed_average_via_weights,
)
from .order import (
    DagBudgetError,
    InductionDag,
    PrecedentStep,
    StepKind,
    canonical_family,
    dag_to_text,
    induction_dag,
    precedents,
    precedes,
)
from .quadrature import (
    DEFAULT_BUDGET,
    Phase,
    QuadratureBudgetError,
    osc_phase_average,
)
from .textkv import ParseError
from .torus import (
    CharacterLattice,
    TorusSystem,
    TrigPoly,
    isotropy_lattice,
    lattice_join,
    system_from_text,
    system_to_text,
    trigpoly_from_text,
    trigpoly_to_text,
    xi_factor,
)

__version__ = "0.1.0"
