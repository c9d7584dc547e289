"""Deformed Virasoro currents, screening operators and primary vertex
operators on truncated Fock modules, with numerical verification of
their exchange algebra and of the screened four-point connection
formula.

Layering (import order is acyclic top to bottom):

``qspecial``
    Deformation parameters and basic q-special functions (Pochhammer
    symbols, q-gamma/beta, theta, the basic hypergeometric sum, Jackson
    integration, the elliptic bracket).
``series``
    Truncated power series as coefficient arrays (exp, exp of a log
    rule) and the bilateral comb identity used by every delta-function
    collapse.
``fock``
    The charged bosonic Fock space truncated by partition degree;
    vertex-operator data; exact application matrices, the one way an
    operator acts on the truncated basis.
``voa``
    Concrete operators (current branches, screenings, primaries),
    involutions, contraction kernels, structure functions and their
    convergent product forms.
``relations``
    Matrix-level checkers for every operator identity.
``correlators``
    Two-point scalar, screened four-point functions (lattice and closed
    form) and the elliptic connection matrix.
``cli``
    ``qvirasoro verify`` / ``qvirasoro eval``.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    PoleError,
    QVirasoroError,
    RegimeError,
)
from .fock import (
    NormalOrderedVertex,
    OperatorSum,
    PartitionBasis,
    merge_vertices,
    mode_commutator,
    partitions_of,
)
from .qspecial import (
    BracketParams,
    QParams,
    beta_q,
    bracket,
    gamma_q,
    jackson_between,
    jackson_bilateral,
    jackson_to,
    phi21,
    qpoch,
    qpoch_inf,
    theta_q,
)
from .report import CheckReport
from .series import from_log_rule, series_exp
from .voa import (
    StructureFunctionSpec,
    build_current,
    build_lambda,
    build_screening,
    build_vertex,
    contract,
    omega_conjugate,
    structure_series,
    theta_conjugate,
)

__version__ = "0.1.0"

__all__ = [
    "QVirasoroError",
    "RegimeError",
    "PoleError",
    "ConvergenceError",
    "ConfigError",
    "QParams",
    "BracketParams",
    "qpoch",
    "qpoch_inf",
    "gamma_q",
    "beta_q",
    "theta_q",
    "phi21",
    "bracket",
    "jackson_to",
    "jackson_between",
    "jackson_bilateral",
    "series_exp",
    "from_log_rule",
    "NormalOrderedVertex",
    "OperatorSum",
    "PartitionBasis",
    "partitions_of",
    "mode_commutator",
    "merge_vertices",
    "build_lambda",
    "build_current",
    "build_screening",
    "build_vertex",
    "theta_conjugate",
    "omega_conjugate",
    "contract",
    "StructureFunctionSpec",
    "structure_series",
    "CheckReport",
    "__version__",
]
