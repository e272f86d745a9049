"""Adaptive least-mean-squares filtering of edge flows on simplicial complexes.

The package covers the full pipeline: construction of oriented
2-complexes and their Hodge operators, streaming edge-signal generation,
the centralized adaptive filter with its steady-state theory, optimal
edge-sampling design, joint topology (triangle) inference, a distributed
diffusion variant, and an experiment CLI.
"""

__version__ = "0.1.0"

from .complexes import (
    HodgeComponents,
    HodgeOperators,
    SimplicialComplex2,
    build_incidence,
    enumerate_3cliques,
    hodge_decompose,
    hodge_laplacians,
    inverse_sft,
    load_complex,
    random_complex,
    save_complex,
    sft,
)
from .signals import (
    FilterCoeffs,
    MomentSet,
    StreamBlock,
    StreamConfig,
    generate_stream,
    moments_closed_form,
    moments_empirical,
)
from .lms import (
    TheoryReport,
    lms_step,
    max_stepsize,
    run_experiment,
    theory_report,
)
from .sampling import SamplingProblem, SamplingSolution, check_constraints, solve_sampling
from .inference import (
    candidate_set,
    grad_t,
    infer_step,
    prox_hard_threshold,
)
from .diffusion import (
    atc_step,
    build_combination,
    check_irreducible,
    dist_theory,
    run_distributed,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InfeasibleProblemError,
    SimplexLmsError,
    StabilityError,
)
