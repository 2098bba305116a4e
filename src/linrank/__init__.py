"""linrank: exact synthesis of linear/affine ranking functions for loops
described by linear constraints over rationals.

Four library-level entry points mirror the CLI surface:

* termination test           -> `ms_analyze`, `pr_analyze`, `svg_analyze`
* test + one witness         -> the returned `Verdict.witness`
* space of all rankings      -> `ms_space`, `pr_space`, `svg_space`
* decreasing/bounded spaces  -> `ms_decreasing_space`, `ms_bounded_space`

All computation is exact rational arithmetic; see `linrank.cli` for the
command-line front end and `loopfile` for the input grammar.
"""

from .constraints import (
    ConstraintError,
    ConstraintSystem,
    LeqMatrixForm,
    LinConstraint,
    LoopModel,
    VarSpace,
    loop_system,
    merge_guarded,
    to_geq_matrix,
    to_leq_matrix,
)
from .equivalence import (
    CrossCheckReport,
    cone_extend,
    cross_check,
    random_loop,
)
from .loopfile import LoopParseError, parse_loop, serialize_loop
from .ms import (
    RankingFunction,
    RankingSpace,
    TerminationStatus,
    UnsatisfiableLoopError,
    Verdict,
    build_ms_systems,
    ms_analyze,
    ms_bounded_space,
    ms_decreasing_space,
    ms_space,
    svg_analyze,
    svg_global_space,
    svg_space,
)
from .pr import (
    InvalidWitnessError,
    PrAltWitness,
    PrWitness,
    build_pr_system,
    extract_rf,
    pr_alt_analyze,
    pr_alt_space,
    pr_analyze,
    pr_space,
)
from .projection import eliminate, entails, equivalent, project, remove_redundant
from .rationals import Rational, format_rational, parse_rational, rat
from .simplex import (
    LpOutcome,
    LpProblem,
    LpStatus,
    find_point,
    lp,
    satisfiable,
    solve,
)

__version__ = "0.1.0"
