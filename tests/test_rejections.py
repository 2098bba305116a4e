"""Malformed input to the library is rejected with a named error.

One table per module, each row a callable, its arguments, the exception
type and a fragment of the message.  Every row reaches a check that the
rest of the suite never reaches.
"""

from __future__ import annotations

import pytest

from linrank import ms
from linrank.constraints import (
    ConstraintError,
    ConstraintSystem,
    LinConstraint,
    LoopModel,
    VarSpace,
    merge_guarded,
    to_leq_matrix,
)
from linrank.ms import RankingFunction, svg_global_space
from linrank.pr import _pr_alt_rows
from linrank.projection import equivalent
from linrank.simplex import NONNEG, LpProblem, LpShapeError

X = VarSpace(("x",))
BASE, LOOP = ConstraintSystem(("x",), ()), ConstraintSystem(("x", "x'"), ())


def _clause(n: int) -> ConstraintSystem:
    """A clause over (x1..xn, x1'..xn') with the one row x1 - x1' >= 1."""
    names = tuple(f"x{i}" for i in range(1, n + 1))
    coeffs = (1,) + (0,) * (n - 1) + (-1,) + (0,) * (n - 1)
    primed = tuple(f"{v}'" for v in names)
    return ConstraintSystem(names + primed, (LinConstraint(coeffs, ">=", 1),))


CONSTRAINTS = [
    (LinConstraint((1,), "<=", 0).lhs_at, ((1, 2),), ConstraintError, "point dimension mismatch"),
    (LinConstraint((1,), "<=", 0).render, (("x", "y"),), ConstraintError, "variable list"),
    (ConstraintSystem, (("x", "x"), ()), ConstraintError, "variable names must be unique"),
    (BASE.index_of, ("y",), ConstraintError, "unknown variable 'y'"),
    (BASE.conjoin, (ConstraintSystem(("y",), ()),), ConstraintError, "cannot conjoin"),
    (LoopModel, (X, LOOP, BASE, LOOP), ConstraintError, "either single or guarded"),
    (LoopModel, (X, BASE), ConstraintError, "single system must range over (x, x')"),
    (LoopModel, (X, None, BASE), ConstraintError, "needs both guard and update"),
    (LoopModel, (X, None, BASE, BASE), ConstraintError, "update system must range over"),
    (to_leq_matrix, (BASE, X), ConstraintError, "does not range over the loop's"),
    (merge_guarded, (LoopModel(X, LOOP),), ConstraintError, "expects a guarded loop"),
]

MS = [
    (RankingFunction(0, (1,), 1, 0).value_at, ((1, 2),), ValueError, "point dimension mismatch"),
    (ms.RankingSpace, (("mu0",), BASE, ms.SVG), ConstraintError, "range over its parameters"),
    (ms.combined_varspace, (ConstraintSystem(("x", "y", "z"), ()),), ConstraintError, "odd"),
    (ms.combined_varspace, (ConstraintSystem(("x", "y"), ()),), ConstraintError, "not mirror"),
    (svg_global_space, ([],), ConstraintError, "need at least one clause"),
    (svg_global_space, ([_clause(1), _clause(2)],), ConstraintError, "different arities"),
]

PR = [(_pr_alt_rows, (LoopModel(X, LOOP),), ConstraintError, "needs a guarded loop")]

PROJECTION = [(equivalent, (BASE, ConstraintSystem(("y",), ())), ConstraintError, "variables")]

SIMPLEX = [
    (LpProblem, ((1, 2), False, (), (NONNEG,)), LpShapeError, "objective length"),
    (LpProblem, (None, False, (((1, 2), "<=", 0),), (NONNEG,)), LpShapeError, "row length"),
    (LpProblem, (None, False, (((1,), "<", 0),), (NONNEG,)), LpShapeError, "relation '<'"),
    (LpProblem, (None, False, (), ("positive",)), LpShapeError, "sign 'positive'"),
]


@pytest.mark.parametrize("call,args,error,message", CONSTRAINTS + MS + PR + PROJECTION + SIMPLEX)
def test_malformed_input_is_rejected(call, args, error, message):
    with pytest.raises(error) as info:
        call(*args)
    assert message in str(info.value)
