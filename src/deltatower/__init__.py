"""deltatower: exact differential-field towers and a finite pregeometry checker.

The package has two halves that check each other:

* an exact symbolic side: tower elements over the constant field
  Q(c[i][j]) with the eigen-derivation, factored linear operators,
  Wronskians, and a term-minimization independence prover with the
  Q-linear algebra of its eigenvalues;
* a numerical side, the one module ``series`` and the only one that
  imports numpy: truncated power series interpreting the derivation as
  d/dt, used as an independent oracle for the symbolic identities;

plus a finite combinatorial grid model in which closure, rank,
internality, analyses, reductions and coreductions are all computed by
exhaustive search.

Exports are lazy (PEP 562): ``import deltatower`` loads no submodule, and
each name in ``__all__`` imports its module on first use.  A CLI command
loads only what it runs (``tower build`` the exact side, the grid commands
``grid``/``gridcheck``, ``series`` the exact side, ``textio``, ``series``
and numpy), and no module imports ``dataclasses``, whose ``inspect`` costs
a start more than a small tower's checks.
"""

from importlib import import_module

# module -> the names it exports here, separated by spaces
_EXPORTS = {
    "elements": "Element ONE_ELEMENT ZERO_ELEMENT",
    "errors": "BudgetExceeded DeltaTowerError DivisionByZero DomainViolation LengthMismatch "
        "LevelOutOfRange LogOfZero NonInvertibleSeries NotLinear NotMonotone NotNormalForm "
        "ParseError SupportTooSmall TruncationTooShort UnknownSymbol ZeroInitialValue",
    "grid": "Analysis CellSet GridModel analysis_by_coreductions analysis_by_reductions "
        "build_seqred_a build_seqred_b closure coreduction internal is_canonical "
        "is_incompressible is_minimal reduction urank",
    "operators": "EigenDecomposition ExpandedOperator FactoredOperator ProlongedSystem "
        "apply_operator build_E decompose expand is_generic logd_system wronskian",
    "relations": "MonomialRelation ReductionTrace Verdict certify_independence "
        "invariant_monomial qlinear_dot qlinear_independent reduce_step run_reduction",
    "series": "RankReport Series SeriesContext eval_series series_rank_check solve_prolonged",
    "textio": "parse_element",
    "tower": "TowerSpec build_spec d_twist derive logd logd_iter",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
