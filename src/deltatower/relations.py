"""Term-minimization proofs of algebraic independence.

A :class:`MonomialRelation` G = sum_r s_r * y^r stands for a would-be
polynomial relation among eigen-elements y_1..y_m (each y_j satisfies
D_i y_j = lambda_j y_j with constant lambda_j).  One reduction step picks
a pivot r* and replaces G by

    G* = phi(r*) G - D_i(G) = sum_r (phi(r*) - phi(r)) s_r y^r,

where phi(r) = logD_i(s_r) + sum_j r_j lambda_j is the logarithmic
derivative of the whole term.  The pivot term disappears, any term
sharing its functional disappears with it, and G*(y) = 0 whenever
G(y) = 0.  When the functionals are pairwise distinct, iterating shrinks
any support to a single term whose coefficient must vanish; when two
support vectors share a functional, their quotient monomial y^(r2-r1) is
an invariant direction and is surfaced instead.  Neither the eigenvalues
nor the weights r . lambda depend on the step or on the relation: the spec
caches the eigenvalues, a reduction run reads the weights from a table of
the spec per (level, variables), filled on first use, a replay computes its
own, and a step adds only logD_i(s_r) of the non-constant coefficients.  A
weight is one linear combination: over eigenvalues with denominator 1,
the usual case, `qlinear_dot` adds r_j times each numerator term into
one dictionary, not a run of Element sums.

Over the constants (every functional constant) no step changes a
functional: phi* - phi(r) is constant, so its logD_i is 0.  A step
multiplies s_r by the constant (p - r) . lambda, and the constants are a
field, so s_r becomes 0 exactly when r . lambda == p . lambda.  A run
then carries the functionals restricted to the support, and a replay of a
relation with constant coefficients follows the support alone: the trace
stores no coefficient, so the zero test is all a product was for.  Other
relations step on Elements.  A replay re-executes every step, compares it
with the trace, then checks the verdict against the end state.

The weights r . lambda are pairwise distinct for all r exactly when the
eigenvalues are Q-linearly independent (`qlinear_independent`): the
eigenvector argument behind the step rank n_i.

The independent numerical oracle, the series rank check, is in
``series``.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .elements import Element, ONE_ELEMENT, ZERO_ELEMENT
from .errors import LengthMismatch, NotLinear, Record, SupportTooSmall
from .polyring import ONE, Poly, Var, m_pairs
from .tower import TowerSpec, logd

ExponentVector = tuple[int, ...]


# --- Q-linear algebra over the constants ------------------------------------


def qlinear_dot(r: Sequence[int], values: Sequence[Element]) -> Element:
    """The Q-linear functional sum(r_j * values_j).  Over the shared
    denominator 1 it is one accumulation of the numerators' terms, each
    scaled by r_j; other denominators take the Element sums."""
    if len(r) != len(values):
        raise LengthMismatch(f"{len(r)} coefficients for {len(values)} values")
    if any(value.den is not ONE for value in values):
        return sum((value * Fraction(coeff) for coeff, value in zip(r, values)), ZERO_ELEMENT)
    acc: dict = {}
    for coeff, value in zip(r, values):
        if coeff:
            for m, c in value.num.terms.items():
                acc[m] = acc.get(m, 0) + coeff * c
    return Element._parts(Poly(acc))


def linear_coefficients(x: Element) -> tuple[Fraction, dict[Var, Fraction]]:
    """Split a degree-<=1 expression into constant term and symbol coefficients.

    Raises NotLinear on any monomial of total degree >= 2 or a non-trivial
    denominator.
    """
    if not x.den.is_const():
        raise NotLinear(f"not a Q-linear combination: {x}")
    const = Fraction(0)
    coeffs: dict[Var, Fraction] = {}
    for m, c in x.num.terms.items():
        pairs = m_pairs(m)
        if len(pairs) == 0:
            const = c
        elif len(pairs) == 1 and pairs[0][1] == 1:
            coeffs[pairs[0][0]] = c
        else:
            raise NotLinear(f"monomial of degree >= 2 in {x}")
    return const, coeffs


def qlinear_independent(exprs: Iterable[Element]) -> bool:
    """Exact full-row-rank test for Q-linear expressions in the symbols.

    Constant terms take part through an extra coordinate, so e.g.
    ``[1, c[1][1]]`` is independent while ``[c[1][1], 2*c[1][1]]`` is not.
    """
    rows = []
    columns: list[Var | None] = [None]  # None marks the constant coordinate
    for x in exprs:
        const, coeffs = linear_coefficients(x)
        for v in coeffs:
            if v not in columns:
                columns.append(v)
        rows.append((const, coeffs))
    matrix = [
        [const] + [coeffs.get(v, Fraction(0)) for v in columns[1:]]
        for const, coeffs in rows
    ]
    return _row_rank(matrix) == len(matrix)


def _row_rank(matrix: list[list[Fraction]]) -> int:
    """Exact Gaussian elimination over Q."""
    if not matrix:
        return 0
    rows = [row[:] for row in matrix]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


# --- the term-minimization prover -------------------------------------------


class Verdict(Enum):
    NO_NONTRIVIAL_RELATION = "NoNontrivialRelation"
    INVARIANT_MONOMIAL_FOUND = "InvariantMonomialFound"
    DEGENERATE = "Degenerate"


def degree_vectors(m: int, d: int, *, include_zero: bool = True) -> list[ExponentVector]:
    """All exponent vectors of length m with total degree <= d, sorted lex:
    each prefix is extended by every exponent its degree leaves room for,
    so no vector past the bound is built.  The zero vector comes first."""
    vectors: list[ExponentVector] = [()]
    for _ in range(m):
        vectors = [(*r, e) for r in vectors for e in range(d + 1 - sum(r))]
    return vectors if include_zero else vectors[1:]


class MonomialRelation(Record):
    """G(y) = sum over the support of coefficient * y^exponent."""

    __slots__ = ("level", "variables", "coefficients")
    _compared = ("level", "variables")

    def __init__(self, level: int, variables: tuple[Element, ...], coefficients: dict):
        if not coefficients:
            raise ValueError("support must be nonempty")
        for r, s in coefficients.items():
            if len(r) != len(variables):
                raise ValueError("exponent vector length does not match the variables")
            if any(e < 0 for e in r):
                raise ValueError("exponents must be nonnegative")
            if s.is_zero():
                raise ValueError("coefficients must be nonzero")
        super().__init__(level, variables, coefficients)

    @property
    def support(self) -> list[ExponentVector]:
        return sorted(self.coefficients)

    def eigenvalues(self, spec: TowerSpec) -> tuple[Element, ...]:
        """logD_i of each variable, cached per (spec, level, variables) once
        all are constant: a non-eigen variable raises ValueError every call."""
        key = ("eigenvalues", self.level, self.variables)
        lams = spec._caches.get(key)
        if lams is None:
            lams = tuple(logd(v, self.level, spec) for v in self.variables)
            for v, lam in zip(self.variables, lams):
                if not lam.is_constant():
                    raise ValueError(f"{v} is not an eigen-element at level {self.level}")
            spec._caches[key] = lams
        return lams

    def weights(self, spec: TowerSpec) -> dict[ExponentVector, Element]:
        """r . lambda for every support vector: the functionals of constant
        coefficients, the same for every relation a reduction of G reaches.
        Computed afresh, not read from the spec's table, so a replay checks
        the run's functionals against weights of its own."""
        lams = self.eigenvalues(spec)
        return {r: qlinear_dot(r, lams) for r in self.coefficients}

    def _spec_weights(self, spec: TowerSpec) -> dict[ExponentVector, Element]:
        """The spec's table r -> r . lambda of (level, variables), with every
        support vector filled in; created only once the eigenvalues are, so
        a non-eigen variable raises on every call."""
        key = ("weights", self.level, self.variables)
        table = spec._caches.get(key)
        if table is None:
            self.eigenvalues(spec)
            table = spec._caches[key] = {}
        for r in self.coefficients:
            if r not in table:
                table[r] = qlinear_dot(r, self.eigenvalues(spec))
        return table

    def functionals(self, spec: TowerSpec, weights=None) -> dict[ExponentVector, Element]:
        """phi(r) = logD_i(s_r) + r . lambda for every support vector, with
        r . lambda read from ``weights``, or from the spec's table when not
        given."""
        if weights is None:
            weights = self._spec_weights(spec)
        return {r: _plus_logd(weights[r], s, self.level, spec) for r, s in self.coefficients.items()}

    def evaluate(self) -> Element:
        """G at its own variables (the relation candidate's value)."""
        total = ZERO_ELEMENT
        for r, s in self.coefficients.items():
            term = s
            for v, e in zip(self.variables, r):
                if e:
                    term = term * v**e
            total = total + term
        return total


def _plus_logd(phi: Element, s: Element, level: int, spec: TowerSpec) -> Element:
    """phi + logD_i(s); phi itself when s is constant, since then logD_i(s) = 0."""
    return phi if s.is_constant() else phi + logd(s, level, spec)


def reduce_step(G: MonomialRelation, pivot: ExponentVector, spec: TowerSpec) -> MonomialRelation:
    """One minimization step; the pivot term is eliminated exactly."""
    if len(G.coefficients) < 2:
        raise SupportTooSmall("relation already has a single term")
    if pivot not in G.coefficients:
        raise ValueError(f"pivot {pivot} not in the support")
    return _reduce(G, pivot, G.functionals(spec))


def _reduce(G: MonomialRelation, pivot: ExponentVector, phis: dict) -> MonomialRelation:
    """reduce_step with the functionals phis of G already computed."""
    phi_star = phis[pivot]
    new_coeffs: dict[ExponentVector, Element] = {}
    for r, s in G.coefficients.items():
        if r == pivot:
            continue
        coeff = (phi_star - phis[r]) * s
        if not coeff.is_zero():
            new_coeffs[r] = coeff
    if not new_coeffs:
        raise SupportTooSmall(
            "every remaining functional equals the pivot's; no reduction possible"
        )
    return MonomialRelation(G.level, G.variables, new_coeffs)


def _all_constant(values: Iterable[Element]) -> bool:
    """Whether no generator occurs in any of the values: of a run's
    functionals, no step changes them; of a replay's initial coefficients,
    the replay follows the support alone."""
    return all(value.is_constant() for value in values)


def _replay_literal(G: MonomialRelation, steps, weights: dict, spec: TowerSpec) -> dict | None:
    """The steps on Elements: the final coefficients, or None at the first
    step that does not match the one _reduce takes."""
    for step in steps:
        if step.pivot not in G.coefficients:
            return None
        phis = G.functionals(spec, weights)
        if phis != step.functionals:
            return None
        try:
            G = _reduce(G, step.pivot, phis)
        except SupportTooSmall:
            return None
        if tuple(G.support) != step.remaining_support:
            return None
    return G.coefficients


def _replay_support(G: MonomialRelation, steps, weights: dict) -> set | None:
    """The steps of G with constant coefficients, on its support alone: the
    final support, or None at the first step that does not match.  Each
    functional is the weight r . lambda, and step p keeps r exactly when
    (p - r) . lambda, the constant s_r is multiplied by, is nonzero."""
    support = set(G.coefficients)
    for step in steps:
        if step.pivot not in support or step.functionals != {r: weights[r] for r in support}:
            return None
        weight = weights[step.pivot]
        support = {r for r in support if weights[r] != weight}
        if not support or tuple(sorted(support)) != step.remaining_support:
            return None
    return support


class ReductionStep(Record):
    __slots__ = ("pivot", "functionals", "remaining_support")
    _compared = ("pivot", "remaining_support")
    _defaults = {"remaining_support": ()}


class ReductionTrace(Record):
    """Certified log of a reduction run, replayable step by step."""

    __slots__ = _compared = (
        "initial", "steps", "verdict", "invariant_exponent", "invariant_element", "colliding_pair"
    )
    _defaults = dict.fromkeys(("invariant_exponent", "invariant_element", "colliding_pair"))

    def replay(self, spec: TowerSpec) -> bool:
        """Re-execute every step and compare the pivot, the stored
        functionals and the remaining support; then check the verdict
        against the end state.  The weights r . lambda are computed once,
        here, from the initial relation, not read from the spec's table
        that the run filled.

        When every initial coefficient is constant, every functional is its
        weight and a step drops the pivot and each r of the pivot's weight,
        the exact zero test of the constant product (p - r) . lambda * s_r,
        so the replay follows the support alone (`_replay_support`).  Any
        other relation steps on Elements as reduce_step does, each step
        adding logD_i of its expanded coefficients.

        NoNontrivialRelation needs one vector left; InvariantMonomialFound
        the colliding pair left, with equal functionals and
        invariant_exponent = r2 - r1; Degenerate no steps and equal weights
        for the colliding pair, which may hold the zero vector."""
        G = self.initial
        if self.verdict is Verdict.DEGENERATE:
            lams = G.eigenvalues(spec)
            if self.steps or not self._pair_in({*G.coefficients, (0,) * len(lams)}):
                return False
            r1, r2 = self.colliding_pair
            return qlinear_dot(r1, lams) == qlinear_dot(r2, lams)
        weights = G.weights(spec)
        constant = _all_constant(G.coefficients.values())
        if constant:
            final = _replay_support(G, self.steps, weights)
        else:
            final = _replay_literal(G, self.steps, weights, spec)
        if final is None:
            return False
        if self.verdict is Verdict.NO_NONTRIVIAL_RELATION:
            return len(final) == 1
        if not self._pair_in(final):
            return False
        # over the constants no coefficient gains a generator: logD_i(s_r) = 0
        phi1, phi2 = (
            weights[r] if constant else _plus_logd(weights[r], final[r], G.level, spec)
            for r in self.colliding_pair
        )
        r1, r2 = self.colliding_pair
        return phi1 == phi2 and self.invariant_exponent == tuple(b - a for a, b in zip(r1, r2))

    def _pair_in(self, support) -> bool:
        """The colliding pair is two distinct vectors of ``support``."""
        pair = self.colliding_pair
        return pair is not None and len(pair) == 2 and pair[0] != pair[1] and all(
            r in support for r in pair
        )

    def to_json(self) -> str:
        # each support vector's text is built once; an Element keeps its own
        keys: dict[ExponentVector, str] = {}
        doc = {
            "verdict": self.verdict.value,
            "initial_support": [list(r) for r in self.initial.support],
            "variables": [str(v) for v in self.initial.variables],
            "level": self.initial.level,
            "steps": [
                {
                    "pivot": list(s.pivot),
                    "functionals": {
                        keys.get(r) or keys.setdefault(r, ",".join(map(str, r))): str(phi)
                        for r, phi in sorted(s.functionals.items())
                    },
                    "eliminated_term": list(s.pivot),
                    "remaining_support": [list(r) for r in s.remaining_support],
                }
                for s in self.steps
            ],
        }
        if self.invariant_exponent is not None:
            doc["invariant_exponent"] = list(self.invariant_exponent)
            doc["invariant_element"] = str(self.invariant_element)
        if self.colliding_pair is not None:
            doc["colliding_pair"] = [list(r) for r in self.colliding_pair]
        return json.dumps(doc, sort_keys=True)


def run_reduction(G: MonomialRelation, spec: TowerSpec) -> ReductionTrace:
    """Reduce with the lex-least pivot until a verdict, carrying only the
    functionals: a step multiplies s_r by the nonzero phi* - phi(r), and
    logD_i is additive over products, so phi(r) gains logD_i(phi* - phi(r)).
    That is zero when the difference is constant, and phi(r) is kept as it
    is; the weights r . lambda are read once, from the spec's table, by the
    first functionals.
    When every functional is constant, every difference is, and the
    functionals are only restricted to the support left."""
    return _run_reduction(G, G.functionals(spec) if len(G.coefficients) > 1 else {}, spec)


def _run_reduction(G: MonomialRelation, phis: dict, spec: TowerSpec) -> ReductionTrace:
    """run_reduction with the functionals phis of G already computed."""
    steps: list[ReductionStep] = []
    constant = _all_constant(phis.values())
    while len(phis) > 1:
        collision = _find_collision(phis)
        if collision is not None:
            r1, r2 = collision
            return ReductionTrace(
                G,
                tuple(steps),
                Verdict.INVARIANT_MONOMIAL_FOUND,
                invariant_exponent=tuple(b - a for a, b in zip(r1, r2)),
                invariant_element=invariant_monomial(G, r1, r2, spec),
                colliding_pair=(r1, r2),
            )
        pivot = min(phis)
        rest = tuple(sorted(r for r in phis if r != pivot))
        steps.append(ReductionStep(pivot, phis, rest))
        if len(rest) == 1:
            # the survivor's functional is never needed, and its logD can
            # take the general gcd far longer than the whole run
            break
        phis = {
            r: phis[r] if constant else _plus_logd(phis[r], phis[pivot] - phis[r], G.level, spec)
            for r in rest
        }
    return ReductionTrace(G, tuple(steps), Verdict.NO_NONTRIVIAL_RELATION)


def _find_collision(
    phis: dict[ExponentVector, Element],
) -> tuple[ExponentVector, ExponentVector] | None:
    seen: dict[Element, ExponentVector] = {}
    for r in sorted(phis):
        phi = phis[r]
        if phi in seen:
            return seen[phi], r
        seen[phi] = r
    return None


def certify_independence(
    variables: list[Element],
    degree_bound: int,
    spec: TowerSpec,
    *,
    level: int | None = None,
) -> ReductionTrace:
    """Certify that no nonzero constant-coefficient polynomial relation of
    total degree <= degree_bound holds among the eigen-elements.

    The certificate reduces the full generic support; pairwise-distinct
    functionals guarantee every sub-support collapses the same way.  If two
    distinct exponent vectors share a functional value the verdict is
    Degenerate (dependent eigenvalues were supplied).
    """
    if not variables or degree_bound < 1:
        raise ValueError("need at least one variable and degree bound >= 1")
    if level is None:
        level = _infer_level(variables)
    m = len(variables)
    full = {
        r: ONE_ELEMENT for r in degree_vectors(m, degree_bound, include_zero=False)
    }
    generic = MonomialRelation(level, tuple(variables), full)
    phis = generic.functionals(spec)
    collision = _find_collision({(0,) * m: ZERO_ELEMENT, **phis})
    if collision is not None:
        return ReductionTrace(
            generic, (), Verdict.DEGENERATE, colliding_pair=collision
        )
    trace = _run_reduction(generic, phis, spec)
    if trace.verdict is not Verdict.NO_NONTRIVIAL_RELATION:
        raise RuntimeError("distinct functionals but the reduction found a relation")
    return trace


def _infer_level(variables: list[Element]) -> int:
    levels = {v[1] for x in variables for v in x.variables() if v[0] == "b"}
    if not levels:
        return 1
    return max(levels)


def invariant_monomial(
    G: MonomialRelation, r1: ExponentVector, r2: ExponentVector, spec: TowerSpec
) -> Element:
    """The direction y^(r2-r1) whose logarithmic derivative is (r2-r1).lambda."""
    if r1 == r2:
        raise ValueError("r1 and r2 must differ")
    h = ONE_ELEMENT
    for v, e1, e2 in zip(G.variables, r1, r2):
        if e2 != e1:
            h = h * v ** (e2 - e1)
    expected = qlinear_dot([e2 - e1 for e1, e2 in zip(r1, r2)], G.eigenvalues(spec))
    if logd(h, G.level, spec) != expected:
        raise RuntimeError("invariant monomial fails its defining identity")
    return h


# perfbench reads this name from this module; it lives in ``series``,
# which loads only when it is read (PEP 562)
_FORWARDED = ("series_rank_check",)


def __getattr__(name: str):
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import series

    return getattr(series, name)
