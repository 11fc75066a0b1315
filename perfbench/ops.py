"""In-process operations of the ``prover`` and ``oracle`` workloads.

Each operation is ``(name, fn)``; ``fn()`` returns ``(ok, detail)``.  ``ok``
compares the program's verdict with a reference that is written by hand
or computed in closed form here, never taken from program output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from itertools import product

import numpy as np

from deltatower import cli
from deltatower.elements import Element
from deltatower.operators import logd_system, prolonged_residual, solve_prolonged
from deltatower.relations import (
    MonomialRelation,
    Verdict,
    certify_independence,
    run_reduction,
    series_rank_check,
)
from deltatower.textio import parse_element
from deltatower.tower import (
    SeriesContext,
    build_spec,
    delta_consistency_residual,
    eval_series,
    random_element,
)

ORACLE_SPECS = [(2, 2), (3,), (1, 1, 1), (2, 1, 2), (3, 3)]
ORACLE_ORDERS = (12, 32, 64)
# seeded elements per tower spec; each is checked at every order
ORACLE_ELEMENTS = 100
SEEDED_RELATIONS = 200


def exponent_vectors(m: int, d: int, *, include_zero: bool) -> list[tuple[int, ...]]:
    """All r in N^m with |r| <= d, enumerated independently of the program."""
    low = 0 if include_zero else 1
    return [r for r in product(range(d + 1), repeat=m) if low <= sum(r) <= d]


def _certify(spec, variables, d, level, expected: Verdict, steps: int):
    def run():
        trace = certify_independence(variables, d, spec, level=level)
        replayed = trace.replay(spec)
        doc = json.loads(trace.to_json())
        ok = (
            trace.verdict is expected
            and replayed
            and len(trace.steps) == steps
            and doc["verdict"] == expected.value
            and len(doc["steps"]) == steps
        )
        return ok, f"{trace.verdict.value} steps={len(trace.steps)}/{steps} replay={replayed}"

    return run


def _seeded_relation(spec, variables, size: int, rng: random.Random):
    pool = exponent_vectors(len(variables), 3, include_zero=False)
    support = rng.sample(pool, size)
    coefficients = {r: Element.from_rational(rng.randint(1, 5)) for r in support}

    def run():
        G = MonomialRelation(1, tuple(variables), coefficients)
        trace = run_reduction(G, spec)
        replayed = trace.replay(spec)
        doc = json.loads(trace.to_json())
        ok = (
            trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
            and replayed
            and len(trace.steps) == len(support) - 1
            and len(doc["steps"]) == len(support) - 1
        )
        return ok, f"{trace.verdict.value} steps={len(trace.steps)}/{len(support) - 1}"

    return run


def prover_ops(seed: int) -> list[tuple[str, object]]:
    ops = []
    # supports of 2..6 terms, as in test_random_supports_collapse; the sizes
    # cycle so that only the terms and coefficients depend on the seed
    spec = build_spec((3,))
    rng = random.Random(f"prover:{seed}")
    for k in range(SEEDED_RELATIONS):
        m, size = 2 + k % 2, 2 + k % 5
        variables = spec.generators(1)[:m]
        ops.append((f"reduce seeded#{k} m={m} terms={size}", _seeded_relation(spec, variables, size, rng)))
    none = Verdict.NO_NONTRIVIAL_RELATION
    for m in (1, 2, 3):
        for d in (1, 2, 3, 4, 5):
            # the full support has C(m+d, d) - 1 terms; each step removes one
            steps = math.comb(m + d, d) - 2
            ops.append((f"certify(3,) m={m} d={d}", _certify(spec, spec.generators(1)[:m], d, 1, none, steps)))
    for utype, level in (((3, 3), 2), ((1, 1, 3), 3)):
        s = build_spec(utype)
        for d in (1, 2, 3):
            steps = math.comb(3 + d, d) - 2
            ops.append((f"certify{utype} level={level} d={d}", _certify(s, s.generators(level), d, level, none, steps)))
    b11 = spec.generator(1, 1)
    ops.append(("certify duplicated b[1][1]", _certify(spec, [b11, b11], 2, 1, Verdict.DEGENERATE, 0)))
    return ops


def _element_op(x, spec, order):
    def run():
        text = str(x)
        y = parse_element(text)
        ctx = SeriesContext.default(spec, order=order)
        s = eval_series(y, ctx, spec)
        residual = delta_consistency_residual(y, ctx, spec)
        # derive and d/dt agree exactly, so the CLI's 1e-9 test must PASS
        ok = y == x and bool(np.all(np.isfinite(s.coeffs))) and residual < 1e-9
        return ok, f"{text} order={order} residual={residual:.3e}"

    return run


def _prolonged_op(n, initial, order):
    def run():
        system = logd_system(n, 0)
        xs = solve_prolonged(system, initial, order)
        residual = prolonged_residual(system, xs)
        ok = len(xs) == n and residual < 1e-9
        return ok, f"residual={residual:.3e}"

    return run


def _rank_op(m, d, values, basis):
    """Rank of the monomial series equals the number of distinct r.lambda.

    ``basis`` writes each assigned value as integer coordinates over a
    Q-linearly independent basis (1 for (2,3,5); 1, pi, pi^2 for the other),
    so distinct values are counted exactly.
    """
    spec = build_spec((3,))
    variables = spec.generators(1)[:m]
    expected = len({
        tuple(sum(e * b[k] for e, b in zip(r, basis)) for k in range(len(basis[0])))
        for r in exponent_vectors(m, d, include_zero=True)
    })
    ctx = SeriesContext(order=16, values=tuple((("c", 1, j + 1), v) for j, v in enumerate(values)))

    def run():
        report = series_rank_check(variables, d, ctx, spec)
        return report.rank == expected, f"rank={report.rank} expected={expected} rows={report.rows}"

    return run


def _cli_op(argv, code, lines=(), error=False):
    """Run the CLI in process; expect ``code`` and, for exit 2, exactly one
    ``error:`` line on stderr."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                got = cli.main(list(argv))
            except SystemExit as exc:
                got = exc.code
        text = out.getvalue().splitlines()
        err_lines = err.getvalue().splitlines()
        ok = got == code and all(line in text for line in lines)
        if error:
            ok = ok and len(err_lines) == 1 and err_lines[0].startswith("error:")
        return ok, f"exit={got} expected={code}"

    return run


def oracle_ops(seed: int, work: str) -> list[tuple[str, object]]:
    ops = []
    for utype in ORACLE_SPECS:
        spec = build_spec(utype)
        rng = random.Random(f"oracle:{seed}:{utype}")
        elements = [random_element(rng, spec) for _ in range(ORACLE_ELEMENTS)]
        for order in ORACLE_ORDERS:
            for k, x in enumerate(elements):
                ops.append((f"element{utype}#{k} order={order}", _element_op(x, spec, order)))
    rng = random.Random(f"oracle:{seed}:prolonged")
    for order in ORACLE_ORDERS:
        for n in range(1, 7):
            initial = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(n)]
            ops.append((f"prolonged n={n} order={order}", _prolonged_op(n, initial, order)))
    primes = ((2.0, 3.0, 5.0), [(2,), (3,), (5,)])
    pis = ((1.0, math.pi, math.pi**2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for label, (values, basis) in (("2,3,5", primes), ("1,pi,pi^2", pis)):
        for m in (1, 2, 3):
            for d in (1, 2, 3):
                if len(exponent_vectors(m, d, include_zero=True)) > 16:
                    continue  # exceeds the order-16 truncation, as in criterion 3
                ops.append((f"rank ({label}) m={m} d={d}", _rank_op(m, d, values, basis[:m])))
    ops.extend(cli_ops(work))
    return ops


def cli_ops(work: str) -> list[tuple[str, object]]:
    bad_json = os.path.join(work, "spec-bad.json")
    no_ranks = os.path.join(work, "spec-no-ranks.json")
    good = os.path.join(work, "spec-good.json")
    for path, text in ((bad_json, "{ranks: [2"), (no_ranks, '{"ell": 1}'), (good, '{"ranks": [2, 1]}')):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    missing = os.path.join(work, "no-such-spec.json")
    passes = ("RESULT PASS",)
    return [
        ("cli logd-system 3", _cli_op(["series", "--logd-system", "3", "--order", "12"], 0, passes)),
        ("cli element b11*b12", _cli_op(["series", "--element", "b[1][1]*b[1][2]", "--order", "8"], 0, passes)),
        ("cli element with spec", _cli_op(["series", "--element", "b[1][1]*b[2][1]", "--spec", good], 0, passes)),
        # defects listed in the roadmap baseline: the contract is exit 1 with
        # FAIL for a non-finite solution and exit 2 with one error line
        # for bad input
        ("cli initial 1e308", _cli_op(
            ["series", "--logd-system", "2", "--order", "8", "--initial", "1e308,1e308"],
            1, ("RESULT FAIL",))),
        ("cli order 1", _cli_op(["series", "--logd-system", "2", "--order", "1"], 2, error=True)),
        ("cli logd-system 0", _cli_op(["series", "--logd-system", "0"], 2, error=True)),
        ("cli spec bad json", _cli_op(["series", "--element", "b[1][1]", "--spec", bad_json], 2, error=True)),
        ("cli spec without ranks", _cli_op(["series", "--element", "b[1][1]", "--spec", no_ranks], 2, error=True)),
        ("cli spec missing", _cli_op(["series", "--element", "b[1][1]", "--spec", missing], 2, error=True)),
        # an exact identity: the residual must be below the 1e-9 threshold
        ("cli element 1/b13^2 order 32", _cli_op(
            ["series", "--element", "1/b[1][3]^2", "--order", "32"], 0, passes)),
    ]
