"""Command-line front end.

Subcommands::

    deltatower tower build --utype 2,1 [--check] [--seed N] [--out FILE]
    deltatower grid verify [--max-cells 9]
    deltatower grid seqred --s 3,2,1 --mode reductions
    deltatower series --logd-system 2 --order 5 [--h EXPR] [--initial 1,1]
    deltatower series --element "b[1][1]*b[1][2]" --order 8 [--spec FILE]

Reports are line oriented: one ``CHECK <name> <PASS|FAIL> <millis>
[detail]`` line per check, printed as soon as that check finishes, and a
final ``RESULT <PASS|FAIL>``.  The exit status is 0 exactly when every
check passed; a reader that closes the pipe early (``| head -1``) ends
the run with status 1 and no traceback.  Serialized reports omit timing
so they are byte-identical across runs for fixed arguments and seed.
``grid verify`` refuses more than ``gridcheck.MAX_VERIFY_CELLS`` (12)
cells, ``grid seqred`` more than ``MAX_SEQRED_CELLS`` (2,000),
``series --logd-system`` a dimension above ``MAX_LOGD_SYSTEM`` (1,000),
``series`` a tower of more than ``MAX_SERIES_SYMBOLS`` (1,000) symbols,
and element text refuses a power whose expansion may exceed
``textio.MAX_POWER_TERMS`` terms or ``textio.MAX_POWER_BITS``
coefficient bits.  A ``tower build --out`` file that cannot be written
is refused the same way (exit 2, one ``error:`` line), and so is a
``series`` option that its mode ignores: ``--h`` or ``--initial`` with
``--element``, ``--spec`` with ``--logd-system``.

This module loads only ``errors``, and no module imports ``dataclasses``
(with ``inspect``, a larger cost than a small tower's checks): each
``cmd_*`` imports what it runs, so ``tower build`` compiles no ``textio``
or grid module, and the grid commands no exact-side module.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial

import deltatower  # annotations name deltatower.Series, which loads series only when resolved
from .errors import BudgetExceeded, DeltaTowerError, Record, TruncationTooShort

DEFAULT_SEED = 20406
MAX_LEVELS = 3
MAX_RANK = 3
MAX_SERIES_ORDER = 64
# series --logd-system: memory grows as N x order floats; at order 64,
# N = 1,000 takes 0.6 s and N = 100,000 23 s on a 2-core machine
MAX_LOGD_SYSTEM = 1000
# series: a tower of N symbols (the sum of its ranks) evaluates N generator
# series; at order 64 the slowest shape, one symbol per level, takes about
# 1 s at N = 1,000 on a 2-core machine, and 7.5 s at 20,000
MAX_SERIES_SYMBOLS = 1000
# grid seqred: the analysis is one chain of height vectors (depth x
# columns) and the target: line prints every cell once
MAX_SEQRED_CELLS = 2000


class RunReport(Record):
    """PASS/FAIL report of one command; each CHECK line is printed as soon
    as its check finishes, so a slow or killed run shows what it got to."""

    __slots__ = _compared = ("command", "arguments", "checks")

    def __init__(self, command: str, arguments: tuple[str, ...], checks: list | None = None):
        super().__init__(command, arguments, [] if checks is None else checks)

    @property
    def status(self) -> str:
        return "PASS" if all(status == "PASS" for _, status, _ in self.checks) else "FAIL"

    def run(self, name: str, fn) -> None:
        """Time one check, fn returning (ok, detail), and print its line."""
        start = time.perf_counter()
        ok, detail = fn()
        millis = int((time.perf_counter() - start) * 1000)
        status = "PASS" if ok else "FAIL"
        self.checks.append((name, status, detail))
        print(f"CHECK {name} {status} {millis}" + (f" {detail}" if detail else ""), flush=True)

    def finish(self) -> int:
        """Print the RESULT line; return the exit status."""
        print(f"RESULT {self.status}", flush=True)
        return 0 if self.status == "PASS" else 1

    def to_json(self) -> str:
        """Deterministic serialization: everything except elapsed times."""
        import json  # only here, so the grid commands never load it

        doc = {
            "command": self.command,
            "arguments": list(self.arguments),
            "checks": [
                {"name": name, "status": status, "detail": detail}
                for name, status, detail in self.checks
            ],
            "result": self.status,
        }
        return json.dumps(doc, sort_keys=True)


def _parse_positive_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be comma-separated integers")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"{what} must be positive integers")
    return values


def _parse_positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{what} must be a positive integer")
    return value


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("--initial must be comma-separated numbers")


# --- tower build -------------------------------------------------------------


def cmd_tower_build(args, argv) -> int:
    import random
    from itertools import permutations

    from .operators import FactoredOperator, apply_operator, build_E, decompose, expand, is_generic
    from .relations import Verdict, certify_independence
    from .tower import build_spec, random_element

    utype = args.utype
    if not args.force and (len(utype) > MAX_LEVELS or any(n > MAX_RANK for n in utype)):
        raise BudgetExceeded(
            f"U-type {','.join(map(str, utype))} exceeds the default budget "
            f"(<= {MAX_LEVELS} levels, ranks <= {MAX_RANK}); pass --force to override"
        )
    spec = build_spec(utype)
    operators = {i: build_E(spec, i) for i in range(1, spec.ell + 1)}
    for i in range(1, spec.ell + 1):
        print(f"E{i}: {operators[i].to_text()}")
    serialized = spec.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(serialized + "\n")
        except OSError as exc:
            raise DeltaTowerError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        print(serialized)
    if not args.check:
        return 0

    report = RunReport("tower build", tuple(argv))
    rng = random.Random(args.seed)
    for i in range(1, spec.ell + 1):
        op = operators[i]
        e_i = spec.e(i)

        def check_kernel(op=op, e_i=e_i, i=i):
            value = apply_operator(op, e_i, spec)
            return value.is_zero(), f"apply(E{i}, e_{i})"

        report.run(f"kernel_e{i}", check_kernel)

        def check_generic(e_i=e_i, i=i):
            deco = decompose(e_i, i, spec)
            return is_generic(deco), f"{len(deco.components)} eigencomponents"

        report.run(f"genericity_e{i}", check_generic)

        def check_symmetry(op=op, i=i):
            base = expand(op)
            for perm in permutations(op.eigenvalues):
                other = expand(FactoredOperator(i, perm))
                if other.coefficients != base.coefficients:
                    return False, "expansion depends on the factor order"
            return True, f"{len(op.eigenvalues)} factors, all orders agree"

        report.run(f"expand_symmetry_E{i}", check_symmetry)

        def check_expand_apply(op=op, rng=rng):
            probe = random_element(rng, spec, allow_denominator=False)
            expanded = expand(op)
            same = apply_operator(expanded, probe, spec) == apply_operator(op, probe, spec)
            return same, "factored and expanded forms agree on a random element"

        report.run(f"expand_apply_E{i}", check_expand_apply)

        def check_independence(i=i):
            trace = certify_independence(spec.generators(i), 2, spec, level=i)
            return (
                trace.verdict is Verdict.NO_NONTRIVIAL_RELATION,
                f"degree<=2, {len(trace.steps)} reduction steps",
            )

        report.run(f"independence_level{i}", check_independence)

    return report.finish()


# --- grid verify -------------------------------------------------------------


def cmd_grid_verify(args, argv) -> int:
    from . import gridcheck

    report = RunReport("grid verify", tuple(argv))
    for name, check in gridcheck.properties(args.max_cells):
        report.run(name, lambda check=check: check().verdict())
    return report.finish()


# --- grid seqred -------------------------------------------------------------


def cmd_grid_seqred(args, argv) -> int:
    from .grid import analysis_by_coreductions, analysis_by_reductions
    from .grid import build_seqred_a, build_seqred_b

    s = args.s
    cells = len(s) * max(s)
    if cells > MAX_SEQRED_CELLS:
        raise BudgetExceeded(f"a grid of {cells} cells exceeds the cap {MAX_SEQRED_CELLS}")
    if args.mode == "reductions":
        g, target = build_seqred_a(s)
        analysis = analysis_by_reductions(target, frozenset(), g)
    else:
        g, target = build_seqred_b(s)
        analysis = analysis_by_coreductions(target, frozenset(), g)
    utype = analysis.utype()
    print(f"grid: {g.depth}x{g.columns}")
    print(f"target: {sorted(target)}")
    print(f"utype: {','.join(map(str, utype))}")
    report = RunReport("grid seqred", tuple(argv))
    report.run(
        "utype_matches",
        lambda: (utype == tuple(s), f"expected {tuple(s)}, computed {utype}"),
    )
    return report.finish()


# --- series ------------------------------------------------------------------


def _covering_ranks(x) -> tuple[int, ...]:
    """Ranks of the smallest tower covering the generator/constant symbols
    of x, refused past the symbol cap before they are built."""
    max_level = 1
    ranks: dict[int, int] = {}
    for kind, level, index in x.variables():
        if kind in ("b", "c"):
            max_level = max(max_level, level)
            ranks[level] = max(ranks.get(level, 1), index)
    _check_symbols(max_level - len(ranks) + sum(ranks.values()))
    return tuple(ranks.get(i, 1) for i in range(1, max_level + 1))


def _check_symbols(symbols: int) -> None:
    if symbols > MAX_SERIES_SYMBOLS:
        raise BudgetExceeded(f"a tower of {symbols} symbols exceeds the cap {MAX_SERIES_SYMBOLS}")


def _format_series(s: deltatower.Series) -> str:
    return "[" + ", ".join(repr(float(c)) for c in s.coeffs) + "]"


def _small(residual: float, label: str) -> tuple[bool, str]:
    return residual < 1e-9, f"{label} {residual:.3e}"


def cmd_series(args, argv) -> int:
    from .operators import logd_system
    from .series import SeriesContext, delta_consistency_residual, eval_series, quiet_overflow
    from .series import prolonged_residual, solve_prolonged
    from .textio import parse_element
    from .tower import TowerSpec

    by_element = args.element is not None
    mode, unused = ("--element", ("h", "initial")) if by_element else ("--logd-system", ("spec",))
    for name in unused:
        if getattr(args, name) is not None:
            raise DeltaTowerError(f"--{name} does not apply to {mode}")
    if args.order > MAX_SERIES_ORDER:
        raise BudgetExceeded(f"order {args.order} exceeds the cap {MAX_SERIES_ORDER}")
    if args.order < 2:
        raise TruncationTooShort(f"--order {args.order} is below 2, the shortest truncation")
    report = RunReport("series", tuple(argv))
    if args.logd_system is not None:
        n = args.logd_system
        if n < 1:
            raise DeltaTowerError(f"--logd-system {n} is not a positive dimension")
        if n > MAX_LOGD_SYSTEM:
            raise BudgetExceeded(f"--logd-system {n} exceeds the cap {MAX_LOGD_SYSTEM}")
        h = parse_element("0" if args.h is None else args.h)
        system = logd_system(n, h)
        initial = args.initial if args.initial is not None else [1.0] * n
        if len(initial) != n:
            raise DeltaTowerError(f"expected {n} initial values, got {len(initial)}")
        h_series = None
        if not h.is_rational():
            spec = TowerSpec(_covering_ranks(h))
            h_series = eval_series(h, SeriesContext.default(spec, order=args.order), spec)
        # solved before anything is printed, so an h past the float range
        # is refused with stdout still empty
        solution = solve_prolonged(system, initial, args.order, h_series)
        print(str(system))
        for i, s in enumerate(solution, start=1):
            print(f"x_{i}: {_format_series(s)}")
        residual = partial(prolonged_residual, system, solution, h_series)
        report.run("residual", lambda: _small(residual(), "defining-equation residual"))
    else:
        x = parse_element(args.element)
        if args.spec:
            try:
                with open(args.spec, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise DeltaTowerError(f"cannot read --spec {args.spec}: {exc.strerror}") from None
            spec = TowerSpec.from_json(text)
            _check_symbols(sum(spec.ranks))
        else:
            spec = TowerSpec(_covering_ranks(x))
        ctx = SeriesContext.default(spec, order=args.order)
        with quiet_overflow():
            s = eval_series(x, ctx, spec)
            print(f"element: {x}")
            print(f"series: {_format_series(s)}")
            residual = partial(delta_consistency_residual, x, ctx, spec)
            report.run(
                "delta_consistency", lambda: _small(residual(), "derivation/series residual")
            )
    return report.finish()


# --- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deltatower")
    sub = parser.add_subparsers(dest="command", required=True)

    tower = sub.add_parser("tower", help="tower constructions")
    tower_sub = tower.add_subparsers(dest="tower_command", required=True)
    build = tower_sub.add_parser("build", help="build the tower for a U-type")
    build.add_argument(
        "--utype",
        required=True,
        type=lambda t: _parse_positive_ints(t, "--utype"),
        help="comma-separated positive integers n_1,...,n_l",
    )
    build.add_argument("--check", action="store_true", help="run the verification checks")
    build.add_argument("--seed", type=int, default=DEFAULT_SEED)
    build.add_argument("--out", help="write the serialized tower to a file")
    build.add_argument("--force", action="store_true", help="ignore the size budget")
    build.set_defaults(fn=cmd_tower_build)

    grid = sub.add_parser("grid", help="grid model experiments")
    grid_sub = grid.add_subparsers(dest="grid_command", required=True)
    verify = grid_sub.add_parser("verify", help="exhaustive property verification")
    verify.add_argument(
        "--max-cells", type=lambda t: _parse_positive_int(t, "--max-cells"), default=9
    )
    verify.set_defaults(fn=cmd_grid_verify)
    seqred = grid_sub.add_parser("seqred", help="prescribed-U-type constructions")
    seqred.add_argument(
        "--s", required=True, type=lambda t: _parse_positive_ints(t, "--s")
    )
    seqred.add_argument("--mode", choices=("reductions", "coreductions"), required=True)
    seqred.set_defaults(fn=cmd_grid_seqred)

    series = sub.add_parser("series", help="truncated series oracle")
    which = series.add_mutually_exclusive_group(required=True)
    which.add_argument("--logd-system", type=int, metavar="N")
    which.add_argument("--element", metavar="EXPR")
    series.add_argument("--order", type=int, default=12)
    series.add_argument("--h", help="right-hand side element (default 0)")
    series.add_argument("--initial", type=_parse_floats, help="comma-separated initial values")
    series.add_argument("--spec", help="TowerSpec JSON file")
    series.set_defaults(fn=cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, argv)
    except DeltaTowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): send what is still
        # buffered to devnull, so the exit flush raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
