"""Helpers shared by the test modules, each stated once; pytest collects
nothing here.

- ``BUDGET_UTYPES``: every U-type the default budget admits, from the CLI's
  box (``cli.MAX_LEVELS`` levels, ranks up to ``cli.MAX_RANK``), by level
  count and then in ``product`` order.
- ``to_sympy``: a ``Poly`` as a sympy expression, the exact reference of
  the sympy tests.
- ``P``, ``literal_p`` and the ``rationals`` strategy.
- ``seeded_relations``: the prover's seeded level-1 relations with small
  integer coefficients, the literal cases of the replay tests.
- ``run_python`` and ``cli_in_child``: a fresh interpreter with this
  checkout's ``src`` first on ``PYTHONPATH``.
- ``counting_cancel``: every gcd, through ``elements.cancel`` and
  ``tower.cancel``, the two names that reach ``polyring.cancel``.
"""

import contextlib
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from deltatower import cli, elements, polyring, tower
from deltatower.elements import Element
from deltatower.polyring import Poly, m_pairs
from deltatower.relations import MonomialRelation, degree_vectors

ROOT = Path(__file__).resolve().parent.parent

BUDGET_UTYPES = [
    u for n in range(1, cli.MAX_LEVELS + 1) for u in product(range(1, cli.MAX_RANK + 1), repeat=n)
]


def utype_id(utype) -> str:
    return ",".join(map(str, utype))


def P(v):
    return Poly.variable(v)


def seeded_relations(variables, count):
    """count level-1 relations over variables, supports of 2..6 vectors of
    degree <= 3 in turn and coefficients 1..5, drawn from one seed per
    number of variables."""
    m = len(variables)
    rng = random.Random(f"literal m={m}")
    pool = degree_vectors(m, 3, include_zero=False)
    for k in range(count):
        support = rng.sample(pool, 2 + k % 5)
        coeffs = {r: Element.from_rational(rng.randint(1, 5)) for r in support}
        yield MonomialRelation(1, tuple(variables), coeffs)


def literal_p(spec, i):
    """P_i = prod_{k<i} e_k, multiplied out from the e_k in level order."""
    out = Poly.const(1)
    for k in range(1, i):
        out = out * spec.e(k).num
    return out


def sympy_symbol(v):
    import sympy

    return sympy.Symbol("{}_{}_{}".format(*v))


def to_sympy(p):
    """p as a sympy expression; the caller has imported sympy or skipped."""
    import sympy

    total = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m_pairs(m):
            term *= sympy_symbol(v) ** e
        total += term
    return total


try:
    from hypothesis import strategies as st
except ImportError:  # the modules that draw from it skip themselves
    pass
else:
    rationals = st.integers(-6, 6) | st.fractions(min_value=-6, max_value=6, max_denominator=7)


@contextlib.contextmanager
def counting_cancel():
    """Within the block, every call of the gcd appends (module name, args)
    to the list it yields; the modules hold ``cancel`` by name."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (elements, tower):
            def counted(*a, name=module.__name__):
                calls.append((name, a))
                return polyring.cancel(*a)
            mp.setattr(module, "cancel", counted)
        yield calls


def child_env() -> dict:
    """os.environ with this checkout's src first on PYTHONPATH."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_python(args, timeout, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on args; it must exit 0."""
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), timeout=timeout,
        **kwargs,
    )
    assert done.returncode == 0, done.stderr
    return done


def cli_in_child(argv, timeout) -> tuple[list[str], int, int]:
    """Run cli.main(argv) in a fresh interpreter: its stdout lines, its exit
    code and its peak resident size in MB.  The child reads its own peak
    from VmHWM: its ru_maxrss would start at the resident size of the
    process that spawned it, here the test runner."""
    script = (
        "from deltatower.cli import main\n"
        f"code = main({argv!r})\n"
        "peak = next(l for l in open('/proc/self/status') if l.startswith('VmHWM:'))\n"
        "print(code, int(peak.split()[1]) // 1024)\n"
    )
    *lines, last = run_python(["-c", script], timeout).stdout.splitlines()
    code, peak_mb = map(int, last.split())
    return lines, code, peak_mb
