"""A seeded hunt for accepted element text that runs long.

No accepted input may run unbounded: every ``series`` run ends with
``RESULT PASS`` or, on bad input, exit 2 and one ``error:`` line.  A FAIL
is a defect too: the element check is exact, so it FAILs only where
``derive`` is wrong; the float residual of ``--logd-system`` stays at
rounding level on these draws (at most 1.3e-16 at order 8).  The pinned
texts of the other modules cannot show a class of slow input, so this
test draws text from a grammar weighted toward the shapes that cost the
exact layer most: sums of reciprocals of products of powers of integer
linear forms, differences of nearly equal forms, nested quotients, and
the same shapes as the ``--h`` of ``--logd-system``.  Each example runs
in-process under a CPU-time limit.  The draws are seeded by the suite's
derandomized profile, and a failure is reported as drawn, with no shrink
phase, so a hang costs one limit.  The test takes about 1.9 s of a tier-1
run on a 2-core machine.
"""

import contextlib
import io
import signal

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from deltatower.cli import main  # noqa: E402

SYMBOLS = ["b[1][1]", "b[1][2]", "b[1][3]", "c[1][1]", "c[1][2]"]
ORDER = "8"
CPU_LIMIT_S = 1.0  # the slowest drawn example takes about 0.3 s


@st.composite
def linear_forms(draw):
    """[(coefficient, symbol)] of a 2-3 term integer linear form."""
    symbols = draw(st.lists(st.sampled_from(SYMBOLS), min_size=2, max_size=3, unique=True))
    return [(draw(st.integers(1, 3)), s) for s in symbols]


def _form_text(form):
    return " + ".join(f"{k}*{s}" for k, s in form)


@st.composite
def powers(draw):
    return f"({_form_text(draw(linear_forms()))})^{draw(st.integers(1, 4))}"


@st.composite
def reciprocal_sums(draw):
    """k/(F^e*...) + ...: 2-3 reciprocals of products of 1-3 powers."""
    terms = []
    for _ in range(draw(st.integers(2, 3))):
        factors = draw(st.lists(powers(), min_size=1, max_size=3))
        terms.append(f"{draw(st.integers(1, 4))}/({'*'.join(factors)})")
    return " + ".join(terms)


@st.composite
def near_differences(draw):
    """k/F^e - k/F'^e, where F' raises one coefficient of F by one."""
    form = draw(linear_forms())
    i = draw(st.integers(0, len(form) - 1))
    near = [(k + (j == i), s) for j, (k, s) in enumerate(form)]
    e, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return f"{k}/({_form_text(form)})^{e} - {k}/({_form_text(near)})^{e}"


flat = st.one_of(reciprocal_sums(), near_differences(), powers())


@st.composite
def nested_quotients(draw):
    """(A)/((B) + C): quotients of the flat shapes."""
    return f"({draw(flat)})/(({draw(flat)}) + {_form_text(draw(linear_forms()))})"


texts = st.one_of(reciprocal_sums(), near_differences(), nested_quotients())


@st.composite
def argvs(draw):
    text = draw(texts)
    if draw(st.integers(0, 3)):
        return ["series", f"--element={text}", "--order", ORDER]
    n = str(draw(st.integers(1, 3)))
    return ["series", "--logd-system", n, f"--h={text}", "--order", ORDER]


class _Overrun(BaseException):
    """Raised by the CPU-time alarm; no handler in the program catches it."""


def _on_alarm(signum, frame):
    raise _Overrun


def _run_limited(argv):
    """(exit code, stdout, stderr) of cli.main(argv), or None when it uses
    more than CPU_LIMIT_S of CPU time."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGPROF, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_PROF, CPU_LIMIT_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _Overrun:
        return None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, phases=[Phase.explicit, Phase.generate])
@given(argv=argvs())
def test_drawn_text_ends_with_a_verdict_or_one_error_line(argv):
    done = _run_limited(argv)
    assert done is not None, f"{argv} ran past {CPU_LIMIT_S} s of CPU time"
    code, out, err = done
    lines = out.splitlines()
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    else:
        assert code == 0 and lines and lines[-1] == "RESULT PASS", (argv, code, out, err)
