"""Child process of the benchmark: one CLI run, or one pass of in-process
operations.

    python3 perfbench/child.py cli ARGS...
    python3 perfbench/child.py ops prover|oracle SEED WORKDIR OUT [ONLY]

``cli`` runs ``deltatower.cli.main(ARGS)`` and exits with its status, as
the ``deltatower`` console script does.  ``ops`` runs the operations of
a workload (only those named in the JSON list ONLY, if given) and writes
to OUT a line ``{"count"}`` and then one JSON line per operation as it
finishes: ``{"name", "ok", "seconds", "detail", "finished", "start",
"spent"}``; ``spent`` is the time the speed sampler took inside the
operation.  When PERFBENCH_TRACE_OUT is set, the layer trace is installed
first and dumped to that path at exit, also when the parent stops the
process with SIGTERM at its deadline.  Otherwise, when PERFBENCH_SPEED_OUT
is set, the speed sampler (``speed.py``) runs and its samples are written
to that path at a normal exit.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback

import speed

OP_DEADLINE_S = 60.0


class OpTimeout(Exception):
    pass


def _install_trace():
    path = os.environ.get("PERFBENCH_TRACE_OUT")
    if not path:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)

    def stop(signum, frame):
        tracer.close_open_spans()
        tracer.dump(path)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    return lambda: tracer.dump(path)


def _install_sampler():
    path = os.environ.get("PERFBENCH_SPEED_OUT")
    if not path or os.environ.get("PERFBENCH_TRACE_OUT"):
        return None
    sampler = speed.Sampler()
    sampler.start()

    def dump():
        sampler.stop()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sampler.samples, fh)

    return sampler, dump


def _alarm(signum, frame):
    raise OpTimeout()


def run_ops(workload: str, seed: int, work: str, out_path: str, only_path: str | None, sampler) -> int:
    import ops as opdefs

    ops = opdefs.prover_ops(seed) if workload == "prover" else opdefs.oracle_ops(seed, work)
    if only_path is not None:
        with open(only_path, encoding="utf-8") as fh:
            only = set(json.load(fh))
        ops = [(name, fn) for name, fn in ops if name in only]
    signal.signal(signal.SIGALRM, _alarm)
    with open(out_path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"count": len(ops)}) + "\n")
        for name, fn in ops:
            index = len(sampler.samples) if sampler else 0
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
            finished = True
            try:
                ok, detail = fn()
            except OpTimeout:
                ok, detail, finished = False, f"timeout after {OP_DEADLINE_S:.0f} s", False
            except Exception as exc:  # a traceback is a failed operation
                ok = False
                detail = "raised " + traceback.format_exception_only(type(exc), exc)[-1].strip()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            spent = sampler.spent_since(index) if sampler else 0.0
            record = {
                "name": name, "ok": bool(ok), "seconds": seconds, "detail": detail,
                "finished": finished, "start": start, "spent": spent,
            }
            out.write(json.dumps(record) + "\n")
            out.flush()
    return 0


def main(argv: list[str]) -> int:
    dump = _install_trace()
    sampling = _install_sampler()
    sampler = sampling[0] if sampling else None
    try:
        if argv[0] == "cli":
            from deltatower.cli import main as cli_main

            return cli_main(argv[1:])
        workload, seed, work, out_path = argv[1:5]
        return run_ops(workload, int(seed), work, out_path, argv[5] if len(argv) > 5 else None, sampler)
    finally:
        if dump is not None:
            dump()
        if sampling is not None:
            sampling[1]()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
