"""deltatower benchmark.

    python3 perfbench/run.py --workload tower|prover|grid|oracle|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation's verdict is compared
with a reference written by hand or computed in closed form (see
``ops.py`` and ``expected_grid_instances``); timeouts, tracebacks and
wrong verdicts count as failed operations.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  A fuller record with run
metadata and every operation is written to ``.perfbench/``.

Workloads run one child process at a time, single-threaded BLAS and a
fixed hash seed, so repeated runs do the same work.  Timed runs scale every
time to a reference speed of the machine, sampled next to each operation
(``speed.py``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "deltatower"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("tower", "prover", "grid", "oracle")
# Every U-type the default budget admits: <= 3 levels, ranks <= 3.
UTYPES = [",".join(map(str, u)) for n in (1, 2, 3) for u in product((1, 2, 3), repeat=n)]
# At the CLI's default probe seed the finished U-types take 0.18-0.70 s and
# the others 10 s or more; the deadline sits well clear of both groups.
TOWER_DEADLINE_S = 2.0
CHILD_DEADLINE_S = 150.0
KILL_GRACE_S = 2.0
# Per workload: operations not started by then fail unrun, so a run of one
# workload ends within 180 s even if the program gets much slower.
RUN_BUDGET_S = 160.0
budget_end = time.perf_counter() + RUN_BUDGET_S
SETUP_RUNS = 10
# The machine's speed drifts by up to 1.8x over seconds to minutes, so
# timed runs scale every time to a reference speed (speed.py).  Operations
# that finish in under REPEAT_BELOW_S also run in ROUNDS rounds spread over
# the run, and their time is the median of the rounds.  Slower ones, such
# as the tower CLI runs, run once: each spans enough time already.
ROUNDS = 6
REPEAT_BELOW_S = 0.1
# speed samples of the current workload; sampled only in timed runs
SPEED = speed.Speed()
sampling = False

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p74": "s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}


@dataclass
class Op:
    name: str
    ok: bool
    seconds: float | None  # None: not a timing sample
    detail: str = ""
    finished: bool = True  # False: stopped at a deadline, or never started
    start: float | None = None  # perf_counter at the start
    spent: float = 0.0  # time the speed sampler took inside the operation


@dataclass
class Pass:
    ops: list
    peak_rss_mb: float
    checks: list = field(default_factory=list)  # (name, millis) of CLI CHECK lines
    traces: list = field(default_factory=list)  # trace dumps of traced children
    complete: bool = True  # every operation of the pass has an outcome


def child_env(trace_out: Path | None = None, speed_out: Path | None = None) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PERFBENCH_TRACE_OUT", None)
    env.pop("PERFBENCH_SPEED_OUT", None)
    if trace_out is not None:
        env["PERFBENCH_TRACE_OUT"] = str(trace_out)
    if speed_out is not None:
        env["PERFBENCH_SPEED_OUT"] = str(speed_out)
    return env


def budget_left() -> float:
    return budget_end - time.perf_counter()


@dataclass
class Child:
    seconds: float
    code: int | None  # None: stopped at its deadline
    peak_rss_mb: float
    start: float
    spent: float  # time the child's speed sampler took


def run_child(args: list[str], deadline: float, out_path: Path, trace_out: Path | None = None) -> Child:
    """Run child.py to its end or its deadline; in a timed run, sample the
    machine's speed around it and in it."""
    deadline = min(deadline, max(budget_left(), 0.0))
    speed_out = WORK / "speed.json" if sampling else None
    for path in (trace_out, speed_out):
        if path is not None:
            path.unlink(missing_ok=True)
    if sampling:
        SPEED.calibrate()
    waited: dict = {}
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=out,
            stderr=subprocess.STDOUT,
            env=child_env(trace_out, speed_out),
            cwd=ROOT,
        )
        waiter = threading.Thread(target=lambda: waited.update(r=os.wait4(proc.pid, 0)))
        waiter.start()
        waiter.join(deadline)
        timed_out = waiter.is_alive()
        if timed_out:
            # a traced child dumps its spans on SIGTERM
            proc.send_signal(signal.SIGTERM if trace_out else signal.SIGKILL)
            waiter.join(KILL_GRACE_S)
            if waiter.is_alive():
                proc.kill()
                waiter.join()
        seconds = time.perf_counter() - start
    _, status, usage = waited["r"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    spent = 0.0
    if sampling:
        SPEED.calibrate()
        samples = read_json(speed_out) or []
        SPEED.add(samples)
        spent = sum(d for _, d in samples)
    code = None if timed_out else proc.returncode
    return Child(seconds, code, usage.ru_maxrss / 1024.0, start, spent)


def read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def read_trace(path: Path) -> list:
    dump = read_json(path)
    return [] if dump is None else [dump]


def parse_checks(text: str) -> list[tuple[str, str, int, str]]:
    """CHECK <name> <PASS|FAIL> <millis> [detail] lines."""
    out = []
    for line in text.splitlines():
        parts = line.split(" ", 4)
        if len(parts) >= 4 and parts[0] == "CHECK" and parts[3].isdigit():
            out.append((parts[1], parts[2], int(parts[3]), parts[4] if len(parts) > 4 else ""))
    return out


# --- workloads ------------------------------------------------------------


def tower_pass(only: set | None, traced: bool) -> Pass:
    """``tower build --utype U --check`` for every budget U-type.

    The CLI's default probe seed is used, as a user's run does: the probe
    seed alone moves the number of U-types past the deadline between 2
    and 16 of 39, so the benchmark seed is not passed on.
    """
    ops, checks, traces, rss = [], [], [], 0.0
    for utype in UTYPES:
        if only is not None and utype not in only:
            continue
        if budget_left() < TOWER_DEADLINE_S:
            ops.append(Op(utype, False, None, "not run: run budget spent", False))
            continue
        tag = utype.replace(",", "-")
        out = WORK / f"tower-{tag}.out"
        trace_out = WORK / f"trace-tower-{tag}.json" if traced else None
        child = run_child(
            ["cli", "tower", "build", "--utype", utype, "--check"], TOWER_DEADLINE_S, out, trace_out
        )
        if trace_out:
            traces += read_trace(trace_out)
        code = child.code
        if code is None:
            ops.append(Op(utype, False, child.seconds, f"timeout after {TOWER_DEADLINE_S} s", False))
            continue
        # a stopped child's memory depends on how far it got, so only
        # finished U-types count
        rss = max(rss, child.peak_rss_mb)
        text = out.read_text(errors="replace")
        found = parse_checks(text)
        checks += [(name, millis) for name, _, millis, _ in found]
        levels = utype.count(",") + 1
        ok = (
            code == 0
            and len(found) == 5 * levels
            and all(status == "PASS" for _, status, _, _ in found)
            and text.rstrip().endswith("RESULT PASS")
        )
        ops.append(Op(utype, ok, child.seconds, f"exit={code} checks={len(found)}", True, child.start, child.spent))
    return Pass(ops, rss, checks, traces)


def expected_grid_instances() -> dict[str, int]:
    """Instance counts of ``grid verify --max-cells 9`` in closed form.

    Grids are depth x columns with at most 9 cells.  A column of depth d
    has d+1 closed heights and (d+1)(d+2)/2 nested (T, G) height pairs.
    """
    grids = [(d, c) for d in range(1, 10) for c in range(1, 9 // d + 1)]
    pairs = sum(((d + 1) * (d + 2) // 2) ** c for d, c in grids)
    counts = {name: pairs for name in tracing.GRID_PROPERTIES}
    # every subset, then every nested pair of subsets (3^n of them)
    counts["closure_axioms"] = sum(2 ** (d * c) + 3 ** (d * c) for d, c in grids)
    # every triple of closed sets
    counts["urank_additivity"] = sum((d + 1) ** (3 * c) for d, c in grids)
    # one single-column grid per depth
    counts["column_chain_length"] = 9
    return counts


def grid_pass(traced: bool) -> Pass:
    """One ``grid verify`` run: the run is the timed operation, and each of
    the ten properties is an operation with a verdict of its own."""
    out = WORK / "grid.out"
    trace_out = WORK / "trace-grid.json" if traced else None
    child = run_child(["cli", "grid", "verify"], CHILD_DEADLINE_S, out, trace_out)
    code = child.code
    traces = read_trace(trace_out) if trace_out else []
    text = "" if code is None else out.read_text(errors="replace")
    found = {c[0]: c for c in parse_checks(text)}
    ops = []
    for name, instances in expected_grid_instances().items():
        check = found.get(name)
        if check is None:
            ops.append(Op(name, False, None, "no CHECK line", code is not None))
            continue
        _, status, _, detail = check
        ok = status == "PASS" and f"instances={instances}" in detail.split()
        ops.append(Op(name, ok, None, f"{status} {detail} expected instances={instances}"))
    ok = code == 0 and len(found) == 10 and text.rstrip().endswith("RESULT PASS")
    ops.append(Op("grid verify", ok, child.seconds, f"exit={code}", code is not None, child.start, child.spent))
    return Pass(ops, child.peak_rss_mb, traces=traces)


def ops_pass(workload: str, seed: int, only: set | None, traced: bool) -> Pass:
    """One child running the in-process operations (all, or those in ``only``)."""
    out = WORK / f"{workload}.out"
    results = WORK / f"{workload}-ops.jsonl"
    selection = WORK / f"{workload}-only.json"
    trace_out = WORK / f"trace-{workload}.json" if traced else None
    results.unlink(missing_ok=True)
    args = ["ops", workload, str(seed), str(WORK), str(results)]
    if only is not None:
        selection.write_text(json.dumps(sorted(only)))
        args.append(str(selection))
    child = run_child(args, CHILD_DEADLINE_S, out, trace_out)
    code, rss = child.code, child.peak_rss_mb
    lines = results.read_text().splitlines() if results.exists() else []
    count = json.loads(lines[0])["count"] if lines else None
    ops = [Op(**json.loads(line)) for line in lines[1:]]
    if code != 0:
        ops.append(Op(f"{workload} pass", False, None, f"child exit={code}", code is not None))
    traces = read_trace(trace_out) if trace_out else []
    return Pass(ops, rss, traces=traces, complete=count == len(lines) - 1)


def run_pass(workload: str, seed: int, only: set | None = None, traced: bool = False) -> Pass:
    if workload == "tower":
        return tower_pass(only, traced)
    if workload == "grid":
        return grid_pass(traced)
    return ops_pass(workload, seed, only, traced)


def run_rounds(workload: str, seed: int, seconds: int) -> list[Pass]:
    """The first round runs every operation; later rounds repeat the fast
    ones, for at least ROUNDS rounds and at least ``seconds`` seconds."""
    start = time.perf_counter()
    passes = [run_pass(workload, seed)]
    repeat = {
        op.name for op in passes[0].ops
        if op.finished and op.seconds is not None and op.seconds < REPEAT_BELOW_S
    }
    while repeat and (len(passes) < ROUNDS or time.perf_counter() - start < seconds):
        if budget_left() < RUN_BUDGET_S / 4:
            break
        passes.append(run_pass(workload, seed, repeat))
    return passes


def scaled_seconds(op: Op) -> float | None:
    """An operation's time at the reference speed.  A stopped operation
    keeps its measured time: its deadline is one of wall time."""
    if op.seconds is None or not op.finished or op.start is None:
        return op.seconds
    return SPEED.scaled(op.seconds, op.start, op.spent)


def merge_rounds(passes: list[Pass]) -> list[Op]:
    """One Op per operation: passed only if every round passed, timed by
    the median of its rounds at the reference speed."""
    runs: dict[str, list[Op]] = {}
    for p in passes:
        for op in p.ops:
            runs.setdefault(op.name, []).append(op)
    merged = []
    for name, ops in runs.items():
        times = [t for t in map(scaled_seconds, ops) if t is not None]
        bad = [op for op in ops if not op.ok]
        merged.append(Op(
            name,
            not bad,
            statistics.median(times) if times else None,
            (bad or ops)[0].detail,
            all(op.finished for op in ops),
        ))
    return merged


# --- metrics --------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: p74 of 39 values is the 29th smallest."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


IMPORT = [sys.executable, "-c", "import deltatower, sys; sys.stdout.write(deltatower.__file__)"]


def check_import() -> None:
    """One untimed start: deltatower must come from this checkout."""
    first = subprocess.run(IMPORT, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    if first.returncode != 0 or Path(first.stdout).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"deltatower does not import from {PACKAGE}: {first.stderr.strip()}")


def setup_times(n: int) -> list[float]:
    """Times to start an interpreter and import deltatower, at the
    reference speed."""
    times = []
    for _ in range(n):
        SPEED.calibrate()
        start = time.perf_counter()
        subprocess.run(IMPORT, env=child_env(), cwd=ROOT, capture_output=True, check=True, timeout=60)
        seconds = time.perf_counter() - start
        SPEED.calibrate()
        times.append(SPEED.scaled(seconds, start))
    return times


def end_to_end(workload: str, seed: int, seconds: int):
    global SPEED, sampling
    SPEED, sampling = speed.Speed(), True
    # set-up is timed before and after the workload, so that one slow
    # stretch of the machine does not decide the median
    starts = setup_times(SETUP_RUNS - SETUP_RUNS // 2)
    passes = run_rounds(workload, seed, seconds)
    starts += setup_times(SETUP_RUNS // 2)
    sampling = False
    ops = merge_rounds(passes)
    samples = [op.seconds for op in ops if op.seconds is not None]
    values = {
        "setup_s": statistics.median(starts),
        "wall_s": sum(samples),
        "verdict_s.p50": percentile(samples, 50),
        "verdict_s.p74": percentile(samples, 74),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "pass_share": sum(op.ok for op in ops) / len(ops),
    }
    loops = sorted(d for _, d in SPEED.samples)
    info = {
        "rounds": len(passes),
        "samples": len(samples),
        "complete": all(p.complete for p in passes),
        # measured, unscaled: the first round's operation times, and the
        # speed loop's spread over the run
        "unscaled_wall_s": sum(op.seconds for op in passes[0].ops if op.seconds is not None),
        "speed_loop_ms": {
            "min": 1e3 * loops[0],
            "median": 1e3 * statistics.median(loops),
            "max": 1e3 * loops[-1],
            "samples": len(loops),
        },
    }
    return values, ops, info


def layer_values(workload: str, seed: int):
    """One untraced round, then one traced round; per-layer metrics come
    from the traced one."""
    plain = run_pass(workload, seed)
    traced = run_pass(workload, seed, traced=True)
    values = tracing.layer_metrics(tracing.merge(traced.traces))
    for kind in tracing.CHECK_KINDS:
        values[f"cli.check.{kind}.ms"] = sum(
            millis for name, millis in plain.checks if name.rsplit("_", 1)[0] == kind
        )
    # overhead over the operations that finished in both rounds
    before = {op.name: op.seconds for op in plain.ops if op.finished and op.seconds is not None}
    after = {op.name: op.seconds for op in traced.ops if op.finished and op.seconds is not None}
    common = before.keys() & after.keys()
    base = sum(before[k] for k in common)
    slow = sum(after[k] for k in common)
    values["trace.overhead"] = slow / base - 1.0 if base else 0.0
    values["trace.unfinished_ops"] = sum(not op.finished for op in traced.ops)
    info = {
        "note": "counts are exact only for operations that finished before the deadline; "
        f"{values['trace.unfinished_ops']} traced operations were stopped there",
        "untraced_s": base,
        "traced_s": slow,
        "complete": plain.complete and traced.complete,
    }
    return values, plain.ops + traced.ops, info


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    lines = sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "tower_deadline_s": TOWER_DEADLINE_S,
        "src_lines": lines,
    }


def main(argv: list[str] | None = None) -> int:
    global budget_end
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no deltatower sources at {PACKAGE}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    check_import()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    complete = True
    record = {"meta": metadata(args.workload, args.seed, args.seconds, args.trace), "workloads": {}}
    for workload in names:
        budget_end = time.perf_counter() + RUN_BUDGET_S
        if args.trace:
            values, ops, info = layer_values(workload, args.seed)
            units = tracing.layer_metric_units()
        else:
            values, ops, info = end_to_end(workload, args.seed, args.seconds)
            units = END_TO_END
        attempted += len(ops)
        failed += sum(not op.ok for op in ops)
        complete = complete and info["complete"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
            print(f"{workload} {name} {value:.6g} {units[name]}")
        for op in ops:
            if not op.ok:
                print(f"{workload} FAILED {op.name}: {op.detail}")
        if "note" in info:
            print(f"{workload} {info['note']}")
        if "speed_loop_ms" in info:
            loop = info["speed_loop_ms"]
            print(
                f"{workload} unscaled: wall {info['unscaled_wall_s']:.6g} s; speed loop "
                f"{loop['min']:.3g}/{loop['median']:.3g}/{loop['max']:.3g} ms min/median/max "
                f"over {loop['samples']} samples, {1e3 * speed.REF_S:g} ms at the reference speed"
            )
        record["workloads"][workload] = {"metrics": values, "info": info, "ops": [asdict(op) for op in ops]}
    print(json.dumps(record["meta"], sort_keys=True))
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    # ``failed`` counts operations whose verdict disagreed with its reference,
    # that raised, or that ran past a deadline; ``correct`` says every
    # operation of every round got an outcome checked against its reference.
    result = {"correct": complete and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
