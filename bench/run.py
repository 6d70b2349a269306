#!/usr/bin/env python3
"""hamforge benchmark: three seeded closed-loop workloads, checked outputs.

    python3 bench/run.py --workload exact-count --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, each in its own process

Run from the root of a hamforge checkout; hamforge is imported from ./src.
A run sets up (imports plus seeded inputs, timed fifteen times, median kept),
then runs whole rounds of the workload's operations until --seconds have
passed, checks every result, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 one round runs with every public
hamforge function wrapped in a span, and the metrics are per-layer self times
and counts. See bench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up starts here: imports count as set-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, so a run uses at most two threads on a 2-core machine and
# both sides of a comparison share the setting. Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("exact-count", "family-estimate", "steiner17-preset")
SETUPS = 15
CHILD_TIMEOUT_S = 170

@dataclass
class Op:
    kind: str
    label: str
    seconds: float
    result: object
    error: str | None = None


class RoundAborted(Exception):
    """An operation failed; the rest of the round depends on it."""


def load(name: str, seed: int):
    """Import hamforge from the checkout and build the workload's inputs."""
    if not (SRC / "hamforge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hamforge sources at {SRC}; run from a hamforge checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads.WORKLOADS[name](seed)


def run_round(workload, tracer=None) -> tuple[list[Op], float]:
    """Run one round; each op is timed from call to return."""
    ops: list[Op] = []

    def op(kind, label, fn, *args):
        if tracer is not None:
            tracer.op = len(ops)
            span = tracer.open(f"bench.{kind}")
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ops.append(Op(kind, label, time.perf_counter() - start, None,
                          f"{type(exc).__name__}: {exc}"))
            raise RoundAborted from exc
        finally:
            if tracer is not None:
                tracer.close(span)
        ops.append(Op(kind, label, time.perf_counter() - start, result))
        return result

    start = time.perf_counter()
    try:
        workload.round(op)
    except RoundAborted:
        pass
    return ops, time.perf_counter() - start


def judge(workload, rounds) -> tuple[list[str], int, int]:
    """Check every round whose operations all succeeded; count failures."""
    problems, attempted, failed = [], 0, 0
    for ops in rounds:
        attempted += len(ops)
        errors = [op for op in ops if op.error is not None]
        failed += len(errors)
        if not errors:
            problems += workload.problems({op.label: op.result for op in ops})
    return problems, attempted, failed


def child(args, *extra) -> dict:
    """Run this script in a fresh process and parse its last line."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(args, problems, attempted, failed, metrics, figures) -> int:
    correct = not problems
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    for name, (value, unit) in {**metrics, **figures}.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def timed_run(args) -> int:
    workload = load(args.workload, args.seed)
    setups = [time.perf_counter() - T0]
    setups += [child(args, "--mode", "setup")["setup_s"] for _ in range(SETUPS - 1)]

    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        ops, wall = run_round(workload)
        if not rounds:  # later rounds repeat the work; their peak adds nothing
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB
        rounds.append(ops)
        walls.append(wall)
        if (time.perf_counter() - start >= args.seconds
                and len(rounds) >= getattr(workload, "min_rounds", 1)):
            break

    problems, attempted, failed = judge(workload, rounds)
    metrics = {
        "round_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (peak_mib, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    figures = {"rounds": (len(rounds), "count")}
    if not failed:
        figures.update(workload.figures(rounds))
    return report(args, problems, attempted, failed, metrics, figures)


def traced_run(args) -> int:
    import tracemalloc

    workload = load(args.workload, args.seed)
    from hamforge import counting
    from spans import PER_LAYER, Tracer, layer_metrics
    from workloads import OUT

    reference_s = child(args, "--mode", "reference")["round_s"]

    tracer = Tracer()
    tracer.install()
    try:
        origin = time.perf_counter()
        ops, wall = run_round(workload, tracer)
    finally:
        tracer.uninstall()

    peaks = {}
    for regime, graph in getattr(workload, "first_graphs", lambda: ())():
        tracemalloc.start()
        try:
            counting.exact_ham_count(graph)
            peaks[regime] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    problems, attempted, failed = judge(workload, [ops])
    values = layer_metrics(tracer, [op.kind for op in ops], wall, reference_s, peaks)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                 [[i, op.kind, op.label] for i, op in enumerate(ops)], origin)
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    figures = {"reference_round_s": (reference_s, "s")}
    return report(args, problems, attempted, failed, metrics, figures)


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    code, correct, attempted, failed, metrics = 0, True, 0, 0, {}
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        result = json.loads(lines[-1])
        code = code or proc.returncode
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup", "reference"), default="run",
                        help="internal: 'setup' times set-up only; 'reference' runs one "
                             "untraced round for the trace-overhead figure")
    args = parser.parse_args()

    if args.workload == "all":
        return run_all(args)
    if args.mode == "setup":
        load(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    if args.mode == "reference":
        _, wall = run_round(load(args.workload, args.seed))
        print(json.dumps({"round_s": wall}))
        return 0
    return traced_run(args) if args.trace else timed_run(args)


if __name__ == "__main__":
    sys.exit(main())
