"""Child process of the benchmark: runs in a fresh interpreter from the repo root.

    python3 bench/worker.py probe
    python3 bench/worker.py setup   --workload W --seed N
    python3 bench/worker.py measure --workload W --seed N --seconds S [--perturb]
    python3 bench/worker.py trace   --workload W --seed N --seconds S [--spans PATH]

``measure`` runs a library workload: set-up, one untimed warm-up operation,
then timed operations until S seconds have passed. It prints one JSON line
per event and flushes it, so the parent can time out a hung operation.
``trace`` runs operations in this process, alternating untraced and traced
ones, and prints the per-layer metrics as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def emit(**record) -> None:
    print(json.dumps(record), flush=True)


def checked(workload, refs, run) -> tuple[bool, str, float, float]:
    """Run one operation; returns (ok, detail, wall_s, cpu_s).

    The output check runs after the clock stops.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = run()
    except Exception as exc:  # an operation that raises counts as failed
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return False, f"raised {type(exc).__name__}: {exc}"[:300], wall, cpu
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    args = result if workload.kind == "cli" else (result,)
    ok, detail = workloads.safe_check(workload.check, *args, refs)
    return ok, detail, wall, cpu


def cli_in_process(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """Run ``clique_blowup.cli.main(argv)`` with stdin given and stdout captured."""
    from clique_blowup import cli

    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def operation(workload, seed: int):
    """Zero-argument callable performing one operation of the workload in-process."""
    if workload.kind == "cli":
        argv, stdin_text = workload.args(seed), workload.stdin(seed)
        return lambda: cli_in_process(argv, stdin_text)
    state = workload.setup(seed)
    return lambda: workload.run(state)


def cmd_probe(args) -> None:
    """Print the software environment the measured child processes see."""
    import ctypes

    import numpy
    import scipy

    import clique_blowup.cli  # noqa: F401  imports scipy.linalg and its BLAS

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    blas = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas[os.path.basename(path)] = getter()
                break
        else:
            blas[os.path.basename(path)] = None
    emit(python=sys.version.split()[0], numpy=numpy.__version__, scipy=scipy.__version__,
         blas_threads=blas, nproc=len(os.sched_getaffinity(0)))


def cmd_setup(args) -> None:
    workload = workloads.WORKLOADS[args.workload]
    workload.setup(args.seed)


def cmd_measure(args) -> None:
    workload = workloads.WORKLOADS[args.workload]
    refs = workloads.REFERENCES[workload.name]
    if args.perturb:
        refs = workloads.perturbed(refs)
    state = workload.setup(args.seed)
    ok, detail, wall, cpu = checked(workload, refs, lambda: workload.run(state))
    emit(event="op", phase="warmup", ok=ok, detail=detail, wall_s=wall, cpu_s=cpu)
    walls: list[float] = []
    start = time.perf_counter()
    while workloads.keep_going(time.perf_counter() - start, args.seconds, walls):
        ok, detail, wall, cpu = checked(workload, refs, lambda: workload.run(state))
        emit(event="op", phase="timed", ok=ok, detail=detail, wall_s=wall, cpu_s=cpu)
        walls.append(wall)


def cmd_trace(args) -> None:
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    refs = workloads.REFERENCES[workload.name]
    run = operation(workload, args.seed)
    ok, _, _, _ = checked(workload, refs, run)  # warm-up
    attempted, failed = 1, int(not ok)

    # Alternate untraced and traced operations so both see the same machine state.
    untraced, traced, layers, spans = [], [], [], []
    pairs: list[float] = []
    start = time.perf_counter()
    while workloads.keep_going(time.perf_counter() - start, args.seconds, pairs):
        pair_start = time.perf_counter()
        ok, _, wall, _ = checked(workload, refs, run)
        untraced.append(wall)
        tracer = Tracer()
        tracer.wrap()
        try:
            ok_traced, _, wall_traced, _ = checked(workload, refs, run)
        finally:
            tracer.unwrap()
        traced.append(wall_traced)
        pairs.append(time.perf_counter() - pair_start)
        layers.append(tracer.summary())
        spans.append(tracer.span_records())
        attempted += 2
        failed += (not ok) + (not ok_traced)

    peak_tracer = Tracer(peak=True)
    peak_tracer.wrap()
    try:
        ok, _, _, _ = checked(workload, refs, run)
    finally:
        peak_tracer.unwrap()
    attempted += 1
    failed += not ok

    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    for target in peak_tracer.targets:
        metrics[f"{target.layer}.peak_mb"] = peak_tracer.peak_mb.get(target.layer, 0.0)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    top_self = sorted(((metrics[k], k[: -len(".self_s")]) for k in metrics
                       if k.endswith(".self_s")), reverse=True)[:5]

    if args.spans:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "w", encoding="utf-8") as fh:
            for index, records in enumerate(spans):
                for record in records:
                    fh.write(json.dumps({"op": index, **record}) + "\n")
    emit(attempted=attempted, failed=failed, metrics=metrics,
         top_self=[[name, round(value, 6)] for value, name in top_self])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("probe").set_defaults(func=cmd_probe)
    for name, func in (("setup", cmd_setup), ("measure", cmd_measure), ("trace", cmd_trace)):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.set_defaults(func=func)
        if name != "setup":
            p.add_argument("--seconds", type=float, required=True)
        if name == "measure":
            p.add_argument("--perturb", action="store_true")
        if name == "trace":
            p.add_argument("--spans", default=None)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
