"""Benchmark of the clique-blowup package on fixed workloads, run from the repo root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--perturb]

With ``--trace 0`` it measures the end-to-end metrics named in BENCHMARK.json:
set-up several times in fresh interpreters, one untimed warm-up operation,
then operations one after another (a closed loop with one client) until S
seconds have passed. With ``--trace 1`` it runs operations in one process with
every layer's public functions wrapped in spans and reports the per-layer
metrics. ``--perturb`` moves every pinned reference value, so every operation
must count as failed; ``bench/selfcheck.py`` relies on that.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The line before it records the environment and each metric's sample
count and quartiles. At most one child process runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

BUDGET_S = 170.0  # the whole run must end within 180 s
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
SETUP_TIMEOUT_S = 60.0
SPANS_DIR = ROOT / ".bench_out"


@dataclass
class Child:
    code: int | None  # None when killed for a timeout
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


class Budget:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], timeout: float, stdin: str = "", on_line=None) -> Child:
    """Run one child to completion and return its output and resource use.

    Wall time runs from spawn to exit. CPU time and peak RSS come from
    ``wait4`` on this child alone. Without ``on_line`` the timeout bounds the
    whole run; with it, each stdout line restarts the timeout. A child that
    times out is killed and reaped, and its code is None.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        proc.stdin.write(stdin.encode())
        proc.stdin.close()
    except BrokenPipeError:  # the child exited without reading; its exit code tells why
        pass
    chunks = {proc.stdout: [], proc.stderr: []}
    pending = b""
    deadline = start + timeout
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 65536)
                    if not data:
                        sel.unregister(key.fileobj)
                        continue
                    chunks[key.fileobj].append(data)
                    if on_line is not None and key.fileobj is proc.stdout:
                        pending += data
                        *lines, pending = pending.split(b"\n")
                        for line in lines:
                            on_line(line.decode())
                            deadline = time.perf_counter() + timeout
    except BaseException:
        proc.kill()  # never leave a child running behind an error or an interrupt
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        code=None if timed_out else proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode(errors="replace"),
        stderr=b"".join(chunks[proc.stderr]).decode(errors="replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def worker(*args: str) -> list[str]:
    return [sys.executable, str(ROOT / "bench" / "worker.py"), *args]


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(budget: Budget) -> dict:
    """Versions, BLAS threads and nproc as a child sees them.

    Also the first import in the run, so bytecode is compiled before set-up is timed.
    """
    child = run_child(worker("probe"), min(SETUP_TIMEOUT_S, budget.left()))
    env = json.loads(child.stdout.splitlines()[-1]) if child.code == 0 else {"probe": "failed"}
    env.update(commit=git_commit(), jobs=1, loop="closed, one client")
    return env


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Tally:
    """Operations attempted and failed, with the first failure's detail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def add(self, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.first_failure = self.first_failure or detail


def measure_setup(workload, seed: int, budget: Budget, tally: Tally) -> list[float]:
    """Wall seconds from a fresh interpreter to a workload ready to run, several times."""
    if workload.kind == "cli":
        argv = [sys.executable, "-c", "import clique_blowup.cli"]
    else:
        argv = worker("setup", "--workload", workload.name, "--seed", str(seed))
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = run_child(argv, min(SETUP_TIMEOUT_S, budget.left()))
        if child.code != 0:
            tally.add(False, f"set-up exit {child.code}: {child.stderr[-300:]}")
            break
        samples.append(child.wall_s)
    return samples


def measure_cli(workload, seed, seconds, refs, budget, tally):
    argv = [sys.executable, "-m", "clique_blowup.cli", *workload.args(seed)]
    stdin = workload.stdin(seed)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    start = None
    while start is None or workloads.keep_going(time.perf_counter() - start, seconds,
                                                samples["wall_s"]):
        child = run_child(argv, min(workload.timeout_s, budget.left()), stdin)
        if child.code is None:
            tally.add(False, f"timed out after {child.wall_s:.1f} s")
            break
        ok, detail = workloads.safe_check(workload.check, child.code, child.stdout, refs)
        tally.add(ok, detail if ok else f"{detail}; stderr {child.stderr[-300:]}")
        if start is None:  # the warm-up operation is checked but not timed
            start = time.perf_counter()
            continue
        samples["wall_s"].append(child.wall_s)
        samples["cpu_s"].append(child.cpu_s)
        samples["peak_rss_mb"].append(child.rss_mb)
    return samples


def measure_library(workload, seed, seconds, refs, budget, tally, perturb):
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}

    def on_line(line: str) -> None:
        record = json.loads(line) if line.startswith("{") else {}
        if record.get("event") != "op":
            return
        tally.add(record["ok"], record["detail"])
        if record["phase"] == "timed":
            samples["wall_s"].append(record["wall_s"])
            samples["cpu_s"].append(record["cpu_s"])

    argv = worker("measure", "--workload", workload.name, "--seed", str(seed),
                  "--seconds", str(seconds), *(["--perturb"] if perturb else []))
    # Each line restarts the timeout: set-up and warm-up, then every operation.
    child = run_child(argv, min(workload.timeout_s + SETUP_TIMEOUT_S, budget.left()),
                      on_line=on_line)
    if child.code is None:
        tally.add(False, f"worker timed out after {child.wall_s:.1f} s")
    elif child.code != 0:
        tally.add(False, f"worker exit {child.code}: {child.stderr[-300:]}")
    # One fresh child per run, so its peak belongs to this run.
    samples["peak_rss_mb"].append(child.rss_mb)
    return samples


def timed_run(workload, args, budget: Budget) -> tuple[Tally, dict, dict]:
    refs = workloads.REFERENCES[workload.name]
    if args.perturb:
        refs = workloads.perturbed(refs)
    tally = Tally()
    samples = {"setup_s": measure_setup(workload, args.seed, budget, tally)}
    if tally.failed == 0:
        if workload.kind == "cli":
            samples.update(measure_cli(workload, args.seed, args.seconds, refs, budget, tally))
        else:
            samples.update(measure_library(workload, args.seed, args.seconds, refs, budget,
                                           tally, args.perturb))
    values = {}
    for name, series in samples.items():
        if series:
            values[name] = statistics.median(series)
    values["pass_ratio"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
    spread = {name: {"n": len(series), "quartiles": quartiles(series)}
              for name, series in samples.items() if series}
    return tally, values, spread


def import_times(budget: Budget) -> dict[str, float]:
    """cli.import.* from ``python -X importtime -c 'import clique_blowup.cli'``.

    Each figure is the median over several runs of the cumulative time of
    the outermost imports of that package.
    """
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import clique_blowup.cli"],
                          min(SETUP_TIMEOUT_S, budget.left()))
        if child.code != 0:
            break
        runs.append(parse_importtime(child.stderr))
    if not runs:
        return {}
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def parse_importtime(text: str) -> dict[str, float]:
    """Outermost cumulative seconds of clique_blowup, scipy and numpy imports.

    importtime prints a module after its children, two spaces deeper per
    level, so reading the lines backwards visits every parent before its
    children.
    """
    packages = {"cli.import.s": "clique_blowup", "cli.import.scipy_s": "scipy",
                "cli.import.numpy_s": "numpy"}
    totals = dict.fromkeys(packages, 0.0)
    stack: list[tuple[int, str]] = []
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for key, package in packages.items():
            if _within(name, package) and not any(_within(p, package) for _, p in stack):
                totals[key] += int(cumulative) / 1e6
        stack.append((depth, name))
    return totals


def traced_run(workload, args, budget: Budget) -> tuple[Tally, dict, dict]:
    values = import_times(budget)
    spans_path = SPANS_DIR / f"{workload.name}.spans.jsonl"
    child = run_child(worker("trace", "--workload", workload.name, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--spans", str(spans_path)),
                      budget.left())
    tally = Tally()
    detail = {"spans": str(spans_path.relative_to(ROOT))}
    if child.code != 0:
        tally.add(False, f"trace worker exit {child.code}: {child.stderr[-300:]}")
        return tally, values, detail
    result = json.loads(child.stdout.splitlines()[-1])
    tally.attempted, tally.failed = result["attempted"], result["failed"]
    values.update(result["metrics"])
    detail["top_self_s"] = result["top_self"]
    return tally, values, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="check outputs against moved references; every operation must fail")
    args = parser.parse_args()
    # On SIGTERM, unwind through run_child so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "clique_blowup" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    budget = Budget(BUDGET_S)
    env = environment(budget)
    workload = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    tally, values, detail = run(workload, args, budget)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if args.trace:  # a layer the workload never calls reads 0
        values.update(dict.fromkeys(missing, 0.0))
    elif missing:
        tally.add(False, f"no samples for {missing}")
        values.update(dict.fromkeys(missing, 0.0))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"workload": workload.name, "seed": args.seed, "env": env,
                      "first_failure": tally.first_failure, "detail": detail}))
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": max(tally.attempted, 1), "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
