"""The benchmark's one command.

By hand, from the repository root::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 1 [--workload NAME]
        [--trace] [--smoke] [--repeat N] [--out DIR]

prints every metric as ``workload metric value unit`` and, with
``--out``, writes one JSON report per run.  The driver named in
``BENCHMARK.json`` calls the same file as a script::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

and reads the last line of standard output: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics every workload reports with ``--trace 0``, every per-layer
metric (0 where the workload does not touch the layer) with
``--trace 1``.  A wrong answer or a failed op makes the exit code 1.
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
if __package__ in (None, ""):
    # Run as a script: make ``benchmarks.e2e`` importable and keep this
    # directory's module names (``stats``, ``spans``) off the path.
    sys.path[0] = _ROOT
_SRC = os.path.join(_ROOT, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(1, _SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from benchmarks.e2e import spec  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.run", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the input generator (default 1)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="length the timed sections are scaled to "
                             f"(default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="also run the traced pass and print the "
                             "per-layer budget")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink all five workloads to < 15 s total")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N times and print each metric's spread")
    parser.add_argument("--out", metavar="DIR",
                        help="write one JSON report per run into DIR")
    # How run_isolated calls this file for one workload.
    parser.add_argument("--child-report", metavar="PATH",
                        help=argparse.SUPPRESS)
    parser.add_argument("--layers-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> Dict[str, Any]:
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "flush_policy": spec.FLUSH_POLICY,
        "plan_cache_entries": spec.PLAN_CACHE_ENTRIES,
    }


def _end_group(child: subprocess.Popen) -> None:
    """Stop ``child`` and whatever is left of its process group (the
    child is its leader) and return only once every member has ended."""
    def running() -> bool:
        # Looks without reaping: until child.wait() below, the child's
        # pid still names the group to sweep.
        return os.waitid(
            os.P_PID, child.pid, os.WEXITED | os.WNOWAIT | os.WNOHANG
        ) is None

    if running():
        # Asked nicely, it tears its workload down and waits for its
        # own server.
        child.terminate()
        deadline = time.monotonic() + 20.0
        while running() and time.monotonic() < deadline:
            time.sleep(0.01)
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    child.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def run_isolated(name: str, seed: int, **options: Any) -> Dict[str, Any]:
    """``runner.run_workload`` in a process of its own, so that peak RSS
    and the program's process-wide counters belong to one workload.

    The child is this file run with ``--child-report``; it leads a
    process group of its own, and on every way out of here the whole
    group (the child and, for ``remote_read_mix``, its server) has been
    stopped and waited for."""
    from benchmarks.e2e import harness

    os.makedirs(harness.WORK, exist_ok=True)
    path = os.path.join(harness.WORK, f"report-{os.getpid()}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", repr(options["seconds"]),
        "--trace", str(int(options["trace"])), "--child-report", path,
    ]
    if options["smoke"]:
        command.append("--smoke")
    if not options["untraced_metrics"]:
        command.append("--layers-only")
    # The result line must stay the last line of our standard output.
    child = subprocess.Popen(
        command, stdin=subprocess.DEVNULL, stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
    finally:
        _end_group(child)
    code = child.returncode
    if code != 0:
        raise RuntimeError(f"workload {name} ended with code {code}")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    os.remove(path)
    return report


def _child(options: argparse.Namespace) -> int:
    from benchmarks.e2e.runner import run_workload

    report = run_workload(
        options.workload, options.seed, seconds=options.seconds,
        smoke=options.smoke, trace=bool(options.trace),
        untraced_metrics=not options.layers_only,
    )
    with open(options.child_report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


def _terminated(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def print_report(report: Dict[str, Any]) -> None:
    name = report["workload"]
    for metric, value in report["end_to_end"].items():
        unit = spec.E2E_BY_NAME[metric][1]
        print(f"{name} {metric} {value:.6g} {unit}")
    for metric, value in report.get("per_layer", {}).items():
        print(f"{name} {metric} {value:.6g} {spec.LAYER_UNITS[metric]}")
    for problem in report["problems"]:
        print(f"{name} WRONG {problem}", file=sys.stderr)


def driver_line(report: Dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads (see the module docstring)."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        layers = report["per_layer"]
        e2e = report["end_to_end"]
        for name, unit, _better in spec.per_layer_declared():
            if name.startswith("e2e."):
                value = e2e.get(name[len("e2e."):], 0.0)
            else:
                value = layers.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name in spec.UNIVERSAL:
            metrics[name] = {
                "value": report["end_to_end"][name],
                "unit": spec.E2E_BY_NAME[name][1],
            }
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    if not os.path.isdir(_SRC):
        print(f"no program to measure: {_SRC} is missing", file=sys.stderr)
        return 2
    try:
        from benchmarks.e2e import harness
        from benchmarks.e2e.compare import print_spread
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminated)
    if options.child_report:
        return _child(options)
    names = [options.workload] if options.workload else spec.WORKLOAD_NAMES
    trace = bool(options.trace)
    # The driver asks for one workload's layer metrics or its end-to-end
    # metrics, never both; by hand --trace prints both.
    driver = options.workload is not None and options.repeat == 1
    env = environment()
    reports: List[Dict[str, Any]] = []
    ok = True
    shutil.rmtree(harness.WORK, ignore_errors=True)
    try:
        for run in range(options.repeat):
            for name in names:
                report = run_isolated(
                    name, options.seed, seconds=options.seconds,
                    smoke=options.smoke, trace=trace,
                    untraced_metrics=not (driver and trace),
                )
                report["environment"] = env
                report["run"] = run
                reports.append(report)
                ok = ok and report["correct"]
                print_report(report)
                if options.out:
                    os.makedirs(options.out, exist_ok=True)
                    path = os.path.join(
                        options.out,
                        f"{name}-seed{options.seed}-run{run}.json",
                    )
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(report, handle, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)
    if options.repeat > 1:
        print_spread(reports)
    if driver:
        print(driver_line(reports[0], trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
