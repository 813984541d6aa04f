"""Benchmark of qperceptron: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep|audit|adiabatic --seed N \
        --seconds T --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Every process it starts pins ``OPENBLAS_NUM_THREADS=1``.  It first starts
``SETUP_SAMPLES - 1`` fresh processes that only set up, then one that sets up
and measures (see ``child.py``); ``setup_s`` is the median over all of them
of the CPU time from start to ready.  Every time reported is CPU time scaled
to a reference host speed (see ``host.py``).  All files go to a temporary
directory under the checkout, deleted at the end.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is 0
only when every operation passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# The run may take this long per set-up process, and this much past
# --seconds (its last round, checks and writing the result).
SETUP_ALLOWANCE_S = 10.0
RUN_MARGIN_S = 60.0

sys.path.insert(0, str(HERE))
import host  # noqa: E402
import spans  # noqa: E402

class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _start_child(args, scratch: Path, setup_only: bool, deadline: float):
    """Start a child; return it and its set-up: wall and CPU seconds, host scale."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    wall_s = time.perf_counter() - started
    word, *values = line.split()
    if word != "ready":
        _stop(proc)
        raise BenchError(f"set-up did not finish (exit code {proc.returncode})")
    cpu_s, scale = map(float, values)
    return proc, {"wall_s": wall_s, "cpu_s": cpu_s, "scale": scale}


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _wait(proc: subprocess.Popen, deadline: float) -> None:
    try:
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("the run did not finish in time") from None
    proc.stdout.close()
    if code != 0:
        raise BenchError(f"benchmark process exited with code {code}")


def _measure(args, scratch: Path) -> tuple[list[dict], dict]:
    limit = SETUP_SAMPLES * SETUP_ALLOWANCE_S + args.seconds + RUN_MARGIN_S
    deadline = time.monotonic() + limit
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup_s = _start_child(args, scratch, True, deadline)
        _wait(proc, deadline)
        setups.append(setup_s)
    proc, setup_s = _start_child(args, scratch, False, deadline)
    setups.append(setup_s)
    _wait(proc, deadline)
    with open(scratch / "result.json") as fh:
        return setups, json.load(fh)


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def scaled_cpu(rounds: list[dict], probes: list) -> list[list[float]]:
    """Each operation's CPU seconds, scaled to the reference host speed."""
    return [
        [o["cpu_s"] * host.scale_at(probes, o["start"], o["start"] + o["s"]) for o in r["ops"]]
        for r in rounds
    ]


def end_to_end(setups: list[dict], result: dict) -> dict:
    rounds = result["untraced"]
    ops = scaled_cpu(rounds, result["probes"])
    op_ms = [1e3 * s for r in ops for s in r]
    return {
        "setup_s": statistics.median(s["cpu_s"] * s["scale"] for s in setups),
        "round_cpu_s": statistics.median(sum(r) for r in ops),
        "work_per_cpu_s": statistics.median(
            r["work"] / sum(o) for r, o in zip(rounds, ops)
        ),
        "op_cpu_ms_p50": _quantile(op_ms, 5),
        "op_cpu_ms_p90": _quantile(op_ms, 9),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, scratch: Path) -> dict:
    traced = result["traced"]
    tally: dict[str, float] = {}
    for r in traced:
        for key, value in r["tally"].items():
            tally[key] = tally.get(key, 0) + value
    recorded, counts = spans.read(scratch / "spans.jsonl")
    metrics = spans.layer_metrics(recorded, counts, len(traced), tally)
    metrics["harness.import_s"] = result["import_s"]
    traced_s, untraced_s = (
        statistics.median(sum(r) for r in scaled_cpu(result[key], result["probes"]))
        for key in ("traced", "untraced")
    )
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return metrics


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qperceptron" / "__init__.py").is_file():
        print(f"error: no qperceptron sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        setups, result = _measure(args, scratch)
        if args.trace:
            metrics = per_layer(result, scratch)
        else:
            metrics = end_to_end(setups, result)
        values = {name: metrics[name] for name in units}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    rounds = result["untraced"] + result.get("traced", [])
    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={len(result['untraced'])}+{len(result.get('traced', []))} "
        f"ops={attempted} failed_ratio={len(failures) / attempted:.6g}"
    )
    untraced = result["untraced"]
    print(
        f"# unscaled: setup_wall_s={statistics.median(s['wall_s'] for s in setups):.6g} "
        f"round_wall_s={statistics.median(r['wall_s'] for r in untraced):.6g} "
        f"round_cpu_s={statistics.median(sum(o['cpu_s'] for o in r['ops']) for r in untraced):.6g} "
        f"host_scale={host.REFERENCE_S / statistics.median(s for _, s in result['probes']):.6g}"
    )
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
