"""One benchmark process: set up a workload, then run its rounds.

    python3 perfbench/child.py --workload W --seed N --seconds T --trace 0|1 \
        --scratch DIR [--setup-only]

Set-up is importing ``qperceptron``, generating the workload's inputs and one
warm-up call into each layer it uses; the child prints ``ready``, its CPU
seconds so far and the host scale (``host.py``) when it is done.  With ``--setup-only`` it then exits.  Otherwise it runs rounds in a
closed loop (one caller, each call after the previous one returned) for
``--seconds``, or, when traced, for half of that untraced and half with the
wrappers of ``spans.py`` installed.  It writes ``result.json`` (and
``spans.jsonl`` when traced) into ``--scratch``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
import host  # noqa: E402


def _cpu_s(probe: host.Probe) -> float:
    """CPU seconds of this process and its waited-for children, but the probe's."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime - probe.cpu_s


def _run_round(ops, reference, recorder, matches, probe) -> dict:
    round_ops, tally, failures = [], {}, []
    work = 0.0
    for i, op in enumerate(ops):
        ok = False
        start, cpu_start = time.perf_counter(), _cpu_s(probe)
        try:
            if recorder is None:
                returned = op.call()
            else:
                with recorder.span("bench.op", op.name):
                    returned = op.call()
            seconds, cpu_s = time.perf_counter() - start, _cpu_s(probe) - cpu_start
            outcome = op.check(returned)
            if reference is not None and not (
                i < len(reference) and matches(outcome.fingerprint, reference[i])
            ):
                raise AssertionError("differs from reference.json")
            ok = True
        except Exception as exc:  # every failed operation is counted, none stops the run
            seconds, cpu_s = time.perf_counter() - start, _cpu_s(probe) - cpu_start
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        round_ops.append(
            {"name": op.name, "start": start, "s": seconds, "cpu_s": cpu_s, "ok": ok}
        )
        if ok:
            work += outcome.work
            for key, value in outcome.tally.items():
                tally[key] = tally.get(key, 0) + value
    return {
        "wall_s": sum(o["s"] for o in round_ops),
        "work": work,
        "ops": round_ops,
        "tally": tally,
        "failures": failures,
    }


def _run_rounds(ops, seconds: float, reference, recorder, matches, probe) -> list[dict]:
    """Whole rounds, at least one, while the next is expected to end in time."""
    rounds, lengths = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(_run_round(ops, reference, recorder, matches, probe))
        lengths.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return rounds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Every thread of the run shares one CPU, so the probe times the CPU the
    # work runs on: two vCPUs of a shared host drift apart.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    probe = host.Probe()
    probe.start()
    started = time.perf_counter()
    import qperceptron

    import_s = time.perf_counter() - started
    expected = (ROOT / "src" / "qperceptron").resolve()
    if Path(qperceptron.__file__).resolve().parent != expected:
        print(f"error: imported qperceptron from {qperceptron.__file__}", file=sys.stderr)
        return 2

    import workloads

    ops = workloads.build(args.workload, args.seed, args.scratch)
    print(f"ready {_cpu_s(probe)!r} {probe.scale()!r}", flush=True)
    if args.setup_only:
        probe.stop()
        return 0

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(Path(__file__).with_name("reference.json")) as fh:
            reference = json.load(fh)[args.workload]

    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "nproc": len(cpus),
            "pinned_cpu": cpus[0],
            "pool_width": min(20, os.cpu_count() or 1),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    budget = args.seconds / 2 if args.trace else args.seconds
    result["untraced"] = _run_rounds(ops, budget, reference, None, workloads.matches, probe)
    if args.trace:
        import spans

        recorder = spans.Recorder(f"{args.workload}-{args.seed}-{os.getpid()}")
        uninstall = spans.install(recorder)
        try:
            result["traced"] = _run_rounds(
                ops, budget, reference, recorder, workloads.matches, probe
            )
        finally:
            uninstall()
        recorder.write(args.scratch / "spans.jsonl")
    probe.stop()
    result["probes"] = probe.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.scratch / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
