"""Record reference.json: one round of every workload at the default seed.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Run it from the root of a checkout, only when a change to the program is
meant to change its results; the benchmark then holds later changes to them.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def record() -> dict:
    reference = {}
    tmp_root = HERE.parent / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=tmp_root))
        try:
            ops = workloads.build(name, workloads.DEFAULT_SEED, scratch)
            reference[name] = [op.check(op.call()).fingerprint for op in ops]
        finally:
            shutil.rmtree(scratch)
    return reference


if __name__ == "__main__":
    with open(HERE / "reference.json", "w") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
