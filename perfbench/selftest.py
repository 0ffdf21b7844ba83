"""Self-test of the benchmark; exits 0 when every property holds.

    python3 perfbench/selftest.py

1. Two traced runs of each workload with the same seed report identical
   counts.
2. A traced pass of each workload gives the same outputs as an untraced
   one, and the checker passes them.
3. The checker counts one deliberately perturbed row, report or round trip
   as exactly one failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, no_span

HERE = Path(__file__).resolve().parent
SEED = 7
COUNTS = ("series.coeffs", "distributions.enumerations")
COUNT_SUFFIXES = (".calls", ".members", ".words")


def traced_counts(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(SEED), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=HERE.parent, check=True, timeout=600)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k in COUNTS or k.endswith(COUNT_SUFFIXES)}


def perturbed(name: str, outputs: list) -> list:
    """A copy of one pass's outputs with exactly one op made wrong."""
    outputs = list(outputs)
    if name == "verify":
        code, text = outputs[0]
        doc = json.loads(text)
        doc["reports"][4]["passed"] = False
        doc["passed"] = False
        outputs[0] = (1, json.dumps(doc))
    elif name == "dist-structured":
        # move one member between two values of the first job's last row,
        # which keeps the row sum
        code, text = outputs[0]
        rows = json.loads(text)
        counts = rows[-1]["counts"]
        counts["0"] -= 1
        counts["1"] += 1
        outputs[0] = (code, json.dumps(rows))
    elif name == "series":
        # the same for one row of the descent series
        rows = [list(r) for r in outputs[0]]
        rows[20][3] -= 1
        rows[20][4] += 1
        outputs[0] = tuple(tuple(r) for r in rows)
    else:
        p, back = outputs[0]
        outputs[0] = (p, back[1:-1])
    return outputs


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name, workload in WORKLOADS.items():
        first, second = traced_counts(name), traced_counts(name)
        expect(bool(first) and first == second,
               f"{name}: {len(first)} counts repeat across two traced runs")

        inputs = workload.build(SEED)
        plain = workload.run(inputs, no_span)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.run(inputs, tracer.span)
        finally:
            tracer.uninstall()
        expect(traced == plain, f"{name}: traced outputs equal untraced outputs")
        verdicts = workload.check(inputs, plain)
        expect(all(verdicts), f"{name}: all {len(verdicts)} ops check correct")
        bad = workload.check(inputs, perturbed(name, plain)).count(False)
        expect(bad == 1, f"{name}: a perturbed op counts as 1 failed op (got {bad})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
