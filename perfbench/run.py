"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
the median set-up time of fresh interpreters started between the passes
(``setup_s``) and the median wall time of one pass (``wall_s``), both at the
reference machine speed (see :func:`reference`), the peak resident memory of
this process over the passes (``peak_rss_mb``) and the share of ops whose
output checked correct (``ok_ratio``).  With ``--trace 1`` it reports the
per-layer metrics of the median traced pass: half the time runs untraced
passes, half traced ones, and spans go to ``.perfbench/`` in the checkout.
Output checks run after the timed passes and never stop the run; a failed
op only counts against it.

``--workload all`` runs every workload in its own interpreter and prints a
table of the metrics, with ``fail_ratio`` and the op counts.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
MIN_PASSES = 3
# the median time of reference() on the 2-core VM the benchmark was built
# on, Python 3.11, in a quiet spell; wall_s and setup_s are given at this
# speed
REFERENCE_S = 0.055


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _descents(p) -> int:
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def _updown(p) -> str:
    return "".join("U" if a < b else "D" for a, b in zip(p, p[1:]))


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The work is like the program's own (tuples, comparisons, generators,
    strings, a dict tally) but uses none of its code.  The host's speed
    swings by up to 2x in spells of tens of seconds, and a pass or a set-up
    slows with it; the time of this loop, taken just before and just after
    one, tells how fast the machine ran it.
    """
    t0 = time.perf_counter()
    tally: dict = {}
    for p in itertools.islice(itertools.permutations(range(1, 9)), 20000):
        key = (_descents(p), _updown(p).count("UD"))
        tally[key] = tally.get(key, 0) + 1
    return time.perf_counter() - t0


class Passes:
    """Walls of the passes of one phase, each with the reference time
    around it when asked for; outputs of the first pass, and of every
    later pass whose outputs differ from it."""

    def __init__(self):
        self.walls: list[float] = []
        self.refs: list[float] = []
        self.first = None
        self.odd: list = []

    def scaled_walls(self) -> list[float]:
        """Pass walls at the reference machine speed."""
        return [w * REFERENCE_S / r for w, r in zip(self.walls, self.refs)]


def measure(workload, inputs, budget: float, span, min_passes: int,
            after_pass=None, scaled: bool = False) -> Passes:
    """Run passes from a cold state until ``budget`` seconds are used.

    With ``scaled``, :func:`reference` runs just before and just after
    each pass, and the mean of the two is kept with the pass."""
    log = Passes()
    start = time.perf_counter()
    while True:
        gc.collect()
        before = reference() if scaled else 0.0
        t0 = time.perf_counter()
        out = workload.run(inputs, span)
        log.walls.append(time.perf_counter() - t0)
        if scaled:
            log.refs.append((before + reference()) / 2)
        if after_pass is not None:
            after_pass((time.perf_counter() - start) / budget)
        if log.first is None:
            log.first = out
        elif out != log.first:
            log.odd.append(out)
        del out
        spent = time.perf_counter() - start
        if (len(log.walls) >= min_passes
                and spent + statistics.median(log.walls) > budget):
            return log


def verdicts(workload, inputs, log: Passes) -> tuple[int, int]:
    """(attempted, failed) ops over every pass of a phase."""
    first = workload.check(inputs, log.first)
    attempted = len(first) * len(log.walls)
    failed = first.count(False) * (len(log.walls) - len(log.odd))
    for out in log.odd:
        failed += workload.check(inputs, out).count(False)
    return attempted, failed


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(proc.stdout.split()[-1])


def run_plain(name: str, seed: int, seconds: float) -> tuple[int, int, dict]:
    from workloads import WORKLOADS, no_span

    workload = WORKLOADS[name]
    inputs = workload.build(seed)
    probes: list[float] = []
    probe_refs: list[float] = []

    def probe_on_schedule(progress: float) -> None:
        # spread the set-up probes over the run, between passes, so that
        # they meet the machine in the same states as the passes do
        while len(probes) < min(SETUP_PROBES, SETUP_PROBES * progress):
            before = reference()
            probes.append(setup_probe(name, seed))
            probe_refs.append((before + reference()) / 2)

    log = measure(workload, inputs, seconds, no_span, MIN_PASSES,
                  after_pass=probe_on_schedule, scaled=True)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe_on_schedule(1.0)
    attempted, failed = verdicts(workload, inputs, log)
    scaled = log.scaled_walls()
    setups = [p * REFERENCE_S / r for p, r in zip(probes, probe_refs)]
    print(f"{name}: {len(log.walls)} passes; median wall "
          f"{statistics.median(log.walls):.4f} s as measured, "
          f"{statistics.median(scaled):.4f} s at the reference speed; "
          f"median reference {statistics.median(log.refs):.4f} s against "
          f"{REFERENCE_S} s; median set-up {statistics.median(probes):.4f} s "
          f"as measured, {statistics.median(setups):.4f} s at the reference "
          f"speed\n"
          f"pass walls {json.dumps(log.walls)}\n"
          f"references {json.dumps(log.refs)}", file=sys.stderr)
    return attempted, failed, {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(scaled),
        "peak_rss_mb": peak_kib / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def run_traced(name: str, seed: int, seconds: float) -> tuple[int, int, dict]:
    from tracer import Tracer
    from workloads import WORKLOADS, no_span

    workload = WORKLOADS[name]
    inputs = workload.build(seed)
    plain = measure(workload, inputs, seconds / 2, no_span, 1)

    tracer = Tracer()
    per_pass: list[dict] = []
    tables: list[str] = []

    def snapshot(progress: float) -> None:
        per_pass.append(tracer.metrics())
        tables.append(tracer.table())
        tracer.reset()

    tracer.install()
    try:
        traced = measure(_Spanned(workload, tracer), inputs, seconds / 2,
                         tracer.span, 1, after_pass=snapshot)
    finally:
        tracer.uninstall()

    attempted, failed = verdicts(workload, inputs, plain)
    more, more_failed = verdicts(workload, inputs, traced)
    if traced.first != plain.first:
        more_failed = more    # tracing must not change a single output
    attempted += more
    failed += more_failed

    # every per-layer value comes from one traced pass, the median one
    median = traced.walls.index(statistics.median_low(traced.walls))
    print(f"{name}: traced pass {median + 1} of {len(traced.walls)}, "
          f"the median one ({traced.walls[median]:.4f} s)\n{tables[median]}",
          file=sys.stderr)
    metrics = dict(per_pass[median])
    metrics["trace.overhead_ratio"] = (statistics.median(traced.walls)
                                       / statistics.median(plain.walls))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans = [dict(zip(("id", "parent", "name", "start_s", "end_s"), s))
             for s in tracer.spans]
    (out_dir / f"spans-{name}-seed{seed}.json").write_text(json.dumps(spans))
    return attempted, failed, metrics


class _Spanned:
    """A workload whose every pass is one span."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer

    def run(self, inputs, span):
        with self.tracer.span("pass", "bench.pass"):
            return self.workload.run(inputs, span)


def run_one(args) -> int:
    if not (ROOT / "src" / "patternstats" / "__init__.py").is_file():
        print(f"no patternstats sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.trace:
        attempted, failed, values = run_traced(args.workload, args.seed,
                                               args.seconds)
        wanted = spec["per_layer"]
    else:
        attempted, failed, values = run_plain(args.workload, args.seed,
                                              args.seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, then one table."""
    spec = _spec()
    status = 0
    print(f"{'workload':<17}{'metric':<40}{'value':>14}  unit")
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']:<17}failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        attempted, failed = result["attempted"], result["failed"]
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        if not args.trace:
            rows.append(("fail_ratio", failed / attempted, "ratio"))
        rows.append(("ops attempted / failed", f"{attempted} / {failed}", ""))
        for key, value, unit in rows:
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"{w['name']:<17}{key:<40}{shown:>14}  {unit}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    names = [w["name"] for w in _spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
