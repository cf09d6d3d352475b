"""Benchmark for qortho: fresh-process CLI invocations, median of k per run.

usage: python3 perfbench/run.py --workload {rmatrix,envelope,algebra}
           --seed N --seconds S --trace {0,1}

Run from anywhere; qortho is taken from the `src/` next to this
directory.  One child process runs at a time.  After one untimed
warm-up spawn (which compiles the bytecode), the workload's invocations
are repeated in round-robin order, in an order the seed shuffles, for as
many whole rounds as fit in S seconds (at least one).  Every invocation
prints `--format json`; its exit code and stdout are checked against the
pinned digest (or, for seed-generated queries, against its own first
repetition), and any mismatch, crash or timeout is a failed operation.

With --trace 0 the last stdout line reports the end-to-end metrics:

  wall_s       sum over invocations of the median repetition, timed
               inside the child from the end of argument parsing to exit
               and rescaled to the reference speed (child.SpeedSampler)
  setup_s      median time from spawn to the end of argument parsing,
               rescaled the same way, over every spawn of the run and
               SETUP_PROBES extra cheap spawns per round
  peak_rss_mb  largest peak RSS of any child

The lines before it list every repetition, raw and rescaled.

With --trace 1 each round runs every invocation once untraced and once
under perfbench/tracer.py, and the last line reports the per-layer
metrics of the first traced round, plus trace.overhead.  Spans go to
perfbench/out/.  See perfbench/README.md for the evidence behind the
design and the bounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from child import MARK, now  # noqa: E402
from workloads import PINNED, SETUP_PROBE, Invocation, workload  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
# Every run ends well inside three minutes, whatever the machine does.
HARD_LIMIT_S = 165.0
# Set-up samples per untraced round, from SETUP_PROBE spawns
SETUP_PROBES = 4
CHILD_ENV = {"PYTHONHASHSEED": "0", "PATH": os.environ.get("PATH", "")}


class Sample(NamedTuple):
    ok: bool
    wall_s: float = math.nan
    setup_s: float = math.nan
    rss_mb: float = math.nan
    out_bytes: int = 0
    trace: Optional[dict] = None
    timed_out: bool = False
    # wall_s and setup_s at the reference speed; untraced spawns only
    ref_wall_s: float = math.nan
    ref_setup_s: float = math.nan


Record = Tuple[str, bool, Sample]     # (invocation name, traced, sample)


def output_ok(inv: Invocation, code: int, stdout: bytes,
              seen: Dict[str, str]) -> bool:
    """Exit code and stdout match the pin, or the query's first output."""
    digest = hashlib.sha256(stdout).hexdigest()
    if code != inv.exit_code:
        return False
    if inv.sha256 is not None:
        return digest == inv.sha256
    return seen.setdefault(inv.name, digest) == digest


def spawn(argv: List[str], timeout: float, opts: List[str] = ()):
    """Run one child; return (exit code or None on timeout, stdout, record)."""
    spawn_t = now()
    proc = subprocess.Popen(
        [sys.executable, CHILD, repr(spawn_t), *opts, "--", *argv],
        cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, b"", None
    text = err.decode("utf-8", "replace")
    at = text.rfind("\n" + MARK)
    record = json.loads(text[at + 1 + len(MARK):]) if at >= 0 else None
    return proc.returncode, out, record


def measure(invocations: List[Invocation],
            execute: Callable[[Invocation, bool], Sample], seconds: float,
            clock: Callable[[], float] = now, traced_rounds: bool = False,
            probe: Optional[Invocation] = None) -> List[Record]:
    """Repeat whole rounds of `invocations` while another round fits.

    A round runs each invocation once, in list order, each preceded by
    enough `probe` spawns to give the round SETUP_PROBES of them; with
    `traced_rounds` it then runs each invocation once more, traced.  The
    first round always runs; a further one starts only if the last
    round's duration still fits in `seconds`.  A timeout ends the
    measurement.
    """
    probes = [probe] * -(-SETUP_PROBES // len(invocations)) if probe else []
    start = clock()
    records: List[Record] = []
    while True:
        round_start = clock()
        for traced in (False, True) if traced_rounds else (False,):
            for inv in invocations:
                for job in [inv] if traced else probes + [inv]:
                    sample = execute(job, traced)
                    records.append((job.name, traced, sample))
                    if sample.timed_out:
                        return records
        end = clock()
        if end - start + (end - round_start) > seconds:
            return records


def median_walls(records: List[Record], traced: bool,
                 field: str = "wall_s") -> Dict[str, float]:
    """Median of a Sample time field per invocation.  Repetitions whose
    output failed its check still count here: the run is reported
    incorrect anyway."""
    walls: Dict[str, List[float]] = {}
    for name, was_traced, s in records:
        value = getattr(s, field)
        if was_traced == traced and not math.isnan(value):
            walls.setdefault(name, []).append(value)
    return {name: statistics.median(w) for name, w in walls.items()}


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(records: List[Record]) -> Dict[str, float]:
    untraced = [s for _, traced, s in records
                if not traced and not math.isnan(s.ref_wall_s)]
    walls = median_walls(records, False, "ref_wall_s")
    walls.pop(SETUP_PROBE.name, None)
    return {
        "wall_s": sum(walls.values()),
        "setup_s": statistics.median(s.ref_setup_s for s in untraced),
        "peak_rss_mb": max(s.rss_mb for s in untraced),
    }


def _trace_counts(trace: dict) -> dict:
    return {"calls": trace["calls"], "tallies": trace["tallies"],
            "gc": trace["gc"]}


def first_traced(records: List[Record]) -> Tuple[Dict[str, Sample], bool]:
    """First traced sample per invocation, and whether every later traced
    repetition repeated its counts exactly."""
    first: Dict[str, Sample] = {}
    repeats = True
    for name, traced, s in records:
        if not (traced and s.ok):
            continue
        if name not in first:
            first[name] = s
        elif _trace_counts(s.trace) != _trace_counts(first[name].trace):
            repeats = False
    return first, repeats


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(records: List[Record]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics summed over the first traced run of each
    invocation."""
    calls: Counter = Counter()
    tallies: Counter = Counter()
    self_s: Counter = Counter()
    incl: Counter = Counter()
    gc_all = gc_gen2 = out_bytes = 0
    for s in first_traced(records)[0].values():
        calls.update(s.trace["calls"])
        tallies.update(s.trace["tallies"])
        self_s.update(s.trace["self_s"])
        incl.update(s.trace["inclusive_s"])
        gc_all += s.trace["gc"][0]
        gc_gen2 += s.trace["gc"][1]
        out_bytes += s.out_bytes
    muls = calls["scalars.Scalar.__mul__"]
    reduces = calls["presentations.reduce"]
    traced_wall = sum(median_walls(records, True).values())
    untraced_wall = sum(median_walls(records, False).values())
    return {
        "scalars.mul.calls": (muls, "count"),
        "scalars.add.calls": (calls["scalars.Scalar.__add__"], "count"),
        "scalars.invert.calls": (calls["scalars.scalar_invert"], "count"),
        "scalars.mul.laurent_share":
            (_share(tallies["scalars.mul.laurent"], muls), "ratio"),
        "scalars.self_s": (self_s["scalars"], "s"),
        "itensor.compose.calls": (calls["itensor.tensor_compose"], "count"),
        "itensor.triple.calls": (calls["itensor.triple_compose"], "count"),
        "itensor.entries_out": (tallies["itensor.entries_out"], "count"),
        "itensor.self_s": (self_s["itensor"], "s"),
        "rmatrix.bundle.builds":
            (calls["rmatrix.RMatrixBundle.__init__"], "count"),
        "rmatrix.bundle_s": (incl["rmatrix.RMatrixBundle.__init__"], "s"),
        "rmatrix.self_s": (self_s["rmatrix"], "s"),
        "presentations.reduce.calls": (reduces, "count"),
        "presentations.reduce.noop_share":
            (_share(tallies["presentations.reduce.noop"], reduces), "ratio"),
        "presentations.membership.calls":
            (calls["presentations.ideal_membership"], "count"),
        "presentations.self_s": (self_s["presentations"], "s"),
        "envelope.eval.calls": (calls["envelope.eval_functional"], "count"),
        "envelope.pairing.calls": (calls["envelope.pairing"], "count"),
        "envelope.self_s": (self_s["envelope"], "s"),
        "calculus.differential.calls":
            (calls["calculus.differential"], "count"),
        "calculus.self_s": (self_s["calculus"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "gc.collections": (gc_all, "count"),
        "gc.gen2.collections": (gc_gen2, "count"),
        "trace.overhead": (_share(traced_wall, untraced_wall), "ratio"),
    }


def _report(invocations: List[Invocation], records: List[Record]) -> None:
    """One line per invocation and kind of time, with every repetition."""
    kinds = (("wall_s", False), ("ref_wall_s", False), ("wall_s", True))
    for inv in invocations + [SETUP_PROBE]:
        for field, traced in kinds:
            walls = [getattr(s, field) for name, t, s in records
                     if name == inv.name and t == traced and s.ok]
            if walls:
                print("%-22s %-6s %-10s k=%-2d median %.4f s  [%s]"
                      % (inv.name, "traced" if traced else "", field,
                         len(walls), statistics.median(walls),
                         " ".join("%.3f" % w for w in walls)))
    for field in ("setup_s", "ref_setup_s"):
        setups = [getattr(s, field) for _, t, s in records if not t]
        setups = [v for v in setups if not math.isnan(v)]
        if setups:
            print("%-29s %-11s k=%-2d median %.4f s  min %.4f  max %.4f"
                  % ("spawns", field, len(setups),
                     statistics.median(setups), min(setups), max(setups)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PINNED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qortho", "cli.py")):
        print("perfbench: no qortho sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = now() + HARD_LIMIT_S
    code, _, record = spawn(["--help"], HARD_LIMIT_S)
    if code != 0 or record is None:
        print("perfbench: warm-up spawn failed (exit %s)" % code,
              file=sys.stderr)
        return 2

    invocations = workload(args.workload, args.seed)
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        open(spans_path, "w").close()
    seen: Dict[str, str] = {}
    traced_once = set()

    def execute(inv: Invocation, traced: bool) -> Sample:
        opts = []
        if traced:
            # spans are written for the first traced repetition only
            opts = ["--trace", inv.name,
                    "-" if inv.name in traced_once else spans_path]
            traced_once.add(inv.name)
        code, out, rec = spawn(inv.argv, deadline - now(), opts)
        if code is None:
            return Sample(False, timed_out=True)
        if rec is None:
            return Sample(False)
        return Sample(output_ok(inv, code, out, seen), rec["wall_s"],
                      rec["setup_s"], rec["rss_mb"], len(out),
                      rec.get("trace"),
                      ref_wall_s=rec.get("ref_wall_s", math.nan),
                      ref_setup_s=rec.get("ref_setup_s", math.nan))

    records = measure(invocations, execute, args.seconds,
                      traced_rounds=bool(args.trace),
                      probe=None if args.trace else SETUP_PROBE)
    if all(math.isnan(s.wall_s) for _, _, s in records):
        print("perfbench: no invocation completed", file=sys.stderr)
        return 1
    _report(invocations, records)
    failed = sum(not s.ok for _, _, s in records)
    done = {name for name, _, s in records if s.ok}
    correct = failed == 0 and {inv.name for inv in invocations} <= done
    if args.trace:
        repeats = first_traced(records)[1]
        correct = correct and repeats
        metrics = per_layer(records)
    else:
        metrics = {k: (v, E2E_UNITS[k])
                   for k, v in end_to_end(records).items()}
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
