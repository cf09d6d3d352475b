"""Run one qortho CLI invocation in this fresh interpreter and report timings.

usage: python3 perfbench/child.py SPAWN_T [--trace INVOCATION SPANS] -- ARGS

SPAWN_T is the parent's CLOCK_MONOTONIC reading taken just before it
started this process.  SPANS is a file to append the spans to, or "-" to
keep them unwritten.  qortho is imported from the checkout's `src/`,
never from an installed copy.  The CLI's stdout passes through
untouched; the last line of stderr is MARK followed by a JSON record:

  setup_s      spawn -> end of argument parsing (interpreter, imports,
               argparse)
  wall_s       end of argument parsing -> CLI returned and stdout flushed
  ref_setup_s  setup_s and wall_s rescaled to the reference speed by
  ref_wall_s   SpeedSampler (untraced runs only)
  rss_mb       this process's peak resident set size
  trace        with --trace: call counts, per-layer self time and gc
               counts; the spans go to SPANS as JSON lines

The exit code is the CLI's.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import sys
import time

MARK = "\x1eperfbench "
# The kernel's duration on this benchmark's reference machine (a 2.0 GHz
# Xeon vCPU, Python 3.11) when lightly loaded.
REFERENCE_KERNEL_S = 75e-6
SAMPLE_INTERVAL_S = 0.005


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so readings compare across processes.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedSampler:
    """Measures the machine's speed from inside this process, while the
    program runs.

    On a shared virtual machine the host can slow this process down by up
    to 2x for seconds to minutes at a time, and CPU time slows with it.  Every SAMPLE_INTERVAL_S of
    wall time, SIGALRM runs a fixed pure-Python kernel between two
    bytecodes of the program and times it.  A phase of the run did
    (phase time - time spent in the kernel) x mean(REFERENCE_KERNEL_S /
    kernel time) seconds of reference-speed work.  The mean of speeds,
    not of times, keeps a kernel sample that was itself interrupted from
    dominating.
    """

    def __init__(self):
        # per phase: [samples, seconds in the kernel, sum of speeds]
        self.phases = [[0, 0.0, 0.0]]

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        table = {}
        for i in range(300):
            key = (i & 31, i >> 5)
            table[key] = table.get(key, 0) + i * i
        dt = time.perf_counter() - t0
        phase = self.phases[-1]
        phase[0] += 1
        phase[1] += dt
        phase[2] += REFERENCE_KERNEL_S / dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def next_phase(self) -> None:
        self.phases.append([0, 0.0, 0.0])

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def reference_s(self, phase: int, seconds: float) -> float:
        """`seconds` of phase `phase` at the reference speed.  A phase too
        short to hold a sample takes the speed of the whole run."""
        n, busy, speeds = self.phases[phase]
        if n == 0:
            n = sum(p[0] for p in self.phases)
            speeds = sum(p[2] for p in self.phases)
        return (seconds - busy) * speeds / n if n else seconds


def _import_cli(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qortho", "cli.py")):
        raise SystemExit("perfbench: no qortho sources under %s" % src)
    sys.path.insert(0, src)
    import qortho.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported qortho from %s, not %s"
                         % (cli.__file__, src))
    return cli


def main(argv) -> int:
    spawn_t = float(argv[0])
    sep = argv.index("--")
    opts, args = argv[1:sep], argv[sep + 1:]
    traced = opts[:1] == ["--trace"]
    # The tracer's own cost would swamp the sampler's reading, and the
    # sampler's allocations would move the traced gc counts.
    sampler = None if traced else SpeedSampler()
    if sampler:
        sampler.start()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cli = _import_cli(root)

    if traced:
        invocation, spans_path = opts[1], opts[2]
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer(invocation)
        tracing.install(tracer)
        # Start from empty generations, so that the gc counts do not depend
        # on what compiling or loading the modules left behind.
        gc.collect()
        gc_before = tracing.gc_counts()

    import argparse
    parse_args = argparse.ArgumentParser.parse_args
    marks = {}

    def timed_parse(self, *a, **kw):
        ns = parse_args(self, *a, **kw)
        if "parsed" not in marks:
            marks["parsed"] = now()
            if sampler:
                sampler.next_phase()
        return ns

    argparse.ArgumentParser.parse_args = timed_parse
    code = cli.run(args)
    sys.stdout.flush()
    end = now()
    if sampler:
        sampler.stop()
    parsed = marks.get("parsed", end)
    record = {
        "setup_s": parsed - spawn_t,
        "wall_s": end - parsed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if sampler:
        record["ref_setup_s"] = sampler.reference_s(0, record["setup_s"])
        record["ref_wall_s"] = sampler.reference_s(-1, record["wall_s"])
    if traced:
        gc_after = tracing.gc_counts()
        record["trace"] = dict(
            tracer.summary(),
            gc=[after - before for after, before in zip(gc_after, gc_before)],
            spans=len(tracer.spans))
        if spans_path != "-":
            keys = ("id", "name", "start", "end", "parent", "invocation",
                    "self_s")
            with open(spans_path, "a") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    sys.stderr.write("\n" + MARK + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
