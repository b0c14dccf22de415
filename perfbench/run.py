#!/usr/bin/env python3
"""Closed-loop benchmark of the equibundle command line.

    python3 perfbench/run.py --workload field --seed 1 --seconds 20 --trace 0

One client sends the workload's deck (see workloads.py) as whole CLI
commands through `equibundle.cli.main`, in process, one at a time,
waiting for each reply, because a CLI user waits for each answer.  The
deck is sent in passes until `--seconds` of request time is spent.
Every reply is checked: exit code, the request's output invariants,
for the default seed a digest pinned from the answers of commit b9f8da0, and, on later
passes, equality with the first pass.  Request times are scaled to a
reference machine speed by a calibration chunk run between requests
(see calibration_ns and Measurement.send_pass).

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` it reports per-layer metrics from traced passes (see
layers.py), alternated with untraced passes to measure the tracing
overhead.  Lines before it are the same metrics for people, with
units, sample counts and the environment.  The exit code is 1 when any
reply was wrong and 2 when the package cannot be imported from `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"
SETUP_SAMPLES = 5
CALIBRATE_EVERY_NS = 200_000_000
# One calibration chunk on the reference machine (a 2-vCPU Xeon VM,
# Python 3.11) when it is quiet.  Reported times are scaled to that speed.
REFERENCE_CAL_NS = 7_100_000

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    pass


def import_cli():
    """`equibundle.cli` from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import equibundle.cli
    except ImportError as exc:
        raise SetupError(f"cannot import equibundle from {SRC}: {exc}")
    if not Path(equibundle.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"equibundle was imported from {equibundle.cli.__file__}, not {SRC}")
    return equibundle.cli


def call(cli, argv, stdin_text=None):
    """Run one command; returns (exit code, stdout, nanoseconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so the tracer's wrapper is seen
    except Exception as exc:  # a crash is a wrong reply, not a crashed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), time.perf_counter_ns() - t0


def set_up(workload, seed, size, workdir):
    """Cold import, document generation and warm-up, timed together.

    Warm-up sends the cheapest request of each subcommand once, so lazy
    imports and any caches the package fills are settled before timing.
    """
    t0 = time.perf_counter()
    cli = import_cli()
    deck = workloads.build_deck(workload, seed, size)
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for req in deck:
        paths = {}
        for name, text in req.docs.items():
            path = workdir / f"{req.rid}-{name[1:]}.json"
            path.write_text(text)
            paths[name] = str(path)
        argvs.append([paths.get(a, a) for a in req.argv])
    cheapest = {}
    for req, argv in zip(deck, argvs):
        if req.argv[0] not in cheapest or req.p < cheapest[req.argv[0]][0]:
            cheapest[req.argv[0]] = (req.p, argv)
    for _, argv in cheapest.values():
        call(cli, argv)
    return cli, deck, argvs, time.perf_counter() - t0


def setup_samples(args) -> list[tuple[float, float]]:
    """(scaled, raw) set-up seconds of fresh processes, so every sample
    includes a cold import."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        scaled, raw = proc.stdout.split()[-2:]
        samples.append((float(scaled), float(raw)))
    return samples


class Verifier:
    """Checks every reply; a request's first reply is checked in full,
    later replies must repeat it exactly."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.first = {}
        self.pins = None
        if seed == workloads.DEFAULT_SEED:
            self.pins = json.loads(PINS.read_text())[workload]
        self.problems = []

    def ok(self, req, code, text) -> bool:
        if req.rid in self.first:
            first_code, first_text, problem = self.first[req.rid]
            if problem is None and (code, text) != (first_code, first_text):
                problem = "reply differs from the first pass"
        else:
            problem = workloads.check_output(req, code, text)
            if problem is None and self.pins is not None:
                if workloads.answer_digest(code, text) != self.pins.get(req.rid):
                    problem = "reply differs from the digest pinned for the default seed"
            if problem is None and req.tag.startswith("search/"):
                problem = self._results_pass_check(text)
            self.first[req.rid] = (code, text, problem)
        if problem is not None:
            self.problems.append(f"{req.rid} {req.tag} p={req.p}: {problem}")
        return problem is None

    def _results_pass_check(self, text):
        for result in json.loads(text)["results"]:
            doc = json.dumps({"action": result})
            code, _, _ = call(self.cli, ["check", "-", "--machine"], doc)
            if code != 0:
                return f"search result {result} fails `check` (exit {code})"
        return None


def calibration_ns() -> int:
    """Time of a fixed chunk of pure-Python work like the package's own:
    Fraction arithmetic on growing integers, then small-integer modular
    arithmetic on a list, as in the GF(p) engine.  A shared virtual
    machine's speed can drift by 2x within seconds; the chunk slows down
    with it."""
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
    xs, r = [0] * 64, 1
    for i in range(1, 12000):
        r = (r * 31 + i) % 1009
        xs[i & 63] = (xs[i & 63] + r * i) % 1009
    return time.perf_counter_ns() - t0


def tail_index(n: int) -> int:
    """Index of the 90th percentile of n sorted samples, lowered until at
    least ten samples lie beyond it."""
    return max(0, min(math.ceil(0.9 * n) - 1, n - 11))


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Measurement:
    """Request times per pass, untraced and traced, and reply counts."""

    def __init__(self, cli, deck, argvs, verifier):
        self.cli, self.deck, self.argvs, self.verifier = cli, deck, argvs, verifier
        self.scaled, self.raw = [], []  # untraced passes: lists of ns
        self.traced_scaled, self.traced_raw, self.layer_runs = [], [], []
        self.attempted = self.wrong = 0
        self.calibration = calibration_ns()

    def send_pass(self, traced=False) -> None:
        """Send the deck once.

        The calibration chunk runs after every 0.2 s of request time and
        at the end of the pass; each request's time is scaled by
        REFERENCE_CAL_NS over the mean of the two calibrations around it.
        """
        replies, scaled, segment = [], [], []
        for i, argv in enumerate(self.argvs):
            replies.append(call(self.cli, argv))
            segment.append(replies[-1][2])
            if sum(segment) >= CALIBRATE_EVERY_NS or i == len(self.argvs) - 1:
                before, self.calibration = self.calibration, calibration_ns()
                factor = 2 * REFERENCE_CAL_NS / (before + self.calibration)
                scaled += [ns * factor for ns in segment]
                segment = []
        (self.traced_scaled if traced else self.scaled).append(scaled)
        (self.traced_raw if traced else self.raw).append([ns for _, _, ns in replies])
        self.attempted += len(replies)
        for req, (code, out, _) in zip(self.deck, replies):
            self.wrong += not self.verifier.ok(req, code, out)

    def seconds(self) -> float:
        return sum(sum(p) for p in self.raw + self.traced_raw) / 1e9


def measure(args, cli, deck, argvs) -> Measurement:
    verifier = Verifier(cli, args.workload, args.seed)
    m = Measurement(cli, deck, argvs, verifier)
    while m.seconds() < args.seconds:
        m.send_pass()
        if args.trace:
            tracer = layers.Tracer("equibundle", workloads.search_candidates)
            tracer.install()
            try:
                m.send_pass(traced=True)
            finally:
                tracer.uninstall()
            if tracer.absent and not m.layer_runs:
                absent = ", ".join(tracer.absent)
                print(f"warning: absent from the package, metrics read 0: {absent}", file=sys.stderr)
            m.layer_runs.append(tracer.metrics())
    for problem in verifier.problems[:20]:
        print(f"wrong reply: {problem}", file=sys.stderr)
    return m


def _pass_median_s(passes) -> float:
    return statistics.median(sum(p) for p in passes) / 1e9


def end_to_end(m: Measurement, setup) -> tuple[dict, list[str]]:
    n = len(m.raw[0])
    lat_ms = sorted(ns / 1e6 for p in m.scaled for ns in p)
    raw_ms = sorted(ns / 1e6 for p in m.raw for ns in p)
    i = tail_index(len(lat_ms))
    values = {
        "throughput_rps": statistics.median(n * 1e9 / sum(p) for p in m.scaled),
        "req_p50_ms": statistics.median(lat_ms),
        "req_p90_ms": lat_ms[i],
        "setup_s": statistics.median(s for s, _ in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    count = len(lat_ms)
    notes = {
        "throughput_rps": f"median of {len(m.scaled)} passes of {n} requests; "
        f"raw {n / _pass_median_s(m.raw):.4g}",
        "req_p50_ms": f"{count} samples; raw {statistics.median(raw_ms):.4g}",
        "req_p90_ms": f"p{100 * (i + 1) / count:.0f} of {count} samples, {count - i - 1} beyond; "
        f"raw {raw_ms[i]:.4g}",
        "setup_s": f"median of {len(setup)} fresh processes; "
        f"raw {statistics.median(r for _, r in setup):.4g}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"{name} {v:.6g} {END_TO_END_UNITS[name]} ({notes[name]})" for name, v in values.items()]
    return values, lines


def per_layer(m: Measurement) -> tuple[dict, list[str]]:
    """Counts from the first traced pass (they repeat exactly for a
    seed); self times, measured, as medians over traced passes."""
    values = dict(m.layer_runs[0])
    for name in values:
        if name.endswith(".self_s"):
            values[name] = statistics.median(run[name] for run in m.layer_runs)
    values["trace.request_s"] = _pass_median_s(m.traced_raw)
    values["trace.overhead_frac"] = _pass_median_s(m.traced_scaled) / _pass_median_s(m.scaled) - 1
    lines = [f"{k} {v:.6g} {layers.unit(k)}" for k, v in values.items()]
    shares = {}
    for name, v in values.items():
        if name.endswith(".self_s"):
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + v / values["trace.request_s"]
    lines.append("self-time share of traced request time: " + ", ".join(
        f"{mod} {share:.1%}" for mod, share in sorted(shares.items(), key=lambda kv: -kv[1])))
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: each request type once, at its smallest prime")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = WORK / str(os.getpid())
    try:
        if args.setup_probe:
            before = calibration_ns()
            seconds = set_up(args.workload, args.seed, args.size, workdir)[3]
            after = calibration_ns()
            print(seconds * 2 * REFERENCE_CAL_NS / (before + after), seconds)
            return 0
        setup = [] if args.trace else setup_samples(args)
        cli, deck, argvs, _ = set_up(args.workload, args.seed, args.size, workdir)
        m = measure(args, cli, deck, argvs)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"# workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"loop=closed clients=1 python={platform.python_version()} git={git_sha()} "
          f"nproc={os.cpu_count()}")
    if args.trace:
        metrics, lines = per_layer(m)
        unit = layers.unit
    else:
        metrics, lines = end_to_end(m, setup)
        unit = END_TO_END_UNITS.get
    wrong = f"{m.wrong} of {m.attempted} replies wrong"
    lines.append(f"failed_frac {m.wrong / m.attempted:.6g} ({wrong})")
    print("\n".join(lines))
    result = {
        "correct": m.wrong == 0,
        "attempted": m.attempted,
        "failed": m.wrong,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if m.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
