"""bandlab benchmark: run one workload through ``bandlab.cli.main``.

Usage (from the repository root):

    python3 bench/run.py --workload d1-resolvent [--seed 20260809]
                         [--seconds 25] [--trace 0|1]

One process runs the workload's commands against ``src/`` over and over for
about ``--seconds`` seconds (at least three times), after one untimed
reference pass.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead. Every command's canonical JSON report must be
byte-identical across the passes of a run and, for Monte Carlo workloads,
identical to the reference pass run at ``parallelism = 1``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from machine import machine_facts
from workloads import MC_COMMANDS, PARALLELISM, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20260809
SETUP_REPEATS = 7
# Timed passes per run at least; the median of three ignores one pass that
# a burst of load from outside the run slowed down.
MIN_PASSES = 3
ALL_COMMANDS = ("validate", "flow", "theta", "kloop", "locallaw",
                "diffusion", "deloc", "que")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = tracing.layer_metric_units()
    units.update({f"command.{c}_s": "s" for c in ALL_COMMANDS})
    units.update({
        "command.replicas_per_s": "1/s",
        "command.failed_ratio": "ratio",
        "trace.overhead_s": "s",
    })
    return units


@dataclass
class CommandResult:
    command: str
    code: int | None          # None: the command raised
    seconds: float
    error: str = ""
    digest: str | None = None
    verdict: str = "-"
    replicas: int = 0         # replicas attempted
    completed: int = 0
    failures: int = 0         # replicas listed in the report's failures
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.failures + (self.code not in (0, 1))


@dataclass
class Pass:
    wall: float
    commands: list
    layer: dict | None = None
    calls_ms: dict | None = None
    spans: list | None = None


class Runner:
    """Runs the passes of one workload and checks their reports."""

    def __init__(self, workload: Workload, seed: int, outroot: Path):
        from bandlab import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.outroot = outroot
        self.count = 0
        self.configs = {p: self.write_configs(workload, f"p{p}", p)
                        for p in {PARALLELISM, 1}}

    def write_configs(self, workload, tag, parallelism) -> dict:
        cfgdir = self.outroot / "config"
        cfgdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for step in workload.steps:
            path = cfgdir / f"{step.name}-{tag}.ini"
            path.write_text(step.ini(parallelism), encoding="utf-8")
            paths[step.name] = str(path)
        return paths

    def run_pass(self, configs: dict, workload=None, tracer=None) -> Pass:
        workload = workload or self.workload
        self.count += 1
        outdir = self.outroot / f"pass-{self.count}"
        outdir.mkdir(parents=True)
        ran = []
        start = time.perf_counter()
        for step in workload.steps:
            for cmd in step.commands:
                ran.append((step, self._run_command(cmd, configs[step.name],
                                                    outdir, tracer)))
        wall = time.perf_counter() - start
        for step, res in ran:
            self._read_report(res, outdir, step)
        shutil.rmtree(outdir)
        return Pass(wall=wall, commands=[res for _, res in ran])

    def _run_command(self, cmd, config, outdir, tracer) -> CommandResult:
        argv = [cmd, "--config", config, "--seed", str(self.seed),
                "--out", str(outdir)]
        sink = io.StringIO()
        span = tracer.span(f"command.{cmd}") if tracer \
            else contextlib.nullcontext()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink), span:
                code = self.cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        return CommandResult(cmd, code, seconds,
                             error=error or sink.getvalue().strip())

    def _read_report(self, res: CommandResult, outdir: Path, step) -> None:
        if res.code not in (0, 1):
            res.problems.append(f"exit {res.code}: {res.error}")
            return
        path = outdir / f"{res.command}.json"
        if not path.is_file():
            res.problems.append("no report written")
            return
        raw = path.read_bytes()
        res.digest = hashlib.sha256(raw).hexdigest()
        rep = json.loads(raw)
        res.verdict = "PASS" if rep.get("pass") else "FAIL"
        if rep.get("command") != res.command:
            res.problems.append(f"report names command {rep.get('command')}")
        if bool(rep.get("pass")) != (res.code == 0):
            res.problems.append(f"exit {res.code} disagrees with the report")
        if res.command in MC_COMMANDS:
            res.replicas = step.replicas
            res.failures = len(rep["failures"])
            res.completed = int(rep["completed"])
            if rep["master_seed"] != self.seed:
                res.problems.append("report carries another master seed")
            if rep["replicas"] != step.replicas \
                    or res.completed + res.failures != step.replicas:
                res.problems.append("replica counts do not add up")


def probe_setup(workload: Workload, configs: dict) -> float:
    """Seconds of set-up in a fresh interpreter (see setup_probe.py)."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           str(ROOT / "src")] + [configs[s.name] for s in workload.steps]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _seconds(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 outroot: Path, setup_repeats: int = SETUP_REPEATS,
                 spans_path: Path | None = None) -> dict:
    """Run one workload; return the result object and the report lines.
    Passes write their reports under ``outroot``; a traced run writes its
    spans to ``spans_path``."""
    runner = Runner(workload, seed, outroot)
    lines = []
    # Set-up probes are spread over the run, one before the reference pass
    # and one after each timed pass, so that their median samples the same
    # stretch of machine load as the passes do.
    setup = []

    def take_probe():
        if not trace and len(setup) < setup_repeats:
            setup.append(probe_setup(workload, runner.configs[PARALLELISM]))

    take_probe()
    # Untimed first pass: the parallelism-1 reference for Monte Carlo
    # workloads, a smoke-size pass otherwise. It also lets lazy imports and
    # BLAS thread pools start before timing.
    if workload.monte_carlo:
        reference = runner.run_pass(runner.configs[1])
    else:
        tiny = workload.tiny()
        reference = runner.run_pass(
            runner.write_configs(tiny, "warmup", PARALLELISM), tiny)

    # Passes continue while the next one is expected to end within
    # ``seconds``, and until there are MIN_PASSES (one traced, if tracing).
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        timed = untraced + traced
        if len(timed) >= MIN_PASSES and (traced or not trace) and \
                time.perf_counter() - start + timed[-1].wall > seconds:
            break
        if trace and len(traced) < len(untraced):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                p = runner.run_pass(runner.configs[PARALLELISM],
                                    tracer=tracer)
            finally:
                tracer.restore()
            p.spans = tracer.spans
            p.layer, p.calls_ms = tracing.layer_metrics(p.spans)
            traced.append(p)
        else:
            untraced.append(runner.run_pass(runner.configs[PARALLELISM]))
        take_probe()
    for _ in range(setup_repeats):
        take_probe()

    timed = untraced + traced
    compared = timed + ([reference] if workload.monte_carlo else [])
    correct, gate_lines = check_outputs(workload, compared)
    lines += gate_lines
    everything = timed + [reference]
    attempted = sum(len(p.commands) + sum(c.replicas for c in p.commands)
                    for p in everything)
    failed = sum(c.failed for p in everything for c in p.commands)

    per_command = {c: _median([r.seconds for p in untraced
                               for r in p.commands if r.command == c])
                   for c in ALL_COMMANDS}
    mc_time = sum(r.seconds for p in untraced for r in p.commands
                  if r.command in MC_COMMANDS)
    mc_done = sum(r.completed for p in untraced for r in p.commands)
    summary = {
        "wall_s": (_median([p.wall for p in untraced]), "s"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    if mc_time:
        summary["replicas_per_s"] = (mc_done / mc_time, "1/s")
    summary.update({f"{c}_s": (per_command[c], "s")
                    for c in workload.commands})
    if trace:
        metrics = traced_metrics(traced, untraced, per_command, summary)
        exact = [k for k, u in tracing.layer_metric_units().items()
                 if u in ("count", "flop", "byte")]
        differ = [k for k in exact
                  if len({p.layer[k] for p in traced}) > 1]
        lines += [f"trace: per-layer times are medians over traced passes "
                  f"({len(traced)}); counts "
                  + (f"DIFFER between passes: {', '.join(differ)}" if differ
                     else "repeat exactly")]
        lu_sizes = Counter(s.attrs["n"] for s in traced[0].spans
                           if s.name == "deterministic.theta_entrywise")
        lines += ["trace: LU solves per traced pass by N: " + (", ".join(
            f"{n} x{k}" for n, k in sorted(lu_sizes.items())) or "none")]
        if spans_path is not None:
            tracing.write_spans(spans_path, [p.spans for p in traced])
            lines += [f"trace: spans written to {spans_path}"]
    else:
        summary["setup_s"] = (_median(setup), "s")
        summary["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics = {k: summary[k] for k in END_TO_END}
        lines += [f"setup_s samples: {_seconds(setup)}"]
    lines += [f"pass walls: untraced {_seconds(p.wall for p in untraced)}"
              + (f"; traced {_seconds(p.wall for p in traced)}"
                 if trace else "")]
    lines += [f"passes: {len(untraced)} untraced, {len(traced)} traced, "
              f"1 reference; attempted {attempted}, failed {failed}"]
    lines += [f"e2e {k} = {v:.6g} {u}" for k, (v, u) in summary.items()]
    lines += [f"metric {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return {"result": result, "summary": summary, "lines": lines}


def check_outputs(workload: Workload, passes: list) -> tuple[bool, list]:
    """Digest gate: each command's report is byte-identical in every pass
    (including the parallelism-1 reference) and passes its sanity checks."""
    correct = True
    lines = []
    for i, cmd in enumerate(workload.commands):
        results = [p.commands[i] for p in passes]
        digests = {r.digest for r in results}
        problems = sorted({q for r in results for q in r.problems})
        ok = len(digests) == 1 and None not in digests and not problems
        correct = correct and ok
        first = results[0]
        lines.append(
            f"report {cmd}: {first.verdict} exit {first.code} "
            f"digest {(first.digest or 'none')[:16]} "
            f"{'identical' if len(digests) == 1 else 'MISMATCH'} "
            f"in {len(results)} passes"
            + (f"; problems: {'; '.join(problems)}" if problems else ""))
    return correct, lines


def traced_metrics(traced, untraced, per_command, summary) -> dict:
    units = per_layer_units()
    values = {}
    for key in traced[0].layer:
        values[key] = _median([p.layer[key] for p in traced])
    pooled = {}
    for p in traced:
        for name, ms in p.calls_ms.items():
            pooled.setdefault(name, []).extend(ms)
    values.update(tracing.percentile_metrics(pooled))
    values.update({f"command.{c}_s": per_command[c] for c in ALL_COMMANDS})
    values["command.replicas_per_s"] = summary.get("replicas_per_s",
                                                   (0.0,))[0]
    values["command.failed_ratio"] = summary["failed_ratio"][0]
    values["trace.overhead_s"] = _median([p.wall for p in traced]) \
        - _median([p.wall for p in untraced])
    return {k: (int(values[k]) if units[k] == "count"
                and float(values[k]).is_integer() else values[k], units[k])
            for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bandlab" / "__init__.py").is_file():
        print(f"bandlab sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bandlab

    if Path(bandlab.__file__).resolve().parent != ROOT / "src" / "bandlab":
        print(f"imported bandlab from {bandlab.__file__}, not from src/",
              file=sys.stderr)
        return 2

    rundir = ROOT / ".bench_run"
    outroot = rundir / f"{args.workload}-{os.getpid()}"
    spans = rundir / f"spans-{args.workload}-{args.seed}.jsonl"
    try:
        out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), outroot,
                           spans_path=spans if args.trace else None)
    finally:
        shutil.rmtree(outroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            rundir.rmdir()
    print("machine " + json.dumps(machine_facts(ROOT, args.seed),
                                  sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
