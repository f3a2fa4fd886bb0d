"""Benchmark for cvqss: three workloads, checked outputs, optional layer tracing.

Usage, from the repository root (no install needed; cvqss is imported from
``src``):

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): ``verify-grid``, ``scenario-mix``
and ``cli-process``.  Each is a closed loop with one op in flight, driven
from this one process.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the op untraced for half the time and traced for the other half, and
reports the per-layer metrics (calls and self time per public function, per
op) plus process start, import and in-process CLI timings.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The environment, seed and input digest are
printed above it and written, with the spans of the first traced op, under
``perfbench/out/``.  Exit code 2 means the benchmark could not run (for
example, no ``src/cvqss`` in this checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYERS, SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 7  # fresh processes per run; setup_s is their median
START_PROBES = 5
IMPORT_PROBES = 3
MAIN_PROBES = 5
CLI_KINDS = ("run", "tv-curve", "table", "verify")
PROBE_TIMEOUT_S = 150.0

# The metrics BENCHMARK.json gates.  On a shared machine whose speed swings
# by 1.6x for seconds at a time, the mean throughput and the median op time
# follow the share of a run spent in the slow state (spread 0.3-0.45 over
# ten runs); the tail figures below track the slow state itself (spread
# 0.06-0.15).  ops_per_s and op_p50_ms are still printed, ungated.
END_TO_END = {
    "sustained_ops_per_s": "op/s",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.self_share"] = "ratio"
    units["metrics.closed_form_per_optimisation"] = "ratio"
    units["metrics.zero_mean_warnings"] = "count"
    units["process.start_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for kind in CLI_KINDS:
        units[f"cli.main_ms.{kind}"] = "ms"
    units["trace.overhead"] = "ratio"
    return units


class Tally:
    """Every op the benchmark checks: timed ops, warm-ups and probes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(problems[:3])


def timed_loop(w, op, pool, seconds, tally, reference=None, tracer=None) -> dict:
    """Run whole passes over the pool until ``seconds`` have elapsed.

    Whole passes keep the mix of inputs, and so the per-op call counts,
    the same in every run.  Only the op call itself is timed.  With
    ``seconds=0`` it runs exactly one pass.  Outputs are compared with
    ``reference`` (pool index -> key), and with earlier ops of this loop.
    """
    firsts = dict(reference or {})
    times: list[float] = []
    index: list[int] = []
    deadline = perf_counter() + seconds
    while True:
        for i, inp in enumerate(pool):
            if tracer is not None:
                tracer.op_id = len(times)
            t0 = perf_counter()
            try:
                out = op(inp)
            except Exception as exc:  # a raising op is a failed op; the run goes on
                dt = perf_counter() - t0
                problems = [f"op raised {exc!r}"]
            else:
                dt = perf_counter() - t0
                try:
                    problems = w.check(inp, out)
                except Exception as exc:
                    problems = [f"oracle raised {exc!r}"]
                key = w.key(out)
                if i not in firsts:
                    firsts[i] = key
                elif firsts[i] != key:
                    problems.append(f"input {i}: output differs from an earlier op")
            times.append(dt)
            index.append(i)
            tally.record(problems)
        if perf_counter() >= deadline:
            return {"times": times, "index": index, "firsts": firsts}


def _child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=workloads.ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, **kwargs
    )


def process_start_ms() -> float:
    """Median wall time of ``python -c pass``: the floor under every CLI op."""
    times = []
    for _ in range(START_PROBES):
        t0 = perf_counter()
        proc = _child([sys.executable, "-c", "pass"])
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"python -c pass failed: {proc.stderr}")
    return statistics.median(times) * 1e3


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "process.start_ms": process_start_ms(),
    }


def setup_times(name: str, seed: int, tally: Tally) -> list[float]:
    """Set-up time of fresh processes: start, imports, inputs, one warm-up op."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = _child([sys.executable, str(HERE / "probe.py"), name, str(seed)])
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
            problems = report["problems"]
        except (IndexError, ValueError, KeyError):
            report, problems = None, [f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}"]
        tally.record(problems)
        if report is not None:
            times.append(report["t_ready"] - t0)
    if not times:
        raise RuntimeError("every set-up probe failed: " + "; ".join(tally.messages))
    return times


def import_ms() -> float:
    """Median cumulative time of the cvqss.cli line of ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    for _ in range(IMPORT_PROBES):
        proc = _child([sys.executable, "-X", "importtime", "-c", "import cvqss.cli"], env=env)
        for line in proc.stderr.splitlines():
            cells = line.split("|")
            if len(cells) == 3 and cells[2].strip() == "cvqss.cli":
                times.append(int(cells[1].strip()) / 1e3)
    if len(times) != IMPORT_PROBES:
        raise RuntimeError(f"no cvqss.cli line in -X importtime output: {proc.stderr[-500:]}")
    return statistics.median(times)


def main_ms(seed: int, tally: Tally) -> dict[str, float]:
    """In-process cli.main(argv) per command kind, output captured, untraced."""
    cli_w = workloads.CliProcess()
    commands = workloads.cli_commands(seed)
    result = {}
    for kind in CLI_KINDS:
        command = next(c for c in commands if c["kind"] == kind)
        loop = timed_loop(cli_w, cli_w.inproc_op, [command] * MAIN_PROBES, 0.0, tally)
        result[f"cli.main_ms.{kind}"] = statistics.median(loop["times"]) * 1e3
    return result


def end_to_end(w, pool, seed, seconds, tally) -> tuple[dict, dict]:
    setups = setup_times(w.name, seed, tally)
    timed_loop(w, w.op, pool[:1], 0.0, tally)  # warm-up
    loop = timed_loop(w, w.op, pool, seconds, tally)
    times = loop["times"]
    who = resource.RUSAGE_CHILDREN if w.subprocess_ops else resource.RUSAGE_SELF
    # Throughput of each whole pass over the pool; the sustained figure is
    # the one that 9 passes in 10 reach or beat.
    n = len(pool)
    passes = [n / sum(times[k:k + n]) for k in range(0, len(times), n)]
    values = {
        "sustained_ops_per_s": (
            statistics.quantiles(passes, n=10, method="inclusive")[0] if len(passes) > 1 else passes[0]
        ),
        "op_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,  # ru_maxrss is KiB
    }
    p90 = values["op_p90_ms"] / 1e3
    extra = {
        "ungated": {
            "ops_per_s": (len(times) / sum(times), "op/s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        },
        "samples": len(times),
        "beyond_p90": sum(t > p90 for t in times),
        "setup_samples_s": setups,
        "op_ms": [t * 1e3 for t in times],
    }
    if "kind" in pool[0]:
        kinds = sorted({c["kind"] for c in pool})
        extra["median_ms_by_kind"] = {
            k: statistics.median(t for t, i in zip(times, loop["index"]) if pool[i]["kind"] == k) * 1e3
            for k in kinds
        }
    return values, extra


def per_layer(w, pool, seed, seconds, env, tally) -> tuple[dict, dict]:
    values = {"process.start_ms": env["process.start_ms"], "cli.import_ms": import_ms()}
    values.update(main_ms(seed, tally))
    timed_loop(w, w.inproc_op, pool[:1], 0.0, tally)  # warm-up
    base = timed_loop(w, w.inproc_op, pool, seconds / 2, tally)
    tracer = Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traced = timed_loop(
                w, w.inproc_op, pool, seconds / 2, tally, reference=base["firsts"], tracer=tracer
            )
    finally:
        tracer.uninstall()
    if w.subprocess_ops:
        # The in-process outputs must equal what a user's process prints.
        timed_loop(w, w.op, pool, 0.0, tally, reference=base["firsts"])

    ops = len(traced["times"])
    summary = tracer.summary()
    calls, self_s = summary["calls"], summary["self_s"]
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = calls[name] / ops
        values[f"{name}.self_ms"] = self_s[name] * 1e3 / ops
    total_self = sum(self_s.values())
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        values[f"{layer}.self_ms"] = layer_self * 1e3 / ops
        values[f"{layer}.self_share"] = layer_self / total_self if total_self else 0.0
    optimisations = calls["metrics.optimal_gain"]
    values["metrics.closed_form_per_optimisation"] = (
        summary["objective_in_optimiser"] / optimisations if optimisations else 0.0
    )
    values["metrics.zero_mean_warnings"] = (
        sum(issubclass(c.category, UserWarning) for c in caught) / ops
    )
    # Slowdown under tracing: mean traced op time over mean untraced op time.
    values["trace.overhead"] = (sum(traced["times"]) / ops) / (
        sum(base["times"]) / len(base["times"])
    )
    extra = {
        "samples_untraced": len(base["times"]),
        "samples_traced": ops,
        "spans": summary["spans"],
        "spans_missing": tracer.missing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, extra, tracer.spans_of_op(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        workloads.import_cvqss()  # oracles are bound before any tracing
    except ImportError as exc:
        print(f"perfbench: cannot import cvqss from this checkout: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    env = environment()
    w = workloads.make(args.workload)
    pool = w.inputs(args.seed)
    info = {
        "workload": w.name,
        "seed": args.seed,
        "input_digest": workloads.digest(pool),
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, extra, spans = per_layer(w, pool, args.seed, args.seconds, env, tally)
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
        units = per_layer_units()
    else:
        values, extra = end_to_end(w, pool, args.seed, args.seconds, tally)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {**info, **extra, "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.messages, "metrics": metrics}
    out_file = OUT / f"{stem}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for message in tally.messages:
        print(f"perfbench: failed: {message}", file=sys.stderr)
    print(f"# {w.name} seed={args.seed} inputs={info['input_digest']} "
          f"samples={extra.get('samples', extra.get('samples_traced'))} record={out_file.name}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    shown = {**extra.get("ungated", {}), "error_rate": (tally.failed / tally.attempted, "ratio")}
    for name, (value, unit) in shown.items():
        print(f"{name:48s} {value:14.6g} {unit}  (not gated)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
