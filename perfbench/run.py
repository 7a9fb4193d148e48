"""Run one condind benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 3 --seconds 20 --trace 0

Run from the repository root. The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line
before it holds the details (environment, tail percentile, fail ratio,
tracing overhead). With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` they are the per-layer ones from a separate traced run.
Full results and the traced spans are written under `perfbench/out/`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from hostspeed import INTERVAL_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median

END_TO_END = (
    ("ops_per_mref", "1/Mref"),
    ("op_p50_ref", "ref"),
    ("op_tail_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def per_layer_metrics(t, ops: int, wall_s: float, overhead: float) -> dict:
    """Per-layer metrics from a finished trace: counts per op, self time as a
    percentage of the traced op wall time, and ratios."""
    counts, self_s = t.counts, t.self_s

    def per_op(key):
        return (counts[key] / ops, "count/op")

    def pct(name):
        return (100.0 * self_s[name] / wall_s, "%")

    def ratio(num, den):
        return (counts[num] / counts[den] if counts[den] else 0.0, "ratio")

    m = {
        "extreal.cmp.calls": per_op("extreal.cmp.calls"),
        "extreal.add.calls": per_op("extreal.add.calls"),
        "extreal.mul.calls": per_op("extreal.mul.calls"),
        "extreal.new.calls": per_op("extreal.new.calls"),
        "indicators.cellmean.calls": per_op("indicators.cellmean.calls"),
        "indicators.cellmean.self_pct": pct("indicators.cellmean"),
        "indicators.esssup.calls": per_op("indicators.esssup.calls"),
        "indicators.esssup.self_pct": pct("indicators.esssup"),
        "indicators.essinf.calls": per_op("indicators.essinf.calls"),
        "indicators.essinf.self_pct": pct("indicators.essinf"),
        "indicators.extension.self_pct": pct("indicators.extension"),
        "indicators.call.calls": per_op("indicators.call.calls"),
        "indicators.call.repeat_ratio": ratio("indicators.call.repeats", "indicators.call.calls"),
        "indicators.domain.reject_ratio": ratio("indicators.domain.rejects", "indicators.domain.checks"),
        "space.restrict.calls": per_op("space.restrict.calls"),
        "space.restrict.self_pct": pct("space.restrict"),
        "space.patch.calls": per_op("space.patch.calls"),
        "space.patch.self_pct": pct("space.patch"),
        "space.rv_new.calls": per_op("space.rv_new.calls"),
        "space.partition_new.calls": per_op("space.partition_new.calls"),
        "space.partition_new.self_pct": pct("space.partition_new"),
        "space.enumerate_events.events": per_op("space.enumerate_events.events"),
        "space.expectation.self_pct": pct("space.expectation"),
    }
    for name in tracer.CHECKERS:
        m[name + ".self_pct"] = pct(name)
    m.update({
        "checks.cases": per_op("checks.cases"),
        "battery.verify_all.self_pct": pct("battery.verify_all"),
        "risk.rho.calls": per_op("risk.rho.calls"),
        "risk.rho.self_pct": pct("risk.rho"),
        "risk.rho.bisect_calls": per_op("risk.rho.bisect_calls"),
        "risk.rho.evals_per_call": ratio("risk.rho.evals", "risk.rho.calls"),
        "risk.check_prop_rm.self_pct": pct("risk.check_prop_rm"),
        "risk.check_dom_closure.self_pct": pct("risk.check_dom_closure"),
        "stochastic.projection_solve.calls": per_op("stochastic.projection_solve.calls"),
        "stochastic.projection_solve.self_pct": pct("stochastic.projection_solve"),
        "stochastic.check_projection.calls": per_op("stochastic.check_projection.calls"),
        "stochastic.backward_envelope.self_pct": pct("stochastic.backward_envelope"),
        "stochastic.check_tower.self_pct": pct("stochastic.check_tower"),
        "expectation_ext.recover_density.calls": per_op("expectation_ext.recover_density.calls"),
        "expectation_ext.recover_density.self_pct": pct("expectation_ext.recover_density"),
        "expectation_ext.recover_density.evals_per_call": ratio(
            "expectation_ext.recover_density.evals", "expectation_ext.recover_density.calls"
        ),
        "expectation_ext.additivity_set.self_pct": pct("expectation_ext.additivity_set"),
        "expectation_ext.check_lemm_cond_exp.self_pct": pct("expectation_ext.check_lemm_cond_exp"),
        "sampling.sample_rv.calls": per_op("sampling.sample_rv.calls"),
        "sampling.sample_rv.self_pct": pct("sampling.sample_rv"),
        "sampling.iter_cases.self_pct": pct("sampling.iter_cases"),
        "scenario.parse.self_pct": pct("scenario.parse"),
        "scenario.literals": per_op("scenario.literals"),
        "cli.import_pct": pct("cli.import"),
        "cli.dispatch.self_pct": pct("cli.dispatch"),
        "cli.render.self_pct": pct("cli.render"),
        "runtime.gc.collections": per_op("runtime.gc.collections"),
        "runtime.gc.pause_pct": pct("runtime.gc.pause"),
        "runtime.trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


# -- environment --------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on PATH
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "condind").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def warm_cli(env: dict) -> None:
    """One untimed CLI child, so bytecode compilation lands in set-up."""
    subprocess.run(
        [sys.executable, "-m", "condind.cli", "apply", "--indicator", "esssup", "--var", "X"],
        capture_output=True, timeout=120, env=env, check=True,
    )


def measure_setup(name: str, seed: int, env: dict) -> list[float]:
    """Import condind and build the workload's inputs in fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def percentile(values: list[float], p: int) -> float:
    if p == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- timed run ------------------------------------------------------------------


def run_op(wl, inp):
    """Run one op, timing only the library call, then check it against the
    oracle. A raising op or a rejected answer is a failed op, not a crash."""
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:
        return None, time.perf_counter() - start, exc
    elapsed = time.perf_counter() - start
    try:
        wl.check(inp, out)
    except Exception as exc:  # Mismatch, or an oracle tripping on a malformed answer
        return out, elapsed, exc
    return out, elapsed, None


def note_failure(errors: list, k: int, err: Exception) -> None:
    if len(errors) < 5:
        errors.append(f"op {k}: {type(err).__name__}: {err}")


def timed_run(wl, seconds: float, errors: list) -> tuple[list[tuple[float, float]], HostSpeed, int]:
    """Ops back to back for `seconds`, with the host-speed sampler running.
    Returns each op's (start, wall seconds), the sampler and the failed ops."""
    ops: list[tuple[float, float]] = []
    failed = 0
    child = wl.name == "cli-cold"
    with HostSpeed(interval_s=None if child else INTERVAL_S) as host:
        end = time.perf_counter() + seconds
        k = 0
        while True:
            inp = wl.prepare(k)
            start = time.perf_counter()
            _, elapsed, err = run_op(wl, inp)
            ops.append((start, elapsed))
            if child:
                host.sample()
            if err is not None:
                failed += 1
                note_failure(errors, k, err)
            k += 1
            if time.perf_counter() >= end:
                return ops, host, failed


def end_to_end(wl, args, env: dict, detail: dict, errors: list) -> tuple[dict, int, int]:
    setup = measure_setup(wl.name, args.seed, env)
    ops, host, failed = timed_run(wl, args.seconds, errors)
    n = len(ops)
    wall = [elapsed for _, elapsed in ops]
    # each op's time in units of the reference as the host ran it meanwhile
    cost = [host.op_cost(start, elapsed)[1] for start, elapsed in ops]
    tail = percentile(cost, wl.tail_percentile)
    rusage = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    detail.update({
        "ops": n,
        "op_busy_s": sum(wall),
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": sum(c > tail for c in cost),
        "fail_ratio": {"failed": failed, "attempted": n, "value": failed / n},
        "setup_probes_s": setup,
        "peak_rss_of": "children" if rusage == resource.RUSAGE_CHILDREN else "benchmark process",
        # wall-clock figures, which move with the host's speed
        "wall": {
            "ops_per_s": n / sum(wall),
            "op_p50_ms": statistics.median(wall) * 1000,
            "op_tail_ms": percentile(wall, wl.tail_percentile) * 1000,
        },
        "reference": {"samples": len(host.seconds), "p50_ms": statistics.median(host.seconds) * 1000},
    })
    if detail["tail_samples_beyond"] < 10:
        detail["tail_note"] = "too few ops for a percentile with ten samples beyond it"
    values = {
        "ops_per_mref": 1e6 * n / sum(cost),
        "op_p50_ref": statistics.median(cost),
        "op_tail_ref": tail,
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}, n, failed


# -- traced run -----------------------------------------------------------------


IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_seconds(stderr: str) -> float:
    """Cumulative import time of condind's top-level modules from -X importtime."""
    total = 0
    for line in stderr.splitlines():
        m = IMPORTTIME.match(line)
        if m and len(m.group(3)) == 1 and m.group(4).split(".")[0] == "condind":
            total += int(m.group(2))
    return total / 1e6


def run_child_traced(wl, i: int, t) -> tuple[int, str]:
    """A cli-cold op whose child runs under the tracer; its spans are merged."""
    spans_path = OUT / "child-trace.json"
    cmd = [sys.executable, "-X", "importtime", str(HERE / "trace_child.py"), str(spans_path), *wl.argvs[i]]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=wl.env)
    t.merge(json.loads(spans_path.read_text()))
    spans_path.unlink()
    t.add_child_time("cli.import", import_seconds(proc.stderr))
    return proc.returncode, proc.stdout


def traced(wl, args, detail: dict, errors: list) -> tuple[dict, int, int]:
    ops = wl.trace_ops
    reference, failed = [], 0
    untraced_s = 0.0
    for k in range(ops):
        out, elapsed, err = run_op(wl, wl.prepare(k))
        untraced_s += elapsed
        if err is not None:
            failed += 1
            note_failure(errors, k, err)
        reference.append(None if out is None else wl.digest(out))

    t = tracer.Tracer()
    t.install()
    digests = []
    traced_s = 0.0
    try:
        for k in range(ops):
            inp = wl.prepare(k)
            t.begin_op(k)
            try:
                out = run_child_traced(wl, inp, t) if wl.name == "cli-cold" else wl.run(inp)
            except Exception as exc:
                out = None
                note_failure(errors, k, exc)
            finally:
                traced_s += t.end_op()
            digests.append(None if out is None else wl.digest(out))
    finally:
        t.uninstall()
    mismatched = [k for k, (a, b) in enumerate(zip(reference, digests)) if a is None or a != b]
    if mismatched:
        failed = max(failed, len(mismatched))
        errors.append(f"traced outputs differ from untraced outputs in ops {mismatched}")
    overhead = traced_s / untraced_s
    spans_file = OUT / f"{wl.name}-seed{args.seed}.spans.jsonl.gz"
    t.write(spans_file)

    def ms_per_op(seconds: dict) -> dict:
        return {name: 1000 * s / ops for name, s in sorted(seconds.items(), key=lambda kv: -kv[1])}

    self_ms = ms_per_op(t.self_s)
    detail.update({
        "traced_ops": ops,
        "trace_overhead": {"traced_s": traced_s, "untraced_s": untraced_s, "ratio": overhead},
        # "op" is time outside every traced layer: benchmark code, unwrapped
        # library code and, on cli-cold, interpreter start
        "largest_self_layer": next(name for name in self_ms if name != "op"),
        "self_ms_per_op": self_ms,
        "inclusive_ms_per_op": ms_per_op(t.total_s),
        "spans": len(t.span_start),
        "spans_file": str(spans_file.relative_to(ROOT)),
    })
    metrics = per_layer_metrics(t, ops, traced_s, overhead)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, ops, failed


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "condind" / "__init__.py").is_file():
        print("perfbench: src/condind not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.pop("CONDIND_CAP", None)  # it changes the event cap and with it the work
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")

    detail: dict = {"workload": args.workload, "environment": environment(args.seed)}
    errors: list[str] = []
    env = workloads.child_env(ROOT)
    warm_cli(env)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if hasattr(wl, "materialize"):
        wl.materialize()
    # one untimed warm-up op; on battery it is the seed-7 run whose stdout
    # hash is recorded (informational, not a gate: refactors show byte identity)
    warm = wl.argv(7) if wl.name == "battery" else wl.prepare(0)
    out, _, warm_err = run_op(wl, warm)
    if warm_err is not None:
        note_failure(errors, -1, warm_err)
    elif wl.name == "battery":
        detail["verify_all_seed7_sha256"] = hashlib.sha256(out[1].encode()).hexdigest()

    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, attempted, failed = traced(wl, args, detail, errors)
    else:
        metrics, attempted, failed = end_to_end(wl, args, env, detail, errors)
    if errors:
        detail["errors"] = errors
    if warm_err is not None:  # a failed warm-up op counts as one more attempted op
        attempted, failed = attempted + 1, failed + 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
