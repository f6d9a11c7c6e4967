#!/usr/bin/env python3
"""sqreadout benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload fixed_chi_figures --seed 0 --seconds 25 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs a separate
traced measurement and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it is a report with
provenance, the failing units and their causes, and (traced) the self-time
split.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import reference
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fixed_chi_figures", "free_optimum", "oracle_check", "cli_calls")
SETUP_PROBES = 5
IMPORT_PROBES = 3
TIME_LIMIT_S = 140.0      # start no pass after this, so a run ends well inside 180 s


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def require_source() -> None:
    if not (SRC / "sqreadout" / "__init__.py").is_file():
        fail(f"no sqreadout package under {SRC}; run from the root of a source tree")


def load_package() -> None:
    require_source()
    sys.path.insert(0, str(SRC))
    import sqreadout

    if Path(sqreadout.__file__).resolve().parent != (SRC / "sqreadout").resolve():
        fail(f"imported sqreadout from {sqreadout.__file__}, not from {SRC}")


def build(workload: str, seed: int, in_process: bool = False):
    if workload == "cli_calls":
        require_source()
        if in_process:
            load_package()
        return workloads.cli_calls(seed, str(SRC), str(ROOT), in_process)
    load_package()
    return getattr(workloads, workload)(seed)


# ------------------------------------------------------------------- measuring


def run_pass(wl, speed_job) -> tuple[float, list[float], list[float], dict, dict]:
    """One timed pass: (wall, unit latencies, scaled latencies, outputs, units that raised).

    The wall is the sum of the unit latencies.  ``speed_job`` (a ``hostspeed``
    job) runs before the first unit and after each unit, outside the
    latencies, and scales each latency to the reference host speed.
    """
    outputs, times, raised = {}, [], {}
    slowness = [speed_job()]
    clock = time.perf_counter
    for unit in wl.units:
        t0 = clock()
        try:
            outputs[unit.name] = unit.run()
        except Exception as exc:
            raised[unit.name] = f"raised {type(exc).__name__}: {exc}"
        times.append(clock() - t0)
        slowness.append(speed_job())
    return sum(times), times, hostspeed.scale(times, slowness), outputs, raised


def judge(wl, outputs: dict, raised: dict, ref: dict | None) -> tuple[dict, dict]:
    """(failed units -> cause, output errors -> cause) for one pass, untimed.

    A unit fails if it raises, if its outcome is not the documented one (exit
    code, oracle verdict), or if its output breaks an invariant or the
    recorded reference.  Only the last two make the run incorrect.
    """
    wrong = {}
    for unit, cause in wl.check(outputs):
        wrong.setdefault(unit, cause)
    if ref is not None:
        skip = ref["failed_at_record"]
        for unit, out in outputs.items():
            if unit in skip or unit in wrong:
                continue
            if unit not in ref["outputs"]:
                wrong[unit] = "no recorded output to compare with"
                continue
            causes = reference.compare(unit, out, ref["outputs"][unit], wl.tolerances)
            if causes:
                wrong[unit] = "outside reference: " + "; ".join(causes[:3])
    failed = dict(raised)
    for unit in wl.units:
        if unit.name in outputs:
            cause = unit.outcome(outputs[unit.name])
            if cause:
                failed[unit.name] = cause
    for unit, cause in wrong.items():
        failed.setdefault(unit, cause)
    return failed, wrong


def setup_probe(workload: str, seed: int) -> float:
    """Fresh interpreter to the first timed unit: import, inputs, warm-up."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            fail(f"setup probe for {workload} failed")
    return elapsed


def import_probe() -> float:
    """Cumulative import time of sqreadout.cli in a fresh interpreter (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sqreadout.cli"],
                          cwd=ROOT, env=workloads.cli_env(str(SRC)), capture_output=True,
                          text=True, timeout=60)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "sqreadout.cli":
            return int(fields[1]) * 1e-6
    fail("no sqreadout.cli line in -X importtime output")


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten units beyond it."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return 0.0, s[0]
    return 100.0 * (n - 10) / n, s[n - 11]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ------------------------------------------------------------------- per layer


def layer_metrics(self_times: dict, counters: dict) -> dict:
    def calls(name):
        return self_times.get(name, (0, 0.0))[0]

    def self_s(name):
        return self_times.get(name, (0, 0.0))[1]

    def group(prefix):
        hits = [v for k, v in self_times.items() if k.startswith(prefix + ".")]
        return sum(c for c, _ in hits), sum((s for _, s in hits), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("combined.solve_omega_sq", "combined.combined_moments", "optimize.maximize_snr",
                 "phasespace.pointer_state", "oracle.oracle_check", "cli.run_parallel"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["optimize.maximize_snr.evaluations"] = int(counters.get("optimize.maximize_snr.evaluations", 0))
    out["optimize.maximize_snr.converged_ratio"] = ratio(
        counters.get("optimize.maximize_snr.converged", 0), calls("optimize.maximize_snr"))
    for module in ("ies", "ics"):
        out[f"{module}.calls"], out[f"{module}.self_s"] = group(module)
    out["phasespace.ellipse.self_s"] = self_s("phasespace.ellipse")
    out["oracle.build_system.self_s"] = self_s("oracle.build_system")
    out["oracle.oracle_moments.self_s"] = self_s("oracle.oracle_moments")
    out["oracle.steps"] = int(counters.get("oracle.steps", 0))
    out["oracle.pass_ratio"] = ratio(counters.get("oracle.oracle_check.passed", 0),
                                     calls("oracle.oracle_check"))
    out["figures.rows"] = int(counters.get("figures.rows", 0))
    out["figures.self_s"] = group("figures")[1]
    out["cli.main.self_s"] = self_s("cli.main")
    return out


# metric unit by the last component of its name
UNITS = {"setup_s": "s", "wall_s": "s", "unit_p50_s": "s", "unit_tail_s": "s",
         "peak_rss_mb": "MB", "calls": "count", "self_s": "s", "evaluations": "count",
         "converged_ratio": "ratio", "steps": "count", "pass_ratio": "ratio", "rows": "count",
         "import_s": "s", "overhead_s": "s"}


def split(self_times: dict, pass_wall: float) -> dict:
    """Share of a traced pass by module (self time) and outside every span."""
    by_module: dict[str, float] = {}
    for name, (_, s) in self_times.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + s
    by_module["outside spans"] = pass_wall - sum(by_module.values())
    return {k: round(v / pass_wall, 4) for k, v in sorted(by_module.items(), key=lambda kv: -kv[1])}


# ------------------------------------------------------------------------ main


def provenance(args, wl) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqreadout").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpus = os.cpu_count() or 1
    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": args.seed,
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "nproc": cpus, "affinity": len(os.sched_getaffinity(0)),
        "load": {"loop": "closed", "clients": 1, "generator_processes": 1,
                 "max_workers_alive": cpus if wl.name == "cli_calls" else 0,
                 "units_per_pass": len(wl.units), "seconds": args.seconds},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="write this seed's outputs as the reference (at the seed commit)")
    args = parser.parse_args()
    started = time.perf_counter()

    if args.setup_probe:
        wl = build(args.workload, args.seed)
        wl.warmup()
        print("ready", flush=True)
        return 0

    require_source()
    setups, setup_slowness = [], []
    if not args.trace:
        setup_slowness.append(hostspeed.spawn())
        for _ in range(SETUP_PROBES):
            setups.append(setup_probe(args.workload, args.seed))
            setup_slowness.append(hostspeed.spawn())
    wl = build(args.workload, args.seed)
    wl.warmup()

    ref = None if args.record else reference.load(args.workload, args.seed)
    walls, times, failures, wrong, attempted = [], [], {}, {}, 0
    scaled_walls, scaled_times = [], []
    last_outputs = {}

    def account(outputs, raised):
        nonlocal attempted, last_outputs
        failed, bad = judge(wl, outputs, raised, ref)
        attempted += len(wl.units)
        for unit, cause in failed.items():
            failures.setdefault(unit, [0, cause])[0] += 1
        wrong.update(bad)
        last_outputs = outputs

    def measure(target, budget: float, min_passes: int, speed_job, on_pass) -> None:
        """Passes until ``budget`` seconds are spent and ``min_passes`` are done."""
        t0 = time.perf_counter()
        done = 0
        while done < min_passes or time.perf_counter() - t0 < budget:
            if done and time.perf_counter() - started > TIME_LIMIT_S:
                break
            on_pass(*run_pass(target, speed_job))
            done += 1

    def plain_pass(wall, ts, scaled, outputs, raised):
        walls.append(wall)
        times.extend(ts)
        scaled_walls.append(sum(scaled))
        scaled_times.extend(scaled)
        account(outputs, raised)

    budget = args.seconds / 2 if args.trace else args.seconds
    measure(wl, budget, 1 if args.trace else wl.min_passes, hostspeed.JOBS[wl.speed_job],
            plain_pass)

    if args.record:
        path = reference.save(args.workload, args.seed, {
            "failed_at_record": {u: c for u, (_, c) in failures.items()}, "outputs": last_outputs})
        print(f"recorded {path.relative_to(ROOT)}", file=sys.stderr)

    report = {"workload": wl.name, "provenance": provenance(args, wl),
              "reference": str(reference.path(wl.name, args.seed).relative_to(ROOT))
              if ref is not None else "none: invariant checks only",
              "pass_walls_s": [round(w, 4) for w in walls]}

    if args.trace:
        traced = build(wl.name, args.seed, in_process=True) if wl.name == "cli_calls" else wl
        tracer = Tracer()
        tracer.install()
        t_walls, per_pass, last = [], [], {}

        def traced_pass(wall, _, scaled, outputs, raised):
            t_walls.append(sum(scaled))
            last.update(self_times=tracer.self_times(), spans=list(tracer.spans), wall=wall)
            per_pass.append(layer_metrics(last["self_times"], tracer.counters))
            account(outputs, raised)
            tracer.reset()

        try:
            measure(traced, budget, 1, hostspeed.JOBS[traced.speed_job], traced_pass)
        finally:
            tracer.uninstall()
        (HERE / "out").mkdir(exist_ok=True)
        spans_path = HERE / "out" / f"spans-{wl.name}.csv.gz"
        tracer.write(spans_path, last["spans"])
        metrics = dict(per_pass[-1])
        for key in metrics:
            if key.endswith("self_s"):
                metrics[key] = statistics.median(m[key] for m in per_pass)
        metrics["cli.import_s"] = statistics.median(import_probe() for _ in range(IMPORT_PROBES))
        metrics["trace.wall_s"] = statistics.median(t_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(scaled_walls)
        report["counts_repeat"] = all(
            m[k] == per_pass[-1][k] for m in per_pass for k in m if not k.endswith("self_s"))
        report["split_traced_pass"] = split(last["self_times"], last["wall"])
        if wl.name == "cli_calls":
            report["startup_share"] = round(
                1.0 - metrics["trace.wall_s"] / statistics.median(scaled_walls), 4)
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["note"] = ("self times of ies/ics functions are inflated by the wrapper cost; "
                          "for cli_calls the traced pass runs cli.main in-process, so "
                          "overhead_s also removes process start-up")
    else:
        pct, tail_value = tail(scaled_times)
        report["unit_tail_percentile"] = round(pct, 2)
        report["unit_count"] = len(times)
        report["setup_probes_s"] = [round(s, 4) for s in setups]
        report["speed_job"] = wl.speed_job
        report["raw"] = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
                         "unit_p50_s": statistics.median(times), "unit_tail_s": tail(times)[1]}
        metrics = {"setup_s": statistics.median(hostspeed.scale(setups, setup_slowness)),
                   "wall_s": statistics.median(scaled_walls),
                   "unit_p50_s": statistics.median(scaled_times), "unit_tail_s": tail_value,
                   "peak_rss_mb": peak_rss_mb()}
        report["host_slowness"] = {"setup": report["raw"]["setup_s"] / metrics["setup_s"],
                                   "passes": report["raw"]["wall_s"] / metrics["wall_s"]}

    failed_total = sum(n for n, _ in failures.values())
    report["fail_frac"] = failed_total / attempted
    report["failures"] = {u: f"{c} (in {n} of {attempted // len(wl.units)} passes)"
                          for u, (n, c) in failures.items()}
    report["incorrect"] = wrong
    print(json.dumps(report))
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed_total,
        "metrics": {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[-1]]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
