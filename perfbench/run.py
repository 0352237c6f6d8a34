"""Benchmark for sagakit: wall time to a verified report, per workload.

Usage:
  python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                           [--trace 0|1]

Each pass of a workload runs in one fresh Python process (perfbench/worker.py)
and calls `sagakit.cli.main` once per op, serially, with `--jobs 1`: a
closed loop with one client.  Passes repeat until the next one would not fit
in `--seconds`.  Untraced runs (`--trace 0`) report the end-to-end metrics:

  wall_s       median wall time of one pass: the sum of its op latencies
  op_p50_s     median latency of one op (one cli.main call), pooled
  op_tail_s    op latency at the highest percentile with >= 10 samples
               beyond it, never below the median (the percentile and
               sample count are printed)
  setup_s      median time from process start to ready: interpreter start,
               `import sagakit`, input generation and parsing
  peak_rss_mb  median peak resident set size of a pass process
  failed_ratio failed ops over attempted ops (printed; the JSON result
               carries `failed` and `attempted`)

Every duration is reported in reference seconds: the measured duration times
the host scale the worker measured next to it (see worker.py), so that most
of the drift in the speed of a shared host cancels.  The raw seconds are
printed beside them and kept in the record.

Traced runs (`--trace 1`) alternate untraced and traced passes over the
first input group and report per-layer calls, self times and work counts.

An op fails on a non-zero exit code, a false verdict field, a report that
differs from an earlier run of the same op, or, at the default seed, a
report whose sha256 differs from perfbench/pinned_sha256.json.  Every run
writes a replay record (argv, report hashes, host) to perfbench/out/.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 whenever
that line is printed, and 2 when there is no sagakit source to measure.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
PINNED = os.path.join(HERE, "pinned_sha256.json")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 5
# a pass still running this long after the measuring window closed is killed,
# so a run of 32 s ends inside three minutes whatever the program does
OVERRUN_LIMIT_S = 120.0

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}

# traced span name -> whether its call count is reported beside its self time
LAYER_SPANS = {
    "exactla.echelon_q": True,
    "exactla.echelon_fp": True,
    "exactla.det_symbolic": True,
    "exactla.residual": True,
    "exactla.mul_vector": True,
    "polyring.mul": True,
    "apolarity.catalecticant": True,
    "algebra.construct": True,
    "algebra.power": True,
    "algebra.reduce": True,
    "algebra.multiply": True,
    "algebra.mul_map": True,
    "algebra.pairing_check": False,
    "algebra.is_standard": False,
    "lefschetz.probe": True,
    "lefschetz.certify": True,
    "lefschetz.hessian": False,
    "gnlab.sample_gamma": True,
    "gnlab.check": True,
    "cli.command": False,
    "cli.render": False,
}
CELL_SPANS = ("exactla.echelon_q", "exactla.echelon_fp")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in reporting order."""
    units = {}
    for span, with_calls in LAYER_SPANS.items():
        if with_calls:
            units[span + ".calls"] = "count"
        units[span + ".self_s"] = "s"
        if span in CELL_SPANS:
            units[span + ".cells"] = "count"
    units["gnlab.trial.skip_ratio"] = "ratio"
    units["cli.report_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    return units


class PassFailed(RuntimeError):
    """A pass process crashed, timed out or printed no result."""


def spawn(workload, seed, group, mode, timeout, spans_path=None):
    """Run one worker process to completion and return its parsed result."""
    cmd = [sys.executable, WORKER, workload, str(seed), str(group), mode]
    if spans_path:
        cmd.append(spans_path)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass timed out after {timeout:.0f} s") \
            from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise PassFailed(f"{mode} pass exited {proc.returncode}: "
                         + " | ".join(tail))
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - start
    result["setup_raw_s"] = result["ready"] - start
    result["setup_s"] = result["setup_raw_s"] * result["scale"]
    ops = result.get("ops", [])
    result["wall_raw_s"] = sum(op["seconds"] for op in ops)
    result["wall_s"] = sum(op["seconds"] * op["scale"] for op in ops)
    result["group"] = group
    result["mode"] = mode
    return result


def tail_latency(samples) -> dict:
    """The op latency at the highest percentile with >= 10 samples beyond
    it, but never below the median: with fewer than 21 samples no tail is
    supported, and the upper median is reported."""
    xs = sorted(samples)
    n = len(xs)
    i = max(n - 11, n // 2)
    return {"value": xs[i], "percentile": 100.0 * (i + 1) / n,
            "samples": n, "beyond": n - 1 - i}


def host_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "sagakit")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "source_sha256": src.hexdigest()}


def run_passes(workload, seed, seconds, trace, started):
    """Set-up probes, then passes until the next would overrun `seconds`.

    Returns the set-up times, the finished passes, the problems met and the
    number of ops lost in a pass that crashed or timed out.
    """
    deadline = started + seconds
    hard = deadline + OVERRUN_LIMIT_S
    problems = []
    setups = []
    passes = []
    try:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, 0, "setup",
                                hard - time.monotonic()))
        # trace mode alternates plain and traced passes over group 0, so the
        # traced counts are those of one fixed input and must repeat exactly
        modes = ["plain", "traced"] if trace else ["plain"]
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
        while True:
            mode = modes[len(passes) % len(modes)]
            group = 0 if trace else len(passes) % workloads.GROUPS
            same = [p["process_s"] for p in passes if p["mode"] == mode]
            estimate = statistics.median(same) if same else 0.0
            if len(passes) >= len(modes) and \
                    time.monotonic() + estimate > deadline:
                break
            passes.append(spawn(workload, seed, group, mode,
                                hard - time.monotonic(),
                                spans_path if mode == "traced" else None))
    except PassFailed as exc:
        problems.append(str(exc))
        return setups, passes, problems, len(workloads.pass_ops(
            workload, seed, 0))
    return setups, passes, problems, 0


def verify(workload, seed, passes, problems):
    """Count failed ops: verdicts, repeat hashes, pinned hashes."""
    pinned = None
    if seed == workloads.DEFAULT_SEED:
        with open(PINNED, encoding="utf-8") as fh:
            pinned = json.load(fh)[workload]
    first = {}
    failed = 0
    for p in passes:
        for i, op in enumerate(p["ops"]):
            key = (p["group"], i)
            why = op["why"] if not op["ok"] else ""
            if not why and first.setdefault(key, op["sha256"]) != op["sha256"]:
                why = "report differs from an earlier run of the same op"
            if not why and pinned is not None and \
                    pinned[p["group"]][i] != op["sha256"]:
                why = "report sha256 differs from the pinned value"
            if why:
                failed += 1
                problems.append(f"group {p['group']} op {i}: {why}")
    return failed, {f"{g}.{i}": h for (g, i), h in sorted(first.items())}


def layer_metrics(passes, problems) -> dict:
    traced = [p for p in passes if p["mode"] == "traced"]
    plain = [p for p in passes if p["mode"] == "plain"]
    if not traced or not plain:
        problems.append("no traced pass completed")
        return {}

    def counts(p):
        c = dict(p["calls"])
        c.update(p["counters"])
        c["report_bytes"] = sum(op["bytes"] for op in p["ops"])
        return c

    if any(counts(p) != counts(traced[0]) for p in traced[1:]):
        problems.append("traced passes disagree on call or work counts")
    base = counts(traced[0])
    scales = [statistics.mean(op["scale"] for op in p["ops"]) for p in traced]
    values = {}
    for span, with_calls in LAYER_SPANS.items():
        if with_calls:
            values[span + ".calls"] = base.get(span, 0)
        values[span + ".self_s"] = statistics.median(
            p["self_s"].get(span, 0.0) * scale
            for p, scale in zip(traced, scales))
        if span in CELL_SPANS:
            values[span + ".cells"] = base.get(span + ".cells", 0)
    attempted = base.get("gnlab.trial.attempted", 0)
    values["gnlab.trial.skip_ratio"] = (
        base.get("gnlab.trial.skipped", 0) / attempted if attempted else 0.0)
    values["cli.report_bytes"] = base["report_bytes"]
    values["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return values


def end_to_end_metrics(setups, passes, problems, raw=False):
    """The end-to-end metrics, in reference seconds or, with `raw`, in the
    seconds measured."""
    if not passes:
        problems.append("no pass completed")
        return {}, None
    suffix = "_raw_s" if raw else "_s"
    latencies = [op["seconds"] * (1.0 if raw else op["scale"])
                 for p in passes for op in p["ops"]]
    tail = tail_latency(latencies)
    values = {
        "wall_s": statistics.median(p["wall" + suffix] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail["value"],
        "setup_s": statistics.median(p["setup" + suffix]
                                     for p in setups + passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes)
        / 1024.0,
    }
    return values, tail


def run_workload(workload, seed, seconds, trace, host):
    started = time.monotonic()
    setups, passes, problems, lost = run_passes(workload, seed, seconds,
                                                trace, started)
    failed, hashes = verify(workload, seed, passes, problems)
    attempted = sum(len(p["ops"]) for p in passes) + lost
    failed += lost
    tail_info = raw = None
    if trace:
        values = layer_metrics(passes, problems)
        units = per_layer_units()
    else:
        values, tail_info = end_to_end_metrics(setups, passes, problems)
        raw = end_to_end_metrics(setups, passes, [], raw=True)[0]
        units = END_TO_END
    correct = not problems and len(values) == len(units)
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in units if k in values}
    groups = sorted({p["group"] for p in passes})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host, "correct": correct,
        "attempted": attempted, "failed": failed, "problems": problems,
        "argv": {g: workloads.pass_ops(workload, seed, g) for g in groups},
        "op_sha256": hashes,
        "setup_probes": [{k: p[k] for k in ("setup_s", "setup_raw_s",
                                            "scale")} for p in setups],
        "passes": [{k: p[k] for k in ("group", "mode", "wall_s", "wall_raw_s",
                                      "setup_s", "setup_raw_s", "process_s",
                                      "peak_rss_kb")}
                   | {"op_raw_s": [op["seconds"] for op in p["ops"]],
                      "op_scale": [op["scale"] for op in p["ops"]]}
                   for p in passes],
        "op_tail": tail_info, "metrics": metrics, "raw_seconds": raw,
        "elapsed_s": time.monotonic() - started,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_summary(record, os.path.relpath(path, ROOT))
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def _print_summary(record, path):
    print(f"{record['workload']}  seed={record['seed']}  "
          f"passes={len(record['passes'])}  ops={record['attempted']}  "
          f"(closed loop, 1 client, --jobs 1)")
    raw = record["raw_seconds"] or {}
    for name, m in record["metrics"].items():
        line = f"  {name:32s} {m['value']:.6g} {m['unit']}"
        if m["unit"] == "s" and name in raw:
            line += f"  (raw {raw[name]:.6g} s)"
        if name == "op_tail_s" and record["op_tail"]:
            t = record["op_tail"]
            line += (f"  (p{t['percentile']:.1f} of {t['samples']} samples, "
                     f"{t['beyond']} beyond)")
        print(line)
    ratio = record["failed"] / max(record["attempted"], 1)
    print(f"  {'failed_ratio':32s} {ratio:.6g} ratio "
          f"({record['failed']}/{record['attempted']} ops)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(f"  record: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sagakit", "cli.py")):
        print(f"error: no sagakit source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    host = host_info()
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {name: run_workload(name, args.seed, args.seconds, args.trace,
                                  host) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
