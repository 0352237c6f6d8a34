"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED GROUP MODE [SPANS_PATH]

MODE is `setup` (import, generate and parse the inputs, then exit), `plain`
(run the pass untraced) or `traced` (run it with the span tracer installed,
writing the spans to SPANS_PATH when given).  The ops run serially through
`sagakit.cli.main`, the entry point of the `sagakit` console script, with
each report captured in memory.  The worker prints one JSON line: the
monotonic time at which set-up finished and the host scale measured right
after it, then, unless MODE is `setup`, the per-op latencies with the host
scale around each op, report hashes and verdicts, the peak resident set size
and, when traced, the per-layer totals.

The host scale is REF_S over the time a fixed pure-Python kernel takes at
that moment.  On a host shared with other work the speed of the CPU drifts
by tens of percent within seconds; a duration times the scale measured next
to it (reference seconds) varies much less from run to run than the raw
duration does.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import sagakit  # noqa: E402
from sagakit import cli  # noqa: E402
from sagakit.polyring import FieldSpec, parse_poly  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# nominal duration of one reference kernel run
REF_S = 0.015


def _reference_kernel():
    """Fixed work of the kind sagakit does: dict updates keyed by tuples and
    exact integer arithmetic.  It never touches sagakit."""
    acc = {}
    x = 1
    for i in range(20000):
        key = (i & 63, i & 7)
        acc[key] = acc.get(key, 0) + i * 2654435761
        x = (x * 1103515245 + 12345) % (1 << 61)
    return x


def host_scale() -> float:
    """REF_S over the median of five timed runs of the reference kernel."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return REF_S / sorted(times)[2]


def _parse_inputs(ops):
    """Parse every generated polynomial, so malformed input fails in set-up."""
    for argv in ops:
        poly = workloads.op_polynomials(argv)
        if poly is not None:
            texts, n_vars, field = poly
            spec = FieldSpec.from_string(field)
            for text in texts:
                parse_poly(text, n_vars, spec)


def _run_op(argv):
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that crashes is a failed op, not a dead pass
        traceback.print_exc()
        code = -1
    end = time.perf_counter()
    return start, end, code, buf.getvalue().encode("utf-8")


def main(argv):
    workload, seed, group, mode = argv[1], int(argv[2]), int(argv[3]), argv[4]
    spans_path = argv[5] if len(argv) > 5 else None
    expected = os.path.join(ROOT, "src", "sagakit")
    if os.path.dirname(os.path.abspath(sagakit.__file__)) != expected:
        raise SystemExit(f"sagakit imported from {sagakit.__file__}, "
                         f"not from {expected}")
    ops = workloads.pass_ops(workload, seed, group)
    _parse_inputs(ops)
    ready = time.monotonic()
    scales = [host_scale()]
    if mode == "setup":
        print(json.dumps({"ready": ready, "scale": scales[0]}))
        return 0
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install(sagakit)
    runs = []
    for op in ops:
        runs.append(_run_op(op))
        scales.append(host_scale())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results = []
    for i, (op, (start, end, code, data)) in enumerate(zip(ops, runs)):
        try:
            report = json.loads(data)
        except ValueError:
            report = None
        ok, why = workloads.check_report(op, code, report)
        results.append({"seconds": end - start,
                        "scale": (scales[i] + scales[i + 1]) / 2,
                        "sha256": hashlib.sha256(data).hexdigest(),
                        "bytes": len(data), "ok": ok, "why": why})
    out = {"ready": ready, "scale": scales[0], "peak_rss_kb": rss_kb,
           "ops": results}
    if tracer is not None:
        out["calls"] = dict(tracer.calls)
        out["self_s"] = dict(tracer.self_s)
        out["counters"] = dict(tracer.counters)
        if spans_path:
            tracer.write_spans(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
