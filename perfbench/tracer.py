"""Outside-in span tracer for sagakit, installed by patching from the outside.

The program has no trace hooks of its own, so this module replaces the
public functions and methods at each layer boundary with timing wrappers.
Modules bind names at import time (`algebra` imports `echelon_rows` by name,
`rank_kernel` reaches four modules), so a function is replaced at its
definition and at every `sagakit` module attribute or dict entry that holds
it.  Methods are replaced on their class.

A span is (id, parent id, name, start, end).  Spans stay in memory and are
written once, when the pass ends.  Self time of a span is its duration minus
the time covered by its child spans; calls run on one thread, so children
never overlap and their durations add.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _echelon_name(rows, ncols, field):
    return "exactla.echelon_q" if field.is_rational else "exactla.echelon_fp"


def _det_name(m):
    symbolic = m.rows > 0 and hasattr(m.entries[0][0], "terms")
    return "exactla.det_symbolic" if symbolic else "exactla.det_scalar"


# The traced boundaries: (module, attribute) -> span name, or a function of
# the call's arguments that returns the span name.
FUNCTIONS = {
    ("exactla", "echelon_rows"): _echelon_name,
    ("exactla", "det_ff"): _det_name,
    ("apolarity", "catalecticant"): "apolarity.catalecticant",
    ("algebra", "from_inverse_system"): "algebra.construct",
    ("algebra", "from_regular_sequence"): "algebra.construct",
    ("lefschetz", "lefschetz_probe"): "lefschetz.probe",
    ("lefschetz", "symbolic_probe_determinant"): "lefschetz.certify",
    ("lefschetz", "hessian"): "lefschetz.hessian",
    ("gnlab", "sample_gamma"): "gnlab.sample_gamma",
    ("gnlab", "check_ker_coker"): "gnlab.check",
    ("gnlab", "check_ggn"): "gnlab.check",
    ("gnlab", "_theorem_c_trial"): "gnlab.trial",
    ("reporting", "dump_json"): "cli.render",
    ("cli", "cmd_analyze"): "cli.command",
    ("cli", "cmd_experiment"): "cli.command",
    ("cli", "cmd_fixture"): "cli.command",
    ("cli", "cmd_gamma"): "cli.command",
}

METHODS = {
    ("exactla", "Echelon", "residual"): "exactla.residual",
    ("exactla", "Matrix", "mul_vector"): "exactla.mul_vector",
    ("polyring", "Polynomial", "__mul__"): "polyring.mul",
    ("algebra", "GradedAlgebra", "power"): "algebra.power",
    ("algebra", "GradedAlgebra", "reduce"): "algebra.reduce",
    ("algebra", "GradedAlgebra", "multiply"): "algebra.multiply",
    ("algebra", "GradedAlgebra", "mul_map"): "algebra.mul_map",
    ("algebra", "GradedAlgebra", "pairing_check"): "algebra.pairing_check",
    ("algebra", "GradedAlgebra", "is_standard"): "algebra.is_standard",
}


class Tracer:
    """Records nested spans and per-name calls, self time and counters."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self._stack = []
        self._next_id = 0

    def wrap(self, fn, name):
        calls, self_s, spans, stack = (self.calls, self.self_s, self.spans,
                                       self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[span] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[span] += 1
                spans.append((sid, parent, span, start, end))
            self._observe(span, args, kwargs, result)
            return result

        return traced

    def _observe(self, span, args, kwargs, result):
        """Work counts taken at the boundary: matrix cells, skipped trials."""
        if span.startswith("exactla.echelon_"):
            rows = args[0] if args else kwargs["rows"]
            ncols = args[1] if len(args) > 1 else kwargs["ncols"]
            self.counters[span + ".cells"] += len(rows) * ncols
        elif span == "gnlab.trial":
            self.counters["gnlab.trial.attempted"] += 1
            if result.get("status") == "skip":
                self.counters["gnlab.trial.skipped"] += 1

    def install(self, package):
        """Wrap every traced boundary of an imported `sagakit` package."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(prefix))]
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[prefix + mod], attr)
            wrapper = self.wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[prefix + mod], cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, in order of completion."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
