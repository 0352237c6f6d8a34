"""Every name the benchmark tracer wraps must exist in sagakit.

The tracer in perfbench/tracer.py replaces functions and methods by name; a
renamed or removed one would only show up when the benchmark runs.  The
tracer module is loaded from its file, and only its name tables are read.
The inverse-system build must also reach the wrapped catalecticant and
echelon through the names the tracer replaces, once per degree,
`GradedAlgebra.reduce` must reach the wrapped `Echelon.residual`, and every
map a probe or a gamma sample ranks must come from the wrapped
`GradedAlgebra.mul_map`.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import sagakit.algebra as algebra_module
import sagakit.apolarity as apolarity
import sagakit.cli as cli
import sagakit.exactla as exactla
from sagakit.gnlab import SLPEvidence, perazzo_algebra, sample_gamma
from sagakit.lefschetz import SLP, WLP, lefschetz_probe
from sagakit.polyring import FieldSpec, RATIONAL, parse_poly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("sagakit_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("mod,attr", sorted(tracer.FUNCTIONS))
def test_traced_function_resolves(mod, attr):
    module = importlib.import_module(f"sagakit.{mod}")
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("mod,cls,attr", sorted(tracer.METHODS))
def test_traced_method_resolves(mod, cls, attr):
    module = importlib.import_module(f"sagakit.{mod}")
    assert callable(getattr(getattr(module, cls), attr))


def test_commands_are_the_traced_cmd_functions():
    # the tracer swaps dict entries that hold a traced function, so every
    # command must be the module's own cmd_<name> function
    for name, fn in cli._COMMANDS.items():
        assert fn is getattr(cli, f"cmd_{name}")
        assert ("cli", f"cmd_{name}") in tracer.FUNCTIONS


def test_inverse_system_makes_one_elimination_per_degree(monkeypatch):
    # wrapped as the tracer wraps them: at every sagakit module name that
    # holds the function, so calls through imported names count too
    calls = Counter()
    for real in (apolarity.catalecticant, exactla.echelon_rows):
        def counted(*args, _real=real):
            calls[_real.__name__] += 1
            return _real(*args)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if ((name == "sagakit" or name.startswith("sagakit."))
                    and vars(module).get(real.__name__) is real):
                monkeypatch.setattr(module, real.__name__, counted)
    for text, n, field in (("x0*x3^2 + 2*x1*x3*x4 + x2*x4^2", 5, RATIONAL),
                           ("x0^4 + 3*x0*x1^2*x2 - x2^4 + x1*x2^3", 3,
                            FieldSpec.prime(7))):
        calls.clear()
        form = parse_poly(text, n, field)
        d = form.homogeneous_degree()
        algebra_module.from_inverse_system(form)
        assert calls == {"catalecticant": d + 1, "echelon_rows": d + 1}


def test_reduce_reaches_the_traced_residual(monkeypatch):
    # the method the tracer names exactla.residual, wrapped on its class as
    # the tracer wraps it, is what reduce runs: once per reduction
    (mod, cls, attr), = [key for key, name in tracer.METHODS.items()
                         if name == "exactla.residual"]
    owner = getattr(importlib.import_module(f"sagakit.{mod}"), cls)
    real = getattr(owner, attr)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, attr, counted)
    for field in (RATIONAL, FieldSpec.prime(7)):
        algebra = algebra_module.from_inverse_system(
            parse_poly("x0*x3^2 + 2*x1*x3*x4 + x2*x4^2", 5, field))
        calls.clear()
        e = algebra.reduce(parse_poly("x0*x3 + 3*x1*x4", 5, field))
        assert len(calls) == 1 and e.degree == 2 and not e.is_zero


def test_rank_paths_reach_the_traced_mul_map(monkeypatch):
    # the method the tracer names algebra.mul_map, wrapped on its class as
    # the tracer wraps it, builds every map that a probe or a gamma sample
    # ranks: each echelon they take is of the rows of one mul_map call
    (mod, cls, attr), = [key for key, name in tracer.METHODS.items()
                         if name == "algebra.mul_map"]
    owner = getattr(importlib.import_module(f"sagakit.{mod}"), cls)
    real_map, real_echelon = getattr(owner, attr), exactla.echelon_rows
    built, ranked = [], []

    def counted_map(*args):
        out = real_map(*args)
        built.append(out[0])
        return out

    def counted_echelon(rows, *args):
        ranked.append(rows)
        return real_echelon(rows, *args)

    monkeypatch.setattr(owner, attr, counted_map)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if ((name == "sagakit" or name.startswith("sagakit."))
                and vars(module).get("echelon_rows") is real_echelon):
            monkeypatch.setattr(module, "echelon_rows", counted_echelon)
    quadrics = [parse_poly(t, 4, RATIONAL) for t in
                ("x0^2 + x1*x2", "x1^2 - x2*x3", "x2^2 + x0*x3", "x3^2")]
    cases = [(perazzo_algebra(), [(WLP, 0), (WLP, 2)], [1]),
             (algebra_module.from_regular_sequence(quadrics),
              [(SLP, 0), (SLP, 1), (WLP, 1), (WLP, 3)], [1, 2]),
             (algebra_module.from_inverse_system(parse_poly(
                 "x0^4 + 3*x0*x1^2*x2 - x2^4 + x1*x2^3", 3,
                 FieldSpec.prime(7))), [(SLP, 0), (WLP, 1)], [1])]
    for algebra, probes, gamma_ks in cases:
        def run():
            for kind, k in probes:
                assert lefschetz_probe(algebra, kind, k, trials=4).holds
            for k in gamma_ks:
                try:
                    sample_gamma(algebra, k, seed=5)
                except SLPEvidence:
                    pass

        run()  # builds the tables and any lazy piece first
        built.clear()
        ranked.clear()
        run()
        assert ranked and len(ranked) == len(built)
        assert all(r is b for r, b in zip(ranked, built))
