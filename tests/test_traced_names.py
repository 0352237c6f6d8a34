"""Every name the benchmark tracer wraps must exist in sagakit.

The tracer in perfbench/tracer.py replaces functions and methods by name; a
renamed or removed one would only show up when the benchmark runs.  The
tracer module is loaded from its file, and only its name tables are read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import sagakit.cli as cli

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
