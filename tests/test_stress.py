"""The stress script in tools/stress.py: its two smallest inputs, and the
limits it sets in each child.

The tool is loaded from its file, as it is run: `python tools/stress.py`.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import resource
import signal
import sys
from pathlib import Path

from sagakit import cli
from sagakit.polyring import Polynomial, RATIONAL, monomial_basis, parse_poly

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stress.py"


def _tool():
    spec = importlib.util.spec_from_file_location("stress", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _tool()


def _sha256_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_runs_the_two_smallest_inputs(capsys):
    names = ["monomial_ci_q6", "perazzo_quartic5"]
    assert tool.main(names) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["name"] for line in lines] == names
    for line in lines:
        assert line.keys() == {"name", "seconds", "exit", "stdout_sha256",
                               "stderr_tail", "host_scale"}
        assert line["exit"] == 0 and line["stderr_tail"] == ""
        assert line["seconds"] > 0 and line["host_scale"] > 0
        # the child printed the report the program prints in-process
        assert line["stdout_sha256"] == _sha256_in_process(
            tool.INPUTS[line["name"]])


def _changed(text, M):
    """The form given as text under x_i -> sum_j M_ij x_j."""
    n = len(M)
    lin = [Polynomial(n, RATIONAL, {tuple(int(j == c) for j in range(n)): a
                                    for c, a in enumerate(row)}) for row in M]
    out = Polynomial.zero(n)
    for mon, coeff in parse_poly(text, n).terms.items():
        term = Polynomial.constant(coeff, n)
        for l, e in zip(lin, mon):
            term = term * l ** e
        out = out + term
    return out


def test_the_quartics_are_the_named_forms_after_their_change():
    q5 = _changed("x0*x3^3 + 2*x1*x3^2*x4 + 3*x2*x4^3",
                  [[-1, 2, 2, -1, 0], [2, 1, 2, -2, 2], [-2, 1, 0, 2, -1],
                   [-1, 1, 2, 2, 1], [1, -1, -1, -1, 2]])
    q6 = _changed("x0*x4^3 + 2*x1*x4^2*x5 + 3*x2*x4*x5^2 + 4*x3*x5^3",
                  [[-1, 2, 2, -1, 0, 2], [1, 2, -2, 2, -2, 1],
                   [0, 2, -1, -1, 1, 2], [2, 1, 1, -1, -1, -1],
                   [2, 1, -2, -2, -1, 2], [-2, 0, -2, 0, 1, 2]])
    assert (len(q5.terms), len(q6.terms)) == (68, 125)
    assert tool.INPUTS["perazzo_quartic5"][1] == q5.to_string()
    assert tool.INPUTS["perazzo_quartic6"][1] == q6.to_string()


def test_ci8_is_the_seeded_draw():
    rng = random.Random(8)
    choices = [v for v in range(-9, 10) if v]
    forms = [Polynomial(8, RATIONAL, {m: rng.choice(choices)
                                      for m in monomial_basis(8, 2)})
             for _ in range(8)]
    argv = tool.INPUTS["ci8_fp"]
    assert argv[1] == ";".join(f.to_string() for f in forms)
    assert argv[2:] == ["--nvars", "8", "--field", "fp:32003"]


def test_every_input_parses():
    parser = cli.build_parser()
    for argv in tool.INPUTS.values():
        args = parser.parse_args(argv)
        assert args.command == "analyze"
        for text in args.poly.split(";"):
            assert not parse_poly(text, args.nvars).is_zero


def test_unknown_name_exits_2(capsys):
    assert tool.main(["monomial_ci_q6", "no_such_input"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no_such_input" in captured.err


def test_limits_are_set_in_the_child_only():
    before = [resource.getrlimit(r)
              for r in (resource.RLIMIT_AS, resource.RLIMIT_CPU)]
    wall = tool.WALL_SECONDS
    script = ("import resource, signal; "
              "print(resource.getrlimit(resource.RLIMIT_AS), "
              "resource.getrlimit(resource.RLIMIT_CPU), "
              f"0 < signal.alarm(0) <= {wall})")
    result = tool.run_child([sys.executable, "-c", script])
    space = tool.ADDRESS_SPACE_BYTES
    want = f"{(space, space)} {(wall, wall)} True\n"
    assert result["exit"] == 0
    assert result["stdout_sha256"] == hashlib.sha256(want.encode()).hexdigest()
    assert [resource.getrlimit(r)
            for r in (resource.RLIMIT_AS, resource.RLIMIT_CPU)] == before
    assert signal.alarm(0) == 0


def test_a_child_past_its_wall_limit_is_killed(monkeypatch):
    monkeypatch.setattr(tool, "WALL_SECONDS", 1)
    result = tool.run_child([sys.executable, "-c",
                             "import time; time.sleep(30)"])
    assert result["exit"] == -signal.SIGALRM
    assert result["seconds"] < 10
