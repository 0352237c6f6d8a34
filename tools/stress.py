"""Time the slow natural inputs that lie outside perfbench.

    python tools/stress.py [NAME ...]

runs each named input of INPUTS (all of them, in order, by default) as
`python -m sagakit.cli ARGV` in a fresh child process, one at a time, and
prints one JSON line per input:

  name           the input's name in INPUTS
  seconds        raw wall seconds of the child, start to exit
  exit           the child's exit code; minus the signal number when a
                 limit killed it (SIGALRM for wall time, SIGXCPU for CPU)
  stdout_sha256  the sha256 of the child's standard output
  stderr_tail    the last non-empty line of its standard error, or ""
  host_scale     perfbench's host scale (perfbench/worker.py), the mean of
                 one measurement just before the child and one just after;
                 seconds times host_scale is reference seconds

Each child runs under limits set in that child only, before it starts
sagakit: RLIMIT_AS (address space, ADDRESS_SPACE_BYTES) and RLIMIT_CPU
(WALL_SECONDS) with `resource.setrlimit`, and an alarm after WALL_SECONDS of
wall time, which `execve` keeps.  It is a measurement, not a gate: nothing
here has a bound, and the exit code is 0 unless a name is unknown (2).
Uses only the standard library and perfbench/worker.py.
"""

import hashlib
import importlib.util
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_SECONDS = 60
ADDRESS_SPACE_BYTES = 2 << 30


def _monomial_ci(n: int, field: str = "rational") -> list[str]:
    squares = ";".join(f"x{i}^2" for i in range(n))
    return ["analyze", squares, "--nvars", str(n), "--field", field]


# The six quadrics of `workloads.pass_ops("ci6_fp", 1, 0)[0]` in perfbench,
# analyzed over Q instead of F_32003.
_CI6 = (
    "5*x0^2 - 4*x0*x1 - 1*x0*x2 - 5*x0*x3 - 5*x0*x4 - 8*x0*x5 -"
    " 3*x1^2 - 5*x1*x2 - 8*x1*x3 - 3*x1*x4 + 9*x1*x5 + 9*x2^2 +"
    " 9*x2*x3 - 9*x2*x4 - 2*x2*x5 + 9*x3^2 - 3*x3*x4 + 8*x3*x5 -"
    " 9*x4^2 - 5*x4*x5 - 2*x5^2",
    "-7*x0^2 - 4*x0*x1 - 1*x0*x2 - 8*x0*x3 - 2*x0*x4 + 7*x0*x5 -"
    " 2*x1^2 + 8*x1*x2 + 9*x1*x3 - 8*x1*x4 - 6*x1*x5 + 8*x2^2 +"
    " 3*x2*x3 - 7*x2*x4 + 1*x2*x5 - 7*x3^2 - 6*x3*x4 + 8*x3*x5 -"
    " 4*x4^2 - 6*x4*x5 - 6*x5^2",
    "-8*x0^2 + 9*x0*x1 - 6*x0*x2 + 1*x0*x3 + 7*x0*x4 - 5*x0*x5 -"
    " 3*x1^2 + 6*x1*x2 + 4*x1*x3 - 4*x1*x4 - 7*x1*x5 - 7*x2^2 +"
    " 5*x2*x3 + 8*x2*x4 - 9*x2*x5 + 9*x3^2 - 6*x3*x4 - 3*x3*x5 +"
    " 7*x4^2 - 1*x4*x5 + 1*x5^2",
    "2*x0^2 + 5*x0*x1 - 7*x0*x2 + 9*x0*x3 + 5*x0*x4 + 3*x0*x5 +"
    " 5*x1^2 - 5*x1*x2 - 1*x1*x3 - 7*x1*x4 - 9*x1*x5 + 6*x2^2 -"
    " 8*x2*x3 + 5*x2*x4 - 7*x2*x5 - 4*x3^2 + 3*x3*x4 - 3*x3*x5 -"
    " 2*x4^2 - 4*x4*x5 + 9*x5^2",
    "-6*x0^2 - 6*x0*x1 + 3*x0*x2 + 3*x0*x3 - 4*x0*x4 - 4*x0*x5 -"
    " 6*x1^2 + 2*x1*x2 + 5*x1*x3 + 3*x1*x4 - 3*x1*x5 - 2*x2^2 +"
    " 6*x2*x3 + 3*x2*x4 - 7*x2*x5 - 5*x3^2 + 3*x3*x4 - 3*x3*x5 +"
    " 6*x4^2 - 5*x4*x5 - 7*x5^2",
    "8*x0^2 - 7*x0*x1 - 6*x0*x2 + 8*x0*x3 - 8*x0*x4 + 7*x0*x5 -"
    " 9*x1^2 + 4*x1*x2 - 6*x1*x3 - 3*x1*x4 - 6*x1*x5 - 4*x2^2 +"
    " 4*x2*x3 - 5*x2*x4 + 9*x2*x5 + 4*x3^2 + 4*x3*x4 - 9*x3*x5 +"
    " 6*x4^2 + 7*x4*x5 - 9*x5^2",
)

# Eight dense quadrics in eight variables, analyzed over F_32003: every
# coefficient drawn by random.Random(8).choice from the nonzero ints in
# -9..9, monomial_basis(8, 2) order, one form after another.
_CI8 = (
    "-2*x0^2 + 3*x0*x1 + 4*x0*x2 - 5*x0*x3 - 3*x0*x4 - 8*x0*x5 -"
    " 7*x0*x6 - 5*x0*x7 - 2*x1^2 + 8*x1*x2 - 3*x1*x3 + 4*x1*x4 -"
    " 9*x1*x5 + 6*x1*x6 + 7*x1*x7 + 6*x2^2 + 4*x2*x3 + 7*x2*x4 -"
    " 3*x2*x5 + 4*x2*x6 - 7*x2*x7 + 7*x3^2 - 2*x3*x4 - 9*x3*x5 -"
    " x3*x6 + 8*x3*x7 + 5*x4^2 + 7*x4*x5 + 4*x4*x6 - 6*x4*x7 - x5^2"
    " - 6*x5*x6 - 7*x5*x7 + 4*x6^2 + 4*x6*x7 - 6*x7^2",
    "-8*x0^2 + 2*x0*x1 - 2*x0*x2 - 7*x0*x3 + 7*x0*x4 + 8*x0*x5 -"
    " 3*x0*x6 - 5*x0*x7 - 7*x1^2 + 9*x1*x2 - 8*x1*x3 + 7*x1*x4 -"
    " 3*x1*x5 - 5*x1*x6 + 6*x1*x7 + 6*x2^2 + x2*x3 + 9*x2*x4 +"
    " 3*x2*x5 + 5*x2*x6 - 5*x2*x7 - 4*x3^2 - 6*x3*x4 + 9*x3*x5 +"
    " 2*x3*x6 + 3*x3*x7 + 7*x4^2 + 8*x4*x5 - 3*x4*x6 + x4*x7 -"
    " 5*x5^2 + 3*x5*x6 + 8*x5*x7 + x6^2 + 8*x6*x7 - 7*x7^2",
    "8*x0^2 + 9*x0*x1 - 2*x0*x2 + 3*x0*x3 - 2*x0*x4 - 9*x0*x5 +"
    " x0*x6 + 2*x0*x7 - 2*x1^2 - x1*x2 - 8*x1*x3 + 5*x1*x4 - x1*x5 +"
    " 4*x1*x6 + x1*x7 + 5*x2^2 - 4*x2*x3 + 4*x2*x4 - 6*x2*x5 -"
    " 4*x2*x6 - 9*x2*x7 - 3*x3^2 - 4*x3*x4 + x3*x5 - 6*x3*x6 -"
    " 9*x3*x7 + 4*x4^2 + 2*x4*x5 - 4*x4*x6 + 5*x4*x7 - 2*x5^2 -"
    " 5*x5*x6 + 5*x5*x7 + 6*x6^2 + 5*x6*x7 + 5*x7^2",
    "-7*x0^2 - 7*x0*x1 + x0*x2 - 6*x0*x3 - 8*x0*x4 - 7*x0*x5 -"
    " 6*x0*x6 + 8*x0*x7 + 8*x1^2 + 3*x1*x2 - 5*x1*x3 + 8*x1*x4 +"
    " 7*x1*x5 - 5*x1*x6 - 7*x1*x7 - 3*x2^2 - 9*x2*x3 - 5*x2*x4 +"
    " 2*x2*x5 + 4*x2*x6 - 6*x2*x7 + x3^2 + 3*x3*x4 + 2*x3*x5 +"
    " 3*x3*x6 - 9*x3*x7 + 7*x4^2 - 3*x4*x5 - 8*x4*x6 - 8*x4*x7 -"
    " 4*x5^2 - 4*x5*x6 + 2*x5*x7 + 5*x6^2 + 6*x6*x7 - 6*x7^2",
    "-7*x0^2 - 3*x0*x1 - 2*x0*x2 + 7*x0*x3 + 7*x0*x4 - 5*x0*x5 +"
    " 4*x0*x6 - 6*x0*x7 - 6*x1^2 + 6*x1*x2 - 5*x1*x3 + 6*x1*x4 +"
    " 8*x1*x5 - 7*x1*x6 + 7*x1*x7 + 4*x2^2 + 3*x2*x3 + 6*x2*x4 -"
    " 2*x2*x5 - 8*x2*x6 - 3*x2*x7 - 8*x3^2 + 6*x3*x4 - 6*x3*x5 -"
    " 6*x3*x6 - 3*x3*x7 - 9*x4^2 - 9*x4*x5 + 3*x4*x6 + 5*x4*x7 +"
    " 8*x5^2 - 7*x5*x6 + 8*x5*x7 - 3*x6^2 + 8*x6*x7 - 2*x7^2",
    "2*x0^2 + 8*x0*x1 + 4*x0*x2 + 8*x0*x3 - 3*x0*x4 - 9*x0*x5 +"
    " x0*x6 + x0*x7 - 7*x1^2 + 2*x1*x2 + 4*x1*x3 - 2*x1*x4 + x1*x5 -"
    " 7*x1*x6 + 9*x1*x7 + 5*x2^2 + 3*x2*x3 + 2*x2*x4 + 8*x2*x5 +"
    " x2*x6 + 3*x2*x7 + x3^2 - 6*x3*x4 - 3*x3*x5 + 7*x3*x6 + 3*x3*x7"
    " + 4*x4^2 + x4*x5 - 3*x4*x6 + x4*x7 + 4*x5^2 + 4*x5*x6 +"
    " 8*x5*x7 + 3*x6^2 + 3*x6*x7 + 5*x7^2",
    "-3*x0^2 + 7*x0*x1 + 8*x0*x2 + 8*x0*x3 - 7*x0*x4 - x0*x5 -"
    " 4*x0*x6 - 7*x0*x7 + 7*x1^2 - x1*x2 + 5*x1*x3 - 6*x1*x4 - x1*x5"
    " + x1*x6 - x1*x7 + 8*x2^2 - x2*x3 - x2*x4 + 5*x2*x5 - 2*x2*x6 +"
    " 3*x2*x7 - 2*x3^2 - 2*x3*x4 + 8*x3*x5 + 6*x3*x6 - 2*x3*x7 -"
    " 2*x4^2 + 8*x4*x5 - 3*x4*x6 + 3*x4*x7 + 7*x5^2 - 6*x5*x6 -"
    " 6*x5*x7 + 4*x6^2 - 7*x6*x7 - 4*x7^2",
    "5*x0^2 - 8*x0*x1 - 5*x0*x2 - 9*x0*x3 - 3*x0*x4 - x0*x5 -"
    " 7*x0*x6 - 6*x0*x7 + 6*x1^2 + 6*x1*x2 + x1*x3 - 7*x1*x4 -"
    " 5*x1*x5 + 3*x1*x6 - 7*x1*x7 + 2*x2^2 - 8*x2*x3 - 7*x2*x4 -"
    " 5*x2*x5 + 3*x2*x6 - 7*x2*x7 - 2*x3^2 - 8*x3*x4 + 2*x3*x5 -"
    " 2*x3*x6 + x3*x7 + 3*x4^2 + 2*x4*x5 - 7*x4*x6 + 8*x4*x7 -"
    " 6*x5^2 + 3*x5*x6 + 5*x5*x7 - 4*x6^2 - 4*x6*x7 - x7^2",
)

# x0*x3^3 + 2*x1*x3^2*x4 + 3*x2*x4^3 under x_i -> sum_j M_ij x_j, with
# M = [[-1,2,2,-1,0],[2,1,2,-2,2],[-2,1,0,2,-1],[-1,1,2,2,1],[1,-1,-1,-1,2]]
# (det 29): a Perazzo-type quartic in five variables that is not a cone.
_QUARTIC5 = (
    "-x0^4 + 6*x0^3*x1 - 6*x0^3*x2 - 5*x0^3*x3 - 38*x0^3*x4 -"
    " 12*x0^2*x1^2 + 3*x0^2*x1*x2 + 99*x0^2*x1*x4 + 18*x0^2*x2^2 +"
    " 40*x0^2*x2*x3 + 71*x0^2*x2*x4 + 22*x0^2*x3^2 + 98*x0^2*x3*x4 -"
    " 99*x0^2*x4^2 + 10*x0*x1^3 + 12*x0*x1^2*x2 + 15*x0*x1^2*x3 -"
    " 84*x0*x1^2*x4 - 9*x0*x1*x2^2 - 26*x0*x1*x2*x3 - 130*x0*x1*x2*x4 -"
    " 17*x0*x1*x3^2 - 184*x0*x1*x3*x4 + 141*x0*x1*x4^2 - 10*x0*x2^3 -"
    " 40*x0*x2^2*x3 - 41*x0*x2^2*x4 - 50*x0*x2*x3^2 - 102*x0*x2*x3*x4 +"
    " 104*x0*x2*x4^2 - 20*x0*x3^3 - 61*x0*x3^2*x4 + 209*x0*x3*x4^2 -"
    " 89*x0*x4^3 - 3*x1^4 - 9*x1^3*x2 - 10*x1^3*x3 + 23*x1^3*x4 -"
    " 9*x1^2*x2^2 - 14*x1^2*x2*x3 + 59*x1^2*x2*x4 - 5*x1^2*x3^2 +"
    " 86*x1^2*x3*x4 - 42*x1^2*x4^2 - 3*x1*x2^3 + x1*x2^2*x3 +"
    " 59*x1*x2^2*x4 + 11*x1*x2*x3^2 + 138*x1*x2*x3*x4 - 20*x1*x2*x4^2 +"
    " 7*x1*x3^3 + 79*x1*x3^2*x4 - 125*x1*x3*x4^2 + 78*x1*x4^3 +"
    " 2*x2^3*x3 + 27*x2^3*x4 + 6*x2^2*x3^2 + 49*x2^2*x3*x4 +"
    " 38*x2^2*x4^2 + 6*x2*x3^3 + 17*x2*x3^2*x4 - 70*x2*x3*x4^2 +"
    " 74*x2*x4^3 + 2*x3^4 - 5*x3^3*x4 - 108*x3^2*x4^2 + 103*x3*x4^3 -"
    " 16*x4^4")

# x0*x4^3 + 2*x1*x4^2*x5 + 3*x2*x4*x5^2 + 4*x3*x5^3 under x_i -> sum_j M_ij
# x_j, with M = [[-1,2,2,-1,0,2],[1,2,-2,2,-2,1],[0,2,-1,-1,1,2],
# [2,1,1,-1,-1,-1],[2,1,-2,-2,-1,2],[-2,0,-2,0,1,2]] (det -145).
_QUARTIC6 = (
    "-88*x0^4 - 28*x0^3*x1 - 160*x0^3*x2 + 24*x0^3*x3 + 220*x0^3*x4 +"
    " 232*x0^3*x5 + 6*x0^2*x1^2 + 4*x0^2*x1*x2 - 48*x0^2*x1*x3 +"
    " 72*x0^2*x1*x4 + 72*x0^2*x1*x5 - 400*x0^2*x2^2 - 8*x0^2*x2*x3 +"
    " 252*x0^2*x2*x4 + 712*x0^2*x2*x5 + 72*x0^2*x3^2 - 96*x0^2*x3*x4 -"
    " 144*x0^2*x3*x5 - 198*x0^2*x4^2 - 360*x0^2*x4*x5 - 312*x0^2*x5^2 +"
    " 3*x0*x1^3 + 22*x0*x1^2*x2 - 24*x0*x1^2*x3 - 3*x0*x1^2*x4 +"
    " 6*x0*x1^2*x5 - 132*x0*x1*x2^2 - 88*x0*x1*x2*x3 + 32*x0*x1*x2*x4 +"
    " 192*x0*x1*x2*x5 + 60*x0*x1*x3^2 + 36*x0*x1*x3*x4 -"
    " 24*x0*x1*x3*x5 - 51*x0*x1*x4^2 - 108*x0*x1*x4*x5 -"
    " 60*x0*x1*x5^2 - 128*x0*x2^3 + 264*x0*x2^2*x3 + 340*x0*x2^2*x4 +"
    " 440*x0*x2^2*x5 + 88*x0*x2*x3^2 - 64*x0*x2*x3*x4 -"
    " 384*x0*x2*x3*x5 - 132*x0*x2*x4^2 - 592*x0*x2*x4*x5 -"
    " 496*x0*x2*x5^2 - 48*x0*x3^3 - 60*x0*x3^2*x4 + 24*x0*x3^2*x5 +"
    " 78*x0*x3*x4^2 + 216*x0*x3*x4*x5 + 120*x0*x3*x5^2 + 77*x0*x4^3 +"
    " 186*x0*x4^2*x5 + 252*x0*x4*x5^2 + 184*x0*x5^3 + 2*x1^4 -"
    " 18*x1^3*x2 - 13*x1^3*x3 - 2*x1^3*x4 + 22*x1^3*x5 + 76*x1^2*x2^2 +"
    " 66*x1^2*x2*x3 - 2*x1^2*x2*x4 - 172*x1^2*x2*x5 + 30*x1^2*x3^2 +"
    " 15*x1^2*x3*x4 - 90*x1^2*x3*x5 - 12*x1^2*x4*x5 + 96*x1^2*x5^2 -"
    " 148*x1*x2^3 - 136*x1*x2^2*x3 + 48*x1*x2^2*x4 + 488*x1*x2^2*x5 -"
    " 48*x1*x2*x3^2 + 8*x1*x2*x3*x4 + 352*x1*x2*x3*x5 - 17*x1*x2*x4^2 -"
    " 60*x1*x2*x4*x5 - 532*x1*x2*x5^2 - 28*x1*x3^3 - 36*x1*x3^2*x4 +"
    " 96*x1*x3^2*x5 - 6*x1*x3*x4^2 + 48*x1*x3*x4*x5 - 216*x1*x3*x5^2 +"
    " 11*x1*x4^3 + 36*x1*x4^2*x5 + 12*x1*x4*x5^2 + 192*x1*x5^3 +"
    " 8*x2^4 + 72*x2^3*x3 + 68*x2^3*x4 - 72*x2^3*x5 - 32*x2^2*x3^2 -"
    " 96*x2^2*x3*x4 - 304*x2^2*x3*x5 - 70*x2^2*x4^2 - 232*x2^2*x4*x5 +"
    " 168*x2^2*x5^2 - 24*x2*x3^3 - 8*x2*x3^2*x4 - 16*x2*x3^2*x5 +"
    " 34*x2*x3*x4^2 + 120*x2*x3*x4*x5 + 392*x2*x3*x5^2 + 23*x2*x4^3 +"
    " 118*x2*x4^2*x5 + 260*x2*x4*x5^2 - 152*x2*x5^3 + 8*x3^4 +"
    " 28*x3^3*x4 - 8*x3^3*x5 + 12*x3^2*x4^2 - 48*x3^2*x4*x5 +"
    " 48*x3^2*x5^2 - 18*x3*x4^3 - 72*x3*x4^2*x5 - 24*x3*x4*x5^2 -"
    " 160*x3*x5^3 - 11*x4^4 - 32*x4^3*x5 - 48*x4^2*x5^2 - 96*x4*x5^3 +"
    " 48*x5^4")

INPUTS = {
    "ci6_q": ["analyze", ";".join(_CI6), "--nvars", "6"],
    "ci8_fp": ["analyze", ";".join(_CI8), "--nvars", "8", "--field",
               "fp:32003"],
    "monomial_ci_q6": _monomial_ci(6),
    "monomial_ci_q7": _monomial_ci(7),
    "monomial_ci_q8": _monomial_ci(8),
    "monomial_ci_q10": _monomial_ci(10),
    "monomial_ci_fp9": _monomial_ci(9, "fp:32003"),
    "perazzo_quartic5": ["analyze", _QUARTIC5, "--nvars", "5"],
    "perazzo_quartic6": ["analyze", _QUARTIC6, "--nvars", "6"],
}


def _perfbench_host_scale():
    """perfbench's host_scale, loaded from perfbench/worker.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.host_scale


def _limit_child():
    """Runs in the child between fork and exec."""
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (WALL_SECONDS, WALL_SECONDS))
    signal.alarm(WALL_SECONDS)


def run_child(cmd: list[str]) -> dict:
    """Run cmd in a fresh process under the limits; its timing and outcome."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(cmd, env=env, capture_output=True,
                          preexec_fn=_limit_child)
    seconds = time.perf_counter() - start
    tail = [line for line in done.stderr.decode(errors="replace").splitlines()
            if line.strip()]
    return {"seconds": round(seconds, 4), "exit": done.returncode,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
            "stderr_tail": tail[-1] if tail else ""}


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = [name for name in names if name not in INPUTS]
    if unknown:
        print(f"unknown input {unknown[0]!r}; known: {', '.join(INPUTS)}",
              file=sys.stderr)
        return 2
    host_scale = _perfbench_host_scale()
    for name in names or INPUTS:
        before = host_scale()
        result = run_child([sys.executable, "-m", "sagakit.cli",
                            *INPUTS[name]])
        scale = round((before + host_scale()) / 2, 4)
        print(json.dumps({"name": name, **result, "host_scale": scale}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
