"""Seeded inputs and verdict checks for the four benchmark workloads.

Every op is one `sagakit` command line (the argv handed to `sagakit.cli.main`).
A workload seed and a group index fix a pass: the list of ops one fresh
process runs.  Runs cycle through `GROUPS` groups, so the set of inputs a
seed can produce is finite and every report it yields can be pinned.

Inputs are generated here, not by the program under test: the seed mixing
is a private copy of the splitmix64 step, so a change to `sagakit.seeding`
cannot change what the benchmark feeds the program.
"""

import random

GROUPS = 8
DEFAULT_SEED = 1

_MASK = (1 << 64) - 1

PERAZZO_CUBIC = "x0*x3^2 + 2*x1*x3*x4 + x2*x4^2"


def mix(seed: int, index: int) -> int:
    """splitmix64-style mixing of (seed, index) into a 64-bit seed."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _exponent_vectors(n: int, d: int):
    """Exponent vectors of the degree-d monomials in n variables, lex order."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _exponent_vectors(n - 1, d - first):
            yield (first,) + rest


def dense_form(rng: random.Random, n: int, d: int, box: int) -> str:
    """A form with every degree-d monomial present, coefficients in
    [-box, box] without 0.

    Every monomial is kept so that the work per input does not depend on how
    many coefficients happened to be drawn as zero.
    """
    terms = []
    for exps in _exponent_vectors(n, d):
        c = rng.choice([v for v in range(-box, box + 1) if v])
        mon = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                       for i, e in enumerate(exps) if e)
        terms.append(("- " if c < 0 else "+ ") + f"{abs(c)}*{mon}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _theorem_c(seed: int):
    # trial 0 of every experiment is the monomial CI, trial 1 a random one
    return [["experiment", "--family", "theorem_c", "--trials", "2",
             "--seed", str(mix(seed, i)), "--jobs", "1"] for i in range(6)]


def _perazzo_queries(seed: int):
    # The fixture runs at the program's default seed.  With other seeds its
    # gamma sampler can draw x on the plane x3 = x4 = 0, where the fiber has
    # dimension 3, and the fixture's dimension-1 assertion fails (4 of 80
    # seeds tried), so a seeded fixture op would fail for reasons unrelated
    # to speed.  gamma and analyze still vary with the workload seed.
    return [
        ["fixture", "perazzo", "--jobs", "1"],
        ["gamma", PERAZZO_CUBIC, "--trials", "64", "--seed",
         str(mix(seed, 1)), "--jobs", "1"],
        ["analyze", PERAZZO_CUBIC, "--seed", str(mix(seed, 2)),
         "--jobs", "1"],
    ]


def _ci6_fp(seed: int):
    rng = random.Random(mix(seed, 0))
    gens = ";".join(dense_form(rng, 6, 2, 9) for _ in range(6))
    return [["analyze", gens, "--nvars", "6", "--field", "fp:32003",
             "--seed", str(mix(seed, 1)), "--jobs", "1"]]


def _form_analyze(seed: int):
    ops = []
    for i in range(3):
        rng = random.Random(mix(seed, 2 * i))
        ops.append(["analyze", dense_form(rng, 5, 4, 3), "--nvars", "5",
                    "--seed", str(mix(seed, 2 * i + 1)), "--jobs", "1"])
    return ops


# Why each workload exists is documented in perfbench/README.md.
WORKLOADS = {
    "theorem_c": _theorem_c,
    "perazzo_queries": _perazzo_queries,
    "ci6_fp": _ci6_fp,
    "form_analyze": _form_analyze,
}


def pass_ops(workload: str, seed: int, group: int) -> list[list[str]]:
    """The argv list of one pass, a pure function of its arguments."""
    if not 0 <= group < GROUPS:
        raise ValueError(f"group {group} outside 0..{GROUPS - 1}")
    return WORKLOADS[workload](mix(mix(seed, 0xB5), group))


def op_polynomials(argv: list[str]):
    """(texts, n_vars, field) of an op's polynomial input, or None."""
    if argv[0] not in ("analyze", "gamma"):
        return None
    texts = [t.strip() for t in argv[1].split(";") if t.strip()]
    n_vars = int(argv[argv.index("--nvars") + 1]) if "--nvars" in argv else 5
    field = (argv[argv.index("--field") + 1] if "--field" in argv
             else "rational")
    return texts, n_vars, field


def check_report(argv: list[str], code: int, report: dict | None):
    """Verdict of one op: (ok, why).

    An op passes when it exits 0 and the verdict fields of its JSON report
    hold: experiment `failures` empty and every trial passed or skipped,
    fixture `passed`, gamma `all_pass`, analyze a perfect duality list and a
    standard grading.
    """
    if code != 0:
        return False, f"exit code {code}"
    if report is None:
        return False, "report is not JSON"
    cmd = argv[0]
    if report.get("command") != cmd:
        return False, f"report command {report.get('command')!r}"
    if cmd == "experiment":
        ok = (not report["failures"]
              and report["passes"] + report["skipped"] == report["trials"])
        return ok, "" if ok else "experiment failures"
    if cmd == "fixture":
        ok = report["passed"] is True
        return ok, "" if ok else "fixture not passed"
    if cmd == "gamma":
        ok = report["all_pass"] is True and bool(report["samples"])
        return ok, "" if ok else "gamma all_pass false"
    ok = (bool(report["duality"]) and all(v is True for v in report["duality"])
          and report["standard"] is True)
    return ok, "" if ok else "analyze duality or standard false"
