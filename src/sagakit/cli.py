"""Command-line surface: analyze inputs, run experiments, emit fixtures.

Subcommands: `analyze` builds the algebra for a form or generator list and
reports its graded structure plus probe outcomes; `experiment` drives the
seeded experiment families; `fixture` replays the pinned fixtures; `gamma`
samples the incidence correspondence and runs the identity checks.  Output
is deterministic for a fixed (command, seed, input) triple: no wall-clock or
host data is ever included.

Exit codes: 0 success, 1 mathematical assertion failure, 2 usage or parse
error.
"""

import argparse
import functools
import sys

from .algebra import (GradedAlgebra, NotRegularSequence,
                      from_inverse_system, from_regular_sequence)
from .corpus import get_entry
from .exactla import MAX_SYMBOLIC_DET
from .gnlab import (DegenerateAlgebra, SLPEvidence, check_ggn, check_ker_coker,
                    gn_map_check, perazzo_algebra, perazzo_fixture,
                    sample_gamma, theorem_c_experiment)
from .lefschetz import SLP, WLP, hessian, lefschetz_probe
from .polyring import FieldSpec, max_variable_index, parse_poly, scalar_str
from .reporting import SCHEMA_VERSION, dump_json
from .seeding import DEFAULT_SEED, child_seed

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad invocation or unparseable input (exit code 2)."""


def _read_input_texts(args) -> list[str]:
    if sum(s is not None for s in (args.poly, args.input, args.corpus)) > 1:
        raise UsageError(
            "give only one input: a positional form, --input or --corpus")
    if args.corpus:
        entry = get_entry(args.corpus)
        texts = [entry.input] if entry.kind == "form" else list(entry.input)
        if args.nvars is None:
            args.nvars = entry.n_vars
        return texts
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            lines = []
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    lines.append(line)
        if not lines:
            raise UsageError(f"no input in {args.input}")
        if len(lines) == 1:
            return [t.strip() for t in lines[0].split(";") if t.strip()]
        return lines
    if args.poly:
        return [t.strip() for t in args.poly.split(";") if t.strip()]
    raise UsageError("no input given (positional form, --input, or --corpus)")


def _parse_inputs(args, field: FieldSpec):
    texts = _read_input_texts(args)
    n_vars = args.nvars
    if n_vars is None:
        n_vars = max(max_variable_index(t) for t in texts) + 1
        if n_vars < 1:
            # no variable appears, so each input is a constant
            if len(texts) == 1 and parse_poly(texts[0], 1, field).is_zero:
                raise UsageError("zero form has no inverse-system algebra")
            raise UsageError("could not infer variable count; pass --nvars")
    elif n_vars < 1:
        raise UsageError("--nvars must be at least 1")
    polys = [parse_poly(t, n_vars, field) for t in texts]
    return texts, polys


def _load_algebra(args) -> tuple[GradedAlgebra, dict]:
    """The field, the inputs and the algebra they present, parsed and built
    in that order, with the report's `input` object: one form gives an
    inverse-system algebra, several a regular-sequence quotient."""
    field = FieldSpec.from_string(args.field)
    texts, polys = _parse_inputs(args, field)
    if len(polys) == 1:
        return (from_inverse_system(polys[0]),
                {"kind": "form", "text": texts[0]})
    return from_regular_sequence(polys), {"kind": "generators", "text": texts}


# -- analyze ------------------------------------------------------------------


def cmd_analyze(args) -> tuple[dict, int]:
    algebra, source = _load_algebra(args)
    N = algebra.socle_degree
    # the pairing of N - s is the transpose of the pairing of s
    half = [algebra.pairing_check(s)[0] for s in range(N // 2 + 1)]
    report = {
        "schema": SCHEMA_VERSION,
        "command": "analyze",
        "seed": args.seed,
        "field": str(algebra.field),
        "input": source,
        "algebra": algebra.to_json_dict(),
        "duality": [half[min(s, N - s)] for s in range(N + 1)],
        "standard": algebra.is_standard(),
    }
    notes = []
    if source["kind"] == "form":
        form = algebra.presentation["form"]
        # the partials of a cone are dependent: h_1 < n
        report["cone"] = algebra.dim(1) < form.n_vars
        if form.n_vars <= MAX_SYMBOLIC_DET:
            report["hessian_vanishes"] = hessian(form, report["cone"]).vanishes
        else:
            report["hessian_vanishes"] = None
            notes.append(f"hessian skipped: more than {MAX_SYMBOLIC_DET} variables")
    probes = []
    for k in range(1, N):
        probe = lefschetz_probe(algebra, WLP, k, trials=args.trials,
                                seed=child_seed(args.seed, 2 * k))
        probes.append(probe.to_json_dict())
    for k in range(1, N // 2 + 1):
        probe = lefschetz_probe(algebra, SLP, k, trials=args.trials,
                                seed=child_seed(args.seed, 2 * k + 1))
        probes.append(probe.to_json_dict())
    report["probes"] = probes
    if notes:
        report["notes"] = notes
    return report, EXIT_OK


def _render_analyze_text(report: dict) -> str:
    lines = []
    alg = report["algebra"]
    lines.append(f"input: {report['input']['text']}")
    lines.append(f"field: {report['field']}")
    lines.append(f"hilbert: {alg['hilbert']}")
    lines.append(f"socle degree: {alg['socle_degree']}")
    duality = all(report["duality"])
    lines.append(f"duality pairings: {'all perfect' if duality else 'DEGENERATE'}")
    lines.append(f"standard: {report['standard']}")
    if "cone" in report:
        lines.append(f"cone: {report['cone']}")
    if report.get("hessian_vanishes") is not None:
        lines.append(f"hessian vanishes: {report['hessian_vanishes']}")
    for probe in report["probes"]:
        lines.append(
            f"probe {probe['kind']}_{probe['k']}: max rank "
            f"{probe['max_rank']}/{probe['target_rank']} holds={probe['holds']} "
            f"certified={probe['certified']}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines)


# -- experiment ----------------------------------------------------------------


def cmd_experiment(args) -> tuple[dict, int]:
    if args.family != "theorem_c":
        raise UsageError(f"unknown experiment family {args.family!r}")
    result = theorem_c_experiment(args.trials, seed=args.seed, jobs=args.jobs)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "experiment",
        "seed": args.seed,
    }
    report.update(result.to_json_dict())
    return report, EXIT_OK if result.passed else EXIT_MATH_FAILURE


def _render_experiment_text(report: dict) -> str:
    lines = [f"family: {report['family']}  trials: {report['trials']}  "
             f"seed: {report['seed']}"]
    for entry in report["per_trial"]:
        line = f"trial {entry['trial']:3d} [{entry['kind']}]: {entry['status']}"
        if entry["status"] == "pass":
            line += (f" (slp1 rank {entry['slp1']['max_rank']}, "
                     f"slp2 rank {entry['slp2']['max_rank']})")
        elif "detail" in entry:
            line += f" ({entry['detail']})"
        lines.append(line)
    lines.append(f"passes: {report['passes']}  skipped: {report['skipped']}  "
                 f"failures: {len(report['failures'])}")
    return "\n".join(lines)


# -- fixture --------------------------------------------------------------------


def cmd_fixture(args) -> tuple[dict, int]:
    if args.name != "perazzo":
        raise UsageError(f"unknown fixture {args.name!r}")
    algebra = perazzo_algebra()
    fixture = perazzo_fixture(seed=args.seed, algebra=algebra)
    gn = gn_map_check(algebra, x_samples=16, seed=child_seed(args.seed, 1))
    passed = fixture.passed and gn.passed
    report = {
        "schema": SCHEMA_VERSION,
        "command": "fixture",
        "seed": args.seed,
        "passed": passed,
        "fixtures": {"perazzo": fixture.to_json_dict(),
                     "gn_map": gn.to_json_dict()},
    }
    return report, EXIT_OK if passed else EXIT_MATH_FAILURE


def _render_fixture_text(report: dict) -> str:
    lines = []
    for name, payload in report["fixtures"].items():
        lines.append(f"fixture {name}: "
                     f"{'pass' if payload['passed'] else 'FAIL'}")
        for label, ok in payload["assertions"].items():
            lines.append(f"  {label}: {'ok' if ok else 'FAIL'}")
        for note in payload.get("notes", []):
            lines.append(f"  note: {note}")
    return "\n".join(lines)


# -- gamma ----------------------------------------------------------------------


def cmd_gamma(args) -> tuple[dict, int]:
    algebra, source = _load_algebra(args)
    k = args.k if args.k is not None else algebra.socle_degree - 2
    report = {
        "schema": SCHEMA_VERSION,
        "command": "gamma",
        "seed": args.seed,
        "k": k,
        "input": source,
        "samples": [],
        "slp_evidence": False,
    }
    all_pass = True
    for i in range(args.trials):
        try:
            sample = sample_gamma(algebra, k, seed=child_seed(args.seed, i))
        except SLPEvidence as exc:
            report["slp_evidence"] = True
            report["slp_evidence_at"] = [scalar_str(c) for c in exc.x.coords]
            break
        except DegenerateAlgebra as exc:
            raise UsageError(str(exc)) from None
        ok_kc = check_ker_coker(algebra, sample)
        ok_ggn = check_ggn(algebra, sample)
        all_pass = all_pass and ok_kc and ok_ggn
        report["samples"].append({
            "x": [scalar_str(c) for c in sample.x.coords],
            "y": [scalar_str(c) for c in sample.y.coords],
            "kernel_dim": sample.kernel_dim_at_x,
            "ker_coker": ok_kc,
            "power_shift_identity": ok_ggn,
        })
    report["all_pass"] = all_pass
    return report, EXIT_OK if all_pass else EXIT_MATH_FAILURE


def _render_gamma_text(report: dict) -> str:
    lines = [f"k = {report['k']}  samples: {len(report['samples'])}"]
    if report["slp_evidence"]:
        lines.append("empty fiber at sampled x: evidence the property holds")
    for i, s in enumerate(report["samples"]):
        lines.append(f"sample {i}: kernel dim {s['kernel_dim']} "
                     f"ker_coker={s['ker_coker']} "
                     f"shift_identity={s['power_shift_identity']}")
    lines.append(f"all pass: {report['all_pass']}")
    return "\n".join(lines)


# -- driver -----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sagakit",
        description="Exact toolkit for standard graded Artinian Gorenstein "
                    "algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def inputs(p):
        p.add_argument("poly", nargs="?", default=None,
                       help="inline form, or ';'-separated generators")
        p.add_argument("--input", default=None,
                       help="input file (one polynomial per line, '#' comments)")
        p.add_argument("--corpus", default=None,
                       help="read a named corpus entry")
        p.add_argument("--nvars", type=int, default=None,
                       help="variable count (inferred when omitted)")

    def common(p, with_field=True):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="deterministic seed (fixed default, not wall-clock)")
        p.add_argument("--trials", type=int, default=8,
                       help="randomized trials per probe or sample count")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers (output is identical either way)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", default=None,
                       help="write the report to a file instead of stdout")
        if with_field:
            p.add_argument("--field", default="rational",
                           help="rational or fp:<p>")

    p_analyze = sub.add_parser("analyze", help="analyze a form or generator list")
    inputs(p_analyze)
    common(p_analyze)

    p_exp = sub.add_parser("experiment", help="run a seeded experiment family")
    p_exp.add_argument("--family", default="theorem_c",
                       help="experiment family name")
    common(p_exp, with_field=False)
    p_exp.set_defaults(trials=20)

    p_fix = sub.add_parser("fixture", help="replay a named fixture")
    p_fix.add_argument("name", help="fixture name (perazzo)")
    common(p_fix, with_field=False)

    p_gamma = sub.add_parser("gamma",
                             help="sample the incidence correspondence")
    inputs(p_gamma)
    p_gamma.add_argument("--k", type=int, default=None,
                         help="power exponent (default: socle degree - 2)")
    common(p_gamma)
    return parser


_RENDERERS = {
    "analyze": _render_analyze_text,
    "experiment": _render_experiment_text,
    "fixture": _render_fixture_text,
    "gamma": _render_gamma_text,
}

_COMMANDS = {
    "analyze": cmd_analyze,
    "experiment": cmd_experiment,
    "fixture": cmd_fixture,
    "gamma": cmd_gamma,
}


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        if args.trials < 1:
            raise UsageError("need at least one trial")
        report, code = _COMMANDS[args.command](args)
        if args.format == "json":
            text = dump_json(report)
        else:
            text = _RENDERERS[args.command](report)
        _emit(text, args.output)
    except NotRegularSequence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
