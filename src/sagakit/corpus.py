"""Curated corpus of named forms and generator sets with expected outcomes.

The corpus lives in a data file so that other tooling can reuse it verbatim.
Each entry carries a partial expected report (Hilbert vector, cone flag,
hessian vanishing, probe outcomes) and every expected value is tagged with
its provenance: "paper" for values quoted from the source material,
"derived" for values computed with an independent oracle, "trivial" for
values checkable by inspection.
"""

import json
from dataclasses import dataclass
from importlib import resources

from .polyring import FieldSpec, RATIONAL, parse_poly

VALID_PROVENANCE = {"paper", "derived", "trivial"}

REQUIRED_ENTRIES = {"perazzo", "monomial_ci_quadrics",
                    "fermat_cubic_surface_jacobian", "binary_product",
                    "coordinate_cube_cone"}


class CorpusError(ValueError):
    """Missing, empty, or malformed corpus data."""


@dataclass(frozen=True)
class CorpusEntry:
    """One named input with its expected partial report and provenance tags."""

    name: str
    kind: str  # "form" | "generators"
    n_vars: int
    input: object  # str for forms, list[str] for generator sets
    expected: dict
    provenance: dict

    def polynomials(self, field: FieldSpec = RATIONAL):
        """Parse the entry input over the requested field."""
        if self.kind == "form":
            return parse_poly(self.input, self.n_vars, field)
        return [parse_poly(text, self.n_vars, field) for text in self.input]


def _expected_leaves(expected: dict, prefix: str = ""):
    for key, value in expected.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _expected_leaves(value, f"{path}.")
        else:
            yield path


def _validate_entry(raw: dict) -> CorpusEntry:
    for field_name in ("name", "kind", "n_vars", "input", "expected",
                       "provenance"):
        if field_name not in raw:
            raise CorpusError(f"entry missing field {field_name!r}: {raw}")
    if raw["kind"] not in ("form", "generators"):
        raise CorpusError(f"unknown entry kind {raw['kind']!r}")
    if raw["kind"] == "form" and not isinstance(raw["input"], str):
        raise CorpusError(f"form entry {raw['name']!r} needs string input")
    if raw["kind"] == "generators" and not isinstance(raw["input"], list):
        raise CorpusError(f"generator entry {raw['name']!r} needs list input")
    provenance = raw["provenance"]
    for leaf in _expected_leaves(raw["expected"]):
        tag = provenance.get(leaf)
        if tag not in VALID_PROVENANCE:
            raise CorpusError(
                f"entry {raw['name']!r}: expected value {leaf!r} carries "
                f"invalid provenance {tag!r}")
    return CorpusEntry(name=raw["name"], kind=raw["kind"],
                       n_vars=raw["n_vars"], input=raw["input"],
                       expected=raw["expected"], provenance=provenance)


def load_corpus(path=None) -> list[CorpusEntry]:
    """Load and validate the corpus entries (packaged data by default)."""
    if path is None:
        text = (resources.files("sagakit") / "data" / "corpus.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed corpus file: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise CorpusError("corpus file must be a nonempty JSON array")
    entries = [_validate_entry(item) for item in raw]
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise CorpusError("duplicate entry names")
    return entries


def get_entry(name: str, path=None) -> CorpusEntry:
    for entry in load_corpus(path):
        if entry.name == name:
            return entry
    raise CorpusError(f"no corpus entry named {name!r}")
