import json

import pytest

from sagakit.corpus import (CorpusError, get_entry, load_corpus,
                            REQUIRED_ENTRIES, VALID_PROVENANCE)

from oracles import analysis_matches_expected


class TestLoad:
    def test_loads_and_validates(self):
        entries = load_corpus()
        assert {e.name for e in entries} >= REQUIRED_ENTRIES

    def test_perazzo_entry(self):
        entry = get_entry("perazzo")
        assert entry.expected["hess_zero"] is True
        assert entry.expected["hilbert"] == [1, 5, 5, 1]

    def test_monomial_ci_entry(self):
        entry = get_entry("monomial_ci_quadrics")
        assert entry.expected["hilbert"] == [1, 5, 10, 10, 5, 1]
        assert entry.kind == "generators"

    def test_provenance_tags_complete(self):
        for entry in load_corpus():
            assert entry.provenance
            for tag in entry.provenance.values():
                assert tag in VALID_PROVENANCE

    def test_unknown_name(self):
        with pytest.raises(CorpusError):
            get_entry("nonexistent")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_missing_provenance_rejected(self, tmp_path):
        payload = [{"name": "x", "kind": "form", "n_vars": 1, "input": "x0",
                    "expected": {"hilbert": [1, 1]}, "provenance": {}}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_entries_parse(self):
        for entry in load_corpus():
            parsed = entry.polynomials()
            if entry.kind == "form":
                assert parsed.homogeneous_degree() is not None
            else:
                assert all(p.homogeneous_degree() is not None for p in parsed)


class TestExpectedReproduction:
    def test_analyze_reproduces_every_entry(self):
        from sagakit.cli import build_parser, cmd_analyze
        parser = build_parser()
        for entry in load_corpus():
            args = parser.parse_args(["analyze", "--corpus", entry.name])
            report, code = cmd_analyze(args)
            assert code == 0
            assert analysis_matches_expected(report, entry), entry.name
