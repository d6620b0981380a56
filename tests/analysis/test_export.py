"""Tests for CSV/JSON experiment export."""

import csv
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import rows_to_csv, rows_to_json, write_rows

ROWS = [
    {"alg": "alg2", "rounds": 12, "ratio": 1.25},
    {"alg": "alg3", "rounds": 7, "ratio": 1.08, "extra": "det"},
]


class TestCsv:
    def test_header_order_is_first_appearance(self):
        text = rows_to_csv(ROWS)
        assert text.splitlines()[0] == "alg,rounds,ratio,extra"

    def test_ragged_rows_fill_empty(self):
        lines = rows_to_csv(ROWS).splitlines()
        assert lines[1].endswith(",")  # alg2 has no 'extra'

    def test_roundtrip(self, tmp_path):
        path = write_rows(ROWS, tmp_path / "out.csv")
        with open(path, newline="", encoding="utf-8") as handle:
            back = list(csv.DictReader(handle))
        assert back[0]["alg"] == "alg2"
        assert back[1]["extra"] == "det"

    @given(st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=99),
            min_size=1,
        ),
        min_size=1, max_size=5,
    ))
    @settings(max_examples=20, deadline=None)
    def test_property_roundtrip_counts(self, rows):
        text = rows_to_csv(rows)
        assert len(text.splitlines()) == len(rows) + 1


class TestJson:
    def test_roundtrip(self, tmp_path):
        path = write_rows(ROWS, tmp_path / "out.json")
        back = json.loads(path.read_text(encoding="utf-8"))
        assert back[0]["rounds"] == 12

    def test_pretty_printed(self):
        assert "\n" in rows_to_json(ROWS)


class TestWriteRows:
    def test_creates_parent_dirs(self, tmp_path):
        path = write_rows(ROWS, tmp_path / "nested" / "dir" / "x.csv")
        assert path.exists()

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows(ROWS, tmp_path / "out.xml")
