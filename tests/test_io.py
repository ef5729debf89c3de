"""Tests for the exploded-view construction and file round-trips."""

from __future__ import annotations

import io
import math

import pytest

from repro.arrays.associative import AssociativeArray
from repro.arrays.io import (
    collapse_exploded,
    explode_table,
    read_csv_table,
    read_tsv_triples,
    write_tsv_triples,
)
from repro.arrays.keys import KeyError_


TABLE = {
    "row1": {"Genre": "Rock", "Writer": ["Anne", "Bob"]},
    "row2": {"Genre": ["Pop", "Rock"], "Label": "Free"},
}


class TestExplode:
    def test_column_keys_concatenate_field_and_value(self):
        e = explode_table(TABLE)
        assert "Genre|Rock" in e.col_keys
        assert "Writer|Anne" in e.col_keys
        assert e.get("row1", "Genre|Rock") == 1

    def test_multivalued_fields_explode(self):
        e = explode_table(TABLE)
        assert e.get("row1", "Writer|Anne") == 1
        assert e.get("row1", "Writer|Bob") == 1
        assert e.get("row2", "Genre|Pop") == 1
        assert e.get("row2", "Genre|Rock") == 1

    def test_nnz(self):
        assert explode_table(TABLE).nnz == 3 + 3

    def test_custom_one_and_zero(self):
        e = explode_table(TABLE, one=True, zero=False)
        assert e.get("row1", "Genre|Rock") is True
        assert e.zero is False

    def test_custom_separator(self):
        e = explode_table(TABLE, separator=":")
        assert "Genre:Rock" in e.col_keys

    def test_field_whitelist(self):
        e = explode_table(TABLE, fields=["Genre"])
        assert all(c.startswith("Genre|") for c in e.col_keys)

    def test_separator_in_field_name_rejected(self):
        with pytest.raises(KeyError_, match="separator"):
            explode_table({"r": {"Ge|nre": "x"}})

    def test_collapse_roundtrip(self):
        e = explode_table(TABLE)
        back = collapse_exploded(e)
        assert back["row1"]["Genre"] == ["Rock"]
        assert sorted(back["row1"]["Writer"]) == ["Anne", "Bob"]
        assert sorted(back["row2"]["Genre"]) == ["Pop", "Rock"]

    def test_collapse_rejects_unexploded_columns(self):
        a = AssociativeArray({("r", "plaincol"): 1})
        with pytest.raises(KeyError_, match="exploded"):
            collapse_exploded(a)


class TestTsvTriples:
    def test_roundtrip(self, tmp_path):
        a = AssociativeArray({("r1", "c1"): 1, ("r2", "c2"): 2.5})
        path = tmp_path / "arr.tsv"
        write_tsv_triples(a, path)
        back = read_tsv_triples(path)
        assert back.get("r1", "c1") == 1
        assert back.get("r2", "c2") == 2.5

    def test_written_in_key_order(self, tmp_path):
        a = AssociativeArray({("r2", "c1"): 1, ("r1", "c1"): 2})
        path = tmp_path / "arr.tsv"
        write_tsv_triples(a, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("r1\t")

    def test_value_parsing_precedence(self, tmp_path):
        path = tmp_path / "vals.tsv"
        path.write_text("r\tc1\t3\nr\tc2\t3.5\nr\tc3\thello\n")
        a = read_tsv_triples(path)
        assert a.get("r", "c1") == 3 and isinstance(a.get("r", "c1"), int)
        assert a.get("r", "c2") == 3.5
        assert a.get("r", "c3") == "hello"

    def test_custom_value_parser(self, tmp_path):
        path = tmp_path / "vals.tsv"
        path.write_text("r\tc\t0x10\n")
        a = read_tsv_triples(path, value_parser=lambda s: int(s, 16))
        assert a.get("r", "c") == 16

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("r\tc\n")
        with pytest.raises(KeyError_, match="3 tab-separated"):
            read_tsv_triples(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.tsv"
        path.write_text("r\tc\t1\n\nr\td\t2\n")
        assert read_tsv_triples(path).nnz == 2

    def test_explicit_keysets(self, tmp_path):
        path = tmp_path / "k.tsv"
        path.write_text("r\tc\t1\n")
        a = read_tsv_triples(path, row_keys=["r", "r2"], col_keys=["c"])
        assert a.shape == (2, 1)


class TestCsvTable:
    CSV = "track,Genre,Writer\nt1,Rock,Anne; Bob\nt2,Pop,\n"

    def test_reads_into_table_shape(self):
        table = read_csv_table(io.StringIO(self.CSV))
        assert table["t1"]["Genre"] == "Rock"
        assert table["t1"]["Writer"] == ["Anne", "Bob"]

    def test_empty_cells_omitted(self):
        table = read_csv_table(io.StringIO(self.CSV))
        assert "Writer" not in table["t2"]

    def test_explode_after_csv(self):
        table = read_csv_table(io.StringIO(self.CSV))
        e = explode_table(table)
        assert e.get("t1", "Writer|Bob") == 1

    def test_missing_header(self):
        with pytest.raises(KeyError_, match="header"):
            read_csv_table(io.StringIO(""))

    def test_row_key_column_override(self):
        csv_text = "a,b\n1,2\n"
        table = read_csv_table(io.StringIO(csv_text), row_key_column="b")
        assert table == {"2": {"a": "1"}}

    def test_unknown_row_key_column(self):
        with pytest.raises(KeyError_, match="row key column"):
            read_csv_table(io.StringIO("a,b\n1,2\n"), row_key_column="zzz")

    def test_reads_from_path(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.CSV)
        table = read_csv_table(p)
        assert "t1" in table


class TestAtomicWrite:
    def test_temp_file_is_fsynced_before_replace(self, tmp_path,
                                                 monkeypatch):
        import os
        from repro.arrays import io as io_mod
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(io_mod.os, "fsync", lambda fd: (
            events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}"))),
            real_fsync(fd))[1])
        monkeypatch.setattr(io_mod.os, "replace", lambda src, dst: (
            events.append(("replace", str(src))), real_replace(src, dst))[1])
        target = tmp_path / "out.bin"
        with io_mod.atomic_write(target, binary=True) as fh:
            fh.write(b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
        assert [kind for kind, _ in events] == ["fsync", "replace"]
        assert events[0][1] == events[1][1]  # the temp file, then renamed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_failure_removes_temp_and_keeps_target(self, tmp_path):
        from repro.arrays.io import atomic_write
        target = tmp_path / "keys.txt"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(target, encoding="utf-8") as fh:
                fh.write("new\n")
                raise RuntimeError("boom")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["keys.txt"]
