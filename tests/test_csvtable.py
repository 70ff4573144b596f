"""The manifest, relevance and predictions CSVs share csvtable's reader and writer:
files are written as UTF-8 without a byte-order mark and read as UTF-8 with or without one."""

import codecs

import pytest

from pddiag.cli import read_predictions, write_predictions
from pddiag.cohort import Cohort, SubjectRecord, read_manifest, write_manifest
from pddiag.diagnoser import Label
from pddiag.priors import RegionEntry, RelevanceClass, RelevanceTable, load_relevance_table, save_relevance_table
from pddiag.training import PredictionRecord

# (writer, reader, a table holding a non-ASCII name)
TABLES = {
    "manifest": (
        write_manifest,
        read_manifest,
        Cohort([SubjectRecord("sujet-é", 63.5, Label.PD, path="/abs/s1.nii"), SubjectRecord("s2", 70.0)]),
    ),
    "relevance": (
        save_relevance_table,
        load_relevance_table,
        RelevanceTable(
            (RegionEntry(1, "Gyrus präcentralis", RelevanceClass.STRONG), RegionEntry(2, "rest", RelevanceClass.NONE))
        ),
    ),
    "predictions": (
        write_predictions,
        read_predictions,
        [PredictionRecord("sujet-é", Label.PD, 0.75, 3.5, 66.5, Label.PD)],
    ),
}


@pytest.mark.parametrize("table", TABLES)
def test_utf8_is_written_and_a_byte_order_mark_is_read(tmp_path, table):
    write, read, value = TABLES[table]
    path = tmp_path / "table.csv"
    write(value, path)
    written = path.read_bytes()
    assert not written.startswith(codecs.BOM_UTF8)
    assert any(name.encode("utf-8") in written for name in ("sujet-é", "Gyrus präcentralis"))
    path.write_bytes(codecs.BOM_UTF8 + written)  # as a spreadsheet tool re-saves it
    write(read(path), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == written
