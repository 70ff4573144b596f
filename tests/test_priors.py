import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pddiag.aggregator import weighted_aggregate
from pddiag.priors import (
    RELEVANCE_WEIGHTS,
    AgingPriorParams,
    RegionEntry,
    RelevanceClass,
    RelevanceTable,
    default_relevance_table,
    load_relevance_table,
    save_relevance_table,
)

STRONG_IDS = {3, 4, 7, 26}
POTENTIAL_IDS = {2, 5, 6, 17, 18, 21, 25, 30, 31}


class TestDefaultTable:
    def test_has_48_regions(self):
        table = default_relevance_table()
        assert table.region_count == 48
        assert [e.region_id for e in table.entries] == list(range(1, 49))

    def test_class_assignment(self):
        table = default_relevance_table()
        strong = {e.region_id for e in table.entries if e.relevance is RelevanceClass.STRONG}
        potential = {e.region_id for e in table.entries if e.relevance is RelevanceClass.POTENTIAL}
        assert strong == STRONG_IDS
        assert potential == POTENTIAL_IDS
        assert sum(1 for e in table.entries if e.relevance is RelevanceClass.NONE) == 35

    def test_named_rows(self):
        table = default_relevance_table()
        assert table.entries[25].region_name == "Juxtapositional Lobule Cortex (SMA)"
        assert table.entries[25].relevance is RelevanceClass.STRONG
        assert table.weights()[25] == 1.0
        assert table.entries[1].region_name == "Insular Cortex"
        assert table.weights()[1] == 1e-2
        assert table.entries[47].region_name == "Occipital Pole"
        assert table.weights()[47] == 1e-3
        assert table.entries[2].region_name == "Superior Frontal Gyrus"
        assert table.entries[0].region_name == "Frontal Pole"
        assert table.entries[0].relevance is RelevanceClass.NONE

    def test_weights_vector(self):
        w = default_relevance_table().weights()
        assert w.shape == (48,)
        assert (w > 0).all()
        assert w.sum() > 0
        assert w[2] == 1.0 and w[0] == 1e-3 and w[1] == 1e-2

    def test_weights_are_built_once_and_read_only(self):
        base = default_relevance_table()
        table = RelevanceTable(tuple(reversed(base.entries)))  # sorted by region id on construction
        w = table.weights()
        assert w is table.weights()
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0
        want = np.array([RELEVANCE_WEIGHTS[e.relevance] for e in base.entries])
        assert w.tobytes() == want.tobytes()
        pooled = np.random.default_rng(0).standard_normal(48)
        assert weighted_aggregate(pooled, table) == weighted_aggregate(pooled, want)

    def test_deterministic(self):
        a, b = default_relevance_table(), default_relevance_table()
        assert a == b

    def test_changing_one_class_changes_one_weight(self):
        base = default_relevance_table()
        entries = list(base.entries)
        entries[10] = RegionEntry(11, entries[10].region_name, RelevanceClass.STRONG)
        changed = RelevanceTable(tuple(entries))
        diff = np.nonzero(changed.weights() != base.weights())[0]
        assert diff.tolist() == [10]


class TestTableIo:
    def test_round_trip(self, tmp_path):
        table = default_relevance_table()
        save_relevance_table(table, tmp_path / "rel.csv")
        assert load_relevance_table(tmp_path / "rel.csv") == table

    def test_written_bytes(self, tmp_path):
        table = RelevanceTable(
            (RegionEntry(2, "Plain", RelevanceClass.NONE), RegionEntry(1, 'Gyrus, "A"', RelevanceClass.STRONG))
        )
        save_relevance_table(table, tmp_path / "rel.csv")
        assert (tmp_path / "rel.csv").read_bytes() == (
            b"region_id,region_name,relevance\r\n" b'1,"Gyrus, ""A""",strong\r\n' b"2,Plain,none\r\n"
        )

    def test_minimal_two_row_table(self, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("region_id,region_name,relevance\n1,core,strong\n2,rest,none\n")
        table = load_relevance_table(p)
        assert table.region_count == 2
        assert table.weights()[0] == 1.0

    def test_duplicate_ids(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("region_id,region_name,relevance\n1,a,strong\n1,b,none\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_relevance_table(p)

    def test_gap_in_ids(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("region_id,region_name,relevance\n1,a,strong\n3,b,none\n")
        with pytest.raises(ValueError, match="region ids"):
            load_relevance_table(p)

    def test_unknown_token(self, tmp_path):
        p = tmp_path / "tok.csv"
        p.write_text("region_id,region_name,relevance\n1,a,maybe\n")
        with pytest.raises(ValueError, match="unknown relevance"):
            load_relevance_table(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("region_id,region_name,relevance\n")
        with pytest.raises(ValueError, match="empty"):
            load_relevance_table(p)

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("id,name,class\n1,a,strong\n")
        with pytest.raises(ValueError, match="header"):
            load_relevance_table(p)

    def test_spaces_around_header_names(self, tmp_path):
        p = tmp_path / "spaced.csv"
        p.write_text("region_id, region_name, relevance\n1,a,strong\n")
        assert load_relevance_table(p).entries == (RegionEntry(1, "a", RelevanceClass.STRONG),)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,b", "expected 3 fields"),
            ("2,b,none,x", "expected 3 fields"),
            ("two,b,none", "two"),
            ("2,b,maybe", "maybe"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        p = tmp_path / "bad.csv"
        p.write_text(f"region_id,region_name,relevance\n1,a,strong\n{row}\n")
        with pytest.raises(ValueError, match=message) as info:
            load_relevance_table(p)
        assert f"{p}, line 3: " in str(info.value)


FIELD = st.sampled_from(["1", "2", "3", "-1", "1e400", "a", "strong", "potential", "none", "", '"', "\r"])


class TestMalformedTables:
    @settings(max_examples=300, deadline=None)
    @given(
        body=st.one_of(
            st.lists(st.lists(FIELD | st.text(max_size=6), max_size=4).map(",".join), max_size=5).map(
                lambda rows: "\n".join(["region_id,region_name,relevance", *rows]).encode()
            ),
            st.binary(max_size=200),
        )
    )
    def test_only_value_errors_escape(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzzed_table.csv"
        path.write_bytes(body)
        with contextlib.suppress(ValueError):
            load_relevance_table(path)


class TestAgingPrior:
    def test_defaults(self):
        p = AgingPriorParams()
        assert (p.zeta, p.tau, p.alpha) == (9.5, 4.5, 1.0)

    def test_overlapping_hinges_rejected(self):
        with pytest.raises(ValueError, match="zeta"):
            AgingPriorParams(zeta=4.0, tau=4.5)
        with pytest.raises(ValueError, match="zeta"):
            AgingPriorParams(zeta=4.5, tau=4.5)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            AgingPriorParams(zeta=1.0, tau=-0.5)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            AgingPriorParams(alpha=-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            AgingPriorParams(zeta=math.inf)


@pytest.mark.parametrize("entries", [(), []], ids=["tuple", "list"])
def test_documented_refusal(entries):
    with pytest.raises(ValueError) as caught:
        RelevanceTable(entries)
    assert type(caught.value) is ValueError and str(caught.value) == "relevance table has no entries"
