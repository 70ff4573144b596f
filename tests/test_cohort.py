import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pddiag.cohort import MANIFEST_FIELDS, Cohort, SubjectRecord, read_manifest, write_manifest
from pddiag.diagnoser import Label

HEADER = ",".join(MANIFEST_FIELDS)


def manifest(tmp_path, *rows, header=HEADER):
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


class TestReadManifest:
    def test_round_trip(self, tmp_path):
        cohort = Cohort(
            [
                SubjectRecord("s1", 63.5, Label.PD, path="/abs/s1.nii"),
                SubjectRecord("s2", 70.0, Label.OTHER, is_healthy=True, path="/abs/s2.nii"),
                SubjectRecord("s3", 55.0),
            ]
        )
        write_manifest(cohort, tmp_path / "m.csv")
        back = read_manifest(tmp_path / "m.csv")
        assert [(s.subject_id, s.age, s.label, s.is_healthy, s.path) for s in back] == [
            ("s1", 63.5, Label.PD, False, "/abs/s1.nii"),
            ("s2", 70.0, Label.OTHER, True, "/abs/s2.nii"),
            ("s3", 55.0, None, False, None),
        ]

    def test_written_bytes(self, tmp_path):
        cohort = Cohort(
            [
                SubjectRecord('a,"b', 0.1, Label.PD, path="vol/a.nii"),
                SubjectRecord("u1", 65.0),
                SubjectRecord("h1", 70.25, Label.OTHER, is_healthy=True, path="/abs/h1.nii"),
            ]
        )
        write_manifest(cohort, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == (
            b"subject_id,path,age,label,is_healthy\r\n"
            b'"a,""b",vol/a.nii,0.1,pd,0\r\n'
            b"u1,,65.0,,0\r\n"
            b"h1,/abs/h1.nii,70.25,other,1\r\n"
        )

    def test_relative_paths_resolve_against_the_manifest(self, tmp_path):
        cohort = read_manifest(manifest(tmp_path, "s1,vol/s1.nii,60.0,pd,0"))
        assert cohort[0].path == str(tmp_path / "vol" / "s1.nii")

    def test_spaces_around_header_names(self, tmp_path):
        cohort = read_manifest(manifest(tmp_path, "s1,,60.0,other,1", header=HEADER.replace(",", ", ")))
        assert (cohort[0].subject_id, cohort[0].is_healthy) == ("s1", True)

    def test_is_healthy_tokens(self, tmp_path):
        tokens = ["1", "true", "True", " 1 ", "0", "false", "False", ""]
        cohort = read_manifest(manifest(tmp_path, *(f"s{i},,60.0,other,{t}" for i, t in enumerate(tokens))))
        assert [s.is_healthy for s in cohort] == [True] * 4 + [False] * 4

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s2,,61.0,pd", "expected 5 fields"),  # short row
            ("s2,,61.0,pd,0,extra", "expected 5 fields"),  # long row
            ("s2,,nan,pd,0", "positive and finite"),
            ("s2,,inf,pd,0", "positive and finite"),
            ("s2,,-1,pd,0", "positive and finite"),
            ("s2,,sixty,pd,0", "sixty"),
            ("s2,,61.0,maybe,0", "maybe"),
            ("s2,,61.0,pd,1", "is_healthy"),
            ("s2,,61.0,other,yes", "is_healthy must be .*'yes'"),
            ("s2,,61.0,other,2", "is_healthy must be .*'2'"),
            ("s2,,61.0,other,TRUE", "is_healthy must be .*'TRUE'"),
            ("s2,,61.0,other,no", "is_healthy must be .*'no'"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = manifest(tmp_path, "s1,,60.0,other,0", row)
        with pytest.raises(ValueError, match=message) as info:
            read_manifest(path)
        assert f"{path}, line 3: " in str(info.value)

    def test_wrong_header(self, tmp_path):
        with pytest.raises(ValueError, match="expected header"):
            read_manifest(manifest(tmp_path, "s1,,60.0,pd,0", header="id,path,age,label,healthy"))


FIELD = st.sampled_from(["s1", "v.nii", "63.5", "0", "1", "pd", "other", "", "nan", "-inf", "1e400", '"', "\r"])


class TestMalformedManifests:
    @settings(max_examples=300, deadline=None)
    @given(
        body=st.one_of(
            st.lists(st.lists(FIELD | st.text(max_size=6), max_size=7).map(",".join), max_size=5).map(
                lambda rows: "\n".join([HEADER, *rows]).encode()
            ),
            st.binary(max_size=200),
        )
    )
    def test_only_value_errors_escape(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzzed_manifest.csv"
        path.write_bytes(body)
        with contextlib.suppress(ValueError):
            read_manifest(path)
