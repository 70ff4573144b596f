import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pddiag import preprocess
from pddiag.preprocess import ToolConfig, ToolConfigError, run_pipeline

COPY_MOCK = """\
import sys, pathlib
counts, src, dst = sys.argv[1], sys.argv[2], sys.argv[3]
with open(counts, "a") as fh:
    fh.write(src + " -> " + dst + "\\n")
pathlib.Path(dst).write_bytes(pathlib.Path(src).read_bytes())
"""

FAIL_MOCK = """\
import sys
with open(sys.argv[1], "a") as fh:
    fh.write("fail-call\\n")
sys.exit(1)
"""

SILENT_MOCK = """\
import sys
with open(sys.argv[1], "a") as fh:
    fh.write("silent-call\\n")
"""

# a bias tool that fails on one subject's work file and copies every other
PICKY_BIAS = """sh -c 'case "$0" in */sub03/*) echo "no brain in $0" >&2; exit 3;; esac; cp "$0" "$1"' {input} {output}"""


class CountingSubprocess:
    """Stands in for ``subprocess`` inside ``pddiag.preprocess``: counts ``run``, forwards the rest."""

    def __init__(self, real):
        self.real = real
        self.runs = 0

    def __getattr__(self, name):
        return getattr(self.real, name)

    def run(self, *args, **kwargs):
        self.runs += 1
        return self.real.run(*args, **kwargs)


@pytest.fixture
def harness(tmp_path):
    class Harness:
        def __init__(self):
            self.root = tmp_path
            self.counts = tmp_path / "counts.txt"
            self.copy = tmp_path / "copy_tool.py"
            self.fail = tmp_path / "fail_tool.py"
            self.silent = tmp_path / "silent_tool.py"
            self.copy.write_text(COPY_MOCK)
            self.fail.write_text(FAIL_MOCK)
            self.silent.write_text(SILENT_MOCK)
            self.template = tmp_path / "template.nii"
            self.template.write_bytes(b"TEMPLATE")

        def cmd(self, script, with_template=False):
            base = f"{sys.executable} {script} {self.counts} {{input}} {{output}}"
            return base + (" {template}" if with_template else "")

        def config(self, **overrides):
            cfg = ToolConfig(
                strip_cmd=self.cmd(self.copy),
                bias_cmd=self.cmd(self.copy),
                register_cmd=self.cmd(self.copy, with_template=True),
                template_path=str(self.template),
                cache_dir=str(self.root / "cache"),
            )
            for k, v in overrides.items():
                setattr(cfg, k, v)
            return cfg

        def subjects(self, n):
            paths = []
            for i in range(n):
                p = self.root / f"sub{i:02d}.nii"
                p.write_bytes(f"RAW-{i}".encode())
                paths.append(p)
            return paths

        def invocations(self):
            return len(self.counts.read_text().splitlines()) if self.counts.exists() else 0

    return Harness()


class TestRunPipeline:
    def test_three_invocations_per_new_subject(self, harness):
        subjects = harness.subjects(3)
        records = run_pipeline(subjects, harness.config())
        assert harness.invocations() == 9
        for rec in records:
            assert rec.ok
            assert rec.steps == {"strip": "ran", "bias": "ran", "register": "ran"}
            assert Path(rec.output_path).exists()
            assert Path(rec.output_path).read_bytes().startswith(b"RAW-")

    def test_second_run_skips_everything(self, harness):
        subjects = harness.subjects(2)
        cfg = harness.config()
        run_pipeline(subjects, cfg)
        before = harness.invocations()
        records = run_pipeline(subjects, cfg)
        assert harness.invocations() == before
        for rec in records:
            assert rec.steps == {s: "skipped" for s in ("strip", "bias", "register")}
            assert rec.ok

    def test_template_placeholder_required(self, harness):
        cfg = harness.config(register_cmd=harness.cmd(harness.copy, with_template=False))
        with pytest.raises(ToolConfigError, match="template"):
            run_pipeline(harness.subjects(1), cfg)
        assert harness.invocations() == 0  # validated before any execution

    def test_input_output_placeholders_required(self, harness):
        with pytest.raises(ToolConfigError, match="input"):
            run_pipeline([], harness.config(strip_cmd="tool --out {output}"))

    def test_failed_subject_does_not_block_others(self, harness):
        subjects = harness.subjects(2)
        # first subject's raw file removed -> digest fails -> recorded failure
        subjects[0].unlink()
        records = run_pipeline(subjects, harness.config())
        assert not records[0].ok
        assert records[1].ok

    def test_unreadable_input_runs_no_step(self, harness):
        missing = harness.subjects(1)[0]
        missing.unlink()
        rec = run_pipeline([missing], harness.config())[0]
        assert rec.steps == {}
        assert rec.error.startswith("hashing the input: ")
        assert rec.output_path is None and rec.digest is None
        assert harness.invocations() == 0

    def test_error_after_all_steps_is_not_ok(self, harness, monkeypatch):
        real = preprocess._sha256_file

        def failing_on_outputs(path):
            if Path(path).parent.name == "out":
                raise OSError("disk went away while hashing the output")
            return real(path)

        monkeypatch.setattr(preprocess, "_sha256_file", failing_on_outputs)
        rec = run_pipeline(harness.subjects(1), harness.config())[0]
        assert rec.steps == {"strip": "ran", "bias": "ran", "register": "ran"}
        assert rec.digest is None and rec.output_path is None
        assert rec.error == "finalising the output: disk went away while hashing the output"
        assert not rec.ok

    def test_nonzero_exit_recorded_as_failed(self, harness):
        cfg = harness.config(bias_cmd=harness.cmd(harness.fail))
        records = run_pipeline(harness.subjects(1), cfg)
        rec = records[0]
        assert rec.steps["strip"] == "ran"
        assert rec.steps["bias"] == "failed"
        assert "register" not in rec.steps
        assert not rec.ok
        assert "exited 1" in rec.error

    def test_silent_tool_is_output_missing(self, harness):
        cfg = harness.config(strip_cmd=harness.cmd(harness.silent))
        records = run_pipeline(harness.subjects(1), cfg)
        assert records[0].steps["strip"] == "failed"
        assert "no output" in records[0].error

    def test_command_not_found(self, harness):
        cfg = harness.config(strip_cmd="definitely-not-a-command-xyz {input} {output}")
        records = run_pipeline(harness.subjects(1), cfg)
        assert records[0].steps["strip"] == "failed"
        assert "not found" in records[0].error

    def test_changed_command_invalidates_cache(self, harness):
        subjects = harness.subjects(1)
        run_pipeline(subjects, harness.config())
        assert harness.invocations() == 3
        cfg2 = harness.config(bias_cmd=harness.cmd(harness.copy) + " --extra-flag")
        records = run_pipeline(subjects, cfg2)
        assert harness.invocations() == 6
        assert records[0].steps["bias"] == "ran"

    def test_changed_input_invalidates_cache(self, harness):
        subjects = harness.subjects(1)
        cfg = harness.config()
        run_pipeline(subjects, cfg)
        subjects[0].write_bytes(b"RAW-CHANGED")
        records = run_pipeline(subjects, cfg)
        assert harness.invocations() == 6
        assert records[0].ok

    def test_interrupted_run_leaves_no_completion_claim_and_recovers(self, harness):
        subjects = harness.subjects(1)
        # run dies at the register step (stands in for a mid-run kill)
        broken = harness.config(register_cmd=harness.cmd(harness.fail) + " {template}")
        run_pipeline(subjects, broken)
        manifest = Path(broken.cache_dir) / "manifest.jsonl"
        claims = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert all(c["output_path"] is None for c in claims)

        records = run_pipeline(subjects, harness.config())
        assert records[0].ok
        out_dir = Path(harness.config().cache_dir) / "out"
        assert len(list(out_dir.glob("sub00*"))) == 1  # no duplicate finals

        again = run_pipeline(subjects, harness.config())
        assert again[0].steps == {s: "skipped" for s in ("strip", "bias", "register")}

    def test_manifest_lines_that_are_no_record_are_skipped(self, harness):
        subjects = harness.subjects(1)
        cfg = harness.config()
        run_pipeline(subjects, cfg)
        manifest = Path(cfg.cache_dir) / "manifest.jsonl"
        with open(manifest, "ab") as fh:
            fh.write(b'{"steps": {}}\n[1, 2]\n"sub00"\n{"subject_id": ["sub00"]}\n\xff\n')
            fh.write(b"[" * 100_000 + b'\n{"subject_id": "sub0\n')
        records = run_pipeline(subjects, cfg)
        assert records[0].steps == {s: "skipped" for s in ("strip", "bias", "register")}
        assert harness.invocations() == 3

    def test_manifest_one_record_per_subject_per_run(self, harness):
        subjects = harness.subjects(2)
        cfg = harness.config()
        run_pipeline(subjects, cfg)
        run_pipeline(subjects, cfg)
        manifest = Path(cfg.cache_dir) / "manifest.jsonl"
        assert len(manifest.read_text().splitlines()) == 4

    def test_parallel_workers_match_serial(self, harness):
        subjects = harness.subjects(4)
        records = run_pipeline(subjects, harness.config(jobs=2))
        assert [r.subject_id for r in records] == [p.name.split(".")[0] for p in subjects]
        assert all(r.ok for r in records)
        assert harness.invocations() == 12

    def test_tmp_files_cleaned_on_success(self, harness):
        cfg = harness.config()
        run_pipeline(harness.subjects(1), cfg)
        tmp_root = Path(cfg.cache_dir) / "tmp"
        assert not any(tmp_root.iterdir()) if tmp_root.exists() else True

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_subject_leaves_no_work_directory(self, harness, jobs):
        subjects = harness.subjects(3)
        broken = harness.config(bias_cmd=harness.cmd(harness.fail), jobs=jobs)
        records = run_pipeline(subjects, broken)
        assert all(r.steps == {"strip": "ran", "bias": "failed"} for r in records)
        tmp_root = Path(broken.cache_dir) / "tmp"
        assert list(tmp_root.iterdir()) == []
        records = run_pipeline(subjects, harness.config(jobs=jobs))
        assert all(r.ok for r in records), [r.error for r in records]
        assert list(tmp_root.iterdir()) == []

    def test_records_do_not_depend_on_jobs(self, harness, monkeypatch):
        # cached, fresh, unreadable and failing subjects in one cohort
        subjects = harness.subjects(6)
        subjects[1].unlink()

        def records_at(jobs):
            run_dir = harness.root / f"jobs{jobs}"
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)  # a relative cache_dir gives both runs the same output paths
            cfg = harness.config(bias_cmd=PICKY_BIAS, cache_dir="cache", jobs=jobs)
            run_pipeline([subjects[0], subjects[4]], cfg)
            records = run_pipeline(subjects, cfg)
            rows = []
            for rec in records:
                row = dataclasses.asdict(rec)
                del row["started_at"], row["finished_at"]
                rows.append((row, list(rec.steps.items()), rec.ok))
            return rows

        serial = records_at(1)
        assert serial == records_at(2)
        assert [row["subject_id"] for row, _, _ in serial] == [p.name.split(".")[0] for p in subjects]
        assert [ok for _, _, ok in serial] == [True, False, True, False, True, True]
        assert serial[0][0]["steps"] == {s: "skipped" for s in preprocess.STEPS}
        assert serial[2][0]["steps"] == {s: "ran" for s in preprocess.STEPS}
        assert serial[3][1] == [("strip", "ran"), ("bias", "failed")]
        assert serial[3][0]["error"].startswith("sh exited 3: no brain in ")

    def test_undecodable_stderr_of_a_tool_that_succeeds(self, harness):
        cfg = harness.config(strip_cmd="""sh -c 'printf "\\377" >&2; cp "$0" "$1"' {input} {output}""")
        records = run_pipeline(harness.subjects(2), cfg)
        for rec in records:
            assert rec.ok, rec.error
            assert rec.steps["strip"] == "ran"

    def test_undecodable_stderr_is_quoted_replaced(self, harness):
        cfg = harness.config(strip_cmd="""sh -c 'printf "bad \\377 byte" >&2; exit 1' {input} {output}""")
        [rec] = run_pipeline(harness.subjects(1), cfg)
        assert rec.steps == {"strip": "failed"}
        assert rec.error == "sh exited 1: bad \ufffd byte"

    def test_tool_runs_go_through_the_module_subprocess(self, harness, monkeypatch):
        # the benchmark's tracer times tools by swapping preprocess.subprocess the same way
        counting = CountingSubprocess(preprocess.subprocess)
        monkeypatch.setattr(preprocess, "subprocess", counting)
        subjects = harness.subjects(3)
        cfg = harness.config()
        assert all(r.ok for r in run_pipeline(subjects, cfg))
        assert counting.runs == 3 * len(preprocess.STEPS)
        assert all(r.ok for r in run_pipeline(subjects, cfg))
        assert counting.runs == 3 * len(preprocess.STEPS)

    def test_spaced_paths_stay_one_argument(self, tmp_path):
        raw = tmp_path / "raw dir" / "s1.nii"
        raw.parent.mkdir()
        raw.write_bytes(b"RAW-1")
        template = tmp_path / "template dir" / "t.nii"
        template.parent.mkdir()
        template.write_bytes(b"TEMPLATE")
        cfg = ToolConfig(
            strip_cmd="cp {input} {output}",
            bias_cmd="cp {input} {output}",
            register_cmd="""sh -c 'test -f "$2" && cp "$0" "$1"' {input} {output} {template}""",
            template_path=str(template),
            cache_dir=str(tmp_path / "cache dir"),
        )
        [rec] = run_pipeline([raw], cfg)
        assert rec.ok, rec.error
        assert Path(rec.output_path).read_bytes() == b"RAW-1"
        # the cache key still hashes the raw templates
        key = hashlib.sha256(hashlib.sha256(b"RAW-1").hexdigest().encode())
        for cmd in (*cfg.commands(), cfg.template_path):
            key.update(cmd.encode())
        assert rec.cache_key == key.hexdigest()

    def test_cache_key_is_pinned(self, tmp_path):
        # recorded before the steps became one loop; a change here invalidates every existing cache
        raw = tmp_path / "s1.nii"
        raw.write_bytes(b"RAW-1")
        cfg = ToolConfig(
            strip_cmd="cp {input} {output}",
            bias_cmd="cp -- {input} {output}",  # differs from strip, so a swap of the two changes the key
            register_cmd="""sh -c 'cp "$0" "$1"' {input} {output} {template}""",
            template_path="template.nii",
            cache_dir=str(tmp_path / "cache"),
        )
        [rec] = run_pipeline([raw], cfg)
        assert rec.ok, rec.error
        assert rec.cache_key == "80c17b41b83dffa840b9fc3445cf90898f7849d0d1bf4206e160e17302026bad"
        assert rec.digest == hashlib.sha256(b"RAW-1").hexdigest()

    def test_each_step_reads_the_previous_output(self, harness):
        [raw] = harness.subjects(1)
        [rec] = run_pipeline([raw], harness.config())
        assert rec.ok, rec.error
        calls = [line.split(" -> ") for line in harness.counts.read_text().splitlines()]
        assert len(calls) == len(preprocess.STEPS)
        assert calls[0][0] == str(raw)
        for (_, prev_dst), (src, _) in zip(calls, calls[1:]):
            assert src == prev_dst
        assert len({dst for _, dst in calls}) == len(calls)

    def test_unsplittable_template_rejected(self, harness):
        with pytest.raises(ToolConfigError, match="cannot split"):
            run_pipeline(harness.subjects(1), harness.config(bias_cmd="cp '{input} {output}"))
        assert harness.invocations() == 0

    def test_colliding_subject_stems_rejected(self, harness):
        a = harness.root / "same.nii"
        a.write_bytes(b"A")
        sub = harness.root / "nested"
        sub.mkdir()
        b = sub / "same.nii"
        b.write_bytes(b"B")
        with pytest.raises(ValueError, match="unique"):
            run_pipeline([a, b], harness.config())
        assert harness.invocations() == 0

    @pytest.mark.parametrize(
        "strip_cmd",
        [
            """sh -c 'cp "$0" "${1}"' {input} {output}""",  # a positional field
            "cp {input} {output} {home}",  # an unknown name
            "cp {input} {output} }",  # a single closing brace
            "cp {input} {output} {input.suffix}",  # an attribute of the path string
        ],
    )
    def test_unfillable_template_rejected_before_any_subject(self, harness, strip_cmd):
        cfg = harness.config(strip_cmd=strip_cmd)
        with pytest.raises(ToolConfigError, match=r"cannot fill command template .*\{\{ or \}\}"):
            run_pipeline(harness.subjects(2), cfg)
        assert harness.invocations() == 0
        assert not (Path(cfg.cache_dir) / "manifest.jsonl").exists()

    def test_doubled_brace_runs(self, harness):
        cfg = harness.config(strip_cmd="""sh -c 'cp "$0" "${{1}}"' {input} {output}""")
        records = run_pipeline(harness.subjects(2), cfg)
        assert all(r.ok for r in records), [r.error for r in records]
        assert harness.invocations() == 4  # bias and register; the strip step ran sh

    @pytest.mark.parametrize("n", [2, 4])
    def test_which_calls_do_not_grow_with_subjects(self, harness, monkeypatch, n):
        calls = []
        which = preprocess.shutil.which

        def counted(name, *args, **kwargs):
            calls.append(name)
            return which(name, *args, **kwargs)

        monkeypatch.setattr(preprocess.shutil, "which", counted)
        records = run_pipeline(harness.subjects(n), harness.config())
        assert all(r.ok for r in records)
        assert calls == [sys.executable]  # one program, resolved once per run

    def test_missing_program_fails_every_subject(self, harness):
        records = run_pipeline(harness.subjects(3), harness.config(bias_cmd="no-such-tool-xyz {input} {output}"))
        for rec in records:
            assert rec.steps == {"strip": "ran", "bias": "failed"}
            assert rec.error == "command not found: no-such-tool-xyz"


class TestLoadManifest:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=40),
                st.builds(
                    lambda sid, extra: json.dumps({"subject_id": sid, **extra}).encode(),
                    st.one_of(st.text(max_size=5), st.integers(), st.none()),
                    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
                ),
            ).map(lambda b: b.replace(b"\n", b"") + b"\n"),
            max_size=8,
        )
    )
    def test_never_raises_and_keys_records_by_their_id(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("manifest") / "manifest.jsonl"
        path.write_bytes(b"".join(lines))
        entries = preprocess._load_manifest(path)
        for sid, rec in entries.items():
            assert isinstance(rec, dict) and rec["subject_id"] == sid


class TestPipelineRecord:
    def test_json_of_every_field(self):
        rec = preprocess.PipelineRecord(
            subject_id="s1",
            steps={"strip": "ran", "bias": "failed"},
            output_path="/out/s1.nii",
            digest="ab12",
            cache_key="cd34",
            error="bias exited 1",
            started_at=1.5,
            finished_at=2.25,
        )
        assert rec.to_json() == (
            '{"cache_key": "cd34", "digest": "ab12", "error": "bias exited 1", "finished_at": 2.25, '
            '"output_path": "/out/s1.nii", "started_at": 1.5, "steps": {"bias": "failed", "strip": "ran"}, '
            '"subject_id": "s1"}'
        )


@pytest.mark.parametrize("jobs", [0, -2])
def test_documented_refusal(tmp_path, jobs):
    with pytest.raises(ToolConfigError) as caught:
        run_pipeline([], ToolConfig(cache_dir=str(tmp_path), jobs=jobs))
    assert str(caught.value) == f"jobs must be >= 1, got {jobs}"
