import hashlib
import json
import sys
from pathlib import Path

import pytest

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
        with open(manifest, "a") as fh:
            fh.write('{"steps": {}}\n[1, 2]\n"sub00"\n{"subject_id": ["sub00"]}\n{"subject_id": "sub0\n')
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
