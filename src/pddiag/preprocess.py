"""Orchestration of the three external preprocessing steps with caching.

The pipeline shells out to configurable commands for skull stripping, bias
field correction, and registration to a standard template, in that fixed
order. Results are cached by a digest of the raw input plus the resolved
command strings, so rerunning is free and changing a tool or flag
invalidates the cache. The manifest is a JSON-lines file; a record is
appended only after the subject's final output is in place, which keeps a
killed run from claiming unfinished work.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import shutil
import subprocess
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path


class ToolConfigError(ValueError):
    pass


STEPS = ("strip", "bias", "register")


@dataclass
class ToolConfig:
    strip_cmd: str = "hd-bet -i {input} -o {output}"
    bias_cmd: str = "N4BiasFieldCorrection -d 3 -i {input} -o {output}"
    register_cmd: str = "antsRegistrationSyN.sh -d 3 -f {template} -m {input} -o {output}"
    template_path: str = field(default="", metadata={"config_key": "template"})
    cache_dir: str = "preproc_cache"
    jobs: int = 1

    def validate(self) -> None:
        for name, cmd in (("strip", self.strip_cmd), ("bias", self.bias_cmd), ("register", self.register_cmd)):
            for ph in ("{input}", "{output}"):
                if ph not in cmd:
                    raise ToolConfigError(f"{name} command template missing {ph} placeholder: {cmd!r}")
        if "{template}" not in self.register_cmd:
            raise ToolConfigError(f"register command template missing {{template}} placeholder: {self.register_cmd!r}")
        if self.jobs < 1:
            raise ToolConfigError(f"jobs must be >= 1, got {self.jobs}")

    def commands(self) -> tuple[str, str, str]:
        return self.strip_cmd, self.bias_cmd, self.register_cmd


@dataclass
class PipelineRecord:
    subject_id: str
    steps: dict = field(default_factory=dict)  # step name -> skipped | ran | failed
    output_path: str | None = None  # set together with digest, once the output is in place
    digest: str | None = None
    cache_key: str | None = None
    error: str | None = None
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def ok(self) -> bool:
        """Every step ran or was cached, the output is in place, and nothing failed after."""
        return (
            self.error is None
            and all(v in ("skipped", "ran") for v in self.steps.values())
            and self.output_path is not None
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "subject_id": self.subject_id,
                "steps": self.steps,
                "output_path": self.output_path,
                "digest": self.digest,
                "cache_key": self.cache_key,
                "error": self.error,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            },
            sort_keys=True,
        )


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_manifest(path: Path) -> dict[str, dict]:
    """Last completed record per subject wins."""
    entries: dict[str, dict] = {}
    if not path.exists():
        return entries
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                entries[rec["subject_id"]] = rec
            except (json.JSONDecodeError, KeyError, TypeError):
                continue  # torn write from a killed run, or no record at all; ignore
    return entries


class _Runner:
    def __init__(self, cfg: ToolConfig):
        self.cfg = cfg
        self.cache = Path(cfg.cache_dir)
        self.out_dir = self.cache / "out"
        self.tmp_root = self.cache / "tmp"
        self.manifest_path = self.cache / "manifest.jsonl"
        self.lock = threading.Lock()
        self.known = _load_manifest(self.manifest_path)
        # split once per run; placeholders are filled per token, so a path with spaces stays one argument
        self.argvs: dict[str, list[str]] = {}
        for cmd in cfg.commands():
            try:
                self.argvs[cmd] = shlex.split(cmd)
            except ValueError as exc:
                raise ToolConfigError(f"cannot split command template {cmd!r}: {exc}") from exc

    def cache_key(self, raw_digest: str) -> str:
        h = hashlib.sha256()
        h.update(raw_digest.encode())
        for cmd in self.cfg.commands():
            h.update(cmd.encode())
        h.update(str(self.cfg.template_path).encode())
        return h.hexdigest()

    def append_record(self, rec: PipelineRecord) -> None:
        with self.lock:
            with open(self.manifest_path, "a") as fh:
                fh.write(rec.to_json() + "\n")
                fh.flush()

    def run_step(self, template: str, input_path: Path, output_path: Path) -> None:
        paths = {"input": str(input_path), "output": str(output_path), "template": str(self.cfg.template_path)}
        argv = [token.format(**paths) for token in self.argvs[template]]
        if shutil.which(argv[0]) is None:
            raise FileNotFoundError(f"command not found: {argv[0]}")
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[:500]}")
        if not output_path.exists():
            raise RuntimeError(f"{argv[0]} exited 0 but produced no output at {output_path}")

    def finish(self, rec: PipelineRecord) -> PipelineRecord:
        rec.finished_at = time.time()
        self.append_record(rec)
        return rec

    def process(self, raw_path) -> PipelineRecord:
        """Run or reuse one subject's steps; an ``OSError`` outside them is recorded with its stage."""
        raw = Path(raw_path)
        sid = raw.name.split(".")[0]
        rec = PipelineRecord(subject_id=sid, started_at=time.time())
        final = self.out_dir / f"{sid}.nii"
        stage = "hashing the input"
        try:
            key = self.cache_key(_sha256_file(raw))
            rec.cache_key = key
            stage = "checking the cache"
            prev = self.known.get(sid)
            if (
                prev
                and prev.get("cache_key") == key
                and prev.get("digest")
                and final.exists()
                and _sha256_file(final) == prev["digest"]
            ):
                rec.steps = {s: "skipped" for s in STEPS}
                rec.output_path, rec.digest = str(final), prev["digest"]
                return self.finish(rec)

            stage = "preparing the work directory"
            tmp = self.tmp_root / sid
            tmp.mkdir(parents=True, exist_ok=True)
            stripped = tmp / "stripped.nii"
            corrected = tmp / "corrected.nii"
            registered = tmp / "registered.nii"
            plan = [
                ("strip", self.cfg.strip_cmd, raw, stripped),
                ("bias", self.cfg.bias_cmd, stripped, corrected),
                ("register", self.cfg.register_cmd, corrected, registered),
            ]
            for name, template, src, dst in plan:
                try:
                    self.run_step(template, src, dst)
                    rec.steps[name] = "ran"
                except Exception as exc:
                    rec.steps[name] = "failed"
                    rec.error = str(exc)
                    return self.finish(rec)
            stage = "finalising the output"
            final.parent.mkdir(parents=True, exist_ok=True)
            registered.replace(final)
            digest = _sha256_file(final)
            rec.output_path, rec.digest = str(final), digest
            shutil.rmtree(tmp, ignore_errors=True)
        except OSError as exc:
            rec.error = f"{stage}: {exc}"
        return self.finish(rec)


def run_pipeline(subjects, cfg: ToolConfig) -> list[PipelineRecord]:
    """Strip, bias-correct, and register each subject unless validly cached."""
    cfg.validate()
    subjects = list(subjects)
    stems = [Path(p).name.split(".")[0] for p in subjects]
    dupes = sorted(s for s, n in Counter(stems).items() if n > 1)
    if dupes:
        raise ValueError(f"subject ids derive from file stems and must be unique; duplicates: {dupes}")
    runner = _Runner(cfg)
    runner.cache.mkdir(parents=True, exist_ok=True)
    runner.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.jobs == 1:
        return [runner.process(p) for p in subjects]
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(runner.process, subjects))
