"""Orchestration of the three external preprocessing steps with caching.

The pipeline shells out to configurable commands for skull stripping, bias
field correction, and registration to a standard template, in the fixed
order of ``STEPS``, each step reading the previous step's output. Results
are cached by a digest of the raw input plus the resolved command strings,
so rerunning is free and changing a tool or flag invalidates the cache.
The manifest is a JSON-lines file; a record is appended only after the
subject's final output is in place, which keeps a killed run from claiming
unfinished work. A subject's work directory is removed when the subject
finishes, whether or not it succeeded. Tool stdout is discarded; a failed
step's error quotes the tool's stderr, with undecodable bytes replaced.
"""

from __future__ import annotations

import dataclasses
import functools
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

    def commands(self) -> tuple[str, ...]:
        """The command templates in ``STEPS`` order."""
        return tuple(getattr(self, f"{step}_cmd") for step in STEPS)


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
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_manifest(path: Path) -> dict[str, dict]:
    """Last completed record per subject wins; a line that is no record is ignored."""
    entries: dict[str, dict] = {}
    if not path.exists():
        return entries
    with open(path, "rb") as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError):
                continue  # torn write from a killed run, undecodable bytes, or nesting too deep
            if isinstance(rec, dict) and isinstance(rec.get("subject_id"), str):
                entries[rec["subject_id"]] = rec
    return entries


class _Runner:
    def __init__(self, cfg: ToolConfig):
        """Check every template and ``jobs`` before any subject runs; a bad one is a ``ToolConfigError``."""
        if cfg.jobs < 1:
            raise ToolConfigError(f"jobs must be >= 1, got {cfg.jobs}")
        self.cfg = cfg
        cache = Path(cfg.cache_dir)
        self.out_dir = cache / "out"
        self.tmp_root = cache / "tmp"
        self.manifest_path = cache / "manifest.jsonl"
        self.lock = threading.Lock()
        self.known = _load_manifest(self.manifest_path)
        # split once per run; placeholders are filled per token, so a path with spaces stays one argument
        self.argvs: dict[str, list[str]] = {}
        for step, cmd in zip(STEPS, cfg.commands()):
            needs = ("{input}", "{output}", "{template}") if step == "register" else ("{input}", "{output}")
            for ph in needs:
                if ph not in cmd:
                    raise ToolConfigError(f"{step} command template missing {ph} placeholder: {cmd!r}")
            try:
                self.argvs[step] = shlex.split(cmd)
            except ValueError as exc:
                raise ToolConfigError(f"cannot split command template {cmd!r}: {exc}") from exc
            try:
                self.fill(self.argvs[step], "input", "output")
            except (AttributeError, IndexError, KeyError, ValueError) as exc:
                msg = f"cannot fill command template {cmd!r}: {exc!r}; write a literal brace as {{{{ or }}}}"
                raise ToolConfigError(msg) from exc
        # resolved once per program and run; a missing program still fails each step that runs it
        self.which = functools.lru_cache(maxsize=None)(shutil.which)

    def cache_key(self, raw_digest: str) -> str:
        h = hashlib.sha256()
        h.update(raw_digest.encode())
        for cmd in self.cfg.commands():
            h.update(cmd.encode())
        h.update(str(self.cfg.template_path).encode())
        return h.hexdigest()

    def fill(self, tokens: list[str], input_path, output_path) -> list[str]:
        paths = {"input": str(input_path), "output": str(output_path), "template": str(self.cfg.template_path)}
        return [token.format(**paths) for token in tokens]

    def run_step(self, step: str, input_path: Path, output_path: Path) -> None:
        argv = self.fill(self.argvs[step], input_path, output_path)
        if self.which(argv[0]) is None:
            raise FileNotFoundError(f"command not found: {argv[0]}")
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip()[:500]
            raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {stderr}")
        if not output_path.exists():
            raise RuntimeError(f"{argv[0]} exited 0 but produced no output at {output_path}")

    def process(self, raw_path, sid: str) -> PipelineRecord:
        """Run or reuse one subject's steps; an ``OSError`` outside them is recorded with its stage."""
        raw = Path(raw_path)
        rec = PipelineRecord(subject_id=sid, started_at=time.time())
        final = self.out_dir / f"{sid}.nii"
        tmp = self.tmp_root / sid
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
            else:
                stage = "preparing the work directory"
                tmp.mkdir(parents=True, exist_ok=True)
                src = raw
                for step in STEPS:
                    dst = tmp / f"{step}.nii"
                    try:
                        self.run_step(step, src, dst)
                    except Exception as exc:
                        rec.steps[step] = "failed"
                        rec.error = str(exc)
                        break
                    rec.steps[step] = "ran"
                    src = dst
                else:
                    stage = "finalising the output"
                    src.replace(final)
                    rec.output_path, rec.digest = str(final), _sha256_file(final)
        except OSError as exc:
            rec.error = f"{stage}: {exc}"
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        rec.finished_at = time.time()
        with self.lock, open(self.manifest_path, "a") as fh:
            fh.write(rec.to_json() + "\n")
        return rec


def run_pipeline(subjects, cfg: ToolConfig) -> list[PipelineRecord]:
    """Strip, bias-correct, and register each subject unless validly cached."""
    runner = _Runner(cfg)
    subjects = list(subjects)
    stems = [Path(p).name.split(".")[0] for p in subjects]
    dupes = sorted(s for s, n in Counter(stems).items() if n > 1)
    if dupes:
        raise ValueError(f"subject ids derive from file stems and must be unique; duplicates: {dupes}")
    runner.out_dir.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(runner.process, subjects, stems))
