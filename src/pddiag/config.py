"""Run configuration: an INI document with typed sections, strict keys.

The ``[prior]``, ``[train]``, ``[preprocess]`` and ``[synth]`` sections take
their keys, order and defaults from the fields of the dataclass each one
configures (``AgingPriorParams``, ``TrainConfig``, ``ToolConfig``,
``SynthConfig``), so every setting is declared once, where it is used. A
field's ``config_key`` metadata renames its key (``ToolConfig.template_path``
is ``template``), and ``[synth] dims`` holds one cube edge in place of the
(D, H, W) triple. Only ``[model] channels``, ``[train] stage`` and ``[data]``
belong to no dataclass and are written out here.

Flags override file values; the effective config (defaults included) can be
dumped back out as INI, so a run is always reproducible from one document.
``RunConfig.digest`` hashes every setting but the ``[data]`` paths: it names
how a run runs, not where its files lie or whether flags or a file gave them.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
from dataclasses import dataclass, field

from .preprocess import ToolConfig
from .priors import AgingPriorParams
from .synth import SynthConfig
from .training import TrainConfig


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("config_key", f.name)


def _section(cls) -> dict[str, object]:
    """The config keys and defaults of a dataclass's fields, in declaration order."""
    return {_key(f): f.default for f in dataclasses.fields(cls)}


# section -> key -> default (type of the default fixes the parse type)
SCHEMA: dict[str, dict[str, object]] = {
    "prior": _section(AgingPriorParams),
    "model": {"channels": 8},
    "train": {"stage": 1, **_section(TrainConfig)},
    "data": {"cohort_manifest": "", "atlas_path": "", "relevance_csv": ""},
    "preprocess": _section(ToolConfig),
    "synth": {**_section(SynthConfig), "dims": SynthConfig.dims[0]},
}


class ConfigError(ValueError):
    pass


def _coerce(section: str, key: str, raw: str):
    default = SCHEMA[section][key]
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {type(default).__name__}")


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]] = field(
        default_factory=lambda: {s: dict(keys) for s, keys in SCHEMA.items()}
    )

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set(self, section: str, key: str, raw) -> None:
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        self.values[section][key] = _coerce(section, key, str(raw))

    def _build(self, cls, section: str, **special):
        """``cls`` from a section's values; ``special`` gives fields not stored as they are."""
        values = self.values[section]
        return cls(**({f.name: values[_key(f)] for f in dataclasses.fields(cls)} | special))

    def prior(self) -> AgingPriorParams:
        return self._build(AgingPriorParams, "prior")

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig, "train")

    def synth_config(self) -> SynthConfig:
        return self._build(SynthConfig, "synth", dims=(self.values["synth"]["dims"],) * 3)

    def tool_config(self) -> ToolConfig:
        return self._build(ToolConfig, "preprocess")

    def dump(self) -> str:
        lines = []
        for section, keys in SCHEMA.items():
            lines.append(f"[{section}]")
            for key in keys:
                v = self.values[section][key]
                lines.append(f"{key} = {v!r}" if isinstance(v, float) else f"{key} = {v}")
            lines.append("")
        return "\n".join(lines)

    def digest(self) -> str:
        """A hash of every setting but the ``[data]`` paths: the dump with ``[data]`` at its defaults."""
        settings = RunConfig(self.values | {"data": dict(SCHEMA["data"])})
        return hashlib.sha256(settings.dump().encode()).hexdigest()[:16]


def load_config(path=None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"unknown config keys in [DEFAULT]: {sorted(parser.defaults())}")
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            cfg.set(section, key, raw)
    return cfg
