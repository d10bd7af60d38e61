"""Experiment configuration: JSON schema, validation, hashing, overrides.

Configs are plain JSON objects mirrored by nested dataclasses.  Unknown keys
are rejected with the full field path and the list of valid keys at that
level.  The config hash is the SHA-256 of the canonical JSON text (sorted
keys, compact separators) and names the results directory; file-location
fields are excluded so the same experiment keeps its identity wherever its
inputs and outputs live.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

__all__ = [
    "ConfigError",
    "ModelConfig",
    "OptimizerConfig",
    "RegularizationConfig",
    "VariantFlags",
    "BpmnistOptions",
    "ExperimentConfig",
    "config_hash",
    "parse_override",
    "apply_overrides",
    "valid_override_keys",
    "json_object",
]

EXPERIMENTS = ("addmul", "doubleadd", "algo", "bpmnist")
MODEL_KINDS = ("fnn", "smfr", "transformer")
ATTENTION_KINDS = ("softmax", "gumbel_st")


class ConfigError(ValueError):
    """Invalid config content; message carries the offending field path."""


@dataclass
class ModelConfig:
    kind: str = "smfr"
    # smfr
    stack_width: int = 5
    stack_depth: int = 1
    fnn_hidden: list = field(default_factory=lambda: [100])
    attention: str = "softmax"
    gumbel_temperature: float = 1.0
    # fnn
    hidden_widths: list = field(default_factory=lambda: [100, 100])
    # transformer
    model_width: int = 64
    num_heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    ffn_width: int = 128


@dataclass
class OptimizerConfig:
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass
class RegularizationConfig:
    enabled: bool = True
    threshold: float = 20.0


@dataclass
class VariantFlags:
    bias: bool = False
    no_context: bool = False
    noisy_permutation: bool = False
    alternate_split: bool = False


@dataclass
class BpmnistOptions:
    # checkpoint marks are 25k and 250k scaled by this factor
    scale: float = 0.2
    indicator: bool = True
    eval_subset: int = 1024
    probe_size: int = 512


@dataclass
class ExperimentConfig:
    experiment: str = "doubleadd"
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    regularization: RegularizationConfig = field(default_factory=RegularizationConfig)
    variants: VariantFlags = field(default_factory=VariantFlags)
    bpmnist: BpmnistOptions = field(default_factory=BpmnistOptions)
    clip_norm: float = 0.1
    batch_size: int = 64
    max_steps: int = 50000
    eval_every: int = 250
    full_eval_every: int = 1000
    # addmul only
    threshold: float = 0.7
    interference_steps: int = 2000
    # consecutive full-accuracy evaluations before stopping early; 0 disables
    early_stop_evals: int = 10
    loss_per_step: bool = False
    results_dir: str = "results"
    data_dir: str = ""

    def validate(self) -> "ExperimentConfig":
        for key in valid_override_keys():
            value = functools.reduce(getattr, key.split("."), self)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.model.kind not in MODEL_KINDS:
            raise ConfigError(f"model.kind: must be one of {MODEL_KINDS}, got {self.model.kind!r}")
        if self.model.attention not in ATTENTION_KINDS:
            raise ConfigError(
                f"model.attention: must be one of {ATTENTION_KINDS}, got {self.model.attention!r}")
        if not 0 < self.threshold <= 1:
            raise ConfigError(f"threshold: must be in (0, 1], got {self.threshold}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        for name in ("batch_size", "max_steps", "eval_every", "full_eval_every",
                     "interference_steps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive, got {getattr(self, name)}")
        if self.early_stop_evals < 0:
            raise ConfigError(f"early_stop_evals: must be >= 0, got {self.early_stop_evals}")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm: must be positive, got {self.clip_norm}")
        opt = self.optimizer
        for name in ("learning_rate", "epsilon"):
            if getattr(opt, name) <= 0:
                raise ConfigError(f"optimizer.{name}: must be positive, got {getattr(opt, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(opt, name) < 1:
                raise ConfigError(f"optimizer.{name}: must be in [0, 1), got {getattr(opt, name)}")
        if self.model.gumbel_temperature <= 0:
            raise ConfigError(
                f"model.gumbel_temperature: must be positive, got {self.model.gumbel_temperature}")
        if self.regularization.threshold <= 0:
            raise ConfigError("regularization.threshold: must be positive")
        if self.model.stack_depth < 0:
            raise ConfigError(f"model.stack_depth: must be >= 0, got {self.model.stack_depth}")
        for name in ("stack_width", "model_width", "num_heads", "encoder_layers",
                     "decoder_layers", "ffn_width"):
            if getattr(self.model, name) <= 0:
                raise ConfigError(f"model.{name}: must be positive, got {getattr(self.model, name)}")
        if self.model.model_width % self.model.num_heads:
            raise ConfigError(f"model.model_width: {self.model.model_width} is not divisible "
                              f"by model.num_heads {self.model.num_heads}")
        for listfield in ("fnn_hidden", "hidden_widths"):
            v = getattr(self.model, listfield)
            if not isinstance(v, list) or any(
                    isinstance(w, bool) or not isinstance(w, int) or w <= 0 for w in v):
                raise ConfigError(f"model.{listfield}: must be a list of positive ints, got {v!r}")
        for name in ("scale", "eval_subset", "probe_size"):
            value = getattr(self.bpmnist, name)
            if value <= 0:
                raise ConfigError(f"bpmnist.{name}: must be positive, got {value}")
        if self.variants.bias and (self.model.kind != "smfr" or self.experiment != "bpmnist"):
            raise ConfigError("variants.bias: only applies to model.kind smfr on the bpmnist "
                              "experiment")
        if self.variants.no_context and self.model.kind != "smfr":
            raise ConfigError("variants.no_context: only applies to model.kind smfr")
        if self.variants.noisy_permutation and self.experiment != "algo":
            raise ConfigError("variants.noisy_permutation: only applies to the algo experiment")
        if self.variants.alternate_split and self.experiment not in ("addmul", "doubleadd"):
            raise ConfigError(
                "variants.alternate_split: only applies to the addmul and doubleadd experiments")
        if self.loss_per_step and self.experiment != "algo":
            raise ConfigError("loss_per_step: only applies to the algo experiment")
        # the 1-9 iteration sweep runs on evaluation steps only
        if self.experiment == "algo" and self.full_eval_every % self.eval_every:
            raise ConfigError(f"full_eval_every: must be a multiple of eval_every on the algo "
                              f"experiment, got {self.full_eval_every} and {self.eval_every}")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return _from_dict(cls, data, path="")


def json_object(text: str, what: str) -> dict:
    """``text`` parsed as a JSON object; a ConfigError naming ``what`` (a
    config, a grid spec) when it is not valid JSON or not an object."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return data


# the JSON types a leaf field accepts, and their name in an error; an int is
# a number too, while a bool, though an int in Python, is neither
_LEAF_TYPES = {int: ((int,), "integer"), float: ((int, float), "number"),
               str: ((str,), "string"), bool: ((bool,), "boolean"), list: ((list,), "list")}


def _coerce_leaf(value, annot, path: str):
    if annot not in _LEAF_TYPES:
        raise ConfigError(f"{path}: unsupported field type {annot!r}")
    accepted, name = _LEAF_TYPES[annot]
    if not isinstance(value, accepted) or (isinstance(value, bool) and annot is not bool):
        raise ConfigError(f"{path}: expected {name}, got {type(value).__name__}")
    return annot(value)


def _from_dict(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(
            f"{path + '.' if path else ''}{unknown[0]}: unknown key; valid keys here: "
            + ", ".join(sorted(fields)))
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name not in data:
            continue
        sub_path = f"{path}.{name}" if path else name
        ftype = hints[name]
        if dataclasses.is_dataclass(ftype):
            kwargs[name] = _from_dict(ftype, data[name], sub_path)
        else:
            kwargs[name] = _coerce_leaf(data[name], ftype, sub_path)
    return cls(**kwargs)


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# Location fields do not change what an experiment computes, only where its
# files go, so they stay out of the identity hash.
_UNHASHED = ("results_dir", "data_dir")


def config_hash(cfg: ExperimentConfig) -> str:
    data = cfg.to_dict()
    for key in _UNHASHED:
        data.pop(key, None)
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()[:16]


def valid_override_keys(cls=ExperimentConfig, prefix: str = "") -> list[str]:
    keys = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        ftype = hints[f.name]
        dotted = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(ftype):
            keys.extend(valid_override_keys(ftype, prefix=f"{dotted}."))
        else:
            keys.append(dotted)
    return keys


def parse_override(text: str) -> tuple[str, object]:
    """Parse one ``dotted.path=value`` override; values parse as JSON first,
    falling back to a bare string."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if key not in valid_override_keys():
        raise ConfigError(
            f"unknown override key {key!r}; valid keys: " + ", ".join(valid_override_keys()))
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def apply_overrides(data: dict, overrides) -> dict:
    """Apply parsed (key, value) pairs onto a raw config dict."""
    for key, value in overrides:
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{key}: {part} is not an object")
        node[parts[-1]] = value
    return data
