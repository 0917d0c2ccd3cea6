"""Pipeline configuration: one structured config, flag overrides, seed fanout."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from hashlib import blake2b

from . import corpus, metrics
from .citegraph import MetaPath


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    # inputs / outputs
    corpus_path: str = ""
    labels_path: str = ""
    output_dir: str = "out"
    embeddings_path: str | None = None  # optional external-embedding file

    # corpus
    min_paragraph_words: int = corpus.DEFAULT_MIN_PARAGRAPH_WORDS
    min_df: int = corpus.DEFAULT_MIN_DF

    # retrieval
    match_full_text: bool = False

    # citation graph / tuple sampling
    meta_path: str = "P->P<-P"
    tuple_count: int = 4000

    # scorer
    hash_dim: int = 2048
    embed_dim: int = 256
    batch_size: int = 8
    learning_rate: float = 1e-2
    warmup_steps: int = 100
    weight_decay: float = 0.01
    epsilon: float = 1e-8
    beta1: float = 0.9
    beta2: float = 0.999
    train_steps: int | None = None  # default: train_epochs passes
    train_epochs: int = 3

    # self-training
    pseudo_top_n: int = 5
    n_trees: int = 3
    max_leaf: int = 100
    beam_width: int = 10
    classifier_epochs: int = 20
    classifier_lr: float = 2.0
    classifier_l2: float = 1e-4

    # evaluation
    precision_ks: tuple[int, ...] = metrics.DEFAULT_PRECISION_KS
    ndcg_ks: tuple[int, ...] = metrics.DEFAULT_NDCG_KS
    propensity_a: float = metrics.DEFAULT_A
    propensity_b: float = metrics.DEFAULT_B
    top_k: int = 5
    ranking_limit: int | None = None  # cap stored rankings (>= 1); None keeps all labels

    # execution
    seed: int = 7
    threads: int = 1  # accepted and checked, with no effect: every stage runs serially
    use_hierarchy: bool = True  # ablation: False scores title+abstract only
    use_selftrain: bool = True  # ablation: False stops at the rank ensemble

    def validate(self):
        positive = ["min_paragraph_words", "min_df", "tuple_count", "hash_dim",
                    "embed_dim", "batch_size", "train_epochs",
                    "pseudo_top_n", "n_trees", "max_leaf", "beam_width",
                    "classifier_epochs", "top_k", "threads"]
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be nonnegative")
        for name in ["learning_rate", "classifier_lr", "epsilon"]:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ["weight_decay", "classifier_l2"]:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("moment decay rates must lie in [0, 1)")
        if self.train_steps is not None and self.train_steps < 1:
            raise ConfigError("train_steps must be positive when set")
        if self.ranking_limit is not None and self.ranking_limit < 1:
            raise ConfigError("ranking_limit must be positive when set")
        if not -2**63 <= self.seed < 2**63:  # stage_seed keys on its signed 8 bytes
            raise ConfigError("seed must lie in [-2**63, 2**63)")
        if self.propensity_b <= -1:  # the propensity constant takes (b + 1) ** a
            raise ConfigError("propensity_b must be greater than -1")
        if any(k < 1 for k in tuple(self.precision_ks) + tuple(self.ndcg_ks)):
            raise ConfigError("metric k values must be positive")
        try:
            MetaPath.parse(self.meta_path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    def stage_seed(self, stage: str) -> int:
        """Derive a per-stage seed from the root seed: 63-bit keyed hash of
        the stage name, so any stage reruns identically in isolation."""
        digest = blake2b(stage.encode("utf-8"), digest_size=8,
                         key=int(self.seed).to_bytes(8, "little", signed=True)).digest()
        return int.from_bytes(digest, "little") >> 1


_FIELD_TYPES = {f"{f.name}?": f.type for f in fields(PipelineConfig)}  # each has a default


def _checked(values: dict, where: str) -> dict:
    """``values`` if each key is a config field holding a value of its type;
    else ConfigError, its message prefixed with ``where``."""
    unknown = set(values) - {name[:-1] for name in _FIELD_TYPES}
    if unknown:
        raise ConfigError(f"{where}unknown config keys: {sorted(unknown)}")
    try:
        return corpus._check(values, _FIELD_TYPES)
    except TypeError as exc:
        raise ConfigError(f"{where}{exc}") from None


def _fault(values: dict) -> str | None:
    """The message PipelineConfig(**values).validate() fails with, or None."""
    try:
        PipelineConfig(**values).validate()
    except ConfigError as exc:
        return str(exc)
    return None


def make_config(file_path=None, overrides: dict | None = None) -> PipelineConfig:
    """Config file values first, explicit overrides on top. Each is checked
    before the merge, and a range fault that only the file's values cause
    is prefixed with the file, so a fault in the file names the file."""
    values: dict = {}
    if file_path:
        with open(file_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
                raise ConfigError(f"{file_path}: invalid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{file_path}: expected a JSON object")
        values.update(_checked(loaded, f"{file_path}: "))
    flags = _checked({k: v for k, v in (overrides or {}).items() if v is not None}, "")
    values.update(flags)
    for key in ("precision_ks", "ndcg_ks"):
        if key in values:
            values[key] = tuple(values[key])
    try:
        return PipelineConfig(**values).validate()
    except ConfigError as exc:
        # the file's fault when the flags alone, over the defaults, do not fail the same way
        if file_path and str(exc) != _fault(flags):
            raise ConfigError(f"{file_path}: {exc}") from None
        raise
