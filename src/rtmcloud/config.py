"""Pipeline configuration: one JSON document, every key a dotted CLI flag.

The dataclass tree mirrors the JSON layout; ``add_config_flags`` turns every
leaf into an argparse option of the same dotted name (--model.nz, --map.workers,
...), so a config file and command line compose with the flag winning.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, get_args, get_type_hints


@dataclass(frozen=True)
class ModelConfig:
    nz: int = 101
    nx: int = 101
    dz: float = 10.0
    dx: float = 10.0
    layer_velocities: tuple = (1500.0,)


@dataclass(frozen=True)
class SurveyConfig:
    n_receivers: int = 8  # shots after reciprocity
    n_sources: int = 48  # receivers per shot after reciprocity
    record_time: float = 1.4
    dt_record: float | None = None  # None: pick a CFL-stable step


@dataclass(frozen=True)
class WaveletConfig:
    peak_frequency: float = 15.0


@dataclass(frozen=True)
class ScattererConfig:
    z: float = 500.0
    x: float = 510.0
    relative_amplitude: float = 0.10
    half_cells: int = 1


@dataclass(frozen=True)
class MapConfig:
    workers: int = 2
    max_attempts: int = 2


@dataclass(frozen=True)
class ReduceConfig:
    fan_in: int = 10
    parallel: int = 2
    poll_interval: float = 0.05
    deadline: float = 600.0


@dataclass(frozen=True)
class StoreConfig:
    root: str | None = None  # default: <out_dir>/store


@dataclass(frozen=True)
class QueueConfig:
    root: str | None = None  # default: <out_dir>/queue
    visibility_seconds: float = 120.0


@dataclass(frozen=True)
class PricingConfig:
    on_demand_rate: float = 3.629
    low_priority_discount_factor: float = 3.0
    billing_granularity: float = 1.0


@dataclass(frozen=True)
class ReportConfig:
    vm_counts: str | None = None  # comma list; default derived from job count


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 42
    out_dir: str = "rtm_out"
    model: ModelConfig = field(default_factory=ModelConfig)
    survey: SurveyConfig = field(default_factory=SurveyConfig)
    wavelet: WaveletConfig = field(default_factory=WaveletConfig)
    scatterer: ScattererConfig = field(default_factory=ScattererConfig)
    map: MapConfig = field(default_factory=MapConfig)
    reduce: ReduceConfig = field(default_factory=ReduceConfig)
    store: StoreConfig = field(default_factory=StoreConfig)
    queue: QueueConfig = field(default_factory=QueueConfig)
    pricing: PricingConfig = field(default_factory=PricingConfig)
    report: ReportConfig = field(default_factory=ReportConfig)

    def __post_init__(self):
        # 0 workers would wait out the deadline, a zero visibility or deadline
        # would fail only after the map phase, a zero poll would spin
        for dotted in ("map.workers", "queue.visibility_seconds", "reduce.deadline",
                       "reduce.poll_interval"):
            section, name = dotted.split(".")
            value = getattr(getattr(self, section), name)
            if not value > 0:
                raise ValueError(f"config key {dotted} must be > 0, not {value!r}")

    def store_root(self) -> Path:
        return Path(self.store.root) if self.store.root else Path(self.out_dir) / "store"

    def queue_root(self) -> Path:
        return Path(self.queue.root) if self.queue.root else Path(self.out_dir) / "queue"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _from_dict(cls, data: dict, prefix: str = ""):
    """``cls`` from its JSON section; ValueError naming the dotted key of any
    unknown key, non-object section, leaf not of its annotated type or value
    out of its range."""
    if not isinstance(data, dict):
        where = f"section {prefix[:-1]}" if prefix else "document"
        raise ValueError(f"config {where} must be a JSON object, not {data!r}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if _section(f):
            kwargs[f.name] = _from_dict(f.default_factory, value, f"{prefix}{f.name}.")
        else:
            kwargs[f.name] = _checked_leaf(cls, f, value, prefix + f.name)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(prefix + k for k in sorted(unknown))}")
    return cls(**kwargs)


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    with open(path) as f:
        return _from_dict(PipelineConfig, json.load(f))


def config_from_dict(data: dict) -> PipelineConfig:
    return _from_dict(PipelineConfig, data)


def _section(f) -> bool:
    """A field holding a nested config dataclass rather than a leaf value."""
    sub = f.default_factory
    return isinstance(sub, type) and dataclasses.is_dataclass(sub)


def _walk(cls, prefix: str = ""):
    """Yield (dotted name, owning dataclass, field) for every leaf."""
    for f in dataclasses.fields(cls):
        dotted = f"{prefix}{f.name}"
        if _section(f):
            yield from _walk(f.default_factory, dotted + ".")
        else:
            yield dotted, cls, f


@functools.cache
def _hints(cls) -> dict:
    """The resolved field annotations of config dataclass ``cls``."""
    return get_type_hints(cls)


def _leaf_type(cls, f) -> type:
    """The argparse type of a leaf: its annotation, minus any ``| None``."""
    hint = _hints(cls)[f.name]
    members = [t for t in get_args(hint) if t is not type(None)]
    return members[0] if members else hint


def _is_a(value, typ: type) -> bool:
    """JSON's view of ``typ``: an int is a float, a bool is neither."""
    if isinstance(value, bool):
        return typ is bool
    return isinstance(value, (int, float) if typ is float else typ)


def _checked_leaf(cls, f, value, dotted: str):
    """``value`` for leaf ``f`` of ``cls``, a list as a tuple of floats."""
    if value is None and type(None) in get_args(_hints(cls)[f.name]):
        return None
    typ = _leaf_type(cls, f)
    if typ is tuple and isinstance(value, (list, tuple)) and all(_is_a(v, float) for v in value):
        return tuple(value)
    if typ is not tuple and _is_a(value, typ):
        return value
    what = "a list of numbers" if typ is tuple else f"of type {typ.__name__}"
    raise ValueError(f"config key {dotted} must be {what}, not {value!r}")


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="pipeline config JSON")
    for dotted, cls, f in _walk(PipelineConfig):
        typ = _leaf_type(cls, f)
        if typ is tuple:
            parser.add_argument(
                f"--{dotted}",
                dest=dotted,
                type=lambda s: tuple(float(x) for x in s.split(",")),
                default=None,
                help=f"override {dotted} (comma-separated)",
            )
        else:
            parser.add_argument(
                f"--{dotted}", dest=dotted, type=typ, default=None, help=f"override {dotted}"
            )


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(getattr(args, "config", None))
    data = cfg.to_dict()
    for dotted, _, _ in _walk(PipelineConfig):
        value = getattr(args, dotted, None)
        if value is None:
            continue
        node: Any = data
        *parents, leaf = dotted.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    return _from_dict(PipelineConfig, data)
