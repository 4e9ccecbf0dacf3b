"""The JSON codec shared by every learned artifact.

An artifact is a dataclass that mixes in ``JsonArtifact``.  It is stored as
one key per field, in field order: arrays as nested lists, nested artifacts
as nested objects, and non-finite floats as "inf", "-inf" or "nan".
Loading rebuilds each value from the field's annotation (``float``, ``int``,
``np.ndarray``, ``X | None``, ``dict[str, float]``, a nested artifact;
anything else is taken as stored).  A key that is neither a field nor a
read-only property is an error, and so is a missing field without a default.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

import numpy as np


def _encode(v):
    if isinstance(v, JsonArtifact):
        return v.to_json_dict()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if isinstance(v, dict):
        return {k: _encode(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_encode(x) for x in v]
    return v


def _decode_array(v) -> np.ndarray:
    """Integer lists (rank tables) stay integer; all other arrays are float64."""
    a = np.asarray(v)
    return a if a.dtype.kind == "i" else a.astype(np.float64, copy=False)


def _decoder(tp):
    """value -> field value, for the field annotation ``tp``."""
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [t for t in typing.get_args(tp) if t is not type(None)]
        decode = _decoder(inner)
        return lambda v: None if v is None else decode(v)
    if origin is dict and typing.get_args(tp):
        decode = _decoder(typing.get_args(tp)[1])
        return lambda v: {k: decode(x) for k, x in v.items()}
    if tp is np.ndarray:
        return _decode_array
    if tp in (float, int):
        return tp                     # float("inf") and float("nan") parse the encoded strings
    if isinstance(tp, type) and issubclass(tp, JsonArtifact):
        return tp.from_json_dict
    return lambda v: v


@functools.cache
def _schema(cls) -> tuple[dict, frozenset]:
    """(field name -> decoder, names of the fields without a default) for ``cls``."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    decoders = {f.name: _decoder(hints[f.name]) for f in fields}
    required = frozenset(f.name for f in fields if f.default is dataclasses.MISSING
                         and f.default_factory is dataclasses.MISSING)
    return decoders, required


def _is_read_only_property(cls, name: str) -> bool:
    attr = getattr(cls, name, None)
    return isinstance(attr, property) and attr.fset is None


class JsonArtifact:
    """``to_json_dict``/``from_json_dict`` for a dataclass, derived from its fields."""

    def to_json_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_json_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__}: expected a JSON object, got {type(d).__name__}")
        decoders, required = _schema(cls)
        unknown = [k for k in d if k not in decoders and not _is_read_only_property(cls, k)]
        if unknown:
            raise ValueError(f"{cls.__name__}: unknown keys {unknown}")
        missing = sorted(required - d.keys())
        if missing:
            raise ValueError(f"{cls.__name__}: missing keys {missing}")
        return cls(**{k: decode(d[k]) for k, decode in decoders.items() if k in d})
