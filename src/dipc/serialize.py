"""JSON schema for codebooks and their channels, and the one way dipc
writes a file: whole, or not at all.

A codebook document carries a schema tag; the loader rejects versions it
does not know.  Float values round-trip exactly (json uses repr), so a
saved codebook reproduces the original decoder behavior bit for bit.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .channel import ChannelParams, PowerConstraints
from .di_code import DICodebook, validate_codebook

CODEBOOK_SCHEMA = "dipc-codebook/1"
_CODEBOOK_FIELDS = {"channel", "power", "packing_radius", "type1_budget", "type2_budget",
                    "threshold", "codewords"}


def channel_to_dict(params: ChannelParams) -> dict:
    return {
        "memory": params.memory,
        "hit_probs": [float(p) for p in params.hit_probs],
        "slot_duration": params.slot_duration,
        "dark_rate": params.dark_rate,
    }


def _check_object(name: str, data, required=()) -> None:
    """ValueError naming ``name`` unless ``data`` is an object with the required fields."""
    if not isinstance(data, dict):
        raise ValueError(f"{name}: expected a JSON object, got {type(data).__name__}")
    missing = sorted(set(required) - set(data))
    if missing:
        raise ValueError(f"{name}: missing fields {missing}")


def channel_from_dict(data: dict) -> ChannelParams:
    """The channel of a JSON object; slot_duration and dark_rate default to
    1.0 and 0.0.  Raises ValueError on missing or inconsistent fields."""
    _check_object("channel", data, ("memory", "hit_probs"))
    return ChannelParams(
        memory=data["memory"],
        hit_probs=np.asarray(data["hit_probs"], dtype=float),
        slot_duration=data.get("slot_duration", 1.0),
        dark_rate=data.get("dark_rate", 0.0),
    )


def codebook_to_dict(book: DICodebook) -> dict:
    return {
        "schema": CODEBOOK_SCHEMA,
        "channel": channel_to_dict(book.params),
        "power": {"peak": book.constraints.peak, "average": book.constraints.average},
        "packing_radius": book.packing_radius,
        "type1_budget": book.type1_budget,
        "type2_budget": book.type2_budget,
        "threshold": book.threshold,
        "codewords": [[float(v) for v in row] for row in book.codewords],
    }


def codebook_from_dict(data: dict) -> DICodebook:
    """The codebook of a JSON document, checked by :func:`validate_codebook`."""
    _check_object("codebook", data)
    if data.get("schema") != CODEBOOK_SCHEMA:
        raise ValueError(f"unknown codebook schema {data.get('schema')!r}")
    _check_object("codebook", data, _CODEBOOK_FIELDS)
    _check_object("power", data["power"])
    odd = sorted(set(data["power"]) ^ {"peak", "average"}, key=str)
    if odd:
        raise ValueError(f"power: missing or unknown fields {odd}")
    book = DICodebook(
        codewords=np.asarray(data["codewords"], dtype=float),
        params=channel_from_dict(data["channel"]),
        constraints=PowerConstraints(**data["power"]),
        packing_radius=data["packing_radius"],
        type1_budget=data["type1_budget"],
        type2_budget=data["type2_budget"],
        threshold=data["threshold"],
    )
    validate_codebook(book)
    return book


@contextmanager
def atomic_open(path, newline=None):
    """Open a UTF-8 text file that replaces ``path`` once the ``with`` block
    completes.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` then renames over ``path``: a reader finds the old file or
    the new one, never a part of either.  If the block raises, the temporary
    file is removed and ``path`` is left as it was.  Nothing is flushed to
    the disk (no fsync): this covers a failed run, not a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_codebook(book: DICodebook, path) -> None:
    with atomic_open(path) as fh:
        json.dump(codebook_to_dict(book), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_codebook(path) -> DICodebook:
    with open(path, encoding="utf-8") as fh:
        return codebook_from_dict(json.load(fh))

