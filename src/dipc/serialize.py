"""The field tables that check every JSON document dipc reads, the JSON
schema for codebooks and their channels, and the one way dipc writes a
file: whole, or not at all.

A codebook document carries a schema tag; the loader rejects versions it
does not know.  Float values round-trip exactly (json uses repr), so a
saved codebook reproduces the original decoder behavior bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .channel import ChannelParams, PowerConstraints
from .di_code import DICodebook, validate_codebook

CODEBOOK_SCHEMA = "dipc-codebook/1"

# Every JSON document dipc reads (a config, a codebook) is checked against
# one field table, name -> (check, default).  A check maps a value to its
# problems (an empty list when the value is fine).  The default is
# _REQUIRED, None (an absent field stays absent), a constant, or a function
# of the fields before it.  Values are stored as given, never coerced, so a
# config digest is a function of the given values alone.
_REQUIRED = object()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """An int or float, not a bool, not NaN, within the float range."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and not math.isnan(v)
    except OverflowError:  # an int beyond the float range
        return False


def _check(test, what):
    """Check that ``test(value)`` holds; otherwise the value must be ``what``.
    The message abbreviates a long value: a codebook's rows run to tens of kB."""
    return lambda v: [] if test(v) else [f"must be {what}, got {reprlib.repr(v)}"]


def _integer(low, bits=63):
    """An integer in [low, 2**bits); sizes and counts fit numpy's int64."""
    return _check(lambda v: _is_int(v) and low <= v < 2**bits,
                  f"an integer in [{low}, 2**{bits})")


def _number(test, what):
    return _check(lambda v: _is_number(v) and test(v), f"a number {what}")


def _is_list(v, test) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(test(x) for x in v)


def _list(test, what):
    return _check(lambda v: _is_list(v, test), f"a nonempty list of {what}")


def _object(table, build=None):
    """Check a nested object against its field table, then report the
    ValueError ``build`` raises on fields that do not fit together."""
    def check(value):
        if not isinstance(value, dict):
            return ["must be an object"]
        problems = _problems(table, value)
        if not problems and build is not None:
            try:
                build(value)
            except ValueError as exc:
                problems.append(str(exc))
        return problems
    return check


def _problems(table: dict, value: dict) -> list[str]:
    """Unknown, missing and malformed fields of one object."""
    unknown = sorted(set(value) - set(table), key=str)
    problems = [f"unknown fields {unknown}"] if unknown else []
    for name, (check, default) in table.items():
        if name in value:
            problems += [f"{name}: {problem}" for problem in check(value[name])]
        elif default is _REQUIRED:
            problems.append(f"{name}: required")
    return problems


def channel_to_dict(params: ChannelParams) -> dict:
    return {
        "memory": params.memory,
        "hit_probs": [float(p) for p in params.hit_probs],
        "slot_duration": params.slot_duration,
        "dark_rate": params.dark_rate,
    }


def channel_from_dict(data: dict) -> ChannelParams:
    """The channel of a table-checked JSON object; slot_duration and dark_rate
    default to 1.0 and 0.0.  Raises ValueError on inconsistent fields."""
    return ChannelParams(
        memory=data["memory"],
        hit_probs=np.asarray(data["hit_probs"], dtype=float),
        slot_duration=data.get("slot_duration", 1.0),
        dark_rate=data.get("dark_rate", 0.0),
    )


_POSITIVE = _number(lambda v: 0 < v < math.inf, "in (0, inf)")
_NONNEGATIVE = _number(lambda v: 0 <= v < math.inf, "in [0, inf)")
_BUDGET = _number(lambda v: 0 <= v < 1, "in [0, 1)")

_CHANNEL = {
    "memory": (_integer(0), _REQUIRED),
    "hit_probs": (_list(lambda p: _is_number(p) and 0 <= p <= 1, "numbers in [0, 1]"), _REQUIRED),
    "slot_duration": (_POSITIVE, None),
    "dark_rate": (_NONNEGATIVE, None),
}
_POWER = {"peak": (_POSITIVE, _REQUIRED), "average": (_POSITIVE, _REQUIRED)}
# the fields of every config and codebook that describe the link
_LINK = {
    "channel": (_object(_CHANNEL, build=channel_from_dict), _REQUIRED),
    "power": (_object(_POWER), _REQUIRED),
}

_CODEBOOK = {
    "schema": (lambda v: [], _REQUIRED),  # checked first
    **_LINK,
    "packing_radius": (_NONNEGATIVE, _REQUIRED),
    "type1_budget": (_BUDGET, _REQUIRED),
    "type2_budget": (_BUDGET, _REQUIRED),
    "threshold": (_check(_is_number, "a number"), _REQUIRED),
    "codewords": (_check(lambda v: _is_list(v, lambda row: _is_list(row, _is_number))
                         and len(set(map(len, v))) == 1,
                         "a nonempty list of equal-length nonempty lists of numbers"), _REQUIRED),
}


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
    """The codebook of a JSON document, checked against the codebook field
    table and then by :func:`validate_codebook`.  Raises one ValueError
    listing every malformed field."""
    if isinstance(data, dict) and data.get("schema") != CODEBOOK_SCHEMA:
        raise ValueError(f"unknown codebook schema {data.get('schema')!r}")
    problems = _object(_CODEBOOK)(data)
    if problems:
        raise ValueError("codebook: " + "; ".join(problems))
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
    """Write ``json.dumps(codebook_to_dict(book), sort_keys=True, indent=2)``
    and a newline, byte for byte.

    json indents through its pure-Python encoder, so the codeword rows,
    nearly all of the text, go through its C encoder on one line and are
    broken into lines here: the rows hold numbers only.
    """
    doc = codebook_to_dict(book)
    rows = (json.dumps(doc.pop("codewords"))
            .replace("], [", "\n    ],\n    [\n      ").replace(", ", ",\n      ")
            .replace("[[", "[\n    [\n      ").replace("]]", "\n    ]\n  ]"))
    text = json.dumps({**doc, "codewords": 0}, sort_keys=True, indent=2)
    with atomic_open(path) as fh:
        fh.write(text.replace('"codewords": 0', '"codewords": ' + rows, 1) + "\n")


def read_json(path):
    """The JSON document in a UTF-8 file.  Raises OSError when the file cannot
    be read and ValueError when it is not UTF-8 JSON, too deep nesting included."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def load_codebook(path) -> DICodebook:
    return codebook_from_dict(read_json(path))

