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
from dataclasses import asdict
from pathlib import Path

from .channel import ChannelParams, PowerConstraints
from .di_code import DICodebook, validate_codebook
from .errors import _check_int, _check_real

CODEBOOK_SCHEMA = "dipc-codebook/1"

# Every JSON document dipc reads (a config, a codebook) is checked against
# one field table, name -> (check, default).  A check maps a value to its
# problems (an empty list when the value is fine).  The default is
# _REQUIRED, None (an absent field stays absent), a constant, or a function
# of the fields before it.  Values are stored as given, never coerced, so a
# config digest is a function of the given values alone.
_REQUIRED = object()


def _rule(rule, *interval):
    """Check a number by ``rule`` (errors._check_int or _check_real) on ``interval``."""
    def check(value):
        try:
            rule("", value, *interval)
        except ValueError as exc:
            return [str(exc).lstrip()]
        return []
    return check


def _list(entry):
    """Check a nonempty list whose entries pass ``entry``, or a list of one entry per
    check of a tuple ``entry``; entries that are lists (rows) must be equally long.  The
    problem names the first bad entry: a book of 9,216 bad values gives one problem."""
    fixed = isinstance(entry, tuple)

    def check(value):
        if not isinstance(value, list) or (len(value) != len(entry) if fixed else not value):
            what = f"a list of {len(entry)} entries" if fixed else "a nonempty list"
            return [f"must be {what}, got {reprlib.repr(value)}"]
        for k, v in enumerate(value):
            for problem in (entry[k] if fixed else entry)(v)[:1]:
                return [f"[{k}]{'' if problem.startswith('[') else ': '}{problem}"]
        if len({len(v) for v in value if isinstance(v, list)}) > 1:
            return ["must hold rows of one length"]
        return []
    return check


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


_POSITIVE = _rule(_check_real, 0, math.inf, "()")
_NONNEGATIVE = _rule(_check_real, 0)
_BUDGET = _rule(_check_real, 0, 1)

_CHANNEL = {
    "memory": (_rule(_check_int, 0, 2**63), _REQUIRED),
    "hit_probs": (_list(_rule(_check_real, 0, 1, "[]")), _REQUIRED),
    "slot_duration": (_POSITIVE, None),
    "dark_rate": (_NONNEGATIVE, None),
}
_POWER = {"peak": (_POSITIVE, _REQUIRED), "average": (_POSITIVE, _REQUIRED)}
# the fields of every config and codebook that describe the link
_LINK = {
    "channel": (_object(_CHANNEL, build=lambda d: ChannelParams(**d)), _REQUIRED),
    "power": (_object(_POWER), _REQUIRED),
}

_CODEBOOK = {
    "schema": (lambda v: [], _REQUIRED),  # checked first
    **_LINK,
    "packing_radius": (_NONNEGATIVE, _REQUIRED),
    "type1_budget": (_BUDGET, _REQUIRED),
    "type2_budget": (_BUDGET, _REQUIRED),
    "threshold": (_rule(_check_real, -math.inf, math.inf, "[]"), _REQUIRED),
    "codewords": (_list(_list(_NONNEGATIVE)), _REQUIRED),
}


def codebook_to_dict(book: DICodebook) -> dict:
    return {
        "schema": CODEBOOK_SCHEMA,
        "channel": {**asdict(book.params), "hit_probs": book.params.hit_probs.tolist()},
        "power": asdict(book.constraints),
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
    book = DICodebook(data["codewords"], ChannelParams(**data["channel"]),
                      PowerConstraints(**data["power"]), data["packing_radius"],
                      data["type1_budget"], data["type2_budget"], data["threshold"])
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


def write_json(path, doc) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, whole."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def save_codebook(book: DICodebook, path) -> None:
    write_json(path, codebook_to_dict(book))


def _loads(text: str):
    """``json.loads``, raising ValueError on too deep nesting as on any other
    malformed text, not the parser's RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def read_json(path):
    """The JSON document in a UTF-8 file.  Raises OSError when the file cannot
    be read and ValueError when it is not UTF-8 JSON, too deep nesting included."""
    with open(path, encoding="utf-8") as fh:
        return _loads(fh.read())


def load_codebook(path) -> DICodebook:
    return codebook_from_dict(read_json(path))

