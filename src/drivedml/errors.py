"""Exception hierarchy shared across the package, and the checks on
input from outside the program: ``utf8_text`` for text files and
``checked_json`` for JSON documents.

CLI exit codes map onto these classes: ValidationError -> 2,
EstimationError -> 3, OSError -> 4.
"""

import csv
import functools
import io
import json
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints


class ValidationError(ValueError):
    """Bad input data: malformed header or cell, bound violation, unknown variable."""


class SignalError(ValidationError):
    """A raw signal cannot be processed (too short, non-positive window)."""


class NoSignalError(SignalError):
    """Input carries no usable signal (flatline ECG, no breath cycles)."""


class EstimationError(RuntimeError):
    """Model fitting failed (rank deficiency, degenerate inputs)."""


class StratificationError(EstimationError):
    """A cross-fitting fold misses a treatment level entirely."""


@contextmanager
def utf8_text(path, csv_rows: bool):
    """Turn a UnicodeDecodeError raised inside the block into a
    ValidationError that names the file and where in it the first byte
    that is not UTF-8 sits.

    A text-mode read decodes in chunks, so the UnicodeDecodeError does
    not say where in the file the bad byte is; the bytes are read again
    to find it. The message names the line that holds it or, for a CSV
    with one header row (``csv_rows``), the 1-based data row as the csv
    module counts records.
    """
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[: exc.start].decode("utf-8")
        else:  # the file changed since the failed read
            raise ValidationError(f"{path}: not UTF-8 text") from None
        if csv_rows:
            # the records before the bad byte plus the one it falls in; the
            # sentinel opens that record when the byte starts a line
            row = sum(1 for _ in csv.reader(io.StringIO(before + "x"))) - 1
            where = f"data row {row}" if row else "the header"
        else:
            line = before.count("\n") + 1
            where = f"line {line}"
        raise ValidationError(f"{path}: {where} is not UTF-8 text") from None


# the JSON values that a field of each Python type reads (a dataclass: an object)
_JSON_KINDS = {
    str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number"),
    bool: (bool, "a boolean"), tuple: (list, "a list"), list: (list, "a list"),
    dict: (dict, "an object"), type(None): (type(None), "null"),
}


@functools.cache
def _field_types(cls) -> dict:
    """The resolved type of each field of the dataclass ``cls``, looked up
    once per class; every caller gets the same dict and must not change it."""
    return get_type_hints(cls)


def checked_json(cls, doc, required=None, drop=()) -> dict:
    """``doc`` (JSON text or a parsed value) as a dict of fields of the
    dataclass ``cls``. Raises ValidationError naming the key when the text
    is not JSON or not an object, a key is not a field, a ``required`` key
    (by default each field without a default) is missing, or a value is
    not of its field's JSON type. Keys in ``drop`` are allowed and removed.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {type(doc).__name__}")
    if required is None:
        required = [f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING]
    for key in required:
        if key not in doc:
            raise ValidationError(f"missing key {key!r}")
    hints = _field_types(cls)
    doc = {k: v for k, v in doc.items() if k not in drop}
    for key, value in doc.items():
        if key not in hints:
            raise ValidationError(f"unknown key {key!r} (known: {', '.join(hints)})")
        types = get_args(hints[key]) or (hints[key],)
        kinds = [_JSON_KINDS[dict if is_dataclass(t) else t] for t in types]
        # bool is an int subclass: true/false pass only as a boolean
        if (not isinstance(value, tuple(k for k, _ in kinds))
                or (isinstance(value, bool) and bool not in types)):
            expected = " or ".join(name for _, name in kinds)
            raise ValidationError(f"key {key!r} must be {expected}, got {value!r}")
    return doc
