"""Exception hierarchy shared across the package.

CLI exit codes map onto these classes: ValidationError -> 2,
EstimationError -> 3, OSError -> 4.
"""

import csv
import io
from contextlib import contextmanager
from pathlib import Path


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
