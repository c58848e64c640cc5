"""Tabular data model for per-drive study records.

Drives arrive as CSV rows and load as dicts keyed by column name, the
same row format the study simulator produces. Column types are fixed by
name: ``Participant`` and ``NDRT`` are labels, ``Time``, ``Gender`` and
``DriveD`` integers, every other column real. Records are validated
against the documented variable ranges and assembled, one column per
model variable, into matrices for the effect estimation engine. Every
table CSV the program writes goes through ``_write_table_csv``.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError, utf8_text

NDRT_LEVELS = ("Base", "NB0", "NB1", "NB2", "MT1", "MT2", "ST")

INDIVIDUAL_VARS = ("Age", "Gender", "Trust", "DriveE", "DriveD")

SYMBOL_VARS = (
    "PA", "FR", "FT", "SR", "ST", "SA",          # eye tracking
    "SCL", "SCR",                                  # electrodermal
    "HR", "RMSSD", "SDNN", "LF", "HF", "LFHF",     # cardiac
    "RR", "RD", "RV",                              # respiration
)

# column order of the canonical study table
STUDY_COLUMNS = ("Participant", "Time", "NDRT", "NASA", "KSS", *INDIVIDUAL_VARS, *SYMBOL_VARS)

_INTEGER_COLUMNS = ("Time", "Gender", "DriveD")

# Validation bounds; warnings unless strict mode is on.
DEFAULT_BOUNDS: dict[str, tuple[float, float]] = {
    "Time": (1, 21),
    "KSS": (1, 10),
    "NASA": (1, 20),
}


@dataclass
class LoadResult:
    records: list  # one dict per drive: column name -> value, None if blank


def _parse_cell(text: str, column: str, row: int):
    text = text.strip()
    if text == "":
        return None
    if column == "Participant":
        return text
    if column == "NDRT":
        if text not in NDRT_LEVELS:
            raise ValidationError(
                f"row {row}, column 'NDRT': {text!r} is not one of {list(NDRT_LEVELS)}"
            )
        return text
    integer = column in _INTEGER_COLUMNS
    try:
        return int(text) if integer else float(text)
    except ValueError:
        kind = "integer" if integer else "real"
        raise ValidationError(
            f"row {row}, column {column!r}: cannot parse {text!r} as {kind}"
        ) from None


def _check_bounds(name, value, row, strict):
    if value is None:
        return
    lo, hi = DEFAULT_BOUNDS[name]
    if not lo <= value <= hi:
        msg = f"row {row}: {name}={value} outside [{lo}, {hi}]"
        if strict:
            raise ValidationError(msg)
        warnings.warn(msg, stacklevel=3)


def load_drive_csv(path: str | Path, strict: bool = False) -> LoadResult:
    """Parse a drive table CSV into one dict per row, keyed by column name.

    Column names must be unique. Numeric parsing is strict; a
    non-numeric cell in a numeric column is an error naming the row and
    column. Blank cells become ``None``. Violations of ``DEFAULT_BOUNDS``
    warn by default and raise in strict mode.
    """
    # utf-8-sig drops the byte-order mark Excel writes in "CSV UTF-8"
    with utf8_text(path, csv_rows=True), open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise ValidationError(f"{path}: repeated column names {repeated}")
        checked = [name for name in DEFAULT_BOUNDS if name in header]
        records = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValidationError(
                    f"row {row_num}: expected {len(header)} cells, got {len(row)}"
                )
            cells = {name: _parse_cell(text, name, row_num) for name, text in zip(header, row)}
            for name in checked:
                _check_bounds(name, cells[name], row_num, strict)
            records.append(cells)
    return LoadResult(records)


@dataclass
class FeatureTable:
    """Dense analysis matrix, one column per model variable.

    Categorical columns hold level indices into ``categorical_levels``;
    everything else is a float value. Rows with missing required cells
    have already been dropped (``n_dropped`` keeps the count).
    """

    column_names: list
    values: np.ndarray
    categorical_levels: dict = field(default_factory=dict)
    n_dropped: int = 0

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.column_names):
            raise ValidationError("matrix width does not match columns")
        if np.isnan(self.values).any():
            raise ValidationError("assembled table contains missing values")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.column_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown column {name!r}") from None
        return self.values[:, j]

    def labels(self, name: str) -> list:
        """Decode a categorical column back to its level labels."""
        levels = self.categorical_levels.get(name)
        if levels is None:
            raise ValidationError(f"column {name!r} is not categorical")
        return [levels[int(i)] for i in self.column(name)]


def _check_roles(spec, categorical) -> None:
    """Raise unless each of the ``categorical`` columns the spec names is a
    confounder, which the nuisance stage one-hot codes, or the discrete
    treatment, and the discrete treatment is one of them."""
    roles = [("feature", spec.features), ("outcome", spec.outcomes)]
    if spec.treatment_kind == "continuous":
        roles.append(("continuous treatment", spec.treatments))
    elif spec.treatments[0] not in categorical:
        raise ValidationError(f"discrete treatment {spec.treatments[0]!r} "
                              "is not a categorical column")
    for role, names in roles:
        for name in names:
            if name in categorical:
                raise ValidationError(f"{role} {name!r} is a categorical column, which "
                                      "may only be a confounder or the discrete treatment")


def check_spec_columns(records: list, spec) -> list:
    """The spec's variables in table column order: features, confounders,
    treatments, outcomes. Raises unless there are records and each
    variable is one of their columns."""
    names = [*spec.features, *spec.confounders, *spec.treatments, *spec.outcomes]
    if not records:
        raise ValidationError("no records to assemble")
    for name in names:
        if name not in records[0]:
            raise ValidationError(f"unknown variable {name!r}")
    return names


def assemble_feature_table(records: list, spec) -> FeatureTable:
    """Map a model spec's role assignment onto record columns.

    Column order is the feature block, confounder block, treatment block,
    then outcome block; ``ModelSpec`` has checked that no variable appears
    twice. Rows whose required value is blank or non-finite
    (a NaN LF/HF, say) are dropped and counted. Categorical columns hold
    level indices; encoding to indicators is a separate step.
    """
    names = check_spec_columns(records, spec)
    categorical = {"NDRT": list(NDRT_LEVELS)} if "NDRT" in names else {}

    columns = []
    for name in names:
        cells = [rec.get(name) for rec in records]
        if name in categorical:
            code = {lv: i for i, lv in enumerate(categorical[name])}
            try:
                cells = [None if v is None else code[v] for v in cells]
            except KeyError as exc:
                raise ValidationError(
                    f"value {exc.args[0]!r} of {name!r} not in levels {categorical[name]}"
                ) from None
        try:
            columns.append(np.array(cells, dtype=np.float64))
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"column {name!r} holds a value that is not a real number"
            ) from None
    values = np.column_stack(columns)
    keep = np.isfinite(values).all(axis=1)
    if not keep.any():
        raise ValidationError("no rows left after dropping incomplete records")
    return FeatureTable(
        column_names=names,
        values=values[keep],
        categorical_levels=categorical,
        n_dropped=int(len(records) - keep.sum()),
    )


def _write_table_csv(f, header, rows) -> None:
    """Write ``header`` and ``rows`` to the text stream ``f`` as CSV lines
    ending in CRLF. A float cell is its shortest repr, which reloads bit for
    bit, numpy's included; ``None`` is an empty cell; any other cell is its
    ``str``."""
    writer = csv.writer(f)
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                     for row in rows)
