import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivedml.dml import ModelSpec
from drivedml.errors import ValidationError
from drivedml.presets import PRESET_NAMES, build_preset
from drivedml.simulate import gen_study_dataset, write_study_csv
from drivedml.study_data import (
    NDRT_LEVELS,
    STUDY_COLUMNS,
    SYMBOL_VARS,
    assemble_feature_table,
    encode_treatment,
    load_drive_csv,
    write_feature_table_csv,
    FeatureTable,
)

HEADER = ",".join(STUDY_COLUMNS)


def _row(participant="P01", time=1, ndrt="Base", nasa=8.0, kss=4.0, **overrides):
    values = {
        "Participant": participant, "Time": time, "NDRT": ndrt,
        "NASA": nasa, "KSS": kss,
        "Age": 30, "Gender": 1, "Trust": 36.0, "DriveE": 10, "DriveD": 2,
    }
    for s in SYMBOL_VARS:
        values[s] = 1.0
    values.update(overrides)
    return ",".join("" if values[k] is None else str(values[k])
                    for k in STUDY_COLUMNS)


def _write(tmp_path, rows):
    path = tmp_path / "drives.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return path


def test_three_row_fixture_parses(tmp_path):
    path = _write(tmp_path, [_row(time=1), _row(time=2), _row(time=3)])
    result = load_drive_csv(path)
    assert len(result.records) == 3
    assert list(result.records[0]) == list(STUDY_COLUMNS)
    assert result.records[1]["Time"] == 2
    assert result.records[0]["NDRT"] == "Base"
    assert result.records[0]["Participant"] == "P01"
    assert result.records[0]["Age"] == 30.0
    assert type(result.records[0]["Gender"]) is int
    assert type(result.records[0]["Age"]) is float


def test_csv_round_trip_returns_simulator_rows(tmp_path):
    rows = gen_study_dataset(7, missing_rows=62)
    path = tmp_path / "study.csv"
    write_study_csv(rows, path)
    assert load_drive_csv(path).records == rows


def test_byte_order_mark_is_accepted(tmp_path):
    rows = gen_study_dataset(7, missing_rows=62)
    path = tmp_path / "study.csv"
    write_study_csv(rows, path)
    excel = tmp_path / "study_bom.csv"
    excel.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert excel.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_drive_csv(excel).records == rows


def test_kss_out_of_bounds_is_error_in_strict_mode(tmp_path):
    path = _write(tmp_path, [_row(), _row(kss=11.0)])
    with pytest.raises(ValidationError, match=r"row 2.*KSS.*10"):
        load_drive_csv(path, strict=True)


def test_kss_out_of_bounds_warns_by_default(tmp_path):
    path = _write(tmp_path, [_row(kss=11.0)])
    with pytest.warns(UserWarning, match="KSS"):
        result = load_drive_csv(path)
    assert len(result.records) == 1


def test_unparseable_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, [_row(), _row(nasa="abc")])
    with pytest.raises(ValidationError, match=r"row 2.*NASA"):
        load_drive_csv(path)


def test_header_mismatch(tmp_path):
    # a dict row would silently keep the last of two equally named cells
    path = tmp_path / "bad.csv"
    path.write_text("Participant,KSS,Time,KSS\nP01,4,1,5\n")
    with pytest.raises(ValidationError, match="repeated.*KSS"):
        load_drive_csv(path)


def test_unseen_ndrt_level(tmp_path):
    path = _write(tmp_path, [_row(ndrt="NB3")])
    with pytest.raises(ValidationError, match="NB3"):
        load_drive_csv(path)


def test_assemble_model_a_block_order(tmp_path):
    path = _write(tmp_path, [_row(time=t) for t in range(1, 6)])
    records = load_drive_csv(path).records
    spec = build_preset("a")
    table = assemble_feature_table(records, spec)
    assert table.column_names == [
        "Age", "Gender", "Trust", "DriveE", "DriveD", "NDRT", "Time", "NASA", "KSS",
    ]
    assert table.n_rows == 5
    assert table.labels("NDRT") == ["Base"] * 5


def test_assemble_unknown_variable(tmp_path):
    path = _write(tmp_path, [_row()])
    records = load_drive_csv(path).records

    class FakeSpec:
        features = ("foo",)
        confounders = ()
        treatments = ("Time",)
        outcomes = ("KSS",)

    with pytest.raises(ValidationError, match="foo"):
        assemble_feature_table(records, FakeSpec())


def test_missing_cells_drop_to_820_of_882():
    rows = gen_study_dataset(seed=11, missing_rows=62)
    assert len(rows) == 882

    class AllSymbolSpec:
        features = tuple(SYMBOL_VARS)
        confounders = ("NDRT",)
        treatments = ("Time",)
        outcomes = ("NASA", "KSS")

    table = assemble_feature_table(rows, AllSymbolSpec())
    assert table.n_rows == 820
    assert table.n_dropped == 62
    assert table.n_rows + table.n_dropped == 882


def test_nan_cell_drops_only_where_its_column_is_used(tmp_path):
    # extract writes nan for LFHF when a drive's HF power is zero
    rows = gen_study_dataset(seed=3, n_participants=6)
    rows[4]["LFHF"] = float("nan")
    rows[9]["PA"] = float("inf")
    path = tmp_path / "study.csv"
    write_study_csv(rows, path)
    records = load_drive_csv(path).records
    table_e = assemble_feature_table(records, build_preset("e"))
    assert table_e.n_dropped == 2
    assert table_e.n_rows == len(rows) - 2
    table_a = assemble_feature_table(records, build_preset("a"))
    assert table_a.n_dropped == 0
    assert table_a.n_rows == len(rows)


def _is_missing(value) -> bool:
    return value is None or (isinstance(value, float) and not math.isfinite(value))


def _assemble_reference(records, spec):
    """Cell-by-cell assembly: the row loop the column-wise one replaced."""
    names = []
    for vars_ in (spec.features, spec.confounders, spec.treatments, spec.outcomes):
        for v in vars_:
            if v in names:
                raise ValidationError(f"variable {v!r} assigned more than one role")
            names.append(v)
    if not records:
        raise ValidationError("no records to assemble")

    for name in names:
        if name not in records[0]:
            raise ValidationError(f"unknown variable {name!r}")
    categorical = {"NDRT": list(NDRT_LEVELS)} if "NDRT" in names else {}

    rows = []
    n_dropped = 0
    for rec in records:
        vals = [rec.get(name) for name in names]
        if any(_is_missing(v) for v in vals):
            n_dropped += 1
            continue
        encoded = []
        for name, v in zip(names, vals):
            if name in categorical:
                try:
                    encoded.append(float(categorical[name].index(v)))
                except ValueError:
                    raise ValidationError(
                        f"value {v!r} of {name!r} not in levels {categorical[name]}"
                    ) from None
            else:
                encoded.append(float(v))
        rows.append(encoded)
    if not rows:
        raise ValidationError("no rows left after dropping incomplete records")
    return names, np.asarray(rows, dtype=np.float64), n_dropped


_NUMERIC_COLUMNS = [c for c in STUDY_COLUMNS if c not in ("Participant", "NDRT")]


@st.composite
def _study_records(draw):
    n = draw(st.integers(1, 12))
    cell = st.one_of(
        st.integers(-(2**64), 2**64),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    records = []
    for i in range(n):
        rec = {name: draw(cell) for name in STUDY_COLUMNS}
        rec["Participant"] = f"P{i:02d}"
        rec["NDRT"] = draw(st.sampled_from(NDRT_LEVELS))
        records.append(rec)
    # sparse holes, so that most drawn tables keep some rows
    holes = draw(st.lists(st.tuples(
        st.integers(0, n - 1),
        st.sampled_from(_NUMERIC_COLUMNS),
        st.sampled_from([None, math.nan, math.inf, -math.inf]),
    ), max_size=2 * n))
    blank_ndrt = draw(st.lists(st.integers(0, n - 1), max_size=2))
    for i, name, value in holes:
        records[i][name] = value
    for i in blank_ndrt:
        records[i]["NDRT"] = None
    return records


@settings(max_examples=60, deadline=None)
@given(_study_records(), st.sampled_from(PRESET_NAMES))
def test_column_assembly_matches_cell_by_cell_reference(records, preset):
    spec = build_preset(preset)
    try:
        names, values, n_dropped = _assemble_reference(records, spec)
    except ValidationError:
        with pytest.raises(ValidationError, match="no rows left"):
            assemble_feature_table(records, spec)
        return
    table = assemble_feature_table(records, spec)
    assert table.column_names == names
    assert table.n_dropped == n_dropped
    assert table.values.shape == values.shape
    assert table.values.tobytes() == values.tobytes()


def test_assemble_unknown_ndrt_label_names_it():
    records = gen_study_dataset(seed=3, n_participants=2)
    records[5]["NDRT"] = "NB9"
    with pytest.raises(ValidationError, match="'NB9'.*not in levels"):
        assemble_feature_table(records, build_preset("a"))


@pytest.mark.parametrize("column, cell", [("Participant", "P01"), ("DriveD", 10**400)])
def test_assemble_non_real_cell_names_its_column(column, cell):
    records = gen_study_dataset(seed=3, n_participants=2)
    records[0][column] = cell
    spec = ModelSpec(name="x", outcomes=("KSS",), treatments=("NASA",),
                     confounders=(column,))
    with pytest.raises(ValidationError, match=f"'{column}'.*not a real number"):
        assemble_feature_table(records, spec)


def test_encode_treatment_examples():
    order = ["NB0", "NB1", "NB2", "MT1", "MT2", "ST"]
    mat, labels = encode_treatment(["Base", "NB0", "NB2"], "Base", ["Base"] + order)
    assert labels == order
    assert mat.tolist() == [
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]


def test_encode_treatment_all_baseline():
    mat, _ = encode_treatment(["Base"] * 4, "Base", ["Base", "NB0"])
    assert not mat.any()


def test_encode_treatment_errors():
    with pytest.raises(ValidationError, match="NB3"):
        encode_treatment(["NB3"], "Base", ["Base", "NB0"])
    with pytest.raises(ValidationError, match="baseline"):
        encode_treatment(["NB0"], "Base", ["NB0", "NB1"])


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e12, max_value=1e12), min_size=3, max_size=3),
    min_size=1, max_size=20,
))
def test_feature_table_csv_round_trip(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("roundtrip")
    table = FeatureTable(
        column_names=["a", "b", "c"],
        values=np.asarray(rows, dtype=np.float64),
    )
    path = tmp / "t.csv"
    write_feature_table_csv(table, path)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        assert next(reader) == table.column_names
        back = np.asarray([[float(c) for c in row] for row in reader], dtype=np.float64)
    assert np.array_equal(back, table.values)
