import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivedml.errors import ValidationError
from drivedml.presets import build_preset
from drivedml.simulate import gen_study_dataset, write_study_csv
from drivedml.study_data import (
    STUDY_COLUMNS,
    SYMBOL_VARS,
    VariableRole,
    assemble_feature_table,
    encode_treatment,
    load_drive_csv,
    read_feature_table_csv,
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
    table = FeatureTable(
        column_names=["a", "b"],
        roles=[VariableRole.TREATMENT, VariableRole.OUTCOME],
        values=np.asarray([[1.5, -2.0], [0.25, 3.0]]),
    )
    write_feature_table_csv(table, path)
    excel.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
    back = read_feature_table_csv(excel, like=table)
    assert np.array_equal(back.values, table.values)


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
    roles = table.roles
    assert roles[:5] == [VariableRole.FEATURE] * 5
    assert roles[5] == VariableRole.CONFOUNDER
    assert roles[6] == VariableRole.TREATMENT
    assert roles[7:] == [VariableRole.OUTCOME] * 2
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
        roles=[VariableRole.FEATURE, VariableRole.TREATMENT, VariableRole.OUTCOME],
        values=np.asarray(rows, dtype=np.float64),
    )
    path = tmp / "t.csv"
    write_feature_table_csv(table, path)
    back = read_feature_table_csv(path, like=table)
    assert np.array_equal(back.values, table.values)


def test_role_partition_covers_non_identifier_columns(tmp_path):
    path = _write(tmp_path, [_row(time=t) for t in range(1, 4)])
    records = load_drive_csv(path).records
    spec = build_preset("a")
    table = assemble_feature_table(records, spec)
    role_blocks = {role: table.columns_for_role(role) for role in VariableRole}
    all_cols = [c for cols in role_blocks.values() for c in cols]
    assert sorted(all_cols) == sorted(table.column_names)
    assert len(all_cols) == len(set(all_cols))
