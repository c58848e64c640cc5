import copy
import csv
import io
import json
from pathlib import Path

import pytest

from drivedml.boosting import GbmParams
from drivedml.cli import main
from drivedml.dml import EffectEstimate
from drivedml.errors import ValidationError
from drivedml.presets import build_preset
from drivedml.report import (
    RunManifest,
    emit_plot_data,
    estimates_csv,
    format_p,
    render_ate_table,
    render_coefficient_table,
    replay_manifest,
    run_presets,
)
from drivedml.simulate import gen_study_dataset, write_study_csv

GOLDEN = Path(__file__).parent / "golden"

SMALL = GbmParams(n_estimators=15, max_depth=2, seed=0)


def _coef_row():
    return EffectEstimate(
        kind="coefficient", outcome="NASA", treatment="Time",
        estimation=0.007, se=0.003, z=2.517, p=0.01,
        ci_low=0.002, ci_high=0.011, feature="Trust", model_name="a",
    )


def _ate_row():
    return EffectEstimate(
        kind="contrast", outcome="NASA", treatment="Base->NB0",
        estimation=2.150, se=0.389, z=5.519, p=1e-5,
        ci_low=1.509, ci_high=2.790, t0="Base", t1="NB0", model_name="b",
    )


def test_table3_row_matches_golden_bytes():
    text, _ = render_coefficient_table([_coef_row()])
    assert text.encode() == (GOLDEN / "table3_row.txt").read_bytes()


def test_table4_row_matches_golden_bytes():
    text, _ = render_ate_table([_ate_row()])
    assert text.encode() == (GOLDEN / "table4_row.txt").read_bytes()


def test_p_format_convention():
    assert format_p(3e-6) == "<.0001"
    assert format_p(9.99e-5) == "<.0001"
    assert format_p(0.01) == ".01"
    assert format_p(0.04) == ".04"
    assert format_p(0.004) == ".004"
    assert format_p(0.001) == ".001"
    assert format_p(0.0005) == ".0005"
    assert format_p(0.5) == ".50"


def test_filter_excludes_but_never_alters():
    rows = [_coef_row(), _coef_row()]
    rows[1].p = 0.5
    text, full_csv = render_coefficient_table(rows, p_threshold=0.05)
    assert text.count("\n") == 2  # header + 1 significant row
    parsed = list(csv.DictReader(io.StringIO(full_csv)))
    assert len(parsed) == 2
    assert float(parsed[0]["estimation"]) == 0.007
    assert float(parsed[1]["p"]) == 0.5


def test_all_insignificant_gives_empty_table_full_csv():
    row = _coef_row()
    row.p = 0.9
    text, full_csv = render_coefficient_table([row])
    assert text.strip().splitlines() == [text.strip().splitlines()[0]]
    assert len(list(csv.DictReader(io.StringIO(full_csv)))) == 1


def test_empty_contrasts_render_notice():
    text, _ = render_ate_table([])
    assert "no discrete treatment contrasts" in text


def test_rendered_contrast_pair_antisymmetric():
    fwd = _ate_row()
    rev = EffectEstimate(
        kind="contrast", outcome="NASA", treatment="NB0->Base",
        estimation=-2.150, se=0.389, z=-5.519, p=1e-5,
        ci_low=-2.790, ci_high=-1.509, t0="NB0", t1="Base", model_name="b",
    )
    text, _ = render_ate_table([fwd, rev])
    lines = text.strip().splitlines()
    assert lines[1].split()[4] == "2.150"
    assert lines[2].split()[4] == "-2.150"
    assert lines[1].split()[5] == lines[2].split()[5]  # same SE


def test_estimates_csv_full_precision():
    row = _coef_row()
    row.estimation = 0.12345678901234567
    text = estimates_csv([row])
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert float(parsed[0]["estimation"]) == row.estimation


# ---------------------------------------------------------------------------
# end-to-end runs


@pytest.fixture(scope="module")
def study_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("study")
    rows = gen_study_dataset(seed=6, n_participants=12)
    path = tmp / "study.csv"
    write_study_csv(rows, path)
    return path


def test_preset_a_emits_expected_coefficient_rows(study_csv, tmp_path):
    manifest = run_presets(study_csv, ["a"], tmp_path / "out", seed=1,
                           outcome_params=SMALL, treatment_params=SMALL)
    run = manifest.model("a")
    coef = [e for e in run.estimates if e.kind == "coefficient"]
    # 5 individual features x 1 treatment x 2 outcomes
    assert len(coef) == 10
    assert {e.feature for e in coef} == {"Age", "Gender", "Trust", "DriveE", "DriveD"}
    assert {e.outcome for e in coef} == {"NASA", "KSS"}
    assert (tmp_path / "out" / "model_a" / "cate_tree.dot").exists()
    assert run.cate_tree_json is not None


def test_preset_b_emits_all_pairwise_contrasts(study_csv, tmp_path):
    manifest = run_presets(study_csv, ["b"], tmp_path / "out", seed=1,
                           outcome_params=SMALL, treatment_params=SMALL)
    run = manifest.model("b")
    contrasts = [e for e in run.estimates if e.kind == "contrast"]
    assert len(contrasts) == 21 * 2  # ordered NDRT pairs per outcome
    pairs = {(e.t0, e.t1) for e in contrasts}
    assert len(pairs) == 21
    assert ("Base", "NB0") in pairs


def test_preset_missing_symbols_is_role_mismatch(tmp_path):
    rows = gen_study_dataset(seed=7, n_participants=6)
    trimmed = [
        {k: v for k, v in row.items() if k in
         ("Participant", "Time", "NDRT", "NASA", "KSS",
          "Age", "Gender", "Trust", "DriveE", "DriveD")}
        for row in rows
    ]
    path = tmp_path / "nosym.csv"
    cols = list(trimmed[0])
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(cols)
        for r in trimmed:
            writer.writerow([r[c] for c in cols])
    with pytest.raises(ValidationError, match="SCL|PA|unknown"):
        run_presets(path, ["e"], tmp_path / "out", seed=1,
                    outcome_params=SMALL, treatment_params=SMALL)


def test_symbol_presets_run_on_full_study(tmp_path):
    # 62 damaged drives leave 820 of 882 rows for the symbol-feature models
    rows = gen_study_dataset(seed=12, missing_rows=62)
    path = tmp_path / "study.csv"
    write_study_csv(rows, path)
    manifest = run_presets(path, ["e", "g"], tmp_path / "out", seed=2,
                           outcome_params=SMALL, treatment_params=SMALL)
    run_e = manifest.model("e")
    coef_e = [x for x in run_e.estimates if x.kind == "coefficient"]
    assert len(coef_e) == 17  # one per symbol feature, single T and Y
    assert run_e.cate_tree_json is not None

    from drivedml.presets import build_preset
    from drivedml.study_data import assemble_feature_table, load_drive_csv

    loaded = load_drive_csv(path)
    table = assemble_feature_table(loaded.records, build_preset("e"))
    assert table.n_rows == 820
    assert table.n_dropped == 62

    run_g = manifest.model("g")  # symbols as outcomes, no feature block
    assert run_g.cate_tree_json is None
    assert run_g.note is not None
    ates_g = [x for x in run_g.estimates if x.kind == "ate"]
    assert len(ates_g) == 17
    assert not (tmp_path / "out" / "model_g" / "cate_tree.dot").exists()


def test_manifest_replay_is_bit_exact(study_csv, tmp_path):
    out1 = tmp_path / "first"
    manifest = run_presets(study_csv, ["c"], out1, seed=5,
                           outcome_params=SMALL, treatment_params=SMALL)
    replayed = replay_manifest(out1 / "manifest.json", tmp_path / "second")
    assert [e.to_jsonable() for e in manifest.model("c").estimates] == [
        e.to_jsonable() for e in replayed.model("c").estimates
    ]
    first = (out1 / "model_c" / "coefficients_full.csv").read_bytes()
    second = (tmp_path / "second" / "model_c" / "coefficients_full.csv").read_bytes()
    assert first == second


def test_manifest_replay_from_another_directory(study_csv, tmp_path, monkeypatch):
    run_dir = tmp_path / "run_here"
    run_dir.mkdir()
    (run_dir / "study.csv").write_bytes(study_csv.read_bytes())
    monkeypatch.chdir(run_dir)
    manifest = run_presets("study.csv", ["c"], "out", seed=5,
                           outcome_params=SMALL, treatment_params=SMALL)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    replayed = replay_manifest(run_dir / "out" / "manifest.json", "second")
    assert [e.to_jsonable() for e in manifest.model("c").estimates] == [
        e.to_jsonable() for e in replayed.model("c").estimates
    ]
    # the input is still checked against its recorded hash
    (run_dir / "study.csv").write_text("changed\n")
    with pytest.raises(ValidationError, match="changed"):
        replay_manifest(run_dir / "out" / "manifest.json", "third")


def test_different_seeds_differ(study_csv, tmp_path):
    m1 = run_presets(study_csv, ["c"], tmp_path / "a", seed=1,
                     outcome_params=SMALL, treatment_params=SMALL)
    m2 = run_presets(study_csv, ["c"], tmp_path / "b", seed=2,
                     outcome_params=SMALL, treatment_params=SMALL)
    e1 = m1.model("c").estimates[0]
    e2 = m2.model("c").estimates[0]
    assert e1.estimation != e2.estimation


def test_plot_data_continuous_curve(study_csv, tmp_path):
    manifest = run_presets(study_csv, ["a"], tmp_path / "out", seed=1,
                           outcome_params=SMALL, treatment_params=SMALL)
    text = emit_plot_data(manifest, "continuous-ate-curves", "a")
    rows = list(csv.DictReader(io.StringIO(text)))
    outcomes = {r["outcome"] for r in rows}
    assert outcomes == {"NASA", "KSS"}
    kss = [r for r in rows if r["outcome"] == "KSS"]
    assert len(kss) == 50
    first = kss[0]
    assert float(first["effect"]) == 0.0  # curve anchored at observed minimum


def test_plot_data_ordering_and_missing_model(study_csv, tmp_path):
    manifest = run_presets(study_csv, ["b"], tmp_path / "out", seed=1,
                           outcome_params=SMALL, treatment_params=SMALL)
    text = emit_plot_data(manifest, "ndrt-ordering", "b")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 7
    ates = [float(r["ate_NASA"]) for r in rows]
    assert ates == sorted(ates)
    with pytest.raises(ValidationError, match="not present"):
        emit_plot_data(manifest, "ndrt-ordering", "zz")


# ---------------------------------------------------------------------------
# CLI process behavior


def test_cli_run_and_report_flow(study_csv, tmp_path, capsys):
    out = tmp_path / "cli_out"
    spec_path = tmp_path / "spec.json"
    from drivedml.presets import build_preset

    spec = build_preset("c", seed=3, outcome_params=SMALL, treatment_params=SMALL)
    spec_path.write_text(spec.to_json())
    code = main(["run", "--data", str(study_csv), "--spec", str(spec_path),
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()

    code = main(["report", "--manifest", str(out / "manifest.json"),
                 "--plot", "continuous-ate-curves", "--model", "c",
                 "--out", str(tmp_path / "curve.csv")])
    assert code == 0
    assert (tmp_path / "curve.csv").exists()


def test_cli_validation_exit_code(tmp_path):
    missing = tmp_path / "missing.csv"
    missing.write_text("Participant,Time\nP01,1\n")
    assert main(["run", "--data", str(missing), "--preset", "a",
                 "--out-dir", str(tmp_path / "o")]) == 2


def test_cli_io_exit_code(tmp_path):
    assert main(["run", "--data", str(tmp_path / "nope.csv"), "--preset", "a",
                 "--out-dir", str(tmp_path / "o")]) == 4


def test_cli_unknown_preset_exit_code(study_csv, tmp_path):
    assert main(["run", "--data", str(study_csv), "--preset", "zz",
                 "--out-dir", str(tmp_path / "o")]) == 2


def test_cli_estimation_exit_code(study_csv, tmp_path):
    from drivedml.presets import build_preset

    spec = build_preset("c", seed=1, k_folds=200,
                        outcome_params=SMALL, treatment_params=SMALL)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    assert main(["run", "--data", str(study_csv), "--spec", str(spec_path),
                 "--out-dir", str(tmp_path / "o")]) == 3


def test_cli_label_column_in_spec_exit_code(study_csv, tmp_path, capsys):
    from drivedml.dml import ModelSpec

    spec = ModelSpec(name="x", outcomes=("KSS",), treatments=("NASA",),
                     confounders=("Participant",))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    assert main(["run", "--data", str(study_csv), "--spec", str(spec_path),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "'Participant'" in capsys.readouterr().err


def test_cli_simulate_and_extract_append(tmp_path):
    sig_dir = tmp_path / "sigs"
    assert main(["simulate", "--scenario", "signals", "--out-dir", str(sig_dir),
                 "--duration", "60"]) == 0
    study = tmp_path / "mini.csv"
    rows = gen_study_dataset(seed=8, n_participants=2, repetitions=1)
    write_study_csv(rows, study)
    assert main([
        "extract", "--ecg", str(sig_dir / "ecg.csv"),
        "--resp", str(sig_dir / "resp.csv"),
        "--out", str(tmp_path / "features.json"),
        "--append-to", str(study), "--participant", "P01", "--time", "1",
    ]) == 0
    feats = json.loads((tmp_path / "features.json").read_text())
    assert feats["HR"] == pytest.approx(60.0, abs=0.5)
    with open(study) as f:
        reader = csv.DictReader(f)
        row = next(r for r in reader if r["Participant"] == "P01" and r["Time"] == "1")
    assert float(row["HR"]) == pytest.approx(feats["HR"])


def test_cli_extract_append_quotes_cells(tmp_path):
    sig_dir = tmp_path / "sigs"
    assert main(["simulate", "--scenario", "signals", "--out-dir", str(sig_dir),
                 "--duration", "60"]) == 0
    study = tmp_path / "mini.csv"
    rows = gen_study_dataset(seed=8, n_participants=2, repetitions=1)
    for row in rows:
        if row["Participant"] == "P01":
            row["Participant"] = "Smith, J"
    write_study_csv(rows, study)
    assert main([
        "extract", "--ecg", str(sig_dir / "ecg.csv"),
        "--append-to", str(study), "--participant", "Smith, J", "--time", "1",
    ]) == 0
    from drivedml.study_data import load_drive_csv

    records = load_drive_csv(study).records
    assert len(records) == len(rows)
    row = next(r for r in records if r["Participant"] == "Smith, J" and r["Time"] == 1)
    assert row["HR"] == pytest.approx(60.0, abs=0.5)


@pytest.mark.parametrize("text", [
    '{"seed": 1,', "[1, 2]",
    # one bad key each: a wrong type or an unknown name; the error names it
    '{"seed": "abc"}', '{"seed": 1.5}', '{"seed": true}', '{"sede": 3}',
    '{"strict": "false"}', '{"p_threshold": "0.1"}', '{"p_threshold": false}',
    '{"data": 7}', '{"out_dir": ["runs"]}', '{"preset": null}',
])
def test_cli_malformed_config_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err
    if text.startswith("{") and text.endswith("}"):
        (key,) = json.loads(text)
        assert repr(key) in err


def _edited(doc: dict, edit) -> str:
    doc = copy.deepcopy(doc)
    edit(doc)
    return json.dumps(doc)


_SPEC = json.loads(build_preset("c", seed=1).to_json())
_MANIFEST = json.loads(RunManifest(
    version="0", created_utc="now", root_seed=1, p_threshold=0.05, strict=False, inputs=[],
).to_json())
_MODEL_RUN = {"spec": dict(_SPEC, k_folds="5"), "fold_hash": "", "note": None,
              "estimates": [], "cate_tree": None, "treatment_range": {}}


@pytest.mark.parametrize("flag, text, key", [
    ("--spec", '{"name": "c",', None),
    ("--spec", "[]", None),
    ("--spec", _edited(_SPEC, lambda d: d.pop("features")), "features"),
    ("--spec", _edited(_SPEC, lambda d: d["outcome_params"].update(depth=2)), "depth"),
    ("--spec", _edited(_SPEC, lambda d: d["outcome_params"].update(n_estimators=0)),
     "n_estimators"),
    ("--spec", _edited(_SPEC, lambda d: d.update(k_folds="5")), "k_folds"),
    ("--spec", _edited(_SPEC, lambda d: d.update(features=[["Age"], ["Age"]])), "features"),
    ("--from-manifest", _edited(_MANIFEST, lambda d: d.pop("created_utc")), "created_utc"),
    ("--manifest", _edited(_MANIFEST, lambda d: d.pop("created_utc")), "created_utc"),
    ("--manifest", _edited(_MANIFEST, lambda d: d["models"].append(_MODEL_RUN)), "k_folds"),
], ids=[
    "spec-invalid-json", "spec-not-object", "spec-no-features", "spec-unknown-param",
    "spec-zero-trees", "spec-string-k_folds", "spec-list-feature", "replay-no-created_utc",
    "report-no-created_utc", "report-model-string-k_folds",
])
def test_cli_malformed_spec_or_manifest_exit_code(tmp_path, capsys, flag, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    out = ["--out-dir", str(tmp_path / "o")]
    argv = {
        "--spec": ["run", "--data", str(tmp_path / "study.csv"), "--spec", str(path)],
        "--from-manifest": ["run", "--from-manifest", str(path)],
        "--manifest": ["report", "--manifest", str(path), "--tables"],
    }[flag]
    assert main(argv + out) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    if key is not None:
        assert key in err


def test_cli_config_file_defaults(study_csv, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": str(study_csv), "preset": "c", "seed": 11, "p_threshold": 0.1,
        "out_dir": str(tmp_path / "cfg_out"),
    }))
    code = main(["run", "--config", str(cfg)])
    assert code == 0
    manifest = RunManifest.from_json((tmp_path / "cfg_out" / "manifest.json").read_text())
    assert manifest.root_seed == 11
    assert manifest.p_threshold == 0.1
    # flags win over the config, also when they equal the flag defaults
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--config", str(cfg), "--seed", "0",
                 "--p-threshold", "0.05", "--out-dir", "runs/latest"])
    assert code == 0
    manifest = RunManifest.from_json(
        (tmp_path / "runs" / "latest" / "manifest.json").read_text())
    assert manifest.root_seed == 0
    assert manifest.p_threshold == 0.05
