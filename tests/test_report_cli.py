import copy
import csv
import dataclasses
import io
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from drivedml.boosting import GbmParams
from drivedml.cate_tree import fit_cate_tree
from drivedml.cli import main
from drivedml.dml import EffectEstimate, ModelSpec, make_estimate
from drivedml.errors import ValidationError
from drivedml.presets import build_preset
from drivedml.report import (
    RunManifest,
    atomic_write_text,
    emit_plot_data,
    estimates_csv,
    format_p,
    render_ate_table,
    render_coefficient_table,
    replay_manifest,
    run_presets,
)
from drivedml.simulate import gen_study_dataset, write_study_csv
from drivedml.study_data import NDRT_LEVELS

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
    assert run.cate_tree is not None


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
    assert run_e.cate_tree is not None
    assert "collider" in run_e.note

    from drivedml.presets import build_preset
    from drivedml.study_data import assemble_feature_table, load_drive_csv

    loaded = load_drive_csv(path)
    table = assemble_feature_table(loaded.records, build_preset("e"))
    assert table.n_rows == 820
    assert table.n_dropped == 62

    run_g = manifest.model("g")  # symbols as outcomes, no feature block
    assert run_g.cate_tree is None
    assert run_g.note is not None
    ates_g = [x for x in run_g.estimates if x.kind == "ate"]
    assert len(ates_g) == 17
    assert not (tmp_path / "out" / "model_g" / "cate_tree.dot").exists()


def test_note_follows_the_wiring_not_the_name(study_csv, tmp_path):
    # preset g's run and its replay carry g's note
    run_presets(study_csv, ["g"], tmp_path / "first", seed=4,
                outcome_params=SMALL, treatment_params=SMALL)
    assert main(["run", "--from-manifest", str(tmp_path / "first" / "manifest.json"),
                 "--out-dir", str(tmp_path / "replay")]) == 0
    notes = [RunManifest.from_json((tmp_path / run_dir / "manifest.json").read_text())
             .model("g").note for run_dir in ("first", "replay")]
    g_note = notes[0]
    assert "best guess" in g_note and notes[1] == g_note
    # a spec named g with other roles carries no note
    spec = tmp_path / "spec.json"
    spec.write_text(ModelSpec(name="g", outcomes=("HR",), treatments=("Time",),
                              confounders=("Age",), outcome_params=SMALL,
                              treatment_params=SMALL).to_json())
    assert main(["run", "--data", str(study_csv), "--spec", str(spec),
                 "--out-dir", str(tmp_path / "custom")]) == 0
    custom = RunManifest.from_json((tmp_path / "custom" / "manifest.json").read_text())
    assert custom.model("g").note is None
    # g's wiring under another name carries g's note
    mine = dataclasses.replace(build_preset("g", outcome_params=SMALL, treatment_params=SMALL),
                               name="mine")
    assert run_presets(study_csv, [], tmp_path / "mine", specs=[mine]).model("mine").note == g_note


def test_manifest_replay_is_bit_exact(study_csv, tmp_path):
    out1 = tmp_path / "first"
    manifest = run_presets(study_csv, ["c"], out1, seed=5,
                           outcome_params=SMALL, treatment_params=SMALL)
    replayed = replay_manifest(out1 / "manifest.json", tmp_path / "second")
    assert [e.to_jsonable() for e in manifest.model("c").estimates] == [
        e.to_jsonable() for e in replayed.model("c").estimates
    ]
    for name in ("coefficients_full.csv", "cate_tree.json", "cate_tree.dot"):
        first = (out1 / "model_c" / name).read_bytes()
        second = (tmp_path / "second" / "model_c" / name).read_bytes()
        assert first == second, name


def test_manifest_recording_subsample_one_replays(study_csv, tmp_path, capsys):
    # manifests written before row subsampling was removed record
    # "subsample": 1.0 in both learners' params
    out = tmp_path / "first"
    run_presets(study_csv, ["c"], out, seed=5, outcome_params=SMALL, treatment_params=SMALL)
    doc = json.loads((out / "manifest.json").read_text())
    for value, code in ((1.0, 0), (0.5, 2)):
        for key in ("outcome_params", "treatment_params"):
            doc["models"][0]["spec"][key]["subsample"] = value
        stored = out / f"manifest_{value}.json"
        stored.write_text(json.dumps(doc, indent=2))
        replay_dir = tmp_path / f"replay_{value}"
        assert main(["run", "--from-manifest", str(stored), "--out-dir", str(replay_dir)]) == code
    assert "'subsample' is 0.5" in capsys.readouterr().err
    assert not (tmp_path / "replay_0.5").exists()
    replayed = json.loads((tmp_path / "replay_1.0" / "manifest.json").read_text())
    for key in ("estimates", "fold_hash"):
        assert json.dumps(replayed["models"][0][key]) == json.dumps(doc["models"][0][key])


def test_manifest_with_tree_round_trips_as_text(study_csv, tmp_path):
    run_presets(study_csv, ["c"], tmp_path / "out", seed=5,
                outcome_params=SMALL, treatment_params=SMALL)
    text = (tmp_path / "out" / "manifest.json").read_text()
    manifest = RunManifest.from_json(text)
    assert manifest.model("c").cate_tree is not None
    assert manifest.to_json() == text


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


def _with_bad_age_cell(study_csv, path):
    with open(study_csv, newline="") as f:
        rows = list(csv.reader(f))
    rows[3][rows[0].index("Age")] = "abc"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    return path


@pytest.mark.parametrize("case", ["unknown-preset", "unparsable-cell", "missing-variable"])
def test_cli_rejected_run_creates_no_out_dir(study_csv, tmp_path, capsys, case):
    data, preset = study_csv, "zz"
    if case == "unparsable-cell":
        data, preset = _with_bad_age_cell(study_csv, tmp_path / "bad.csv"), "a"
    elif case == "missing-variable":
        data, preset = tmp_path / "keys.csv", "a"
        data.write_text("Participant,Time\n1,1\n1,2\n")
    out = tmp_path / "out" / "nested"
    assert main(["run", "--data", str(data), "--preset", preset, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    if case == "missing-variable":
        assert "unknown variable 'Age'" in err
    assert not (tmp_path / "out").exists()


def test_cli_estimation_exit_code(study_csv, tmp_path):
    from dataclasses import replace

    from drivedml.presets import build_preset

    spec = replace(build_preset("c", seed=1, outcome_params=SMALL, treatment_params=SMALL),
                   k_folds=200)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    assert main(["run", "--data", str(study_csv), "--spec", str(spec_path),
                 "--out-dir", str(tmp_path / "o")]) == 3


def test_cli_label_column_in_spec_exit_code(study_csv, tmp_path, capsys):
    spec = ModelSpec(name="x", outcomes=("KSS",), treatments=("NASA",),
                     confounders=("Participant",))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    assert main(["run", "--data", str(study_csv), "--spec", str(spec_path),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "'Participant'" in capsys.readouterr().err


def test_cli_repeated_preset_exit_code(study_csv, tmp_path, capsys):
    assert main(["run", "--data", str(study_csv), "--preset", "c,a,c",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "named more than once: ['c']" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_run_presets_rejects_specs_sharing_a_name(study_csv, tmp_path):
    from dataclasses import replace

    c = build_preset("c", seed=1, outcome_params=SMALL, treatment_params=SMALL)
    out = tmp_path / "out"
    with pytest.raises(ValidationError, match=r"models named more than once: \['c'\]"):
        run_presets(study_csv, [], out, specs=[c, replace(c, seed=2)])
    assert not out.exists()


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


@pytest.mark.parametrize("keys", [[], ["--participant", "P01"], ["--time", "1"]])
def test_cli_extract_append_to_without_keys_writes_nothing(tmp_path, capsys, keys):
    sig_dir = tmp_path / "sigs"
    assert main(["simulate", "--scenario", "signals", "--out-dir", str(sig_dir),
                 "--duration", "40"]) == 0
    capsys.readouterr()
    study = tmp_path / "mini.csv"
    write_study_csv(gen_study_dataset(seed=8, n_participants=2, repetitions=1), study)
    before = study.read_bytes()
    out = tmp_path / "features.json"
    assert main(["extract", "--gaze", str(sig_dir / "gaze.csv"), "--out", str(out),
                 "--append-to", str(study), *keys]) == 2
    captured = capsys.readouterr()
    assert "--append-to needs --participant and --time" in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert study.read_bytes() == before


@pytest.mark.parametrize("flag", ["--px-per-deg", "--velocity-threshold"])
@pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
def test_cli_extract_rejects_bad_gaze_params_before_reading(tmp_path, capsys, flag, value):
    # the gaze file does not exist: reading it would exit 4, not 2
    out = tmp_path / "features.json"
    assert main(["extract", "--gaze", str(tmp_path / "missing.csv"), "--out", str(out),
                 f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert f"{flag[2:].replace('-', '_')} must be finite and positive" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing-row", "no-time-column", "not-utf8", "repeated-row"])
def test_cli_extract_rejected_append_writes_nothing(tmp_path, capsys, case):
    sig_dir = tmp_path / "sigs"
    assert main(["simulate", "--scenario", "signals", "--out-dir", str(sig_dir),
                 "--duration", "40"]) == 0
    capsys.readouterr()
    study = tmp_path / "mini.csv"
    write_study_csv(gen_study_dataset(seed=8, n_participants=2, repetitions=1), study)
    participant = "P01"
    if case == "missing-row":
        participant = "P99"
    elif case == "no-time-column":
        study.write_text(study.read_text().replace("Time", "Drive", 1))
    elif case == "repeated-row":
        # data row 1 (P01 at Time 1) again, as data row 15
        study.write_text(study.read_text() + study.read_text().splitlines()[1] + "\n")
    else:
        study.write_bytes(study.read_bytes() + b"P02,\xff\n")
    before = study.read_bytes()
    out = tmp_path / "features.json"
    assert main(["extract", "--gaze", str(sig_dir / "gaze.csv"), "--out", str(out),
                 "--append-to", str(study), "--participant", participant, "--time", "1"]) == 2
    err = capsys.readouterr().err
    assert {"missing-row": "no row with Participant='P99' Time=1",
            "no-time-column": "needs Participant and Time columns",
            "not-utf8": "is not UTF-8 text",
            "repeated-row": "Participant='P01' Time=1 names more than one row: "
                            "data rows 1, 15"}[case] in err
    assert not out.exists()
    assert study.read_bytes() == before


def test_written_files_get_open_modes(tmp_path):
    previous = os.umask(0o027)
    try:
        new = tmp_path / "new.json"
        atomic_write_text(new, "{}")
        assert stat.S_IMODE(new.stat().st_mode) == 0o640
        # a replaced file keeps its own mode, here wider than the umask allows
        kept = tmp_path / "study.csv"
        kept.write_text("a\n")
        kept.chmod(0o664)
        atomic_write_text(kept, "b\n")
        assert stat.S_IMODE(kept.stat().st_mode) == 0o664
        assert kept.read_text() == "b\n"
        # a failed write leaves neither the file nor its temp file behind
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "bad.txt", "\ud800")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "study.csv"]
        os.umask(0o022)
        run_dir = tmp_path / "sim"
        assert main(["simulate", "--scenario", "signals", "--out-dir", str(run_dir),
                     "--duration", "40"]) == 0
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in run_dir.iterdir()} == {
            name: 0o644 for name in
            ("ecg.csv", "eda.csv", "resp.csv", "gaze.csv", "annotations.json")
        }
    finally:
        os.umask(previous)


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


def _spoil(path: Path, row: int) -> None:
    """Put a byte that is not UTF-8 into the first cell of data row ``row``."""
    lines = path.read_bytes().split(b"\n")
    lines[row] = lines[row][:1] + b"\xff" + lines[row][1:]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("case", [
    "extract-ecg", "extract-append-to", "run-data", "run-config", "run-spec", "extract-gaze",
])
def test_cli_non_utf8_input_exit_code(tmp_path, capsys, case):
    study = tmp_path / "study.csv"
    write_study_csv(gen_study_dataset(seed=8, n_participants=2, repetitions=1), study)
    sig_dir = tmp_path / "sigs"
    if case.startswith("extract"):
        assert main(["simulate", "--scenario", "signals", "--out-dir", str(sig_dir),
                     "--duration", "60"]) == 0
    ecg = sig_dir / "ecg.csv"
    doc = tmp_path / "doc.json"
    out = ["--out-dir", str(tmp_path / "o")]
    if case == "extract-ecg":
        bad, where = ecg, "data row 5"
        _spoil(ecg, 5)
        argv = ["extract", "--ecg", str(ecg)]
    elif case == "extract-gaze":
        # past the text the header check decodes, so numpy's own read of
        # the file meets the bad byte
        gaze = sig_dir / "gaze.csv"
        bad, where = gaze, "data row 1000"
        _spoil(gaze, 1000)
        argv = ["extract", "--gaze", str(gaze)]
    elif case == "extract-append-to":
        bad, where = study, "data row 3"
        _spoil(study, 3)
        argv = ["extract", "--ecg", str(ecg), "--append-to", str(study),
                "--participant", "P01", "--time", "1"]
    elif case == "run-data":
        bad, where = study, "data row 3"
        _spoil(study, 3)
        argv = ["run", "--data", str(study), "--preset", "a"] + out
    elif case == "run-config":
        bad, where = doc, "line 2"
        doc.write_bytes(b'{"seed": 1,\n "data": "study\xff.csv"}')
        argv = ["run", "--config", str(doc)]
    else:
        bad, where = doc, "line 2"  # the spec's name
        doc.write_bytes(build_preset("c", seed=1).to_json().encode().replace(
            b'"c"', b'"c\xff"', 1))
        argv = ["run", "--data", str(study), "--spec", str(doc)] + out
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {where} is not UTF-8 text" in err


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
_X = np.random.default_rng(3).normal(size=(40, len(_SPEC["features"])))
_TREE = fit_cate_tree(_X, np.where(_X[:, 2] > 0, 1.0, -1.0), max_depth=1,
                      feature_names=_SPEC["features"]).to_jsonable()
# a valid model run of the continuous spec _SPEC, with a one-split tree
_RUN = {"spec": _SPEC, "fold_hash": "", "note": None, "estimates": [],
        "cate_tree": _TREE, "treatment_range": {"Time": [1.0, 21.0]}}
# an ate row of _RUN's spec
_ATE = make_estimate("ate", "KSS", "Time", 0.1, 0.02, model_name="c").to_jsonable()
# a valid model run of preset b's discrete spec, with no estimates
_RUN_B = {"spec": json.loads(build_preset("b", seed=1).to_json()), "fold_hash": "",
          "note": None, "estimates": [], "cate_tree": None, "treatment_range": {}}


def _with_run(edit) -> str:
    """_MANIFEST holding _RUN edited in place by ``edit``, as JSON text."""
    run = copy.deepcopy(_RUN)
    edit(run)
    return _edited(_MANIFEST, lambda d: d["models"].append(run))


def test_cli_report_reads_valid_model_run(tmp_path):
    assert "split_feature" in _TREE["root"]
    path = tmp_path / "doc.json"
    path.write_text(_with_run(lambda r: r["estimates"].append(_ATE)))
    assert main(["report", "--manifest", str(path), "--tables",
                 "--out-dir", str(tmp_path / "o")]) == 0
    assert main(["report", "--manifest", str(path), "--plot", "continuous-ate-curves",
                 "--model", "c", "--out", str(tmp_path / "plot.csv")]) == 0


@pytest.mark.parametrize("flag, text, key", [
    ("--spec", '{"name": "c",', None),
    ("--spec", "[]", None),
    ("--spec", _edited(_SPEC, lambda d: d.pop("features")), "features"),
    ("--spec", _edited(_SPEC, lambda d: d["outcome_params"].update(depth=2)), "depth"),
    ("--spec", _edited(_SPEC, lambda d: d["outcome_params"].update(n_estimators=0)),
     "n_estimators"),
    ("--spec", _edited(_SPEC, lambda d: d.update(k_folds="5")), "k_folds"),
    ("--spec", _edited(_SPEC, lambda d: d.update(features=[["Age"], ["Age"]])), "features"),
    ("--spec", _edited(_SPEC, lambda d: d.update(baseline="Base")), "baseline"),
    ("--spec", _edited(_SPEC, lambda d: d.update(
        treatments=["NDRT"], treatment_kind="discrete", baseline="Base",
        levels=["Base", "NB0", "NB0", "NB1"])), "['NB0']"),
    ("--from-manifest", _edited(_MANIFEST, lambda d: d.pop("created_utc")), "created_utc"),
    ("--manifest", _edited(_MANIFEST, lambda d: d.pop("created_utc")), "created_utc"),
    ("--manifest", _edited(_MANIFEST, lambda d: d["models"].append(_MODEL_RUN)), "k_folds"),
    ("--manifest", _with_run(lambda r: r.update(bogus=1)), "bogus"),
    ("--manifest", _with_run(lambda r: r.update(fold_hash=5)), "fold_hash"),
    ("--manifest", _with_run(lambda r: r.update(note=5)), "note"),
    ("--manifest", _with_run(lambda r: r.update(treatment_range={})), "treatment_range"),
    ("--manifest", _with_run(lambda r: r.update(treatment_range={"Time": [1.0]})),
     "treatment_range"),
    ("--manifest", _with_run(lambda r: r.update(treatment_range={"Time": "x"})),
     "treatment_range"),
    ("--manifest", _with_run(lambda r: r["cate_tree"]["root"]["left"].pop("n")), "'n'"),
    ("--manifest", _with_run(lambda r: r["cate_tree"]["root"].update(split_feature="Height")),
     "split_feature"),
    ("--manifest", _with_run(lambda r: r.update(cate_tree=[])), "cate_tree"),
    ("--manifest", _edited(_MANIFEST, lambda d: d["models"].extend([_RUN, _RUN])),
     "models[1]: name 'c' repeats models[0]"),
    ("--manifest", _with_run(lambda r: r["estimates"].append(dict(_ATE, outcome="NASA"))),
     "estimates[0]: key 'outcome'"),
    ("--manifest", _with_run(lambda r: r["estimates"].extend([_ATE, dict(_ATE, se="x")])),
     "models[0]: estimates[1]: key 'se'"),
    ("--manifest", _with_run(lambda r: r["estimates"].append(dict(_ATE, kind="effect"))),
     "estimates[0]: key 'kind'"),
    ("--plot-curves", _with_run(lambda r: r["estimates"].append(dict(_ATE, treatment="Speed"))),
     "estimates[0]: key 'treatment'"),
    ("--plot-ordering", _edited(_MANIFEST, lambda d: d["models"].append(_RUN_B)),
     "'estimates'"),
    ("--from-manifest", _edited(_MANIFEST, lambda d: d.update(inputs=[1])), "inputs[0]"),
    ("--from-manifest", _edited(_MANIFEST, lambda d: d.update(inputs=[{}])), "'path'"),
    ("--from-manifest", _edited(_MANIFEST, lambda d: d.update(
        inputs=[{"path": 5, "sha256": "x"}])), "'path'"),
    ("--from-manifest", _edited(_MANIFEST, lambda d: d.update(
        inputs=[{"path": "study.csv"}])), "'sha256'"),
], ids=[
    "spec-invalid-json", "spec-not-object", "spec-no-features", "spec-unknown-param",
    "spec-zero-trees", "spec-string-k_folds", "spec-list-feature",
    "spec-continuous-baseline", "spec-repeated-level", "replay-no-created_utc",
    "report-no-created_utc", "report-model-string-k_folds", "report-model-unknown-key",
    "report-model-int-fold_hash", "report-model-int-note", "report-model-empty-range",
    "report-model-short-range", "report-model-string-range", "report-tree-node-no-n",
    "report-tree-unknown-split-feature", "report-tree-list", "report-repeated-model-name",
    "report-estimate-unknown-outcome", "report-estimate-string-se",
    "report-estimate-unknown-kind", "plot-ate-unknown-treatment", "plot-discrete-no-ate",
    "replay-input-not-object",
    "replay-input-no-path", "replay-input-int-path", "replay-input-no-sha256",
])
def test_cli_malformed_spec_or_manifest_exit_code(tmp_path, capsys, flag, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    out = ["--out-dir", str(tmp_path / "o")]
    argv = {
        "--spec": ["run", "--data", str(tmp_path / "study.csv"), "--spec", str(path)],
        "--from-manifest": ["run", "--from-manifest", str(path)],
        "--manifest": ["report", "--manifest", str(path), "--tables"],
        "--plot-curves": ["report", "--manifest", str(path),
                          "--plot", "continuous-ate-curves", "--model", "c"],
        "--plot-ordering": ["report", "--manifest", str(path),
                            "--plot", "ndrt-ordering", "--model", "b"],
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


@pytest.mark.parametrize("value", ["nan", "-1", "7", "0", "inf"])
@pytest.mark.parametrize("entry", ["run-flag", "run-config", "report-flag", "manifest"])
def test_invalid_p_threshold_exit_code(study_csv, tmp_path, capsys, entry, value):
    doc = tmp_path / "doc.json"
    out = tmp_path / "o"
    if entry == "run-flag":
        argv = ["run", "--data", str(study_csv), "--preset", "c", "--p-threshold", value]
        name = "--p-threshold"
    elif entry == "run-config":
        # json.dumps writes nan and inf as NaN and Infinity, which json.loads reads
        doc.write_text(json.dumps({"data": str(study_csv), "preset": "c",
                                   "p_threshold": float(value)}))
        argv = ["run", "--config", str(doc)]
        name = "key 'p_threshold'"
    elif entry == "report-flag":
        doc.write_text(_with_run(lambda r: None))
        argv = ["report", "--manifest", str(doc), "--tables", "--p-threshold", value]
        name = "--p-threshold"
    else:
        doc.write_text(_edited(_MANIFEST, lambda d: d.update(p_threshold=float(value))))
        argv = ["report", "--manifest", str(doc), "--tables"]
        name = "key 'p_threshold'"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name} must be a number in (0, 1]" in err
    assert not out.exists()


def test_run_presets_rejects_invalid_p_threshold(study_csv, tmp_path):
    with pytest.raises(ValidationError, match=r"p_threshold must be a number in \(0, 1\]"):
        run_presets(study_csv, ["c"], tmp_path / "o", p_threshold=float("nan"))
    assert not (tmp_path / "o").exists()
    # 1 is the largest threshold: every estimate is significant
    manifest = run_presets(study_csv, ["c"], tmp_path / "o", p_threshold=1.0,
                           outcome_params=SMALL, treatment_params=SMALL)
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["p_threshold"] == 1.0
    assert RunManifest.from_json(manifest.to_json()).p_threshold == 1.0


@pytest.mark.parametrize("duration", ["10", "30.05", "-5", "nan", "inf"])
def test_cli_simulate_signals_rejects_bad_duration(tmp_path, capsys, duration):
    out = tmp_path / "sigs"
    assert main(["simulate", "--scenario", "signals", "--out-dir", str(out),
                 "--duration", duration]) == 2
    assert "--duration must be finite and exceed 30.05 s" in capsys.readouterr().err
    assert not (out / "gaze.csv").exists()


def test_cli_simulate_signals_truth_within_duration(tmp_path):
    out = tmp_path / "sigs"
    assert main(["simulate", "--scenario", "signals", "--out-dir", str(out),
                 "--duration", "40"]) == 0
    truth = json.loads((out / "annotations.json").read_text())
    assert truth["scr_events"] == [[20.0, 0.5]]
    assert [e["end"] for e in truth["gaze_events"]] == [30.0, 30.05, 40.0]
    with open(out / "gaze.csv", newline="") as f:
        assert len(list(csv.reader(f))) - 1 == 40 * 60


def test_cli_discrete_plm_table_runs(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", "plm", "--kind", "discrete", "--n", "300",
                 "--out-dir", str(sim)]) == 0
    with open(sim / "plm_data.csv", newline="") as f:
        assert next(csv.reader(f)) == ["x1", "w1", "NDRT", "outcome"]
    spec = tmp_path / "spec.json"
    spec.write_text(ModelSpec(name="plm", features=("x1",), outcomes=("outcome",),
                              treatments=("NDRT",), confounders=("w1",),
                              treatment_kind="discrete", baseline="Base",
                              levels=tuple(NDRT_LEVELS), outcome_params=SMALL,
                              treatment_params=SMALL).to_json())
    assert main(["run", "--data", str(sim / "plm_data.csv"), "--spec", str(spec),
                 "--out-dir", str(tmp_path / "o")]) == 0
    run = RunManifest.from_json((tmp_path / "o" / "manifest.json").read_text()).model("plm")
    assert {e.t1 for e in run.estimates if e.kind == "contrast"} == set(NDRT_LEVELS[1:])


@pytest.mark.parametrize("args", [
    ["--scenario", "plm", "--n", "0"],
    ["--scenario", "signals", "--duration", "10"],
    ["--scenario", "study", "--missing-rows", "-1"],
    ["--scenario", "study", "--participants", "0"],
    ["--scenario", "schedule", "--participants", "-3"],
    ["--scenario", "plm", "--gamma", "inf"],
    ["--scenario", "plm", "--theta", "nan"],
    ["--scenario", "plm", "--kind", "discrete", "--delta=-inf"],
])
def test_cli_rejected_simulate_creates_no_out_dir(tmp_path, capsys, args):
    out = tmp_path / "out" / "nested"
    assert main(["simulate", *args, "--out-dir", str(out)]) == 2
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
