"""Command-line front end.

Verbs:
  extract   raw signal files -> per-drive feature values
  run       execute shipped presets or explicit model specs over a study CSV
  simulate  generate synthetic datasets, schedules and raw signals
  report    re-render tables or emit plot-ready CSVs from a manifest

Exit codes: 0 success, 2 validation error, 3 estimation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, replace
from io import StringIO
from pathlib import Path

from . import __version__
from .dml import ModelSpec
from .errors import EstimationError, ValidationError, checked_json, utf8_text
from .io import read_gaze_csv, read_timeseries, write_gaze_csv, write_timeseries_csv
from .presets import PRESET_NAMES
from .report import (
    RunManifest,
    atomic_write_text,
    check_p_threshold,
    emit_plot_data,
    read_json_file,
    replay_manifest,
    run_presets,
    significant_tables,
)
from .signals import IVT_VELOCITY_THRESHOLD, check_gaze_params, extract_drive_features
from .simulate import (
    TASK_LOAD,
    GazeStep,
    PlmScenario,
    SignalProfile,
    expand_conditions,
    gen_experiment_schedule,
    gen_plm_dataset,
    gen_study_dataset,
    gen_synthetic_signals,
    write_study_csv,
)
from .study_data import NDRT_LEVELS, _parse_cell, write_feature_table_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivedml",
        description="driver-state causal analysis: feature extraction and "
                    "double machine learning",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="signals -> feature values")
    p_extract.add_argument("--ecg", help="ECG file (csv or .f64 + sidecar)")
    p_extract.add_argument("--eda", help="EDA file")
    p_extract.add_argument("--resp", help="respiration file")
    p_extract.add_argument("--gaze", help="gaze csv (time,x,y,pupil_area)")
    p_extract.add_argument("--px-per-deg", type=float, default=35.0)
    p_extract.add_argument("--velocity-threshold", type=float, default=IVT_VELOCITY_THRESHOLD)
    p_extract.add_argument("--out", help="write features as JSON here (default stdout)")
    p_extract.add_argument("--append-to", help="study CSV to update by column name")
    p_extract.add_argument("--participant", help="row key for --append-to")
    p_extract.add_argument("--time", type=int, help="row key for --append-to")

    p_run = sub.add_parser("run", help="execute model presets over a study CSV")
    p_run.add_argument("--config", help="JSON config; flags override its keys")
    p_run.add_argument("--data", help="study CSV path")
    p_run.add_argument("--preset", help="comma-separated preset names "
                                        f"({', '.join(PRESET_NAMES)})")
    p_run.add_argument("--spec", help="JSON ModelSpec file (instead of presets)")
    p_run.add_argument("--from-manifest", help="replay a stored run")
    # defaults live in _RunConfig so that any flag given, even one equal to
    # its default, overrides the config file
    p_run.add_argument("--out-dir")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--p-threshold", type=float)
    p_run.add_argument("--strict", action="store_true", default=None)
    p_run.add_argument("--export-residuals", action="store_true")

    p_sim = sub.add_parser("simulate", help="synthetic data with ground truth")
    p_sim.add_argument("--scenario", required=True,
                       choices=["plm", "study", "schedule", "signals"])
    p_sim.add_argument("--out-dir", default="simulated")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n", type=int, default=10000)
    p_sim.add_argument("--theta", type=float, default=2.0)
    p_sim.add_argument("--gamma", type=float, default=1.0)
    p_sim.add_argument("--delta", type=float, default=1.0)
    p_sim.add_argument("--kind", choices=["continuous", "discrete"], default="continuous")
    p_sim.add_argument("--participants", type=int, default=42)
    p_sim.add_argument("--missing-rows", type=int, default=0)
    p_sim.add_argument("--duration", type=float, default=120.0)

    p_rep = sub.add_parser("report", help="re-render outputs from a manifest")
    p_rep.add_argument("--manifest", required=True)
    p_rep.add_argument("--plot", choices=["continuous-ate-curves", "ndrt-ordering"])
    p_rep.add_argument("--model", help="model name within the manifest")
    p_rep.add_argument("--tables", action="store_true", help="re-render text tables")
    p_rep.add_argument("--out", help="output file (plot CSV)")
    p_rep.add_argument("--out-dir", default="reports")
    p_rep.add_argument("--p-threshold", type=float, default=None)
    return parser


def _cmd_extract(args) -> int:
    # checked before any recording is read, so a rejected call writes nothing
    if args.append_to and (args.participant is None or args.time is None):
        raise ValidationError("--append-to needs --participant and --time")
    check_gaze_params(args.velocity_threshold, args.px_per_deg)

    ecg = read_timeseries(args.ecg) if args.ecg else None
    eda = read_timeseries(args.eda) if args.eda else None
    resp = read_timeseries(args.resp) if args.resp else None
    gaze = read_gaze_csv(args.gaze, args.px_per_deg) if args.gaze else None
    if not any([ecg is not None, eda is not None, resp is not None, gaze is not None]):
        raise ValidationError("extract needs at least one signal file")
    features = extract_drive_features(
        ecg=ecg, eda=eda, resp=resp, gaze=gaze, velocity_threshold=args.velocity_threshold,
    )
    text = json.dumps(features, indent=2)
    # the study CSV is checked and rebuilt first, so a rejected one writes nothing
    study = (_appended_study_csv(args.append_to, args.participant, args.time, features)
             if args.append_to else None)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    else:
        print(text)
    if study is not None:
        atomic_write_text(args.append_to, study)
    return 0


def _appended_study_csv(path: str, participant: str, time_index: int, features: dict) -> str:
    """The text of the study CSV at ``path`` with ``features`` written into
    the one row of ``participant`` at ``time_index``, new columns appended."""
    with utf8_text(path, csv_rows=True), open(path, newline="", encoding="utf-8-sig") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValidationError(f"{path}: empty study CSV")
    header = rows[0]
    for name in features:
        if name not in header:
            header.append(name)
    try:
        p_col = header.index("Participant")
        t_col = header.index("Time")
    except ValueError:
        raise ValidationError(f"{path}: needs Participant and Time columns") from None
    for row in rows[1:]:
        row.extend([""] * (len(header) - len(row)))
    key = f"Participant={participant!r} Time={time_index}"
    # the keys as the loader parses them, so the row found is the one run reads
    hits = [i for i in range(1, len(rows))
            if _parse_cell(rows[i][p_col], "Participant", i) == participant
            and _parse_cell(rows[i][t_col], "Time", i) == time_index]
    if not hits:
        raise ValidationError(f"{path}: no row with {key}")
    if len(hits) > 1:
        raise ValidationError(f"{path}: {key} names more than one row: "
                              f"data rows {', '.join(map(str, hits))}")
    for name, value in features.items():
        rows[hits[0]][header.index(name)] = repr(float(value))
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@dataclass
class _RunConfig:
    """The keys of a ``run --config`` file, with the defaults of their flags."""

    out_dir: str = "runs/latest"
    seed: int = 0
    p_threshold: float = 0.05
    strict: bool = False
    data: str = ""
    preset: str = ""


def _read_run_config(text: str) -> dict:
    config = checked_json(_RunConfig, text)
    if "p_threshold" in config:
        check_p_threshold(config["p_threshold"], "key 'p_threshold'")
    return config


def _cmd_run(args) -> int:
    config = {}
    if args.config:
        config = read_json_file(args.config, _read_run_config)
    if args.p_threshold is not None:
        check_p_threshold(args.p_threshold, "--p-threshold")
    settings = asdict(_RunConfig(**config))
    for key in settings:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    out_dir = settings["out_dir"]

    if args.from_manifest:
        replay_manifest(args.from_manifest, out_dir)
        print(f"replayed manifest into {out_dir}")
        return 0

    data = settings["data"]
    if not data:
        raise ValidationError("run needs --data (or a config with 'data')")
    specs = None
    preset_names: list[str] = []
    if args.spec:
        specs = [read_json_file(args.spec, ModelSpec.from_json)]
    else:
        raw = settings["preset"]
        if not raw:
            raise ValidationError("run needs --preset or --spec")
        preset_names = [p.strip() for p in raw.split(",") if p.strip()]
    manifest = run_presets(
        data, preset_names, out_dir,
        seed=settings["seed"], p_threshold=float(settings["p_threshold"]),
        strict=settings["strict"],
        specs=specs, export_residuals=args.export_residuals,
    )
    print(f"wrote {len(manifest.models)} model runs to {out_dir}")
    return 0


# the signals scenario's script: SCR (onset s, amplitude uS) and the
# length of the gaze fixation and saccade before the last fixation
_SIGNALS_SCR_EVENTS = ((20.0, 0.5), (50.0, 0.4), (80.0, 0.6))
_SIGNALS_GAZE_LEAD_S = 30.05


def _cmd_simulate(args) -> int:
    # each scenario generates before it creates --out-dir, so a rejected
    # argument leaves nothing behind
    out_dir = Path(args.out_dir)
    if args.scenario == "plm":
        if args.kind == "discrete":
            scenario = PlmScenario(
                n=args.n, kind="discrete", levels=tuple(NDRT_LEVELS),
                level_effects=tuple(TASK_LOAD[level] for level in NDRT_LEVELS),
                gamma=args.gamma, delta=args.delta, seed=args.seed,
            )
        else:
            scenario = PlmScenario(
                n=args.n, effect_intercept=args.theta,
                gamma=args.gamma, delta=args.delta, seed=args.seed,
            )
        table, oracle = gen_plm_dataset(scenario)
        if args.kind == "discrete":
            # the loader reads level labels only from a column named NDRT,
            # and the scenario draws NDRT's levels
            names = ["NDRT" if c == "treatment" else c for c in table.column_names]
            table = replace(table, column_names=names,
                            categorical_levels={"NDRT": table.categorical_levels["treatment"]})
        out_dir.mkdir(parents=True, exist_ok=True)
        write_feature_table_csv(table, out_dir / "plm_data.csv")
        atomic_write_text(out_dir / "plm_oracle.json", json.dumps({
            "true_ate": oracle.true_ate.tolist(),
            "naive_estimate": oracle.naive_estimate.tolist(),
            "naive_se": oracle.naive_se.tolist(),
            "effect_intercept": oracle.effect_intercept,
            "effect_slopes": list(oracle.effect_slopes),
        }, indent=2))
        print(f"wrote plm_data.csv and plm_oracle.json to {out_dir}")
        return 0
    if args.scenario == "study":
        rows = gen_study_dataset(
            seed=args.seed, n_participants=args.participants,
            missing_rows=args.missing_rows,
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        write_study_csv(rows, out_dir / "study.csv")
        print(f"wrote study.csv ({len(rows)} drives) to {out_dir}")
        return 0
    if args.scenario == "schedule":
        labels = expand_conditions(NDRT_LEVELS, 3)
        schedule = gen_experiment_schedule(args.participants, labels, args.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out_dir / "schedule.json", json.dumps(schedule, indent=2))
        print(f"wrote schedule.json ({len(schedule)} participants) to {out_dir}")
        return 0
    # signals: a 30 s fixation and a 50 ms saccade, then one fixation to the end
    if not _SIGNALS_GAZE_LEAD_S < args.duration < float("inf"):
        raise ValidationError(
            f"--duration must be finite and exceed {_SIGNALS_GAZE_LEAD_S:g} s, the signals "
            f"scenario's scripted fixation and saccade; got {args.duration!r}"
        )
    profile = SignalProfile(
        scr_events=tuple(e for e in _SIGNALS_SCR_EVENTS if e[0] < args.duration),
        gaze_steps=(
            GazeStep("fixation", 30.0),
            GazeStep("saccade", 0.05, move_deg=5.0),
            GazeStep("fixation", args.duration - _SIGNALS_GAZE_LEAD_S),
        ),
    )
    bundle = gen_synthetic_signals(profile, args.duration)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_timeseries_csv(bundle.ecg, out_dir / "ecg.csv")
    write_timeseries_csv(bundle.eda, out_dir / "eda.csv")
    write_timeseries_csv(bundle.resp, out_dir / "resp.csv")
    write_gaze_csv(bundle.gaze, out_dir / "gaze.csv")
    atomic_write_text(out_dir / "annotations.json",
                      json.dumps(bundle.truth.to_jsonable(), indent=2))
    print(f"wrote ecg/eda/resp/gaze CSVs and annotations.json to {out_dir}")
    return 0


def _cmd_report(args) -> int:
    manifest = read_json_file(args.manifest, RunManifest.from_json)
    if args.plot:
        if not args.model:
            raise ValidationError("--plot needs --model")
        try:
            text = emit_plot_data(manifest, args.plot, args.model)
        except ValidationError as exc:
            raise ValidationError(f"{args.manifest}: {exc}") from None
        if args.out:
            atomic_write_text(args.out, text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    if args.tables:
        threshold = manifest.p_threshold
        if args.p_threshold is not None:
            threshold = check_p_threshold(args.p_threshold, "--p-threshold")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for run in manifest.models:
            coef_text, ate_text = significant_tables(run.estimates, threshold)
            atomic_write_text(out_dir / f"model_{run.spec.name}_coefficients.txt", coef_text)
            atomic_write_text(out_dir / f"model_{run.spec.name}_ate.txt", ate_text)
        print(f"re-rendered tables for {len(manifest.models)} models into {out_dir}")
        return 0
    raise ValidationError("report needs --plot or --tables")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "extract":
            return _cmd_extract(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "report":
            return _cmd_report(args)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
