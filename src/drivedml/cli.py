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
from dataclasses import asdict, dataclass
from io import StringIO
from pathlib import Path

from . import __version__
from .dml import ModelSpec, checked_json
from .errors import EstimationError, ValidationError
from .io import read_gaze_csv, read_timeseries, write_gaze_csv, write_timeseries_csv
from .presets import PRESET_NAMES
from .report import (
    RunManifest,
    atomic_write_text,
    emit_plot_data,
    read_json_file,
    render_ate_table,
    render_coefficient_table,
    replay_manifest,
    run_presets,
)
from .signals import extract_drive_features
from .simulate import (
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
from .study_data import NDRT_LEVELS, write_feature_table_csv


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
    p_extract.add_argument("--velocity-threshold", type=float, default=30.0)
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
    ecg = read_timeseries(args.ecg) if args.ecg else None
    eda = read_timeseries(args.eda) if args.eda else None
    resp = read_timeseries(args.resp) if args.resp else None
    gaze = read_gaze_csv(args.gaze, args.px_per_deg) if args.gaze else None
    if not any([ecg is not None, eda is not None, resp is not None, gaze is not None]):
        raise ValidationError("extract needs at least one signal file")
    features = extract_drive_features(
        ecg=ecg, eda=eda, resp=resp, gaze=gaze,
        velocity_threshold=args.velocity_threshold, px_per_deg=args.px_per_deg,
    )
    text = json.dumps(features, indent=2)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    else:
        print(text)
    if args.append_to:
        if args.participant is None or args.time is None:
            raise ValidationError("--append-to needs --participant and --time")
        _append_features(args.append_to, args.participant, args.time, features)
    return 0


def _append_features(path: str, participant: str, time_index: int, features: dict) -> None:
    with open(path, newline="", encoding="utf-8-sig") as f:
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
    hit = False
    for row in rows[1:]:
        row.extend([""] * (len(header) - len(row)))
        if row[p_col] == participant and row[t_col] == str(time_index):
            for name, value in features.items():
                row[header.index(name)] = repr(float(value))
            hit = True
    if not hit:
        raise ValidationError(
            f"{path}: no row with Participant={participant!r} Time={time_index}"
        )
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    atomic_write_text(path, buf.getvalue())


@dataclass
class _RunConfig:
    """The keys of a ``run --config`` file, with the defaults of their flags."""

    out_dir: str = "runs/latest"
    seed: int = 0
    p_threshold: float = 0.05
    strict: bool = False
    data: str = ""
    preset: str = ""


def _cmd_run(args) -> int:
    config = {}
    if args.config:
        config = read_json_file(args.config, lambda text: checked_json(_RunConfig, text))
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


def _cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.scenario == "plm":
        if args.kind == "discrete":
            scenario = PlmScenario(
                n=args.n, kind="discrete", levels=tuple(NDRT_LEVELS),
                level_effects=(0.0, 2.0, 5.0, 9.0, 7.0, 4.0, 8.5),
                gamma=args.gamma, delta=args.delta, seed=args.seed,
            )
        else:
            scenario = PlmScenario(
                n=args.n, effect_intercept=args.theta,
                gamma=args.gamma, delta=args.delta, seed=args.seed,
            )
        table, oracle = gen_plm_dataset(scenario)
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
        write_study_csv(rows, out_dir / "study.csv")
        print(f"wrote study.csv ({len(rows)} drives) to {out_dir}")
        return 0
    if args.scenario == "schedule":
        labels = expand_conditions(NDRT_LEVELS, 3)
        schedule = gen_experiment_schedule(args.participants, labels, args.seed)
        atomic_write_text(out_dir / "schedule.json", json.dumps(schedule, indent=2))
        print(f"wrote schedule.json ({len(schedule)} participants) to {out_dir}")
        return 0
    # signals
    profile = SignalProfile(
        scr_events=((20.0, 0.5), (50.0, 0.4), (80.0, 0.6)),
        gaze_steps=(
            GazeStep("fixation", 30.0),
            GazeStep("saccade", 0.05, move_deg=5.0),
            GazeStep("fixation", args.duration - 30.05),
        ),
    )
    bundle = gen_synthetic_signals(profile, args.duration)
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
        text = emit_plot_data(manifest, args.plot, args.model)
        if args.out:
            atomic_write_text(args.out, text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    if args.tables:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        threshold = args.p_threshold if args.p_threshold is not None else manifest.p_threshold
        for run in manifest.models:
            coef = [e for e in run.estimates if e.kind == "coefficient"]
            contrasts = [e for e in run.estimates if e.kind == "contrast"]
            text, _ = render_coefficient_table(coef, threshold)
            atomic_write_text(out_dir / f"model_{run.spec.name}_coefficients.txt", text)
            text, _ = render_ate_table(contrasts, threshold)
            atomic_write_text(out_dir / f"model_{run.spec.name}_ate.txt", text)
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
