"""Run orchestration, table rendering, manifests and plot-ready exports.

Tables follow the study's reporting layout: a coefficient table
(Model X Y T Estimation SE Z Stat p-value 95%CI bounds) and a
discrete-treatment ATE table (Model Y T0 T1 ...). Significant rows are
filtered at the configured p threshold; the unfiltered CSV is always
written alongside. All output files are written atomically (temp file
plus rename) and every run is captured in a JSON manifest that replays
bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cate_tree import cate_tree_from_json, fit_cate_tree, render_tree
from .dml import (
    CI_Z,
    DmlResult,
    EffectEstimate,
    ModelSpec,
    checked_json,
    const_marginal_effect,
    export_residuals_csv,
    fit_dml,
)
from .errors import ValidationError
from .presets import build_preset, preset_note
from .rng import derive_seed
from .study_data import assemble_feature_table, load_drive_csv

COEF_HEADER = "Model X Y T Estimation SE Z Stat p-value 95%CI-lower 95%CI-upper"
ATE_HEADER = "Model Y T0 T1 Estimation SE Z Stat p-value 95%CI-lower 95%CI-upper"

CSV_FIELDS = [
    "kind", "model_name", "outcome", "treatment", "feature", "t0", "t1",
    "estimation", "se", "z", "p", "ci_low", "ci_high",
]


def format_p(p: float) -> str:
    """p-value per the reporting convention: '<.0001' floor, no leading zero."""
    if p < 1e-4:
        return "<.0001"
    if p >= 0.0095:
        s = f"{p:.2f}"
    elif p >= 0.00095:
        s = f"{p:.3f}"
    else:
        s = f"{p:.4f}"
    return s.lstrip("0") if s.startswith("0.") else s


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def coefficient_row_text(e: EffectEstimate) -> str:
    return " ".join([
        f"({e.model_name})", e.feature or "-", e.outcome, e.treatment,
        _fmt(e.estimation), _fmt(e.se), _fmt(e.z), format_p(e.p),
        _fmt(e.ci_low), _fmt(e.ci_high),
    ])


def ate_row_text(e: EffectEstimate) -> str:
    return " ".join([
        f"({e.model_name})", e.outcome, e.t0 or "-", e.t1 or "-",
        _fmt(e.estimation), _fmt(e.se), _fmt(e.z), format_p(e.p),
        _fmt(e.ci_low), _fmt(e.ci_high),
    ])


def estimates_csv(estimates) -> str:
    """Full-precision CSV of every estimate row, unfiltered."""
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_FIELDS)
    for e in estimates:
        d = e.to_jsonable()
        row = []
        for f in CSV_FIELDS:
            v = d[f]
            row.append(repr(v) if isinstance(v, float) else ("" if v is None else v))
        writer.writerow(row)
    return buf.getvalue()


def render_coefficient_table(estimates, p_threshold: float = 0.05) -> tuple[str, str]:
    """(significant-rows text table, full CSV) for coefficient estimates."""
    significant = [e for e in estimates if e.p < p_threshold]
    lines = [COEF_HEADER] + [coefficient_row_text(e) for e in significant]
    return "\n".join(lines) + "\n", estimates_csv(estimates)


def render_ate_table(contrasts, p_threshold: float = 0.05) -> tuple[str, str]:
    """(significant-rows text table, full CSV) for discrete ATE contrasts.

    An empty contrast set (continuous treatment) renders a notice instead
    of a table.
    """
    if not contrasts:
        return "no discrete treatment contrasts for this model\n", estimates_csv([])
    significant = [e for e in contrasts if e.p < p_threshold]
    lines = [ATE_HEADER] + [ate_row_text(e) for e in significant]
    return "\n".join(lines) + "\n", estimates_csv(contrasts)


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json_file(path: str | Path, parse):
    """``parse`` applied to a file's text; a ValidationError names the file."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        return parse(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class ModelRun:
    spec: ModelSpec
    fold_hash: str
    estimates: list
    cate_tree_json: str | None
    treatment_range: dict
    note: str | None = None

    def to_jsonable(self) -> dict:
        return {
            "spec": json.loads(self.spec.to_json()),
            "fold_hash": self.fold_hash,
            "note": self.note,
            "estimates": [e.to_jsonable() for e in self.estimates],
            "cate_tree": json.loads(self.cate_tree_json) if self.cate_tree_json else None,
            "treatment_range": self.treatment_range,
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "ModelRun":
        keys = ("spec", "fold_hash", "estimates", "cate_tree", "treatment_range")
        if not isinstance(d, dict) or not all(key in d for key in keys):
            raise ValidationError(f"a model run must be an object with keys {keys}")
        estimates = [EffectEstimate(**checked_json(EffectEstimate, e)) for e in d["estimates"]]
        tree = json.dumps(d["cate_tree"]) if d["cate_tree"] else None
        return cls(
            spec=ModelSpec.from_json(json.dumps(d["spec"])),
            fold_hash=d["fold_hash"],
            estimates=estimates,
            cate_tree_json=tree,
            treatment_range=d["treatment_range"],
            note=d.get("note"),
        )


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly."""

    version: str
    created_utc: str
    root_seed: int
    p_threshold: float
    strict: bool
    inputs: list
    models: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "tool": "drivedml",
                "version": self.version,
                "created_utc": self.created_utc,
                "root_seed": self.root_seed,
                "p_threshold": self.p_threshold,
                "strict": self.strict,
                "inputs": self.inputs,
                "models": [m.to_jsonable() for m in self.models],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        d = checked_json(cls, text, drop=("tool",))
        models = []
        for i, m in enumerate(d.pop("models", [])):
            try:
                models.append(ModelRun.from_jsonable(m))
            except ValidationError as exc:
                raise ValidationError(f"models[{i}]: {exc}") from None
        return cls(**d, models=models)

    def model(self, name: str) -> ModelRun:
        for m in self.models:
            if m.spec.name == name:
                return m
        raise ValidationError(f"model {name!r} not present in manifest")


def run_model_on_table(table, spec: ModelSpec) -> tuple[DmlResult, str | None]:
    """Fit one model and, when features exist, its heterogeneity tree.

    The tree (depth 3, 10 rows per leaf) splits the pointwise effects
    flattened to (n, outcomes * components): its rendered rows group by
    outcome, its columns by treatment component.
    """
    result = fit_dml(table, spec)
    tree_json = None
    if spec.features:
        effects = const_marginal_effect(result.final, result.feature_matrix)
        n, m, ny = effects.shape
        tree = fit_cate_tree(
            result.feature_matrix, effects.transpose(0, 2, 1).reshape(n, ny * m),
            max_depth=3, min_leaf=10, feature_names=list(spec.features),
            component_shape=(ny, m), component_labels=[
                f"{o}|{c}" for o in result.final.outcome_labels
                for c in result.final.component_labels
            ],
        )
        tree_json = render_tree(tree, "json")
    return result, tree_json


def _treatment_range(table, spec: ModelSpec) -> dict:
    out = {}
    if spec.treatment_kind == "continuous":
        for name in spec.treatments:
            col = table.column(name)
            out[name] = [float(col.min()), float(col.max())]
    return out


def _now_utc() -> str:
    return datetime.now(timezone.utc).isoformat()


def run_presets(
    data_path: str | Path,
    preset_names,
    out_dir: str | Path,
    seed: int = 0,
    p_threshold: float = 0.05,
    strict: bool = False,
    outcome_params=None,
    treatment_params=None,
    specs=None,
    export_residuals: bool = False,
) -> RunManifest:
    """Execute presets (or explicit specs) over a study CSV and write outputs."""
    data_path = Path(data_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    loaded = load_drive_csv(data_path, strict=strict)

    models: list[ModelRun] = []
    if specs is None:
        specs = []
        for name in preset_names:
            spec = build_preset(
                name,
                seed=derive_seed(seed, "preset", name),
                outcome_params=outcome_params,
                treatment_params=treatment_params,
            )
            specs.append(spec)

    manifest = RunManifest(
        version=__version__,
        created_utc=_now_utc(),
        root_seed=seed,
        p_threshold=p_threshold,
        strict=strict,
        # relative to the manifest's directory, where replay resolves it
        inputs=[{"path": os.path.relpath(data_path, out_dir),
                 "sha256": file_sha256(data_path)}],
    )

    for spec in specs:
        table = assemble_feature_table(loaded.records, spec)
        result, tree_json = run_model_on_table(table, spec)
        run = ModelRun(
            spec=spec,
            fold_hash=result.fold_hash,
            estimates=result.all_estimates(),
            cate_tree_json=tree_json,
            treatment_range=_treatment_range(table, spec),
            note=preset_note(spec.name),
        )
        models.append(run)
        _write_model_outputs(out_dir, run, p_threshold)
        if export_residuals:
            export_residuals_csv(
                result.nuisance, out_dir / f"model_{spec.name}" / "residuals.csv"
            )
    manifest.models = models
    atomic_write_text(out_dir / "manifest.json", manifest.to_json())
    return manifest


def _write_model_outputs(out_dir: Path, run: ModelRun, p_threshold: float) -> None:
    model_dir = out_dir / f"model_{run.spec.name}"
    model_dir.mkdir(parents=True, exist_ok=True)
    coef = [e for e in run.estimates if e.kind == "coefficient"]
    contrasts = [e for e in run.estimates if e.kind == "contrast"]
    ates = [e for e in run.estimates if e.kind == "ate"]

    text, full = render_coefficient_table(coef, p_threshold)
    atomic_write_text(model_dir / "coefficients_significant.txt", text)
    atomic_write_text(model_dir / "coefficients_full.csv", full)

    text, _ = render_ate_table(contrasts, p_threshold)
    atomic_write_text(model_dir / "ate_significant.txt", text)
    atomic_write_text(model_dir / "ate_full.csv", estimates_csv(ates + contrasts))

    if run.cate_tree_json:
        tree = cate_tree_from_json(run.cate_tree_json)
        atomic_write_text(model_dir / "cate_tree.json", run.cate_tree_json)
        atomic_write_text(model_dir / "cate_tree.dot", render_tree(tree, "dot"))


def replay_manifest(manifest_path: str | Path, out_dir: str | Path) -> RunManifest:
    """Re-execute a stored run; numeric outputs reproduce bit-exactly.

    A relative input path is resolved against the manifest's directory,
    so replay works from any current directory.
    """
    manifest_path = Path(manifest_path)
    stored = read_json_file(manifest_path, RunManifest.from_json)
    if len(stored.inputs) != 1:
        raise ValidationError("manifest must reference exactly one input file")
    data_path = manifest_path.parent / stored.inputs[0]["path"]
    if not data_path.exists():
        raise ValidationError(f"manifest input {data_path} does not exist")
    if file_sha256(data_path) != stored.inputs[0]["sha256"]:
        raise ValidationError(f"input file {data_path} has changed since the manifest")
    return run_presets(
        data_path,
        [],
        out_dir,
        seed=stored.root_seed,
        p_threshold=stored.p_threshold,
        strict=stored.strict,
        specs=[m.spec for m in stored.models],
    )


def emit_plot_data(manifest: RunManifest, which: str, model_name: str, grid_points: int = 50) -> str:
    """Plot-ready CSV from a manifest (no image rendering).

    ``continuous-ate-curves``: effect of moving a continuous treatment
    from its observed minimum, with CI band. ``ndrt-ordering``: discrete
    levels ordered by their ATE on the primary outcome.
    """
    run = manifest.model(model_name)
    buf = _io.StringIO()
    writer = csv.writer(buf)
    if which == "continuous-ate-curves":
        if run.spec.treatment_kind != "continuous":
            raise ValidationError(f"model {model_name!r} has no continuous treatment")
        writer.writerow(["model", "outcome", "treatment", "treatment_value",
                         "effect", "ci_low", "ci_high"])
        ates = [e for e in run.estimates if e.kind == "ate"]
        for e in ates:
            lo, hi = run.treatment_range[e.treatment]
            grid = np.linspace(lo, hi, grid_points)
            for t in grid:
                delta = float(t) - lo
                writer.writerow([
                    model_name, e.outcome, e.treatment, repr(float(t)),
                    repr(e.estimation * delta),
                    repr((e.estimation - CI_Z * e.se) * delta),
                    repr((e.estimation + CI_Z * e.se) * delta),
                ])
        return buf.getvalue()
    if which == "ndrt-ordering":
        if run.spec.treatment_kind != "discrete":
            raise ValidationError(f"model {model_name!r} has no discrete treatment")
        ates = [e for e in run.estimates if e.kind == "ate"]
        outcomes = list(dict.fromkeys(e.outcome for e in ates))
        primary = "NASA" if "NASA" in outcomes else outcomes[0]
        by_level: dict[str, dict] = {run.spec.baseline: {o: 0.0 for o in outcomes}}
        for e in ates:
            by_level.setdefault(e.treatment, {})[e.outcome] = e.estimation
        ordered = sorted(by_level, key=lambda lv: by_level[lv].get(primary, 0.0))
        writer.writerow(["rank", "level"] + [f"ate_{o}" for o in outcomes])
        for rank, lv in enumerate(ordered, start=1):
            writer.writerow([rank, lv] + [repr(float(by_level[lv].get(o, 0.0))) for o in outcomes])
        return buf.getvalue()
    raise ValidationError(f"unknown plot data kind {which!r}")
