"""Run orchestration, table rendering, manifests and plot-ready exports.

Tables follow the study's reporting layout: a coefficient table
(Model X Y T Estimation SE Z Stat p-value 95%CI bounds) and a
discrete-treatment ATE table (Model Y T0 T1 ...). Significant rows are
filtered at the configured p threshold; the unfiltered CSV is always
written alongside. All output files are written atomically (temp file
plus rename) and every run is captured in a JSON manifest that replays
bit-exactly on the same numpy/BLAS build. When numpy's OpenBLAS exports
``openblas_set_num_threads_local``, the final stage runs on one BLAS
thread and the estimates do not depend on ``OPENBLAS_NUM_THREADS``: the
estimates digest of ``scripts/preset_digest.py --seed 7 --trees 5`` is
``f56eedfe...`` with the default count and with one thread. With
another BLAS, another thread count can move estimates in their last
bits, within the golden tests' rtol of 1e-9.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import math
import os
import stat
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cate_tree import CateTree, fit_cate_tree, render_tree
from .dml import (
    CI_Z,
    DmlResult,
    EffectEstimate,
    ModelSpec,
    const_marginal_effect,
    fit_dml,
)
from .errors import ValidationError, checked_json, utf8_text
from .presets import build_preset, preset_note
from .rng import derive_seed
from .study_data import _check_roles, assemble_feature_table, check_spec_columns, load_drive_csv

COEF_HEADER = "Model X Y T Estimation SE Z Stat p-value 95%CI-lower 95%CI-upper"
ATE_HEADER = "Model Y T0 T1 Estimation SE Z Stat p-value 95%CI-lower 95%CI-upper"

# treatment values per curve in the continuous-ate-curves plot data
PLOT_GRID_POINTS = 50

CSV_FIELDS = [
    "kind", "model_name", "outcome", "treatment", "feature", "t0", "t1",
    "estimation", "se", "z", "p", "ci_low", "ci_high",
]

# the kinds of estimate row a model run holds
ESTIMATE_KINDS = ("ate", "contrast", "coefficient")


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


def significant_tables(estimates, p_threshold: float) -> tuple[str, str]:
    """(coefficient table, ATE table) texts: each a header and one line per
    estimate row of its kind with p < p_threshold. Without a contrast row
    the ATE table is a notice."""
    def table(header, kind, row_text):
        lines = [header] + [row_text(e) for e in estimates
                            if e.kind == kind and e.p < p_threshold]
        return "\n".join(lines) + "\n"

    if any(e.kind == "contrast" for e in estimates):
        ate = table(ATE_HEADER, "contrast", ate_row_text)
    else:
        ate = "no discrete treatment contrasts for this model\n"
    return table(COEF_HEADER, "coefficient", coefficient_row_text), ate


def export_residuals_csv(result: DmlResult, path) -> None:
    """Residual matrices for audit: fold, outcome and treatment residuals."""
    fit = result.nuisance
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["fold"]
        + [f"resid_y:{o}" for o in result.spec.outcomes]
        + [f"resid_t:{c}" for c in result.spec.components]
    )
    for fold, y, t in zip(fit.fold_assignment, fit.outcome_residuals, fit.treatment_residuals):
        writer.writerow([int(fold)] + [repr(float(v)) for v in y] + [repr(float(v)) for v in t])
    atomic_write_text(path, buf.getvalue())


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through a temp file and a rename.

    A replaced file keeps its mode; a new one gets 0o666 less the umask,
    as ``open()`` would give it, not the temp file's 0o600.
    """
    path = Path(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)  # the umask can only be read by setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            os.chmod(tmp, mode)
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_p_threshold(value: float, name: str) -> float:
    """``value`` if it is a significance threshold, a number in (0, 1];
    otherwise a ValidationError naming ``name`` (a flag or a key)."""
    if not 0.0 < value <= 1.0:  # NaN fails this too
        raise ValidationError(f"{name} must be a number in (0, 1], got {value!r}")
    return value


def read_json_file(path: str | Path, parse):
    """``parse`` applied to a file's text; a ValidationError names the file."""
    with utf8_text(path, csv_rows=False), open(path, encoding="utf-8") as f:
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
    cate_tree: CateTree | None
    treatment_range: dict
    note: str | None = None

    def to_jsonable(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "fold_hash": self.fold_hash,
            "note": self.note,
            "estimates": [e.to_jsonable() for e in self.estimates],
            "cate_tree": self.cate_tree.to_jsonable() if self.cate_tree is not None else None,
            "treatment_range": self.treatment_range,
        }

    @classmethod
    def from_jsonable(cls, d) -> "ModelRun":
        d = checked_json(cls, d)
        spec = ModelSpec.from_json(d["spec"])
        estimates = []
        for i, row in enumerate(d["estimates"]):
            try:
                e = EffectEstimate(**checked_json(EffectEstimate, row))
                if e.kind not in ESTIMATE_KINDS:
                    raise ValidationError(f"key 'kind' must be one of {list(ESTIMATE_KINDS)}, "
                                          f"got {e.kind!r}")
                if e.outcome not in spec.outcomes:
                    raise ValidationError(f"key 'outcome' must be one of "
                                          f"{list(spec.outcomes)}, got {e.outcome!r}")
                if e.kind == "ate" and e.treatment not in spec.components:
                    raise ValidationError(f"key 'treatment' of an ate row must be "
                                          f"one of {list(spec.components)}, got {e.treatment!r}")
            except ValidationError as exc:
                raise ValidationError(f"estimates[{i}]: {exc}") from None
            estimates.append(e)
        tree = None
        if d["cate_tree"] is not None:
            try:
                tree = CateTree.from_jsonable(d["cate_tree"])
            except ValidationError as exc:
                raise ValidationError(f"cate_tree: {exc}") from None
        _check_treatment_range(spec, d["treatment_range"])
        return cls(
            spec=spec,
            fold_hash=d["fold_hash"],
            estimates=estimates,
            cate_tree=tree,
            treatment_range=d["treatment_range"],
            note=d.get("note"),
        )


def _check_treatment_range(spec: ModelSpec, ranges: dict) -> None:
    """Raise unless ``ranges`` maps each treatment of a continuous spec to
    [lo, hi], two finite numbers with lo <= hi; a discrete spec's is {}."""
    names = spec.treatments if spec.treatment_kind == "continuous" else ()
    if set(ranges) != set(names):
        raise ValidationError(
            f"key 'treatment_range' must map exactly {list(names)} to [lo, hi], "
            f"got keys {list(ranges)}"
        )
    for name, pair in ranges.items():
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v) for v in pair)
                and pair[0] <= pair[1]):
            raise ValidationError(
                f"key 'treatment_range' must map {name!r} to [lo, hi], two finite "
                f"numbers with lo <= hi, got {pair!r}"
            )


@dataclass
class ManifestInput:
    """The JSON form of one ``RunManifest.inputs`` entry."""

    path: str     # relative to the manifest's directory, where replay resolves it
    sha256: str   # of the file's bytes


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly on the same
    numpy/BLAS build, at any BLAS thread count when numpy's OpenBLAS
    exports ``openblas_set_num_threads_local`` (see the module docstring)."""

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
        check_p_threshold(d["p_threshold"], "key 'p_threshold'")
        for i, entry in enumerate(d["inputs"]):
            try:
                checked_json(ManifestInput, entry)
            except ValidationError as exc:
                raise ValidationError(f"inputs[{i}]: {exc}") from None
        models = []
        first = {}  # model name -> index of its run
        for i, m in enumerate(d.pop("models", [])):
            try:
                run = ModelRun.from_jsonable(m)
            except ValidationError as exc:
                raise ValidationError(f"models[{i}]: {exc}") from None
            # each run owns the directory model_<name>, and model() finds it by name
            name = run.spec.name
            if name in first:
                raise ValidationError(f"models[{i}]: name {name!r} repeats models[{first[name]}]")
            first[name] = i
            models.append(run)
        return cls(**d, models=models)

    def model(self, name: str) -> ModelRun:
        for m in self.models:
            if m.spec.name == name:
                return m
        raise ValidationError(f"model {name!r} not present in manifest")


def run_model_on_table(table, spec: ModelSpec) -> tuple[DmlResult, CateTree | None]:
    """Fit one model and, when features exist, its heterogeneity tree.

    The tree (depth 3, 10 rows per leaf) splits the pointwise effects
    flattened to (n, outcomes * components): its rendered rows group by
    outcome, its columns by treatment component.
    """
    result = fit_dml(table, spec)
    tree = None
    if spec.features:
        effects = const_marginal_effect(result.final, result.feature_matrix)
        n, m, ny = effects.shape
        tree = fit_cate_tree(
            result.feature_matrix, effects.transpose(0, 2, 1).reshape(n, ny * m),
            max_depth=3, min_leaf=10, feature_names=list(spec.features),
            component_shape=(ny, m), component_labels=[
                f"{o}|{c}" for o in spec.outcomes for c in spec.components
            ],
        )
    return result, tree


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
    """Execute presets (or explicit specs) over a study CSV and write outputs.

    Every run needs its own name; the name checks, the preset lookup and
    the data and column checks all come before ``out_dir`` is created.
    """
    check_p_threshold(p_threshold, "p_threshold")
    if specs is None:
        specs = [
            build_preset(
                name,
                seed=derive_seed(seed, "preset", name),
                outcome_params=outcome_params,
                treatment_params=treatment_params,
            )
            for name in preset_names
        ]
    # each run writes model_<name>/ and is looked up by its name in the manifest
    names = [spec.name for spec in specs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValidationError(f"models named more than once: {repeated}")
    data_path = Path(data_path)
    out_dir = Path(out_dir)
    loaded = load_drive_csv(data_path, strict=strict)

    models: list[ModelRun] = []
    for spec in specs:
        check_spec_columns(loaded.records, spec)
        # NDRT is the one study column read as labels
        _check_roles(spec, ("NDRT",))
    # created once the data and specs are checked, so a rejected call
    # leaves no empty directory behind
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = RunManifest(
        version=__version__,
        created_utc=_now_utc(),
        root_seed=seed,
        p_threshold=p_threshold,
        strict=strict,
        inputs=[asdict(ManifestInput(os.path.relpath(data_path, out_dir),
                                     file_sha256(data_path)))],
    )

    for spec in specs:
        table = assemble_feature_table(loaded.records, spec)
        result, tree = run_model_on_table(table, spec)
        run = ModelRun(
            spec=spec,
            fold_hash=result.fold_hash,
            estimates=result.all_estimates(),
            cate_tree=tree,
            treatment_range=_treatment_range(table, spec),
            note=preset_note(spec),
        )
        models.append(run)
        _write_model_outputs(out_dir, run, p_threshold)
        if export_residuals:
            export_residuals_csv(result, out_dir / f"model_{spec.name}" / "residuals.csv")
    manifest.models = models
    atomic_write_text(out_dir / "manifest.json", manifest.to_json())
    return manifest


def _write_model_outputs(out_dir: Path, run: ModelRun, p_threshold: float) -> None:
    model_dir = out_dir / f"model_{run.spec.name}"
    model_dir.mkdir(parents=True, exist_ok=True)
    coef_text, ate_text = significant_tables(run.estimates, p_threshold)
    by_kind = {kind: [e for e in run.estimates if e.kind == kind] for kind in ESTIMATE_KINDS}
    atomic_write_text(model_dir / "coefficients_significant.txt", coef_text)
    atomic_write_text(model_dir / "coefficients_full.csv", estimates_csv(by_kind["coefficient"]))
    atomic_write_text(model_dir / "ate_significant.txt", ate_text)
    atomic_write_text(model_dir / "ate_full.csv",
                      estimates_csv(by_kind["ate"] + by_kind["contrast"]))

    if run.cate_tree is not None:
        atomic_write_text(model_dir / "cate_tree.json", render_tree(run.cate_tree, "json"))
        atomic_write_text(model_dir / "cate_tree.dot", render_tree(run.cate_tree, "dot"))


def replay_manifest(manifest_path: str | Path, out_dir: str | Path) -> RunManifest:
    """Re-execute a stored run; numeric outputs reproduce bit-exactly on
    the same numpy/BLAS build (see the module docstring for the thread
    count), and otherwise move in their last bits.

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


def emit_plot_data(manifest: RunManifest, which: str, model_name: str) -> str:
    """Plot-ready CSV from a manifest (no image rendering).

    ``continuous-ate-curves``: effect of moving a continuous treatment
    from its observed minimum, at ``PLOT_GRID_POINTS`` values, with CI
    band. ``ndrt-ordering``: discrete levels ordered by their ATE on the
    primary outcome. A model with no ``ate`` row is a ValidationError.
    """
    kind = {"continuous-ate-curves": "continuous", "ndrt-ordering": "discrete"}.get(which)
    if kind is None:
        raise ValidationError(f"unknown plot data kind {which!r}")
    run = manifest.model(model_name)
    if run.spec.treatment_kind != kind:
        raise ValidationError(f"model {model_name!r} has no {kind} treatment")
    ates = [e for e in run.estimates if e.kind == "ate"]
    if not ates:
        raise ValidationError(f"model {model_name!r} has no 'ate' row in key 'estimates'")
    buf = _io.StringIO()
    writer = csv.writer(buf)
    if kind == "continuous":
        writer.writerow(["model", "outcome", "treatment", "treatment_value",
                         "effect", "ci_low", "ci_high"])
        for e in ates:
            lo, hi = run.treatment_range[e.treatment]
            grid = np.linspace(lo, hi, PLOT_GRID_POINTS)
            for t in grid:
                delta = float(t) - lo
                writer.writerow([
                    model_name, e.outcome, e.treatment, repr(float(t)),
                    repr(e.estimation * delta),
                    repr((e.estimation - CI_Z * e.se) * delta),
                    repr((e.estimation + CI_Z * e.se) * delta),
                ])
        return buf.getvalue()
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
