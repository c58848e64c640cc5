"""Shipped model configurations for the study's research questions.

Each preset wires the study variables into feature / outcome / treatment
/ confounder roles:

  a: joint state response to elapsed driving, NDRT held as confounder
  b: joint state response to the NDRT level, time held as confounder
  c: drowsiness response to time, workload held out
  c-variant: as (c) with the NDRT level additionally held out
  d: workload response to the NDRT level, drowsiness and time held out
  e: workload response to drowsiness with symbol heterogeneity
  f: drowsiness response to workload with symbol heterogeneity
  g: symbol response to workload, drowsiness held out
  h: symbol response to drowsiness, workload held out

The source material fully determines the wiring of (a)-(f); the wiring
of (g) and (h) is a documented best guess (symbols as outcomes of one
state, the other state confounding) and carries a provenance note in
every manifest.
"""

from __future__ import annotations

from .boosting import GbmParams
from .dml import ModelSpec
from .errors import ValidationError
from .study_data import INDIVIDUAL_VARS, NDRT_LEVELS, SYMBOL_VARS

PRESET_NAMES = ("a", "b", "c", "c-variant", "d", "e", "f", "g", "h")

_NOTES = {
    "g": "wiring is a best guess: symbols as outcomes of NASA with KSS "
         "and individual characteristics confounding",
    "h": "wiring is a best guess: symbols as outcomes of KSS with NASA "
         "and individual characteristics confounding",
}


def preset_note(name: str) -> str | None:
    return _NOTES.get(name)


def build_preset(
    name: str,
    seed: int = 0,
    outcome_params: GbmParams | None = None,
    treatment_params: GbmParams | None = None,
) -> ModelSpec:
    """Instantiate one preset as a concrete ModelSpec."""
    op = outcome_params or GbmParams()
    tp = treatment_params or GbmParams()
    ind = tuple(INDIVIDUAL_VARS)
    sym = tuple(SYMBOL_VARS)
    common = dict(seed=seed, outcome_params=op, treatment_params=tp)
    if name == "a":
        return ModelSpec(
            name="a", features=ind, outcomes=("NASA", "KSS"), treatments=("Time",),
            confounders=("NDRT",), treatment_kind="continuous", **common,
        )
    if name == "b":
        return ModelSpec(
            name="b", features=ind, outcomes=("NASA", "KSS"), treatments=("NDRT",),
            confounders=("Time",), treatment_kind="discrete",
            baseline="Base", levels=tuple(NDRT_LEVELS), **common,
        )
    if name == "c":
        return ModelSpec(
            name="c", features=ind, outcomes=("KSS",), treatments=("Time",),
            confounders=("NASA",), treatment_kind="continuous", **common,
        )
    if name == "c-variant":
        return ModelSpec(
            name="c-variant", features=ind, outcomes=("KSS",), treatments=("Time",),
            confounders=("NASA", "NDRT"), treatment_kind="continuous", **common,
        )
    if name == "d":
        return ModelSpec(
            name="d", features=ind, outcomes=("NASA",), treatments=("NDRT",),
            confounders=("KSS", "Time"), treatment_kind="discrete",
            baseline="Base", levels=tuple(NDRT_LEVELS), **common,
        )
    if name == "e":
        return ModelSpec(
            name="e", features=sym, outcomes=("NASA",), treatments=("KSS",),
            confounders=ind + ("Time", "NDRT"), treatment_kind="continuous", **common,
        )
    if name == "f":
        return ModelSpec(
            name="f", features=sym, outcomes=("KSS",), treatments=("NASA",),
            confounders=ind + ("Time", "NDRT"), treatment_kind="continuous", **common,
        )
    if name == "g":
        return ModelSpec(
            name="g", features=(), outcomes=sym, treatments=("NASA",),
            confounders=("KSS",) + ind, treatment_kind="continuous", **common,
        )
    if name == "h":
        return ModelSpec(
            name="h", features=(), outcomes=sym, treatments=("KSS",),
            confounders=("NASA",) + ind, treatment_kind="continuous", **common,
        )
    raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
