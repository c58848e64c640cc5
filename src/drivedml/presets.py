"""Shipped model configurations for the study's research questions.

Each preset is one row of ``_PRESETS``: the study variables in its
feature, outcome, treatment and confounder roles, and the provenance
note a run with that wiring carries in its manifest, whatever the run's
name. A preset treating ``NDRT`` is discrete, over ``NDRT_LEVELS`` with
baseline ``Base``; every other is continuous. The source fully
determines the wiring of (a)-(f), though in (e) and (f) every symbol
feature is a collider of NASA and KSS; (g) and (h) are a best guess.
"""

from __future__ import annotations

from .boosting import GbmParams
from .dml import ModelSpec
from .errors import ValidationError
from .study_data import INDIVIDUAL_VARS as _IND, NDRT_LEVELS, SYMBOL_VARS as _SYM

_COLLIDER = ("wiring is the source's; every symbol feature is a common effect of "
             "NASA and KSS (a collider), so conditioning on them biases the {} estimate")
_BEST_GUESS = ("wiring is a best guess: symbols as outcomes of {} with {} "
               "and individual characteristics confounding")

# name: (features, outcomes, treatments, confounders, note)
_PRESETS = {
    # joint state response to elapsed driving, NDRT held as confounder
    "a": (_IND, ("NASA", "KSS"), ("Time",), ("NDRT",), None),
    # joint state response to the NDRT level, time held as confounder
    "b": (_IND, ("NASA", "KSS"), ("NDRT",), ("Time",), None),
    # drowsiness response to time, workload held out
    "c": (_IND, ("KSS",), ("Time",), ("NASA",), None),
    # as (c) with the NDRT level additionally held out
    "c-variant": (_IND, ("KSS",), ("Time",), ("NASA", "NDRT"), None),
    # workload response to the NDRT level, drowsiness and time held out
    "d": (_IND, ("NASA",), ("NDRT",), ("KSS", "Time"), None),
    # workload response to drowsiness with symbol heterogeneity
    "e": (_SYM, ("NASA",), ("KSS",), (*_IND, "Time", "NDRT"), _COLLIDER.format("KSS -> NASA")),
    # drowsiness response to workload with symbol heterogeneity
    "f": (_SYM, ("KSS",), ("NASA",), (*_IND, "Time", "NDRT"), _COLLIDER.format("NASA -> KSS")),
    # symbol response to workload, drowsiness held out
    "g": ((), _SYM, ("NASA",), ("KSS", *_IND), _BEST_GUESS.format("NASA", "KSS")),
    # symbol response to drowsiness, workload held out
    "h": ((), _SYM, ("KSS",), ("NASA", *_IND), _BEST_GUESS.format("KSS", "NASA")),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_note(spec: ModelSpec) -> str | None:
    """The note of the preset wired as ``spec`` is, whatever its name."""
    roles = (spec.features, spec.outcomes, spec.treatments, spec.confounders)
    for *wiring, note in _PRESETS.values():
        if tuple(wiring) == roles:
            return note
    return None


def build_preset(
    name: str,
    seed: int = 0,
    outcome_params: GbmParams | None = None,
    treatment_params: GbmParams | None = None,
) -> ModelSpec:
    """Instantiate one preset as a concrete ModelSpec."""
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    features, outcomes, treatments, confounders, _ = _PRESETS[name]
    discrete = treatments == ("NDRT",)
    return ModelSpec(
        name=name, features=features, outcomes=outcomes, treatments=treatments,
        confounders=confounders, treatment_kind="discrete" if discrete else "continuous",
        baseline="Base" if discrete else None, levels=NDRT_LEVELS if discrete else None,
        seed=seed, outcome_params=outcome_params or GbmParams(),
        treatment_params=treatment_params or GbmParams(),
    )
