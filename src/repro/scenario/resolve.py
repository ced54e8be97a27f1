"""Resolution: scenario document -> experiment entry-point config.

A scenario names one experiment family (the same set the flag CLI
exposes) and composes sections — workload, planes, cluster topology,
fault plan, resilience/cloning policy, keep-alive policy, admission/SLO
targets, observability. The flag CLI builds such a document from its
flags, so both surfaces resolve here. This module:

* applies ``--set key=value`` overrides (conflicting or type-confused
  overrides are typed errors);
* merges the experiment's row of :data:`DEFAULTS` under the document —
  resolution order is defaults < file < ``--set`` — and validates the
  result, so defaults and user input pass the same validator;
* rejects sections and keys the experiment does not consume, and checks
  what the shape schema cannot (a ``motion`` workload on a ``boutique``
  scenario, two planes on a ``trace`` scenario, a custom seed on a
  fixed-seed experiment), with JSON-pointer-style error paths;
* derives the deterministic per-scenario seed (``seed: auto`` hashes the
  scenario *name*, so renaming a scenario is the only way to change its
  draw sequence);
* emits the complete config dict the experiment's ``run_config`` entry
  point indexes — one key per consumed scenario key, numbers as floats.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field

from .parser import ScenarioParseError, _parse_flow, parse_scalar
from .schema import (
    SCENARIO_SCHEMA,
    ScenarioOverrideError,
    ScenarioValidationError,
    coerce_numbers,
    validate_scenario,
)

#: The repo-wide legacy seed: what every experiment defaults to, and what
#: the flag CLI cannot change — scenarios that must stay byte-identical to
#: a flag invocation pin (or default to) this.
LEGACY_SEED = 2022

#: Experiments whose runners accept a seed; the rest bake LEGACY_SEED in.
SEEDABLE = (
    "boutique",
    "motion",
    "parking",
    "faults",
    "recovery",
    "trace",
    "traffic",
    "cluster",
    "cloning",
)


def derive_seed(name: str) -> int:
    """Deterministic 31-bit seed from the scenario name (sha256-based)."""
    digest = hashlib.sha256(f"spright.scenario:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class ResolvedScenario:
    """A runnable scenario: experiment + canonical config + run options."""

    name: str
    experiment: str
    config: dict
    seed: int
    observability: dict = field(default_factory=dict)
    description: str = ""
    doc: dict = field(default_factory=dict)


#: The one defaults table: per experiment, every key it consumes and its
#: default, in document shape. ``resolve`` merges it under the document
#: (defaults < file < --set), so ``run_config`` receives a complete config.
#: A section or key absent here is one the experiment does not consume.
_FOUR_PLANES = ["knative", "grpc", "s-spright", "d-spright"]
DEFAULTS = {
    "tables": {},
    "fig2": {"workload": {"duration": 5.0}},
    "fig5": {"workload": {"duration": 1.0, "max_concurrency": 512}},
    "boutique": {"workload": {"kind": "boutique", "scale": 0.1, "duration": 60.0}},
    "motion": {"workload": {"kind": "motion", "duration": 3600.0}},
    "parking": {"workload": {"kind": "parking", "duration": 700.0}},
    "xdp": {"workload": {"duration": 2.0}},
    "ablations": {},
    "faults": {
        "workload": {"kind": "boutique", "scale": 0.1, "duration": 30.0},
        "planes": _FOUR_PLANES,
        "faults": {"plan": "loss-crash"},
        "resilience": {
            "retries": 2,
            "timeout": 1.0,
            "hedge_delay": None,
            "clone_factor": "optimal",
        },
    },
    "recovery": {
        "workload": {"kind": "boutique", "scale": 0.1, "duration": 30.0},
        "planes": _FOUR_PLANES,
        "admission": {"overload": True},
    },
    "trace": {
        "workload": {"kind": "boutique", "scale": 0.1, "duration": 10.0},
        "planes": ["s-spright"],
    },
    "traffic": {
        "workload": {
            "kind": "synthetic-fleet",
            "functions": 12,
            "duration": 14400.0,
            "processes": 1,
        },
        "planes": ["d-spright", "grpc", "knative", "s-spright"],
        "keepalive": {
            "policies": ["fixed", "kpa", "histogram", "pinned"],
            "patterns": ["diurnal", "bursty"],
        },
        "slo": {"threshold_s": 0.25},
    },
    "cluster": {
        "workload": {"duration": 2.0},
        "planes": ["grpc", "s-spright", "lambda-nic"],
        "cluster": {"nodes": 3, "placement": "all"},
    },
    "cloning": {"workload": {"duration": 20.0}},
}

#: Workload kinds an experiment runs besides its default one.
_OTHER_KINDS = {"trace": ("motion",)}

#: Sections every scenario may carry regardless of experiment.
_UNIVERSAL_SECTIONS = (
    "schema",
    "name",
    "description",
    "experiment",
    "seed",
    "observability",
)


def _fail(path: str, message: str):
    raise ScenarioValidationError(path, message)


def _with_defaults(doc: dict) -> dict:
    """``doc`` merged over its experiment's defaults, section by section."""
    experiment = doc.get("experiment")
    merged = copy.deepcopy(DEFAULTS.get(experiment, {}) if isinstance(experiment, str) else {})
    for section, value in doc.items():
        if isinstance(merged.get(section), dict) and isinstance(value, dict):
            merged[section].update(value)
        else:
            merged[section] = value
    return merged


def _check_consumed(doc: dict, experiment: str) -> None:
    defaults = DEFAULTS[experiment]
    for section, value in doc.items():
        if section in _UNIVERSAL_SECTIONS:
            continue
        if section not in defaults:
            _fail(
                f"/{section}",
                f"section not consumed by experiment {experiment!r} "
                f"(allowed: {', '.join(defaults) or 'none'})",
            )
        if isinstance(value, dict):
            for key in value:
                if key not in defaults[section]:
                    _fail(
                        f"/{section}/{key}",
                        f"key not consumed by experiment {experiment!r} "
                        f"(allowed: {', '.join(defaults[section])})",
                    )


def _check_cross_fields(doc: dict, experiment: str) -> None:
    """What the shape schema cannot say: kind per experiment, planes it runs."""
    kind = doc.get("workload", {}).get("kind")
    if kind is not None:
        allowed = (DEFAULTS[experiment]["workload"]["kind"],)
        allowed += _OTHER_KINDS.get(experiment, ())
        if kind not in allowed:
            _fail(
                "/workload/kind",
                f"{kind!r} does not run under experiment {experiment!r} "
                f"(expected {' or '.join(map(repr, allowed))})",
            )
    planes = doc.get("planes", ())
    if experiment == "trace" and len(planes) != 1:
        _fail("/planes", "experiment 'trace' runs exactly one plane")
    if "lambda-nic" in planes and experiment != "cluster":
        _fail(
            f"/planes/{planes.index('lambda-nic')}",
            f"experiment {experiment!r} does not support 'lambda-nic' "
            "(only 'cluster' runs it)",
        )


def _flatten(doc: dict, experiment: str) -> dict:
    """The run_config dict: each consumed key under its own name, lists as tuples."""
    config: dict = {}
    for section in DEFAULTS[experiment]:
        value = doc[section]
        config.update(value if isinstance(value, dict) else {section: value})
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in config.items()
    }


def resolve(doc: dict) -> ResolvedScenario:
    """Merge defaults, validate, cross-check and flatten one scenario document."""
    if isinstance(doc, dict):
        doc = _with_defaults(doc)
    validate_scenario(doc)
    experiment = doc["experiment"]
    _check_consumed(doc, experiment)
    doc = coerce_numbers(doc, SCENARIO_SCHEMA)
    _check_cross_fields(doc, experiment)

    seed_spec = doc.get("seed", LEGACY_SEED)
    seed = derive_seed(doc["name"]) if seed_spec == "auto" else int(seed_spec)
    config = _flatten(doc, experiment)
    if experiment in SEEDABLE:
        config["seed"] = seed
    elif seed != LEGACY_SEED:
        _fail(
            "/seed",
            f"experiment {experiment!r} runs at the fixed seed "
            f"{LEGACY_SEED}; drop the seed key or pin it to {LEGACY_SEED}",
        )

    return ResolvedScenario(
        name=doc["name"],
        experiment=experiment,
        config=config,
        seed=seed,
        observability=dict(doc.get("observability") or {}),
        description=doc.get("description", ""),
        doc=doc,
    )


# -- --set overrides -----------------------------------------------------------
def _parse_override_value(key: str, raw: str):
    raw = raw.strip()
    try:
        return _parse_flow(raw, None, f"--set {key}") if raw.startswith(("[", "{")) else parse_scalar(raw)
    except ScenarioParseError as exc:
        raise ScenarioOverrideError(key, f"unparseable value {raw!r}") from exc


def apply_overrides(doc: dict, assignments) -> dict:
    """Return a deep-copied document with ``--set key=value`` merged in.

    Resolution order is **file < overrides**. Typed failure modes:

    * no ``=`` or an empty key — malformed override;
    * the same dotted path set twice — conflicting overrides;
    * one override path nested under another (``faults`` *and*
      ``faults.plan``) — conflicting overrides;
    * a path segment that traverses a non-mapping value — type conflict,
      reported with the JSON-pointer of the scalar it hit.
    """
    doc = copy.deepcopy(doc)
    seen: dict[tuple, str] = {}
    for raw in assignments or ():
        key, eq, value_text = raw.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ScenarioOverrideError(raw, "override must look like section.key=value")
        parts = tuple(key.split("."))
        if any(not part for part in parts):
            raise ScenarioOverrideError(key, "override path has an empty segment")
        for other in seen:
            if parts == other:
                raise ScenarioOverrideError(
                    key, f"conflicting override: {key!r} is already set"
                )
            overlap = parts[: len(other)] == other or other[: len(parts)] == parts
            if overlap:
                raise ScenarioOverrideError(
                    key,
                    f"conflicting override: nested under or above "
                    f"{'.'.join(other)!r}",
                )
        seen[parts] = value_text
        value = _parse_override_value(key, value_text)
        target = doc
        for depth, part in enumerate(parts[:-1]):
            existing = target.get(part)
            if existing is None:
                existing = target[part] = {}
            if not isinstance(existing, dict):
                pointer = "/" + "/".join(parts[: depth + 1])
                raise ScenarioOverrideError(
                    key, f"cannot descend into non-mapping value at {pointer}"
                )
            target = existing
        target[parts[-1]] = value
    return doc
