"""The scenario document schema + a hand-rolled JSON-schema-style validator.

The validator is deliberately tiny and is the repo's only one: it checks
scenarios and the checked-in ``tests/schemas/`` files alike. It supports
exactly the subset of JSON Schema those need — ``type``, ``enum``,
``required``, ``properties``, ``additionalProperties: false``, ``items``,
numeric bounds, string bounds, ``oneOf`` and ``if``/``then`` — and reports
every violation with a JSON-pointer-style path (``/workload/scale``) so a
typo in a 40-line scenario file points at the offending key, not at the
file.

Everything here is pure data-in/data-out: no file IO, no experiment
imports. The enumerations are spelled out as literals (planes, policies,
patterns, fault kinds …) and regression-tested against the live
registries in ``tests/test_scenario_validation.py`` so they cannot drift
silently.
"""

from __future__ import annotations

from typing import Optional


class ScenarioError(ValueError):
    """Base class for every scenario-subsystem error."""


class ScenarioValidationError(ScenarioError):
    """A scenario document violated the schema.

    ``path`` is a JSON-pointer-style location (``/faults/plan``); when the
    validator found several violations the first is raised and the full
    list rides along in ``errors`` as ``(path, message)`` pairs.
    """

    def __init__(self, path: str, message: str, errors: Optional[list] = None):
        self.path = path or "/"
        self.message = message
        self.errors = errors if errors is not None else [(self.path, message)]
        super().__init__(f"{self.path}: {message}")


class ScenarioOverrideError(ScenarioError):
    """A ``--set`` override was malformed or conflicts with another."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"--set {key}: {message}")


#: Literal enumerations. tests/test_scenario_validation.py asserts these
#: agree with experiments.common.PLANES, traffic policies, etc.
SCHEMA_ID = "spright.scenario/1"
PLANE_NAMES = ("knative", "grpc", "s-spright", "d-spright", "lambda-nic")
EXPERIMENT_NAMES = (
    "tables",
    "fig2",
    "fig5",
    "boutique",
    "motion",
    "parking",
    "xdp",
    "ablations",
    "faults",
    "recovery",
    "trace",
    "traffic",
    "cluster",
    "cloning",
)
WORKLOAD_KINDS = ("boutique", "motion", "parking", "synthetic-fleet")
KEEPALIVE_POLICIES = ("fixed", "kpa", "histogram", "pinned")
ARRIVAL_PATTERNS = ("flat", "diurnal", "bursty")
PLACEMENT_POLICIES = ("all", "bin_pack", "spread", "chain_locality")
FAULT_KINDS = (
    "packet_drop",
    "packet_corrupt",
    "ring_overflow",
    "ring_stall",
    "pod_crash",
    "pod_hang",
    "pod_slow",
    "map_evict",
)

_POSITIVE_NUMBER = {"type": "number", "exclusiveMinimum": 0}
_OPTIONAL_DELAY = {"oneOf": [_POSITIVE_NUMBER, {"type": "null"}]}

FAULT_SPEC_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "enum": FAULT_KINDS},
        "at": {"type": "number", "minimum": 0},
        "duration": {"oneOf": [{"type": "number", "minimum": 0}, {"type": "null"}]},
        "probability": {"type": "number", "minimum": 0, "maximum": 1},
        "target": {"type": "string"},
        "magnitude": {"type": "number", "minimum": 0},
    },
}

INLINE_PLAN_SCHEMA = {
    "type": "object",
    "required": ["faults"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "faults": {"type": "array", "items": FAULT_SPEC_SCHEMA},
    },
}

#: The scenario grammar. Section applicability per experiment lives in
#: resolve.DEFAULTS; this schema is the shape contract.
SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["name", "experiment"],
    "additionalProperties": False,
    "properties": {
        "schema": {"type": "string", "enum": (SCHEMA_ID,)},
        "name": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "experiment": {"type": "string", "enum": EXPERIMENT_NAMES},
        # 2022 is the repo-wide legacy seed (byte-identical to the flag
        # CLI); "auto" derives a deterministic seed from the scenario name.
        "seed": {"oneOf": [{"type": "integer", "minimum": 0}, {"enum": ("auto",)}]},
        "workload": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"type": "string", "enum": WORKLOAD_KINDS},
                "scale": {"type": "number", "exclusiveMinimum": 0, "maximum": 1.0},
                "duration": _POSITIVE_NUMBER,
                "functions": {"type": "integer", "minimum": 1},
                "max_concurrency": {"type": "integer", "minimum": 1},
                "processes": {"type": "integer", "minimum": 1},
            },
        },
        "planes": {
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {"type": "string", "enum": PLANE_NAMES},
        },
        "cluster": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "nodes": {"type": "integer", "minimum": 1},
                "placement": {"type": "string", "enum": PLACEMENT_POLICIES},
            },
        },
        "faults": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # a named plan ("loss-crash" …), "none", a JSON file path,
                # or an inline plan object
                "plan": {"oneOf": [{"type": "string"}, INLINE_PLAN_SCHEMA]},
            },
        },
        "resilience": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "retries": {"type": "integer", "minimum": 0},
                "timeout": _OPTIONAL_DELAY,
                "hedge_delay": _OPTIONAL_DELAY,
                # "optimal": the measured per-plane optimum (s-spright and
                # d-spright d=2, knative/grpc d=1); "off": d=1 everywhere
                "clone_factor": {
                    "oneOf": [
                        {"type": "integer", "minimum": 1},
                        {"enum": ("optimal", "off")},
                    ]
                },
            },
        },
        "keepalive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "policies": {
                    "type": "array",
                    "minItems": 1,
                    "uniqueItems": True,
                    "items": {"type": "string", "enum": KEEPALIVE_POLICIES},
                },
                "patterns": {
                    "type": "array",
                    "minItems": 1,
                    "uniqueItems": True,
                    "items": {"type": "string", "enum": ARRIVAL_PATTERNS},
                },
            },
        },
        "admission": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "overload": {"type": "boolean"},
            },
        },
        "slo": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "threshold_s": _POSITIVE_NUMBER,
            },
        },
        "observability": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trace": {"type": "boolean"},
                "profile": {"type": "boolean"},
                "sanitize": {"type": "boolean"},
                "serve": {"type": "boolean"},
                "out": {"type": "string", "minLength": 1},
            },
        },
    },
}


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _type_name(value) -> str:
    for name, check in _TYPE_CHECKS.items():
        if check(value):
            return name
    return type(value).__name__


def validate(value, schema: dict, path: str = "") -> list:
    """All schema violations as ``(json_pointer, message)`` pairs."""
    errors: list = []

    if "oneOf" in schema:
        branch_errors = []
        for branch in schema["oneOf"]:
            errs = validate(value, branch, path)
            if not errs:
                return []
            branch_errors.append((branch, errs))
        # When exactly one branch accepts this value's basic shape, its
        # detailed errors beat the generic "matched none of the forms"
        # (an inline fault plan with a typo'd key should point at the key).
        matching = [
            errs
            for branch, errs in branch_errors
            if branch.get("type") in _TYPE_CHECKS
            and _TYPE_CHECKS[branch["type"]](value)
        ]
        if len(matching) == 1:
            return matching[0]
        shapes = " | ".join(
            branch.get("type") or f"enum{tuple(branch['enum'])}"
            for branch in schema["oneOf"]
        )
        errors.append(
            (path or "/", f"matched none of the allowed forms ({shapes})")
        )
        return errors

    expected = schema.get("type")
    if expected is not None and not _TYPE_CHECKS[expected](value):
        # integers are acceptable numbers
        if not (expected == "number" and _TYPE_CHECKS["integer"](value)):
            errors.append(
                (path or "/", f"expected {expected}, got {_type_name(value)}")
            )
            return errors

    if "enum" in schema and value not in schema["enum"]:
        choices = ", ".join(repr(choice) for choice in schema["enum"])
        errors.append((path or "/", f"{value!r} is not one of ({choices})"))
        return errors

    if isinstance(value, bool):
        return errors

    if isinstance(value, (int, float)):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append((path or "/", f"{value!r} is below minimum {schema['minimum']}"))
        if "maximum" in schema and value > schema["maximum"]:
            errors.append((path or "/", f"{value!r} is above maximum {schema['maximum']}"))
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            errors.append(
                (path or "/", f"{value!r} must be > {schema['exclusiveMinimum']}")
            )

    if isinstance(value, str) and "minLength" in schema:
        if len(value) < schema["minLength"]:
            errors.append((path or "/", "must not be empty"))

    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                errors.append((path or "/", f"missing required key {key!r}"))
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in properties:
                    known = ", ".join(sorted(properties))
                    errors.append(
                        (f"{path}/{key}", f"unknown key (expected one of: {known})")
                    )
        for key, subschema in properties.items():
            if key in value:
                errors.extend(validate(value[key], subschema, f"{path}/{key}"))

    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(
                (path or "/", f"needs at least {schema['minItems']} item(s)")
            )
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(
                (path or "/", f"allows at most {schema['maxItems']} item(s)")
            )
        if schema.get("uniqueItems"):
            seen = set()
            for index, item in enumerate(value):
                marker = repr(item)
                if marker in seen:
                    errors.append((f"{path}/{index}", f"duplicate item {item!r}"))
                seen.add(marker)
        if "items" in schema:
            for index, item in enumerate(value):
                errors.extend(validate(item, schema["items"], f"{path}/{index}"))

    if "if" in schema and not validate(value, schema["if"], path):
        errors.extend(validate(value, schema.get("then", {}), path))
    return errors


def coerce_numbers(value, schema: dict):
    """``value`` with every integer at a ``number`` position made a float.

    ``duration: 1`` in a file and ``--duration 1`` on the command line both
    reach ``run_config`` as ``1.0``, so a report prints a number the same
    way whichever spelling set it. ``value`` must already be valid.
    """
    if "oneOf" in schema:
        branch = next(b for b in schema["oneOf"] if not validate(value, b))
        return coerce_numbers(value, branch)
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        return {
            key: coerce_numbers(item, properties[key]) if key in properties else item
            for key, item in value.items()
        }
    if isinstance(value, list) and "items" in schema:
        return [coerce_numbers(item, schema["items"]) for item in value]
    if schema.get("type") == "number" and _TYPE_CHECKS["integer"](value):
        return float(value)
    return value


def validation_errors(doc) -> list:
    """Schema violations for a parsed scenario document (may be empty)."""
    if not isinstance(doc, dict):
        return [("/", f"scenario must be a mapping, got {_type_name(doc)}")]
    return validate(doc, SCENARIO_SCHEMA)


def validate_scenario(doc) -> dict:
    """Validate ``doc`` against the scenario schema; return it unchanged.

    Raises :class:`ScenarioValidationError` for the first violation, with
    the full list attached as ``.errors``.
    """
    errors = validation_errors(doc)
    if errors:
        path, message = errors[0]
        raise ScenarioValidationError(path, message, errors=errors)
    return doc
