"""Validate a JSON/JSONL file against one of the checked-in JSON Schemas.

A dependency-free validator implementing exactly the JSON-Schema subset
the checked-in schemas use — ``type`` (including union lists), ``enum``,
``minimum``, ``required``, ``properties``, ``additionalProperties``
(boolean or sub-schema), ``items`` (single-schema form), ``minItems`` /
``maxItems``, and ``oneOf``.  The container image
pins its dependency set, so pulling in the ``jsonschema`` package is not
an option; this keeps CI able to verify the export contracts anyway.

The schema is named on the command line, either by its stem in
``tools/schemas/`` or by path:

``trace_event``
    ``repro.obs`` JSONL trace exports (``jsonl:PATH`` observers);
``change_trace``
    ``repro serve`` JSONL churn traces (``save_change_trace``);
``bench_record``
    ``benchmarks/history/*.jsonl`` ledgers (``tools/bench_history.py``);
``slo_spec``
    one whole JSON document (not JSONL), followed by a semantic pass
    that constructs the specs through ``repro.obs.slo.specs_from_json``
    (known fields, range bounds) when ``repro`` is importable.

Every other schema validates its file line by line as JSONL.

Usage (CI and tests)::

    python tools/validate_trace.py SCHEMA FILE

Exit status 0 when the file validates, 1 otherwise (errors on stderr).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["SCHEMA_DIR", "schema_path", "validate", "validate_file", "main"]

SCHEMA_DIR = Path(__file__).parent / "schemas"


def _type_ok(value: Any, name: str) -> bool:
    # bool is an int subclass in Python; JSON Schema keeps them distinct
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(
            value, bool
        )
    if name == "string":
        return isinstance(value, str)
    if name == "boolean":
        return isinstance(value, bool)
    if name == "null":
        return value is None
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    raise ValueError(f"unsupported schema type {name!r}")


def validate(
    instance: Any, schema: Dict[str, Any], path: str = "$"
) -> Iterator[str]:
    """Yield one message per violation of ``schema`` by ``instance``."""
    stype = schema.get("type")
    if stype is not None:
        names = stype if isinstance(stype, list) else [stype]
        if not any(_type_ok(instance, n) for n in names):
            yield (
                f"{path}: expected type {'|'.join(names)},"
                f" got {type(instance).__name__}"
            )
            return  # further keyword checks assume the right type
    if "enum" in schema and instance not in schema["enum"]:
        yield f"{path}: {instance!r} not in enum {schema['enum']}"
    if "minimum" in schema and _type_ok(instance, "number"):
        if instance < schema["minimum"]:
            yield f"{path}: {instance!r} below minimum {schema['minimum']}"
    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            yield f"{path}: fewer than {schema['minItems']} items"
        if "maxItems" in schema and len(instance) > schema["maxItems"]:
            yield f"{path}: more than {schema['maxItems']} items"
        if "items" in schema:
            for i, item in enumerate(instance):
                yield from validate(item, schema["items"], f"{path}[{i}]")
    if "oneOf" in schema:
        matched = sum(
            1
            for sub in schema["oneOf"]
            if not list(validate(instance, sub, path))
        )
        if matched != 1:
            yield (
                f"{path}: matched {matched} of {len(schema['oneOf'])}"
                " oneOf branches (need exactly 1)"
            )
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                yield f"{path}: missing required property {key!r}"
        props: Dict[str, Any] = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in props:
                yield from validate(value, props[key], f"{path}.{key}")
            elif extra is False:
                yield f"{path}: unexpected property {key!r}"
            elif isinstance(extra, dict):
                yield from validate(value, extra, f"{path}.{key}")


def schema_path(schema: str) -> Path:
    """A schema stem in ``tools/schemas/`` (``"trace_event"``) or a path."""
    candidate = SCHEMA_DIR / f"{schema}.schema.json"
    return candidate if candidate.exists() else Path(schema)


def _slo_semantics(data: Any) -> List[str]:
    """What the schema subset cannot express: the library loader decides."""
    try:
        from repro.obs.slo import specs_from_json
    except ImportError:
        return []
    try:
        specs_from_json(data)
    except Exception as exc:
        return [f"semantic: {exc}"]
    return []


def validate_file(path: Path, schema: str) -> List[str]:
    """All violations of ``schema`` in ``path`` (empty list = valid)."""
    spath = schema_path(schema)
    schema_doc = json.loads(spath.read_text(encoding="utf-8"))
    if spath.name.startswith("slo_spec."):
        # one whole JSON document, not JSONL
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            return [f"invalid JSON ({exc})"]
        return list(validate(data, schema_doc)) or _slo_semantics(data)
    errors: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc})")
                continue
            errors.extend(
                f"line {lineno}: {msg}"
                for msg in validate(event, schema_doc)
            )
    return errors


def main(argv: Optional[Sequence[str]] = None) -> int:
    args: Tuple[str, ...] = tuple(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print("usage: validate_trace.py SCHEMA FILE", file=sys.stderr)
        return 2
    schema, target = args[0], Path(args[1])
    errors = validate_file(target, schema)
    for err in errors:
        print(err, file=sys.stderr)
    if not errors:
        print(f"{target}: OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
