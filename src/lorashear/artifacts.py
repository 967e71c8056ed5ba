"""The one place artifacts reach and leave disk: JSON encodings, whole-file
writes, event logs, and the one JSON reader.

Whole-file artifacts go to a temporary file beside the target and are renamed
over it, so a failed or interrupted write never leaves a partial artifact for
the next stage. JSON-lines event logs stream instead; no stage reads them.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


def canonical_json(obj) -> bytes:
    """Compact canonical UTF-8 encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_atomic(path, data: bytes | str) -> None:
    """Replace ``path`` by ``data`` (str is UTF-8 encoded) through one rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, payload, indent: int | None = 2) -> None:
    """Sorted-key JSON plus a newline, written atomically.

    ``indent=None`` keeps large payloads on the C encoder, which
    ``json`` uses only without indentation.
    """
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=indent) + "\n")


@contextmanager
def event_log(path=None):
    """JSON-lines log: yields ``emit(event)``, writing one sorted-key object per line.

    Lines stream as events come; ``path=None`` records nothing.
    """
    if path is None:
        yield lambda event: None
        return
    with open(path, "w", encoding="utf-8") as f:
        yield lambda event: f.write(json.dumps(event, sort_keys=True) + "\n")


def parse_json(data: bytes, source, error) -> dict:
    """The JSON object in strict UTF-8 ``data``, else ``error(message)`` naming ``source``.

    ``ValueError`` covers bad UTF-8, bad JSON and integers past the digit limit.
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise error(f"{source}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise error(f"{source}: not a JSON object")
    return obj


def read_json(path, error) -> dict:
    """The JSON object in file ``path``, else ``error(message)`` naming it."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError as e:
        raise error(f"{path}: file not found") from e
    except OSError as e:
        raise error(f"{path}: cannot read: {e.strerror or e}") from e
    return parse_json(data, path, error)
