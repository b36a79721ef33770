"""Tree-building fingerprint oracle.

The content fingerprint as it was before the direct text encoder of
:mod:`repro.runtime.fingerprint`: every object is first lowered to a
JSON-serializable canonical tree, and ``json.dumps`` then writes the
tree with sorted keys and compact separators. Mapping items and set
elements are ordered by ``json.dumps(canonical, sort_keys=True)`` with
the default separators. The production encoder must produce the same
document, so the same digest, for every supported value; unsupported
types raise the production :class:`FingerprintError`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Mapping

from repro.runtime.fingerprint import FORMAT_VERSION, FingerprintError


def _canonical(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-serializable canonical form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # hex() is exact and canonical; repr() round-trips but its
        # shortest-form guarantee is an implementation detail.
        return {"__float__": obj.hex()}
    if isinstance(obj, enum.Enum):
        return {
            "__enum__": type(obj).__name__,
            "value": _canonical(obj.value),
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        items = [[_canonical(k), _canonical(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__mapping__": items}
    if isinstance(obj, (list, tuple)):
        return {"__sequence__": [_canonical(item) for item in obj]}
    if isinstance(obj, (set, frozenset)):
        items = [_canonical(item) for item in obj]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__set__": items}
    raise FingerprintError(
        f"cannot fingerprint {type(obj).__name__!r} objects"
    )


def fingerprint(*objects: Any) -> str:
    """SHA-256 hex digest of the objects' canonical encoding."""
    document = json.dumps(
        [FORMAT_VERSION, [_canonical(obj) for obj in objects]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()
