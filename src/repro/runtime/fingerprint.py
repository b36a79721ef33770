"""Stable content fingerprints for cache keys.

A fingerprint must change whenever anything that could influence a
profile changes (a block's instruction count, a loop's trip count, an
input's scale, ...) and must be identical across processes and Python
versions for equal values. Python's built-in ``hash`` is salted per
process, and ``pickle`` output is not canonical, so neither is usable.
Instead every supported object is written as a canonical JSON document
(dataclasses by field, mappings and sets sorted, floats by exact hex
representation) and hashed with SHA-256.

The document is written by one direct text encoder. Its output is the
compact, key-sorted ``json.dumps`` of a canonical tree:

* ``None``, bools, ints (``IntEnum`` included) and strings are plain
  JSON scalars (ASCII-escaped);
* a float is ``{"__float__": float.hex()}`` and any other enum member
  ``{"__enum__": class name, "value": ...}``;
* a dataclass instance is ``{"__dataclass__": class name, "fields":
  {...}}``, its field names sorted once per class;
* a mapping is ``{"__mapping__": [[key, value], ...]}``, a set
  ``{"__set__": [...]}`` and a list or tuple ``{"__sequence__":
  [...]}``.

Mapping items and set elements are ordered by their text as
``json.dumps(..., sort_keys=True)`` writes it with the default
``", "``/``": "`` separators; the encoder writes that sort key too,
given those separators. For a scalar it is the element's own text.

Cache keys carry whole binaries, whose text runs to 100 KB and more,
and one run fingerprints each binary several times. So the encoded
text of a frozen-dataclass instance passed to :func:`fingerprint` —
as an argument, or as an element of a list or tuple argument — is
memoized by ``id()``. A weak reference guards each entry: its callback
drops the entry when the object dies, and a hit must resolve to the
very object asked about, so an ``id`` reused by a later object never
returns stale text. Sub-objects and non-frozen dataclasses are never
memoized. The contract this relies on: a key object is frozen, and
nothing inside it is mutated after its first fingerprint.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import weakref
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.errors import ReproError

#: Bump when the canonical encoding (or any cached value's schema)
#: changes, so stale cache entries from older code can never be loaded.
FORMAT_VERSION = 1


class FingerprintError(ReproError):
    """An object cannot be canonically encoded for fingerprinting."""


Encode = Callable[[Any, List[str]], None]


def _unsupported(obj: Any, out: List[str]) -> None:
    raise FingerprintError(
        f"cannot fingerprint {type(obj).__name__!r} objects"
    )


def _encoder(item_sep: str, key_sep: str) -> Encode:
    """The canonical JSON writer for one pair of JSON separators.

    ``encode(obj, out)`` appends ``obj``'s text to ``out``. The writer
    picks one handler per class, the first that applies in the order
    scalar, float, enum, dataclass, mapping, sequence, set.
    """
    handlers: Dict[type, Encode] = {}
    sort_keys_spaced = (item_sep, key_sep) == (", ", ": ")

    def encode(obj: Any, out: List[str]) -> None:
        handler = handlers.get(type(obj))
        if handler is None:
            handler = handlers[type(obj)] = handler_for(type(obj))
        handler(obj, out)

    def text(obj: Any) -> str:
        return _text(encode, obj)

    def sort_key(obj: Any, obj_text: str) -> str:
        if sort_keys_spaced or obj is None or isinstance(obj, (int, str)):
            return obj_text
        return _text(_encode_spaced, obj)

    def write_sorted(
        head: str, entries: List[Tuple[str, str]], out: List[str]
    ) -> None:
        """Write ``(sort key, text)`` entries in sort-key order; ties
        keep their iteration order, as ``list.sort`` is stable."""
        entries.sort(key=itemgetter(0))
        out.append(head)
        out.append(item_sep.join(entry_text for _, entry_text in entries))
        out.append("]}")

    def null(obj: Any, out: List[str]) -> None:
        out.append("null")

    def boolean(obj: Any, out: List[str]) -> None:
        out.append("true" if obj else "false")

    def integer(obj: Any, out: List[str]) -> None:
        out.append(int.__repr__(obj))

    def string(obj: Any, out: List[str]) -> None:
        out.append(encode_basestring_ascii(obj))

    float_head = f'{{"__float__"{key_sep}"'

    def floating(obj: Any, out: List[str]) -> None:
        # hex() is exact and canonical; repr() round-trips but its
        # shortest-form guarantee is an implementation detail.
        out.append(float_head + obj.hex() + '"}')

    enum_head = f'{{"__enum__"{key_sep}'
    enum_value = f'{item_sep}"value"{key_sep}'

    def enumeration(obj: Any, out: List[str]) -> None:
        out.append(
            enum_head + encode_basestring_ascii(type(obj).__name__)
            + enum_value
        )
        encode(obj.value, out)
        out.append("}")

    def dataclass_for(cls: type) -> Encode:
        names = sorted(f.name for f in dataclasses.fields(cls))
        labels = [
            (item_sep if index else "") + encode_basestring_ascii(name)
            + key_sep
            for index, name in enumerate(names)
        ]
        head = (
            f'{{"__dataclass__"{key_sep}'
            + encode_basestring_ascii(cls.__name__)
            + f'{item_sep}"fields"{key_sep}{{'
        )
        layout = list(zip(names, labels))

        def dataclass(obj: Any, out: List[str]) -> None:
            out.append(head)
            for name, label in layout:
                out.append(label)
                encode(getattr(obj, name), out)
            out.append("}}")

        return dataclass

    mapping_head = f'{{"__mapping__"{key_sep}['

    def mapping(obj: Any, out: List[str]) -> None:
        entries = []
        for key, value in obj.items():
            key_text = text(key)
            entries.append((
                sort_key(key, key_text),
                f"[{key_text}{item_sep}{text(value)}]",
            ))
        write_sorted(mapping_head, entries, out)

    sequence_head = f'{{"__sequence__"{key_sep}['

    def sequence(obj: Any, out: List[str]) -> None:
        out.append(sequence_head)
        for index, item in enumerate(obj):
            if index:
                out.append(item_sep)
            encode(item, out)
        out.append("]}")

    set_head = f'{{"__set__"{key_sep}['

    def unordered(obj: Any, out: List[str]) -> None:
        entries = []
        for element in obj:
            element_text = text(element)
            entries.append((sort_key(element, element_text), element_text))
        write_sorted(set_head, entries, out)

    def handler_for(cls: type) -> Encode:
        if cls is type(None):
            return null
        if issubclass(cls, bool):
            return boolean
        if issubclass(cls, int):
            return integer
        if issubclass(cls, str):
            return string
        if issubclass(cls, float):
            return floating
        if issubclass(cls, enum.Enum):
            return enumeration
        if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
            return dataclass_for(cls)
        if issubclass(cls, Mapping):
            return mapping
        if issubclass(cls, (list, tuple)):
            return sequence
        if issubclass(cls, (set, frozenset)):
            return unordered
        return _unsupported

    return encode


def _text(encode: Encode, obj: Any) -> str:
    out: List[str] = []
    encode(obj, out)
    return "".join(out)


#: The document encoder (``json.dumps(..., separators=(",", ":"))``).
_encode = _encoder(",", ":")
#: The sort-key encoder (``json.dumps``'s default separators).
_encode_spaced = _encoder(", ", ": ")

#: ``id(obj) -> (weak reference to obj, obj's document text)`` for the
#: frozen-dataclass objects fingerprinted so far (module docstring).
_memo: Dict[int, Tuple["weakref.ref[Any]", str]] = {}


def _forget(key: int, ref: "weakref.ref[Any]") -> None:
    """Weak-reference callback: drop a dead object's memo entry."""
    entry = _memo.get(key)
    if entry is not None and entry[0] is ref:
        del _memo[key]


def _memo_text(obj: Any) -> str:
    """``obj``'s document text, memoized when it is a frozen dataclass."""
    params = getattr(type(obj), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return _text(_encode, obj)
    key = id(obj)
    entry = _memo.get(key)
    if entry is not None and entry[0]() is obj:
        return entry[1]
    text = _text(_encode, obj)
    try:
        ref = weakref.ref(obj, functools.partial(_forget, key))
    except TypeError:  # a slotted class without __weakref__
        return text
    _memo[key] = (ref, text)
    return text


def _argument_text(obj: Any) -> str:
    """One :func:`fingerprint` argument's text; the argument and, for a
    list or tuple, its elements go through the memo."""
    if type(obj) in (list, tuple):
        return (
            '{"__sequence__":['
            + ",".join(_memo_text(item) for item in obj)
            + "]}"
        )
    return _memo_text(obj)


def fingerprint(*objects: Any) -> str:
    """SHA-256 hex digest of the objects' canonical encoding."""
    document = (
        f"[{FORMAT_VERSION},["
        + ",".join(_argument_text(obj) for obj in objects)
        + "]]"
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()
