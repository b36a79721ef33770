"""The direct fingerprint encoder against the tree-building oracle.

``repro.runtime.fingerprint`` writes the canonical JSON document in one
pass and memoizes the text of frozen-dataclass key objects.
``tests/oracles/fingerprint.py`` is the encoder before that rewrite: a
canonical tree written by ``json.dumps``. Every digest here must match
the oracle's — for generated nested values that reach every branch and
every escape, for every key material a cold ``run_benchmark("art")``
digests, and for the observability session's config material — so no
cache address and no manifest ``config_fingerprint`` moves. The memo
tests pin the identity contract: an ``id`` reused by a new object, a
mutated non-frozen dataclass and a ``dataclasses.replace`` copy all get
fresh text.
"""

import dataclasses
import enum
import importlib
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.compilation.binary import Binary
from repro.execution.trace import clear_trace_memo
from repro.experiments import runner
from repro.experiments.runner import ExperimentConfig
from repro.observability.session import observe
from repro.runtime import ProfileCache, runtime_session
from repro.runtime.cache import CACHE_FORMAT_VERSION
from repro.runtime.fingerprint import FingerprintError, fingerprint

from tests.oracles.fingerprint import fingerprint as oracle_fingerprint

# ``repro.runtime`` re-exports the function under the module's name.
fingerprint_module = importlib.import_module("repro.runtime.fingerprint")

_SETTINGS = settings(deadline=None, max_examples=200)


class Colour(enum.Enum):
    RED = "red"
    MIXED = (1, 2.5)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


@dataclasses.dataclass(frozen=True)
class FrozenPair:
    right: object
    left: object


@dataclasses.dataclass
class MutablePair:
    right: object
    left: object


_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ufeff\ud800'),
    ),
    max_size=8,
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from(
        [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324]
    ),
    _TEXT,
    st.sampled_from(list(Level)),
    st.sampled_from(list(Colour)),
)
#: Values that can be mapping keys and set elements.
_HASHABLES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=4),
        st.builds(FrozenPair, inner, inner),
    ),
    max_leaves=12,
)
_VALUES = st.recursive(
    _HASHABLES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner),
        st.dictionaries(st.integers(), inner, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(
            st.one_of(st.integers(), _TEXT, st.floats()), inner, max_size=4
        ),
        st.dictionaries(_HASHABLES, inner, max_size=4),
        st.sets(_HASHABLES, max_size=4),
        st.builds(FrozenPair, inner, inner),
        st.builds(MutablePair, inner, inner),
    ),
    max_leaves=30,
)


class TestGeneratedValues:
    @_SETTINGS
    @given(_VALUES)
    def test_one_value(self, value):
        assert fingerprint(value) == oracle_fingerprint(value)

    @_SETTINGS
    @given(st.lists(_VALUES, max_size=4), _VALUES)
    def test_key_material_shape(self, material, extra):
        """``ProfileCache._digest``'s argument shape, whose list
        elements go through the memo."""
        args = ("kind", CACHE_FORMAT_VERSION, material, tuple(material), extra)
        assert fingerprint(*args) == oracle_fingerprint(*args)
        assert fingerprint(*args) == oracle_fingerprint(*args)  # memo hits

    def test_nan_keys_keep_insertion_order(self):
        """Two NaN keys are distinct dict entries with equal sort keys."""
        value = {float("nan"): 1, float("nan"): 2, 0.5: 3}
        assert fingerprint(value) == oracle_fingerprint(value)

    @pytest.mark.parametrize(
        "value",
        [
            b"bytes",
            object(),
            FrozenPair,
            [1, bytearray(b"x")],
            {b"key": 1},
            {1: object()},
            FrozenPair(1, complex(1, 2)),
            frozenset({b"x"}),
        ],
        ids=repr,
    )
    def test_unsupported_types_raise(self, value):
        with pytest.raises(FingerprintError):
            oracle_fingerprint(value)
        with pytest.raises(FingerprintError):
            fingerprint(value)
        with pytest.raises(FingerprintError):
            fingerprint("kind", [value])


@pytest.fixture(scope="module")
def art_cold(tmp_path_factory):
    """A cold ``run_benchmark("art")`` into a fresh cache directory:
    ``(root, [(kind, key material, digest)], config fingerprint)``."""
    root = tmp_path_factory.mktemp("art-cache")
    recorded = []
    original = ProfileCache._digest

    def recording(self, kind, key_material):
        digest = original(self, kind, key_material)
        recorded.append((kind, list(key_material), digest))
        return digest

    runner.clear_cache()
    clear_trace_memo()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProfileCache, "_digest", recording)
        with runtime_session(jobs=1, cache=ProfileCache(root)):
            with observe(manifest_out=root / "manifest.json") as session:
                runner.run_benchmark("art")
    runner.clear_cache()
    return root, recorded, session.config_fingerprint


class TestRunKeys:
    def test_every_cold_art_key_matches_oracle(self, art_cold):
        _, recorded, _ = art_cold
        kinds = {kind for kind, _, _ in recorded}
        assert {"callbranch", "fli", "vli", "simresult",
                "clustering"} <= kinds
        for kind, material, digest in recorded:
            assert digest == oracle_fingerprint(
                kind, CACHE_FORMAT_VERSION, material
            ), kind

    def test_config_fingerprint_matches_oracle(self, art_cold):
        _, _, config_fingerprint = art_cold
        material = ExperimentConfig().cache_key()
        assert config_fingerprint == oracle_fingerprint("config", material)


def _replaced(binary, name):
    return dataclasses.replace(binary, program_name=name)


class TestMemo:
    def test_reused_id_gets_oracle_digest(self, micro_binary_32u):
        content = _replaced(micro_binary_32u, "second")
        first = _replaced(micro_binary_32u, "first")
        first_digest = fingerprint(first)
        stale_id = id(first)
        assert stale_id in fingerprint_module._memo
        del first  # the last reference: freed, and its entry dropped
        assert stale_id not in fingerprint_module._memo
        # Allocate bare instances until the allocator hands back the
        # freed block (usually at once; a collection pass in between
        # would take it, so none runs here).
        alive = []
        for _ in range(1000):
            candidate = object.__new__(Binary)
            if id(candidate) == stale_id:
                break
            alive.append(candidate)
        else:
            pytest.fail("no new binary reused the dropped binary's id")
        for field in dataclasses.fields(Binary):
            object.__setattr__(
                candidate, field.name, getattr(content, field.name)
            )
        digest = fingerprint(candidate)
        assert digest != first_digest
        assert digest == oracle_fingerprint(candidate)

    def test_entry_for_another_object_is_not_served(self, micro_binary_32u):
        """A memo entry whose weak reference resolves to a different
        object (as a late callback would leave) is recomputed."""
        other = _replaced(micro_binary_32u, "other")
        candidate = _replaced(micro_binary_32u, "candidate")
        fingerprint_module._memo[id(candidate)] = (weakref.ref(other), "[]")
        assert fingerprint(candidate) == oracle_fingerprint(candidate)
        assert fingerprint_module._memo[id(candidate)][0]() is candidate

    def test_mutated_mutable_dataclass_gets_new_digest(self):
        pair = MutablePair(1, [2, 3])
        before = fingerprint("kind", [pair])
        pair.left = [2, 4]
        after = fingerprint("kind", [pair])
        assert after != before
        assert after == oracle_fingerprint("kind", [pair])
        assert id(pair) not in fingerprint_module._memo

    def test_replaced_binary_gets_new_digest(self, micro_binary_32u):
        before = fingerprint("kind", [micro_binary_32u])
        renamed = dataclasses.replace(micro_binary_32u, program_name="copy")
        after = fingerprint("kind", [renamed])
        assert after != before
        assert after == oracle_fingerprint("kind", [renamed])
        assert fingerprint("kind", [micro_binary_32u]) == before

    def test_warm_art_encodes_each_binary_once(self, art_cold, monkeypatch):
        root, _, _ = art_cold
        encoded = Counter()
        original = fingerprint_module._text

        def counting(encode, obj):
            if isinstance(obj, Binary):
                encoded[obj.name] += 1
            return original(encode, obj)

        monkeypatch.setattr(fingerprint_module, "_text", counting)
        cache = ProfileCache(root)
        runner.clear_cache()
        clear_trace_memo()
        with runtime_session(jobs=1, cache=cache):
            runner.run_benchmark("art")
        runner.clear_cache()
        assert cache.stats.misses == 0 and cache.stats.hits > 0
        assert sorted(encoded) == [
            "art/32o", "art/32u", "art/64o", "art/64u"
        ]
        assert set(encoded.values()) == {1}
