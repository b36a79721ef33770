"""Finding mappable points across all binaries (paper Section 3.2.2).

Three matching stages, mirroring the paper:

1. **Procedures by symbol name** — a procedure entry is mappable when
   the symbol exists in every binary and its whole-run entry count is
   identical everywhere. (Inlined-away procedures fail the existence
   test, exactly as with real symbol tables.)
2. **Loops by debug line** — a loop is identified by its source line.
   Its *entry* is mappable when every binary has that line and the
   entry counts match; its *back-edge branch* is additionally mappable
   when the iteration counts match (unrolled loops keep a mappable
   entry but lose the branch). Lines carrying several loops (the
   optimizer's loop splitting re-uses the source line) are matched by
   per-loop count signatures when unambiguous, otherwise dropped.
3. **Count-signature recovery for inlined loops** (paper Section 3.3) —
   inlining clobbers a loop's debug line, so stage 2 misses it. A
   leftover loop is recovered when its ``(entry count, iteration
   count)`` signature identifies exactly one leftover loop in *every*
   binary.

4. **Confidence-scored fuzzy fallback** (off by default) — equal-count
   siblings (the paper's applu case: five inlined PDE solvers with
   identical loop structure) defeat stages 1-3. The fallback
   canonicalizes names — stripping compiler clone suffixes like
   ``.part.N`` / ``.isra.N`` / ``.constprop.N`` and the inline/split
   decoration inlining leaves on loop names — and aligns the leftovers
   by canonical name (exact, then :mod:`difflib` similarity). A fuzzy
   match still *requires* identical whole-run counts in every binary
   (the count invariant is what makes execution coordinates sound);
   the confidence only scores the risk that the aligned constructs are
   not the same source construct. Matches below the resolved
   ``match_confidence`` threshold are dropped; at the default
   threshold of 1.0 the stage is skipped entirely and the output is
   bit-identical to the exact matcher.

The output is a :class:`~repro.core.markers.MarkerSet` whose points all
carry identical whole-run counts in every binary, plus a
:class:`MatchReport` describing what matched, what was dropped, and —
per binary pair — how much of each binary's executed constructs the
marker set covers.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.compilation.binary import Binary, LLoop
from repro.core.markers import (
    MappablePoint,
    MarkerKind,
    MarkerSet,
    MarkerTable,
)
from repro.errors import MatchingError
from repro.profiling.callbranch import CallBranchProfile, LoopProfile
from repro.runtime.config import resolve_match_confidence

#: Aligned canonical names must be at least this similar to pair up.
NAME_SIMILARITY_FLOOR = 0.6

_CLONE_SUFFIX = re.compile(r"\.(?:part|isra|constprop|cold)\.\d+$")


def canonical_symbol_name(name: str) -> str:
    """Strip compiler clone suffixes (``.part.N`` etc.), repeatedly."""
    while True:
        stripped = _CLONE_SUFFIX.sub("", name)
        if stripped == name:
            return name
        name = stripped


def canonical_loop_name(name: str) -> str:
    """Canonical identity of a (possibly inlined/split) loop name.

    Inlining decorates a loop name with its call site
    (``{callsite}__{name}``) and splitting appends a fragment marker
    (``__a`` / ``__b``); both are stripped, as are compiler clone
    suffixes, so every derived copy of ``pde0_loop`` canonicalizes back
    to ``pde0_loop``.
    """
    segments = canonical_symbol_name(name).split("__")
    while len(segments) > 1 and len(segments[-1]) == 1:
        segments.pop()
    return segments[-1]


def _split_stem(name: str) -> str:
    """A split fragment's name without its trailing fragment markers."""
    segments = name.split("__")
    while len(segments) > 1 and len(segments[-1]) == 1:
        segments.pop()
    return "__".join(segments)


@dataclass(frozen=True)
class PairCoverage:
    """Matched/unmatched construct coverage for one binary pair.

    A *construct* is one executed procedure or one executed loop (a
    loop's entry and branch markers count as one construct). The
    matched counts differ per binary: a split loop contributes two
    matched fragments on the optimized side but one loop on the other.
    """

    binary_a: str
    binary_b: str
    matched_a: int
    candidates_a: int
    matched_b: int
    candidates_b: int

    @property
    def coverage(self) -> float:
        """Worst-side fraction of executed constructs that mapped."""

        def frac(matched: int, candidates: int) -> float:
            return matched / candidates if candidates else 1.0

        return min(
            frac(self.matched_a, self.candidates_a),
            frac(self.matched_b, self.candidates_b),
        )


@dataclass(frozen=True)
class MatchReport:
    """Diagnostics from one matching run."""

    procedures_matched: int
    procedures_dropped: int
    loop_entries_matched: int
    loop_branches_matched: int
    loops_recovered_by_signature: int
    loops_dropped_ambiguous: int
    dropped_details: Tuple[str, ...] = ()
    procedures_matched_fuzzy: int = 0
    loops_matched_fuzzy: int = 0
    low_confidence_dropped: int = 0
    confidence_threshold: float = 1.0
    min_confidence: float = 1.0
    pair_coverage: Tuple[PairCoverage, ...] = ()

    def min_pair_coverage(self) -> float:
        """The weakest pairwise coverage (1.0 with no pairs)."""
        if not self.pair_coverage:
            return 1.0
        return min(pair.coverage for pair in self.pair_coverage)

    def to_summary(self) -> Dict[str, Any]:
        """Flat JSON-ready summary for manifests and run archives."""
        return {
            "threshold": float(self.confidence_threshold),
            "min_confidence": float(self.min_confidence),
            "fuzzy_procedures": int(self.procedures_matched_fuzzy),
            "fuzzy_loops": int(self.loops_matched_fuzzy),
            "low_confidence_dropped": int(self.low_confidence_dropped),
            "min_pair_coverage": float(self.min_pair_coverage()),
            "pairs": {
                f"{pair.binary_a}|{pair.binary_b}": {
                    "matched_a": pair.matched_a,
                    "candidates_a": pair.candidates_a,
                    "matched_b": pair.matched_b,
                    "candidates_b": pair.candidates_b,
                    "coverage": float(pair.coverage),
                }
                for pair in self.pair_coverage
            },
        }


@dataclass
class _BinaryView:
    """Pre-indexed view of one binary + its profile."""

    binary: Binary
    profile: CallBranchProfile
    loops_by_id: Dict[int, LLoop] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for proc_name in self.binary.procedures:
            for loop in self.binary.iter_loops_of(proc_name):
                self.loops_by_id[loop.loop_id] = loop

    def executed_loops(self) -> Tuple[LoopProfile, ...]:
        return self.profile.executed_loops()


def _match_procedures(
    views: Sequence[_BinaryView], details: List[str]
) -> Tuple[List[Tuple[Tuple, int, Dict[str, int]]], int, Set[str]]:
    """Returns (matched proc descriptors, dropped count, matched names).

    Each descriptor is ``(key, total count, {binary name: anchor})``.
    Every dropped procedure — missing symbol or count mismatch — is
    recorded in ``details`` so the coverage report can explain itself.
    """
    name_sets = [
        set(view.profile.executed_procedures()) for view in views
    ]
    common = set.intersection(*name_sets)
    all_names = set.union(*name_sets)
    matched = []
    matched_names: Set[str] = set()
    dropped = len(all_names) - len(common)
    for name in sorted(all_names - common):
        missing = [
            view.binary.name
            for view, names in zip(views, name_sets)
            if name not in names
        ]
        details.append(
            f"procedure {name}: missing from {', '.join(missing)}"
        )
    for name in sorted(common):
        counts = {
            view.binary.name: view.profile.procedure_entries[name]
            for view in views
        }
        distinct = set(counts.values())
        if len(distinct) != 1:
            dropped += 1
            shown = ", ".join(
                f"{binary}={count}" for binary, count in sorted(counts.items())
            )
            details.append(f"procedure {name}: entry counts differ ({shown})")
            continue
        anchors = {
            view.binary.name: view.binary.procedures[name].entry_block
            for view in views
        }
        matched.append((("proc", name), distinct.pop(), anchors))
        matched_names.add(name)
    return matched, dropped, matched_names


_Signature = Tuple[int, int]  # (entries, iterations)


def _loop_anchor(
    view: _BinaryView, loop_id: int, kind: MarkerKind
) -> int:
    loop = view.loops_by_id[loop_id]
    return loop.entry_block if kind is MarkerKind.LOOP_ENTRY else loop.branch_block


@dataclass
class _LoopMatch:
    """One matched loop construct across all binaries."""

    key: Tuple
    kind: MarkerKind
    total_count: int
    anchors: Dict[str, int]
    confidence: float = 1.0


def _match_line_group(
    views: Sequence[_BinaryView],
    line_key: Tuple[str, int],
    groups: Sequence[Tuple[LoopProfile, ...]],
    details: List[str],
) -> Tuple[List[_LoopMatch], Set[Tuple[str, int]], int]:
    """Match the loops all binaries place at one source line.

    Returns (matches, consumed (binary name, loop id) pairs, dropped).
    """
    matches: List[_LoopMatch] = []
    consumed: Set[Tuple[str, int]] = set()
    dropped = 0

    if all(len(group) == 1 for group in groups):
        profiles = [group[0] for group in groups]
        entries = {p.entries for p in profiles}
        iterations = {p.iterations for p in profiles}
        if len(entries) == 1:
            matches.append(
                _LoopMatch(
                    key=("line", line_key[0], line_key[1], "entry"),
                    kind=MarkerKind.LOOP_ENTRY,
                    total_count=entries.pop(),
                    anchors={
                        view.binary.name: _loop_anchor(
                            view, p.loop_id, MarkerKind.LOOP_ENTRY
                        )
                        for view, p in zip(views, profiles)
                    },
                )
            )
            if len(iterations) == 1:
                matches.append(
                    _LoopMatch(
                        key=("line", line_key[0], line_key[1], "branch"),
                        kind=MarkerKind.LOOP_BRANCH,
                        total_count=iterations.pop(),
                        anchors={
                            view.binary.name: _loop_anchor(
                                view, p.loop_id, MarkerKind.LOOP_BRANCH
                            )
                            for view, p in zip(views, profiles)
                        },
                    )
                )
            for view, p in zip(views, profiles):
                consumed.add((view.binary.name, p.loop_id))
        else:
            dropped += 1
            details.append(
                f"line {line_key[0]}:{line_key[1]}: entry counts differ"
            )
        return matches, consumed, dropped

    # Several loops share the line in some binary (loop splitting).
    # Try per-loop count signatures; any duplicate signature within a
    # binary is irresolvably ambiguous.
    sig_maps: List[Dict[_Signature, LoopProfile]] = []
    ambiguous = False
    for group in groups:
        sig_map: Dict[_Signature, LoopProfile] = {}
        for profile in group:
            signature = (profile.entries, profile.iterations)
            if signature in sig_map:
                ambiguous = True
                break
            sig_map[signature] = profile
        if ambiguous:
            break
        sig_maps.append(sig_map)
    if ambiguous or len({frozenset(m) for m in sig_maps}) != 1:
        details.append(
            f"line {line_key[0]}:{line_key[1]}: ambiguous split loops"
        )
        return [], set(), 1

    for signature in sorted(sig_maps[0]):
        entries, iterations = signature
        entry_anchors = {}
        branch_anchors = {}
        for view, sig_map in zip(views, sig_maps):
            profile = sig_map[signature]
            consumed.add((view.binary.name, profile.loop_id))
            entry_anchors[view.binary.name] = _loop_anchor(
                view, profile.loop_id, MarkerKind.LOOP_ENTRY
            )
            branch_anchors[view.binary.name] = _loop_anchor(
                view, profile.loop_id, MarkerKind.LOOP_BRANCH
            )
        base_key = ("line", line_key[0], line_key[1], entries, iterations)
        matches.append(
            _LoopMatch(
                key=base_key + ("entry",),
                kind=MarkerKind.LOOP_ENTRY,
                total_count=entries,
                anchors=entry_anchors,
            )
        )
        matches.append(
            _LoopMatch(
                key=base_key + ("branch",),
                kind=MarkerKind.LOOP_BRANCH,
                total_count=iterations,
                anchors=branch_anchors,
            )
        )
    return matches, consumed, 0


def _match_loops_by_line(
    views: Sequence[_BinaryView], details: List[str]
) -> Tuple[List[_LoopMatch], Set[Tuple[str, int]], int]:
    by_line: List[Dict[Tuple[str, int], List[LoopProfile]]] = []
    for view in views:
        groups: Dict[Tuple[str, int], List[LoopProfile]] = defaultdict(list)
        for profile in view.executed_loops():
            if profile.location is not None:
                groups[(profile.location.file, profile.location.line)].append(
                    profile
                )
        by_line.append(dict(groups))

    common_lines = set.intersection(*(set(m) for m in by_line))
    matches: List[_LoopMatch] = []
    consumed: Set[Tuple[str, int]] = set()
    dropped = 0
    for line_key in sorted(common_lines):
        groups = [tuple(m[line_key]) for m in by_line]
        line_matches, line_consumed, line_dropped = _match_line_group(
            views, line_key, groups, details
        )
        matches.extend(line_matches)
        consumed |= line_consumed
        dropped += line_dropped
    return matches, consumed, dropped


def _recover_by_signature(
    views: Sequence[_BinaryView],
    consumed: Set[Tuple[str, int]],
    details: List[str],
) -> Tuple[List[_LoopMatch], int, int]:
    """Stage 3: match leftover loops by unique count signatures."""
    leftovers: List[Dict[_Signature, List[LoopProfile]]] = []
    for view in views:
        sig_map: Dict[_Signature, List[LoopProfile]] = defaultdict(list)
        for profile in view.executed_loops():
            if (view.binary.name, profile.loop_id) in consumed:
                continue
            sig_map[(profile.entries, profile.iterations)].append(profile)
        leftovers.append(dict(sig_map))

    candidate_sigs = set.intersection(*(set(m) for m in leftovers))
    matches: List[_LoopMatch] = []
    recovered = 0
    dropped = 0
    for signature in sorted(candidate_sigs):
        groups = [m[signature] for m in leftovers]
        if any(len(group) != 1 for group in groups):
            dropped += 1
            details.append(
                f"signature entries={signature[0]} "
                f"iterations={signature[1]}: ambiguous inlined loops"
            )
            continue
        entries, iterations = signature
        entry_anchors = {}
        branch_anchors = {}
        for view, group in zip(views, groups):
            profile = group[0]
            consumed.add((view.binary.name, profile.loop_id))
            entry_anchors[view.binary.name] = _loop_anchor(
                view, profile.loop_id, MarkerKind.LOOP_ENTRY
            )
            branch_anchors[view.binary.name] = _loop_anchor(
                view, profile.loop_id, MarkerKind.LOOP_BRANCH
            )
        recovered += 1
        base_key = ("sig", entries, iterations)
        matches.append(
            _LoopMatch(
                key=base_key + ("entry",),
                kind=MarkerKind.LOOP_ENTRY,
                total_count=entries,
                anchors=entry_anchors,
            )
        )
        matches.append(
            _LoopMatch(
                key=base_key + ("branch",),
                kind=MarkerKind.LOOP_BRANCH,
                total_count=iterations,
                anchors=branch_anchors,
            )
        )
    # Leftovers in any binary that matched nothing are unmappable.
    unmatched_sigs = set.union(*(set(m) for m in leftovers)) - candidate_sigs
    dropped += len(unmatched_sigs)
    return matches, recovered, dropped


# Confidence model for the fuzzy fallback. A fuzzy match always has
# exact whole-run count equality; confidence scores only the identity
# claim, so the factors are structural:
_STRIPPED_BASE = 0.9  # canonicalization removed decoration somewhere
_PLAIN_BASE = 0.95  # names already equal, yet the exact stages missed
_FRAGMENT_PENALTY = 0.8  # anchored on one fragment of a split loop


def _align_names(
    name_sets: Sequence[Set[str]],
) -> List[Tuple[Tuple[str, ...], float]]:
    """Align canonical names across binaries.

    Names present in every binary align exactly (score 1.0); the rest
    are greedily paired by :class:`difflib.SequenceMatcher` similarity
    with :data:`NAME_SIMILARITY_FLOOR` as the cut-off. Returns
    ``(per-binary names, name score)`` tuples, deterministically
    ordered.
    """
    aligned: List[Tuple[Tuple[str, ...], float]] = []
    shared = set.intersection(*(set(s) for s in name_sets))
    for name in sorted(shared):
        aligned.append(((name,) * len(name_sets), 1.0))
    remaining = [sorted(s - shared) for s in name_sets]
    for name in list(remaining[0]):
        choice = [name]
        score = 1.0
        for names in remaining[1:]:
            best, best_ratio = None, 0.0
            for candidate in names:
                ratio = SequenceMatcher(None, name, candidate).ratio()
                if ratio > best_ratio:
                    best, best_ratio = candidate, ratio
            if best is None or best_ratio < NAME_SIMILARITY_FLOOR:
                choice = []
                break
            choice.append(best)
            score = min(score, best_ratio)
        if not choice:
            continue
        for names, picked in zip(remaining, choice):
            names.remove(picked)
        aligned.append((tuple(choice), score))
    return aligned


def _fuzzy_match_procedures(
    views: Sequence[_BinaryView],
    matched_names: Set[str],
    threshold: float,
    details: List[str],
) -> Tuple[
    List[Tuple[Tuple, int, Dict[str, int], float]],
    int,
    Dict[str, Set[str]],
]:
    """Stage 4a: align leftover procedures by canonical symbol name.

    Returns (matched descriptors ``(key, total, anchors, confidence)``,
    low-confidence drops, per-binary matched raw names).
    """
    leftover_maps: List[Dict[str, List[str]]] = []
    for view in views:
        groups: Dict[str, List[str]] = defaultdict(list)
        for name in view.profile.executed_procedures():
            if name in matched_names:
                continue
            groups[canonical_symbol_name(name)].append(name)
        leftover_maps.append(dict(groups))

    matches: List[Tuple[Tuple, int, Dict[str, int], float]] = []
    matched_raw: Dict[str, Set[str]] = {
        view.binary.name: set() for view in views
    }
    low_dropped = 0
    for canonicals, name_score in _align_names(
        [set(m) for m in leftover_maps]
    ):
        label = canonicals[0]
        groups = [m[c] for m, c in zip(leftover_maps, canonicals)]
        if any(len(group) != 1 for group in groups):
            details.append(f"fuzzy procedure {label}: ambiguous candidates")
            continue
        raws = [group[0] for group in groups]
        counts = {
            view.profile.procedure_entries[raw]
            for view, raw in zip(views, raws)
        }
        if len(counts) != 1:
            details.append(f"fuzzy procedure {label}: entry counts differ")
            continue
        stripped = any(
            raw != canonical for raw, canonical in zip(raws, canonicals)
        )
        confidence = name_score * (
            _STRIPPED_BASE if stripped else _PLAIN_BASE
        )
        if confidence < threshold:
            low_dropped += 1
            details.append(
                f"fuzzy procedure {label}: confidence {confidence:.3f} "
                f"below threshold {threshold:.3f}"
            )
            continue
        anchors = {
            view.binary.name: view.binary.procedures[raw].entry_block
            for view, raw in zip(views, raws)
        }
        matches.append(
            (("fuzzy-proc", label), counts.pop(), anchors, confidence)
        )
        for view, raw in zip(views, raws):
            matched_raw[view.binary.name].add(raw)
    return matches, low_dropped, matched_raw


@dataclass
class _FuzzyCandidate:
    """One leftover loop construct: a loop or its split-fragment group.

    ``profiles`` holds every fragment, representative (lowest split
    index) first — the representative's entry block fires at the same
    semantic moment as the unsplit loop's entry.
    """

    profiles: List[LoopProfile]
    fragment: bool

    @property
    def rep(self) -> LoopProfile:
        return self.profiles[0]


def _fuzzy_loop_candidates(
    view: _BinaryView, consumed: Set[Tuple[str, int]]
) -> Dict[str, List[_FuzzyCandidate]]:
    """Group one binary's leftover loops by canonical name."""
    by_stem: Dict[Tuple[str, str], List[LoopProfile]] = defaultdict(list)
    for profile in view.executed_loops():
        if (view.binary.name, profile.loop_id) in consumed:
            continue
        canonical = canonical_loop_name(profile.source_name)
        by_stem[(canonical, _split_stem(profile.source_name))].append(
            profile
        )
    by_canonical: Dict[str, List[_FuzzyCandidate]] = defaultdict(list)
    for (canonical, _stem), profiles in sorted(by_stem.items()):
        ordered = sorted(
            profiles,
            key=lambda p: (view.binary.loops[p.loop_id].split_index, p.loop_id),
        )
        split = [
            p for p in ordered
            if view.binary.loops[p.loop_id].split_index > 0
        ]
        if split and len(split) == len(ordered):
            by_canonical[canonical].append(
                _FuzzyCandidate(profiles=ordered, fragment=True)
            )
        else:
            for profile in ordered:
                by_canonical[canonical].append(
                    _FuzzyCandidate(profiles=[profile], fragment=False)
                )
    return dict(by_canonical)


def _fuzzy_match_loops(
    views: Sequence[_BinaryView],
    consumed: Set[Tuple[str, int]],
    threshold: float,
    details: List[str],
) -> Tuple[List[_LoopMatch], int, int]:
    """Stage 4b: align leftover loops by canonical name + count gate.

    Returns (matches, matched construct count, low-confidence drops).
    Matched fragment groups are consumed whole.
    """
    candidate_maps = [
        _fuzzy_loop_candidates(view, consumed) for view in views
    ]
    matches: List[_LoopMatch] = []
    constructs = 0
    low_dropped = 0
    for canonicals, name_score in _align_names(
        [set(m) for m in candidate_maps]
    ):
        label = canonicals[0]
        groups = [m[c] for m, c in zip(candidate_maps, canonicals)]
        count_maps: List[Dict[int, _FuzzyCandidate]] = []
        ambiguous = False
        for group in groups:
            count_map: Dict[int, _FuzzyCandidate] = {}
            for candidate in group:
                if candidate.rep.entries in count_map:
                    ambiguous = True
                count_map[candidate.rep.entries] = candidate
            count_maps.append(count_map)
        shared_counts = set.intersection(*(set(m) for m in count_maps))
        if ambiguous or len(shared_counts) > 1:
            details.append(f"fuzzy loop {label}: ambiguous candidates")
            continue
        if not shared_counts:
            details.append(f"fuzzy loop {label}: entry counts differ")
            continue
        entries = shared_counts.pop()
        chosen = [count_map[entries] for count_map in count_maps]
        fragment = any(candidate.fragment for candidate in chosen)
        stripped = any(
            candidate.rep.source_name != canonical
            for candidate, canonical in zip(chosen, canonicals)
        )
        multiplicity = max(len(group) for group in groups)
        confidence = name_score * (
            _STRIPPED_BASE if stripped else _PLAIN_BASE
        )
        if fragment:
            confidence *= _FRAGMENT_PENALTY
        if multiplicity > 1:
            confidence /= multiplicity
        if confidence < threshold:
            low_dropped += 1
            details.append(
                f"fuzzy loop {label}: confidence {confidence:.3f} below "
                f"threshold {threshold:.3f}"
            )
            continue
        constructs += 1
        entry_anchors: Dict[str, int] = {}
        branch_anchors: Dict[str, int] = {}
        for view, candidate in zip(views, chosen):
            rep = candidate.rep
            entry_anchors[view.binary.name] = _loop_anchor(
                view, rep.loop_id, MarkerKind.LOOP_ENTRY
            )
            branch_anchors[view.binary.name] = _loop_anchor(
                view, rep.loop_id, MarkerKind.LOOP_BRANCH
            )
            for profile in candidate.profiles:
                consumed.add((view.binary.name, profile.loop_id))
        matches.append(
            _LoopMatch(
                key=("fuzzy", label, "entry"),
                kind=MarkerKind.LOOP_ENTRY,
                total_count=entries,
                anchors=entry_anchors,
                confidence=confidence,
            )
        )
        iteration_counts = {
            candidate.rep.iterations for candidate in chosen
        }
        if len(iteration_counts) == 1 and not fragment:
            matches.append(
                _LoopMatch(
                    key=("fuzzy", label, "branch"),
                    kind=MarkerKind.LOOP_BRANCH,
                    total_count=iteration_counts.pop(),
                    anchors=branch_anchors,
                    confidence=confidence,
                )
            )
    return matches, constructs, low_dropped


def find_mappable_points(
    profiled_binaries: Sequence[Tuple[Binary, CallBranchProfile]],
    match_confidence: Optional[float] = None,
) -> Tuple[MarkerSet, MatchReport]:
    """Find the mappable points shared by all binaries.

    ``profiled_binaries`` pairs each binary with its call-and-branch
    profile (all collected with the same input).
    ``match_confidence`` is the fuzzy-fallback acceptance threshold,
    resolved through :func:`repro.runtime.config.
    resolve_match_confidence` when not given explicitly; at the
    default of 1.0 the fuzzy stage is skipped entirely and the result
    is bit-identical to the exact matcher.
    """
    if len(profiled_binaries) < 2:
        raise MatchingError(
            "cross-binary matching needs at least two binaries"
        )
    names = [binary.name for binary, _ in profiled_binaries]
    if len(set(names)) != len(names):
        raise MatchingError(f"duplicate binary names: {names}")
    threshold = resolve_match_confidence(match_confidence)
    views = [
        _BinaryView(binary=binary, profile=profile)
        for binary, profile in profiled_binaries
    ]

    details: List[str] = []
    proc_matches, procs_dropped, matched_proc_names = _match_procedures(
        views, details
    )
    line_matches, consumed, line_dropped = _match_loops_by_line(views, details)
    sig_matches, recovered, sig_dropped = _recover_by_signature(
        views, consumed, details
    )

    fuzzy_matched_procs: Dict[str, Set[str]] = {name: set() for name in names}
    if threshold < 1.0:
        fuzzy_proc_matches, proc_low_dropped, fuzzy_matched_procs = (
            _fuzzy_match_procedures(
                views, matched_proc_names, threshold, details
            )
        )
        fuzzy_loop_matches, fuzzy_loop_constructs, loop_low_dropped = (
            _fuzzy_match_loops(views, consumed, threshold, details)
        )
    else:
        fuzzy_proc_matches, proc_low_dropped = [], 0
        fuzzy_loop_matches, fuzzy_loop_constructs, loop_low_dropped = [], 0, 0

    points: List[MappablePoint] = []
    anchor_tables: Dict[str, Dict[int, int]] = {name: {} for name in names}
    marker_id = 0
    for key, total, anchors in proc_matches:
        points.append(
            MappablePoint(
                marker_id=marker_id,
                kind=MarkerKind.PROCEDURE,
                key=key,
                total_count=total,
            )
        )
        for binary_name, block_id in anchors.items():
            anchor_tables[binary_name][marker_id] = block_id
        marker_id += 1
    for match in line_matches + sig_matches:
        points.append(
            MappablePoint(
                marker_id=marker_id,
                kind=match.kind,
                key=match.key,
                total_count=match.total_count,
            )
        )
        for binary_name, block_id in match.anchors.items():
            anchor_tables[binary_name][marker_id] = block_id
        marker_id += 1
    for key, total, anchors, confidence in fuzzy_proc_matches:
        points.append(
            MappablePoint(
                marker_id=marker_id,
                kind=MarkerKind.PROCEDURE,
                key=key,
                total_count=total,
                confidence=confidence,
            )
        )
        for binary_name, block_id in anchors.items():
            anchor_tables[binary_name][marker_id] = block_id
        marker_id += 1
    for match in fuzzy_loop_matches:
        points.append(
            MappablePoint(
                marker_id=marker_id,
                kind=match.kind,
                key=match.key,
                total_count=match.total_count,
                confidence=match.confidence,
            )
        )
        for binary_name, block_id in match.anchors.items():
            anchor_tables[binary_name][marker_id] = block_id
        marker_id += 1

    tables = {
        name: MarkerTable(binary_name=name, anchor_blocks=anchor_tables[name])
        for name in names
    }
    marker_set = MarkerSet(points=tuple(points), tables=tables)
    entry_count = sum(
        1 for p in points if p.kind is MarkerKind.LOOP_ENTRY
    )
    branch_count = sum(
        1 for p in points if p.kind is MarkerKind.LOOP_BRANCH
    )

    # Per-binary construct coverage: executed procedures + executed
    # loops are the candidates; exact + fuzzy matches (and every
    # fragment of a consumed split group) are the matched side.
    matched_constructs: Dict[str, int] = {}
    candidate_constructs: Dict[str, int] = {}
    for view in views:
        name = view.binary.name
        consumed_here = sum(
            1 for binary_name, _ in consumed if binary_name == name
        )
        matched_constructs[name] = (
            len(matched_proc_names)
            + len(fuzzy_matched_procs[name])
            + consumed_here
        )
        candidate_constructs[name] = len(
            view.profile.executed_procedures()
        ) + len(view.executed_loops())
    pair_coverage = tuple(
        PairCoverage(
            binary_a=a,
            binary_b=b,
            matched_a=matched_constructs[a],
            candidates_a=candidate_constructs[a],
            matched_b=matched_constructs[b],
            candidates_b=candidate_constructs[b],
        )
        for i, a in enumerate(names)
        for b in names[i + 1:]
    )

    report = MatchReport(
        procedures_matched=len(proc_matches),
        procedures_dropped=procs_dropped,
        loop_entries_matched=entry_count,
        loop_branches_matched=branch_count,
        loops_recovered_by_signature=recovered,
        loops_dropped_ambiguous=line_dropped + sig_dropped,
        dropped_details=tuple(details),
        procedures_matched_fuzzy=len(fuzzy_proc_matches),
        loops_matched_fuzzy=fuzzy_loop_constructs,
        low_confidence_dropped=proc_low_dropped + loop_low_dropped,
        confidence_threshold=threshold,
        min_confidence=marker_set.min_confidence(),
        pair_coverage=pair_coverage,
    )
    return marker_set, report
