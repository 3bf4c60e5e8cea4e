"""Persistence: checkpoint and restore StoryPivot state.

A live deployment (Section 2.4's dynamic setting) cannot recompute stories
from scratch on every restart.  This module serializes per-source story
sets — snippets plus their story assignments — to JSON-lines and restores
a fully functional :class:`~repro.core.pipeline.StoryPivot` from them:
identifiers are rebuilt with their indexes and each story is reassembled
with its sketch, so incremental processing continues exactly where the
checkpoint left off.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Optional, TextIO

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.core.stories import StorySet
from repro.errors import DataFormatError
from repro.eventdata.models import Snippet


def _snippet_record(snippet: Snippet) -> Dict[str, object]:
    return {
        "snippet_id": snippet.snippet_id,
        "source_id": snippet.source_id,
        "timestamp": snippet.timestamp,
        "published": snippet.published,
        "description": snippet.description,
        "entities": sorted(snippet.entities),
        "keywords": list(snippet.keywords),
        "text": snippet.text,
        "event_type": snippet.event_type,
        "document_id": snippet.document_id,
        "url": snippet.url,
    }


def _snippet_from_record(record: Mapping[str, object]) -> Snippet:
    return Snippet(
        snippet_id=record["snippet_id"],
        source_id=record["source_id"],
        timestamp=record["timestamp"],
        published=record.get("published"),
        description=record["description"],
        entities=frozenset(record.get("entities", [])),
        keywords=tuple(record.get("keywords", [])),
        text=record.get("text", ""),
        event_type=record.get("event_type", "unknown"),
        document_id=record.get("document_id", ""),
        url=record.get("url", ""),
    )


def _config_record(config: StoryPivotConfig) -> Dict[str, object]:
    from dataclasses import asdict

    return asdict(config)


# public aliases: the runtime's write-ahead log reuses the snippet wire format
snippet_record = _snippet_record
snippet_from_record = _snippet_from_record
config_record = _config_record


def canonical_story_ids(story_set) -> Dict[str, str]:
    """Deterministic, content-derived story ids for one source.

    Live story ids come from a process-global counter, so two runs over the
    same corpus — or a killed-and-resumed run — produce equivalent stories
    under different ids.  Ordering stories by ``(start, min snippet id)``
    (a total order: a snippet belongs to exactly one story) yields ids that
    depend only on story *content*, making checkpoints of equivalent states
    byte-comparable.
    """
    ordered = sorted(
        story_set, key=lambda story: (story.start, min(story.snippet_ids()))
    )
    return {
        story.story_id: f"{story_set.source_id}/s{index:06d}"
        for index, story in enumerate(ordered)
    }


def dump_state(pivot: StoryPivot, stream: TextIO,
               canonical_ids: bool = False,
               position: Optional[int] = None) -> int:
    """Write the pivot's configuration and story state as JSON lines.

    With ``canonical_ids`` the stories are renumbered by
    :func:`canonical_story_ids`, so equivalent pivots (however their live
    counter ids were allocated) serialize byte-identically.  A
    ``position`` (the WAL sequence the state covers) goes into the
    header with the snippet count, which lets :func:`load_state` tell a
    file cut at a line boundary from a whole one.  Returns the number of
    snippets written.
    """
    header = {
        "kind": "storypivot-checkpoint",
        "version": 1,
        "config": _config_record(pivot.config),
    }
    if position is not None:
        header["position"] = position
        header["snippets"] = pivot.num_snippets
    # sort_keys so the header is canonical: a config that took a JSON
    # round trip (replication manifest) serializes byte-identically to
    # the original whatever its dict insertion order
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    written = 0
    for source_id, story_set in sorted(pivot.story_sets().items()):
        renamed = canonical_story_ids(story_set) if canonical_ids else None
        stories = story_set
        if renamed is not None:
            stories = sorted(story_set, key=lambda s: renamed[s.story_id])
        for story in stories:
            story_id = renamed[story.story_id] if renamed else story.story_id
            for snippet in story.snippets():
                record = _snippet_record(snippet)
                record["kind"] = "assignment"
                record["story_id"] = story_id
                stream.write(json.dumps(record) + "\n")
                written += 1
    return written


def dumps_state(pivot: StoryPivot, canonical_ids: bool = False) -> str:
    """String-returning convenience wrapper around :func:`dump_state`."""
    import io

    buffer = io.StringIO()
    dump_state(pivot, buffer, canonical_ids=canonical_ids)
    return buffer.getvalue()


def load_state(stream_or_text) -> StoryPivot:
    """Rebuild a StoryPivot from a checkpoint written by :func:`dump_state`.

    Story ids are preserved; each identifier's candidate indexes
    are reconstructed from the stored snippets, so the restored pivot
    accepts new snippets and removals immediately.  A header that
    counts its snippets must match the body, or the file was cut short.
    """
    if isinstance(stream_or_text, str):
        lines = stream_or_text.splitlines()
    else:
        lines = stream_or_text.read().splitlines()
    if not lines:
        raise DataFormatError("empty checkpoint")
    header = json.loads(lines[0])
    if header.get("kind") != "storypivot-checkpoint":
        raise DataFormatError("not a StoryPivot checkpoint")
    if header.get("version") != 1:
        raise DataFormatError(f"unsupported version {header.get('version')!r}")
    config_record = dict(header["config"])
    config = StoryPivotConfig(**config_record)

    pivot = StoryPivot(config)
    # first pass: group assignments by (source, story) in file order
    pending: Dict[str, Dict[str, list]] = {}
    count = 0
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("kind") != "assignment":
            raise DataFormatError(f"line {line_no}: unexpected record")
        snippet = _snippet_from_record(record)
        pending.setdefault(snippet.source_id, {}).setdefault(
            record["story_id"], []
        ).append(snippet)
        count += 1
    if "snippets" in header and header["snippets"] != count:
        raise DataFormatError(
            f"torn checkpoint: {count} of {header['snippets']} snippets"
        )

    for source_id in sorted(pending):
        for story_id in sorted(pending[source_id]):
            pivot.restore_story(source_id, story_id, pending[source_id][story_id])
    return pivot
