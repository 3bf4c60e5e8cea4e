"""Endpoint handlers: pure functions from (ReadView, params) to JSON.

Routing and rendering are HTTP-free so they can be tested without a
socket: :func:`route` maps a path + query-string dict to a
:class:`RouteResult` holding a status code and a JSON-serializable
payload.  Every payload carries the generation of the view it was
rendered from — a handler receives the view *once*, so a response can
never mix two generations.

List endpoints paginate with an opaque cursor (``?limit=&cursor=``): the
cursor encodes the offset of the next page and round-trips unchanged
through clients.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import unquote

from repro.query.engine import QueryEngine
from repro.query.parser import QuerySyntaxError

from repro.server.kernel import ApiError
from repro.server.views import ReadView

DEFAULT_PAGE = 20
MAX_PAGE = 200


@dataclass
class RouteResult:
    """Status + payload of one routed request."""

    status: int
    payload: Dict[str, object]


# -- pagination cursors ----------------------------------------------------

def encode_cursor(offset: int) -> str:
    return base64.urlsafe_b64encode(f"o:{offset}".encode("ascii")).decode(
        "ascii"
    )


def decode_cursor(cursor: str) -> int:
    try:
        text = base64.urlsafe_b64decode(cursor.encode("ascii")).decode(
            "ascii"
        )
        prefix, _, value = text.partition(":")
        if prefix != "o":
            raise ValueError(text)
        offset = int(value)
    except (ValueError, binascii.Error, UnicodeDecodeError):
        raise ApiError(400, f"malformed cursor {cursor!r}")
    if offset < 0:
        raise ApiError(400, "cursor offset must be non-negative")
    return offset


def limit_param(params: Dict[str, str], default: int) -> int:
    """``?limit=`` as a positive integer; 400 for anything else."""
    raw_limit = params.get("limit", "")
    try:
        limit = int(raw_limit) if raw_limit else default
    except ValueError:
        raise ApiError(400, f"limit must be an integer, got {raw_limit!r}")
    if limit <= 0:
        raise ApiError(400, "limit must be positive")
    return limit


def _page_params(params: Dict[str, str]) -> Tuple[int, int]:
    """(limit, offset) from ``?limit=&cursor=``, validated."""
    limit = min(limit_param(params, DEFAULT_PAGE), MAX_PAGE)
    cursor = params.get("cursor", "")
    offset = decode_cursor(cursor) if cursor else 0
    return limit, offset


def _paginate(
    rows: Sequence[Dict[str, object]], limit: int, offset: int
) -> Tuple[List[Dict[str, object]], Optional[str]]:
    page = list(rows[offset:offset + limit])
    next_cursor = (
        encode_cursor(offset + limit) if offset + limit < len(rows) else None
    )
    return page, next_cursor


# -- endpoints -------------------------------------------------------------

def healthz(view: ReadView, params: Dict[str, str]) -> RouteResult:
    return RouteResult(200, {
        "status": "ok",
        "generation": view.generation,
        "dataset": view.dataset,
        "num_stories": len(view.stories),
    })


def list_stories(view: ReadView, params: Dict[str, str]) -> RouteResult:
    limit, offset = _page_params(params)
    page, next_cursor = _paginate(view.stories, limit, offset)
    return RouteResult(200, {
        "generation": view.generation,
        "total": len(view.stories),
        "stories": page,
        "next_cursor": next_cursor,
    })


def story_detail(
    view: ReadView, story_id: str, params: Dict[str, str]
) -> RouteResult:
    detail = view.story_details.get(story_id)
    if detail is None:
        raise ApiError(404, f"no integrated story {story_id!r}")
    return RouteResult(200, {
        "generation": view.generation,
        "story": detail,
    })


def story_snippets(
    view: ReadView, story_id: str, params: Dict[str, str]
) -> RouteResult:
    rows = view.story_snippets.get(story_id)
    if rows is None:
        raise ApiError(404, f"no integrated story {story_id!r}")
    limit, offset = _page_params(params)
    page, next_cursor = _paginate(rows, limit, offset)
    return RouteResult(200, {
        "generation": view.generation,
        "story_id": story_id,
        "total": len(rows),
        "snippets": page,
        "next_cursor": next_cursor,
    })


def list_sources(view: ReadView, params: Dict[str, str]) -> RouteResult:
    return RouteResult(200, {
        "generation": view.generation,
        "sources": view.sources,
    })


def source_stories(
    view: ReadView, source_id: str, params: Dict[str, str]
) -> RouteResult:
    rows = view.source_stories.get(source_id)
    if rows is None:
        raise ApiError(404, f"no source {source_id!r}")
    limit, offset = _page_params(params)
    page, next_cursor = _paginate(rows, limit, offset)
    return RouteResult(200, {
        "generation": view.generation,
        "source_id": source_id,
        "total": len(rows),
        "stories": page,
        "next_cursor": next_cursor,
    })


def stats(view: ReadView, params: Dict[str, str]) -> RouteResult:
    return RouteResult(200, {
        "generation": view.generation,
        "stats": view.stats,
    })


def query(view: ReadView, params: Dict[str, str]) -> RouteResult:
    text = params.get("q", "").strip()
    if not text:
        raise ApiError(400, "missing or empty query parameter 'q'")
    limit, offset = _page_params(params)
    # O(1): the first query against a view's alignment builds its index
    engine = QueryEngine(view.alignment)
    try:
        # fetch one extra hit to learn whether a next page exists
        hits = engine.execute(text, limit=limit + 1, offset=offset)
    except QuerySyntaxError as exc:
        raise ApiError(400, f"bad query: {exc}")
    except ValueError as exc:
        raise ApiError(400, str(exc))
    next_cursor = encode_cursor(offset + limit) if len(hits) > limit else None
    results = [
        {
            "story": view.story_details[hit.story.aligned_id],
            "relevance": hit.relevance,
            "matched": list(hit.matched),
        }
        for hit in hits[:limit]
    ]
    return RouteResult(200, {
        "generation": view.generation,
        "query": text,
        "results": results,
        "next_cursor": next_cursor,
    })


# -- routing ---------------------------------------------------------------

def route(view: ReadView, path: str, params: Dict[str, str]) -> RouteResult:
    """Dispatch one request path against ``view``.

    Raises :class:`ApiError` for client errors (bad paths, unknown ids,
    malformed parameters).
    """
    parts = [unquote(p) for p in path.strip("/").split("/") if p]
    if not parts:
        return RouteResult(200, {
            "generation": view.generation,
            "endpoints": sorted(ENDPOINTS),
        })
    head = parts[0]
    if head == "healthz" and len(parts) == 1:
        return healthz(view, params)
    if head == "stats" and len(parts) == 1:
        return stats(view, params)
    if head == "query" and len(parts) == 1:
        return query(view, params)
    if head == "stories":
        if len(parts) == 1:
            return list_stories(view, params)
        if len(parts) == 2:
            return story_detail(view, parts[1], params)
        if len(parts) == 3 and parts[2] == "snippets":
            return story_snippets(view, parts[1], params)
    if head == "sources":
        if len(parts) == 1:
            return list_sources(view, params)
        if len(parts) == 2 and parts[1] in view.source_stories:
            raise ApiError(
                404, f"unknown endpoint /sources/{parts[1]}; "
                     f"did you mean /sources/{parts[1]}/stories?"
            )
        if len(parts) == 3 and parts[2] == "stories":
            return source_stories(view, parts[1], params)
    raise ApiError(404, f"unknown endpoint {path!r}")


ENDPOINTS = (
    "/healthz",
    "/metricz",
    "/tracez",
    "/storyz/{id}/history",
    "/subscribez?story=...&entity=...&source=...",
    "/stats",
    "/stories",
    "/stories/{id}",
    "/stories/{id}/snippets",
    "/sources",
    "/sources/{id}/stories",
    "/query?q=...",
)
