"""The JSONL result cache of the table command: one record of the invariants of G(n) per line.

A record is keyed by (kind, n, tool_version, field_prime).  A corrupt or
ill-typed line is dropped with a warning, and the file is then rewritten
through a temporary file and a rename.  json and tempfile are imported only
when a cache is read or written, so launching the CLI loads neither.
"""

from __future__ import annotations

import os
import sys

from . import __version__
from .cohomology import _Record


# the fields of a cache record in the order of its line, each with its type; a list holds ints
_RECORD_TYPES = {
    "kind": str,
    "n": int,
    "fvector": list,
    "betti": list,
    "chi": int,
    "mertens": int,
    "critical_counts": list,
    "tool_version": str,
    "field_prime": int,
}


class CacheRecord(_Record):
    """The invariants of G(n) on one cache line, with the fields and types of _RECORD_TYPES."""

    __slots__ = tuple(_RECORD_TYPES)

    def __init__(self, kind, n, fvector, betti, chi, mertens, critical_counts, tool_version, field_prime):
        self.kind, self.n, self.fvector, self.betti, self.chi = kind, n, fvector, betti, chi
        self.mertens, self.critical_counts = mertens, critical_counts
        self.tool_version, self.field_prime = tool_version, field_prime


def _parse_record(line: str) -> CacheRecord | None:
    """The record on one cache line, or None if the line is not a well-typed record."""
    import json

    try:
        raw = json.loads(line)
    except ValueError:
        return None
    if not isinstance(raw, dict) or raw.keys() != _RECORD_TYPES.keys():
        return None
    for key, want in _RECORD_TYPES.items():
        value = raw[key]
        if type(value) is not want:
            return None
        if want is list and any(type(x) is not int for x in value):
            return None
    return CacheRecord(**raw)


def _load_cache(path: str, kind: str, field_prime: int) -> dict[int, CacheRecord]:
    """Matching records of the cache file, which is rewritten without its corrupt lines.

    A corrupt line costs only itself: the records on both sides of it are kept.
    The rewrite goes through a temporary file and a rename, so an interrupted
    run leaves either the old file or the new one.
    """
    records: dict[int, CacheRecord] = {}
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except FileNotFoundError:
        return records
    kept, corrupt = [], False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        rec = _parse_record(line)
        if rec is None:
            print(f"warning: truncating corrupt cache line {lineno}; the other records are kept", file=sys.stderr)
            corrupt = True
            continue
        kept.append(line)
        if rec.tool_version == __version__ and rec.field_prime == field_prime and rec.kind == kind:
            records[rec.n] = rec
    # a last line without its newline would swallow the next appended record
    if corrupt or (text and not text.endswith("\n")):
        _rewrite(path, "".join(line + "\n" for line in kept))
    return records


def _rewrite(path: str, text: str) -> None:
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".cache-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _append_cache(path: str, records: list[CacheRecord]) -> None:
    import json

    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(dict(zip(_RECORD_TYPES, rec._values())), separators=(",", ":")) + "\n")
