"""Durable JSONL journal of terminal job events, with resume replay.

The server appends one record per terminal job event — the wire ``event``
record (:func:`repro.service.protocol.event_record`) extended with a
``result_pickle`` payload (base64 pickle of the :class:`GanResult`) on
``completed`` / ``cache-hit`` events.  Each append is flushed **and
fsync'd**, so a record either survives a crash whole or was never
acknowledged; a torn final line (the crash happened mid-write) is detected
and skipped on replay.

Rotation is **atomic and content-preserving**: when the journal grows past
``rotate_bytes``, it is compacted — one record per distinct ``cache_key``,
newest wins, terminal non-result records (``failed`` / ``cancelled``)
dropped — into a temp file that is fsync'd and ``os.replace``'d over the
journal, so a reader (or a crash) at any instant sees either the old
complete journal or the new complete journal, never a half-written one.
Compaction is safe because the journal is content-addressed: any one
surviving record per key replays the same cached result.

:meth:`EventJournal.replay_into` is the ``--resume`` path: it feeds every
journaled result back into a :class:`~repro.runner.cache.ResultCache` keyed
by ``cache_key``, so a restarted server answers already-finished jobs from
cache and a crashed sweep re-runs only its missing jobs.  Records from a
different ``schema_version`` are rejected with an explicit message
(:class:`~repro.errors.ProtocolError`) instead of being silently misparsed.

The journal stores pickles of this package's own result objects, written by
this server; like the disk result cache, it must only be replayed from a
trusted filesystem location.
"""

from __future__ import annotations

import base64
import io
import json
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..analysis.results import GanResult
from ..errors import ProtocolError, ServiceError
from ..runner import RunnerEvent
from ..runner.cache import ResultCache
from . import protocol

PathLike = Union[str, Path]

#: Default rotation threshold: compact once the journal passes 32 MiB.
DEFAULT_ROTATE_BYTES = 32 * 1024 * 1024


def journal_record(event: RunnerEvent, request_id: str) -> Dict[str, Any]:
    """The journal form of one terminal event: wire record + result payload."""
    record = protocol.event_record(event, request_id)
    if event.result is not None:
        record["result_pickle"] = base64.b64encode(
            pickle.dumps(event.result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
    return record


def decode_result(record: Dict[str, Any]) -> Optional[GanResult]:
    """The :class:`GanResult` journaled in ``record``, or None.

    A corrupt payload (truncated base64, stale pickle) returns None rather
    than raising: the job simply re-runs, which is always safe.
    """
    payload = record.get("result_pickle")
    if not isinstance(payload, str):
        return None
    try:
        return pickle.loads(base64.b64decode(payload.encode("ascii")))
    except Exception:
        return None


class EventJournal:
    """Append-only, fsync'd JSONL journal with atomic compaction.

    Thread-safe: the server's event listeners append from the executor
    threads that drive jobs.  Open the journal once per server; concurrent writers on the
    same path are **not** supported (unlike the disk cache, a journal is a
    log, not a content-addressed store — run one journal per server process
    and share results through the cache instead).
    """

    def __init__(
        self, path: PathLike, rotate_bytes: int = DEFAULT_ROTATE_BYTES
    ) -> None:
        if rotate_bytes <= 0:
            raise ServiceError(f"rotate_bytes must be > 0, got {rotate_bytes}")
        self._path = Path(path)
        self._rotate_bytes = rotate_bytes
        self._lock = threading.Lock()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[io.TextIOWrapper] = open(
            self._path, "a", encoding="utf-8"
        )
        self._size = self._path.stat().st_size

    @property
    def path(self) -> Path:
        return self._path

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (flush + fsync before returning)."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None:
                raise ServiceError("journal is closed")
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._size += len(line.encode("utf-8"))
            if self._size > self._rotate_bytes:
                self._compact_locked()

    def compact(self) -> int:
        """Rewrite the journal keeping one newest record per cache key.

        Returns the number of surviving records.  The rewrite is atomic:
        records stream into a same-directory temp file that is fsync'd and
        renamed over the journal, so every observable journal state is a
        complete one.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        survivors: "Dict[str, str]" = {}
        for record, line in _iter_journal_lines(self._path):
            key = record.get("cache_key")
            if not isinstance(key, str) or "result_pickle" not in record:
                continue  # failed/cancelled events never shortcut a resume
            survivors[key] = line  # newest record per key wins
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{self._path.name}.", suffix=".tmp", dir=self._path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for line in survivors.values():
                    handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self._path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self._handle is not None:
            self._handle.close()
            self._handle = open(self._path, "a", encoding="utf-8")
        self._size = self._path.stat().st_size
        return len(survivors)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    @staticmethod
    def read_records(path: PathLike) -> List[Dict[str, Any]]:
        """Every whole record in the journal, oldest first.

        A torn final line (crash mid-append) is skipped; a torn line
        *followed by* further complete records is corruption and raises.
        Records from another ``schema_version`` raise
        :class:`~repro.errors.ProtocolError` with both versions named.
        """
        return [record for record, _line in _iter_journal_lines(path, strict=True)]

    @classmethod
    def replay_into(cls, path: PathLike, cache: ResultCache) -> int:
        """Feed journaled results into ``cache``; returns entries restored.

        The resume path: after replay, any job whose ``cache_key`` was
        journaled as ``completed`` / ``cache-hit`` answers from cache, so a
        re-submitted sweep re-runs only the jobs the crash lost.  Records
        without a decodable result (failed, cancelled, corrupt payload) are
        skipped — those jobs simply execute again.
        """
        restored = 0
        for record in cls.read_records(path):
            key = record.get("cache_key")
            if not isinstance(key, str):
                continue
            result = decode_result(record)
            if result is None:
                continue
            cache.put(key, result)
            restored += 1
        return restored


def _iter_journal_lines(
    path: PathLike, strict: bool = False
) -> Iterator[Tuple[Dict[str, Any], str]]:
    """Yield (record, raw line) pairs; schema-checked, torn-tail tolerant.

    With ``strict`` a torn line that is *not* the final one raises (the
    journal was corrupted, not merely crash-truncated); without it any
    unparsable line is skipped, which is what compaction wants.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return
    lines = raw.split("\n")
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if strict and index < len(lines) - 1:
                raise ProtocolError(
                    f"journal '{path}' line {index + 1} is corrupt (not a "
                    "torn final line); refusing to resume from it"
                ) from None
            continue  # torn tail from a crash mid-append: not yet durable
        if not isinstance(record, dict):
            if strict:
                raise ProtocolError(
                    f"journal '{path}' line {index + 1} is not a JSON object"
                )
            continue
        protocol.check_schema(record, source=f"journal '{path}' line {index + 1}")
        yield record, line
