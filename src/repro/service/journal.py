"""Durable JSONL journal of terminal job events, with resume replay.

The server journals one line per terminal job event: the wire ``event``
record (:func:`repro.service.protocol.event_record`), extended the first
time its ``cache_key`` reaches the journal with a ``result_pickle`` payload
(base64 pickle of the :class:`GanResult`, see :func:`journal_record`).  A
later line for a key whose payload is already durable omits it: replay and
compaction read each key's newest line that carries a payload, so one per
key is enough.  The journal tracks those keys per *generation*: the set
starts empty when the journal is opened, so a new process writes each key's
payload once more, and every compaction resets it to the surviving keys.

Writes are **group commits**: :meth:`EventJournal.append` takes a group of
entries and writes all their lines with one ``write``, one flush and one
**fsync**, so a line either survives a crash or was never acknowledged.  A
key joins the payload set only after the fsync that made its payload
durable.  The server passes each record's wire line along: a line without
a payload is written as those bytes, byte-identical to what the client
reads, and only a line that gains a payload is encoded again.  A crash
mid-group leaves a torn final line (one the crash cut before its newline),
which replay detects and skips and which the next :class:`EventJournal`
opened on the file cuts off before appending.

Rotation is **atomic and content-preserving**: when the journal grows past
its threshold, it is compacted — one record per distinct ``cache_key``, the
newest that carries a payload, everything else dropped — into a temp file
that is fsync'd and ``os.replace``'d over the journal, so a reader (or a
crash) at any instant sees either the old complete journal or the new
complete journal, never a half-written one.  The threshold starts at
``rotate_bytes`` and after each compaction becomes the larger of
``rotate_bytes`` and twice the compacted size, so a live set larger than
``rotate_bytes`` does not rewrite the journal on every append.  Compaction
and replay stream the file line by line; neither loads it whole.
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
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..analysis.results import GanResult
from ..errors import ProtocolError, ServiceError
from ..runner.cache import ResultCache
from . import protocol

PathLike = Union[str, Path]

#: One journal entry: a wire ``event`` record and its result (None for an
#: event without one).
JournalEntry = Tuple[Dict[str, Any], Optional[GanResult]]

#: Default rotation threshold: compact once the journal passes 32 MiB.
DEFAULT_ROTATE_BYTES = 32 * 1024 * 1024


def journal_record(record: Dict[str, Any], result: GanResult) -> Dict[str, Any]:
    """The journal line that carries ``result``: wire record + result payload."""
    line = dict(record)
    line["result_pickle"] = base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")
    return line


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


def _payload_key(record: Dict[str, Any]) -> Optional[str]:
    """The ``cache_key`` of a record that carries a payload, else None."""
    key = record.get("cache_key")
    if isinstance(key, str) and isinstance(record.get("result_pickle"), str):
        return key
    return None


class EventJournal:
    """Append-only, fsync'd JSONL journal with atomic compaction.

    Thread-safe: the server's executor threads append groups of records
    concurrently.  Open the journal once per server; concurrent writers on
    the same path are **not** supported (unlike the disk cache, a journal is
    a log, not a content-addressed store — run one journal per server
    process and share results through the cache instead).
    """

    def __init__(
        self, path: PathLike, rotate_bytes: int = DEFAULT_ROTATE_BYTES
    ) -> None:
        if rotate_bytes <= 0:
            raise ServiceError(f"rotate_bytes must be > 0, got {rotate_bytes}")
        self._path = Path(path)
        self._rotate_bytes = rotate_bytes
        self._threshold = rotate_bytes
        self._lock = threading.Lock()
        # Keys whose payload is in a durable line of this journal generation.
        self._durable: Set[str] = set()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        _cut_torn_tail(self._path)
        self._handle: Optional[io.BufferedWriter] = open(self._path, "ab")
        self._size = self._path.stat().st_size

    @property
    def path(self) -> Path:
        return self._path

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(
        self,
        entries: Sequence[JournalEntry],
        lines: Optional[Sequence[bytes]] = None,
    ) -> None:
        """Durably append a group of entries: one write, flush and fsync.

        Each entry is a wire event record and its result, or None.  A
        record's line carries the result's payload unless a durable line of
        this journal generation (or an earlier entry of the group) already
        holds its key's; a record that arrives with a payload is written as
        it is.  ``lines`` are the records already encoded by
        :func:`protocol.encode <repro.service.protocol.encode>` (the server
        passes its wire lines): a line without a payload is written as those
        exact bytes, and only a line that gains a payload is encoded again.
        """
        with self._lock:
            if self._handle is None:
                raise ServiceError("journal is closed")
            chunks = []
            fresh: Set[str] = set()
            for index, (record, result) in enumerate(entries):
                key = record.get("cache_key")
                if (
                    result is not None
                    and key not in self._durable
                    and key not in fresh
                ):
                    record = journal_record(record, result)
                    line = protocol.encode(record)
                elif lines is not None:
                    line = lines[index]
                else:
                    line = protocol.encode(record)
                payload_key = _payload_key(record)
                if payload_key is not None:
                    fresh.add(payload_key)
                chunks.append(line)
            if not chunks:
                return
            data = b"".join(chunks)
            self._handle.write(data)
            self._handle.flush()
            self._size += len(data)
            os.fsync(self._handle.fileno())
            self._durable |= fresh
            if self._size > self._threshold:
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
        survivors: Dict[str, str] = {}
        for record, line in _iter_journal_lines(self._path):
            key = _payload_key(record)
            if key is not None:  # failed/cancelled events never shortcut a resume
                survivors[key] = line  # newest line with a payload wins
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
            self._handle = open(self._path, "ab")
        self._durable = set(survivors)
        self._size = self._path.stat().st_size
        self._threshold = max(self._rotate_bytes, 2 * self._size)
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
        without a decodable result (failed, cancelled, a key's payload-free
        repeats, corrupt payload) are skipped — a job without any restored
        result simply executes again.
        """
        restored = 0
        for record, _line in _iter_journal_lines(path, strict=True):
            key = record.get("cache_key")
            if not isinstance(key, str):
                continue
            result = decode_result(record)
            if result is None:
                continue
            cache.put(key, result)
            restored += 1
        return restored


def _cut_torn_tail(path: Path) -> None:
    """Truncate a crash-torn final line so the next append starts a line.

    The bytes after the journal's last newline were never acknowledged;
    appending behind them would fuse the next record onto them and turn a
    skippable torn tail into a corrupt middle line.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        end = handle.seek(0, os.SEEK_END)
        keep = end
        while keep > 0:
            start = max(0, keep - 64 * 1024)
            handle.seek(start)
            newline = handle.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
        if keep < end:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())


def _iter_journal_lines(
    path: PathLike, strict: bool = False
) -> Iterator[Tuple[Dict[str, Any], str]]:
    """Yield (record, raw line) pairs; schema-checked, torn-tail tolerant.

    Streams the file line by line.  With ``strict`` an unparsable line that
    ends in a newline raises — a crash tears only the final line, before
    its newline, so anything else means the journal was corrupted; without
    ``strict`` any unparsable line is skipped, which is what compaction
    wants.
    """
    path = Path(path)
    try:
        handle = path.open(encoding="utf-8")
    except FileNotFoundError:
        return
    with handle:
        for number, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if strict and raw.endswith("\n"):
                    raise ProtocolError(
                        f"journal '{path}' line {number} is corrupt (not a "
                        "torn final line); refusing to resume from it"
                    ) from None
                continue  # torn tail from a crash mid-append: not yet durable
            if not isinstance(record, dict):
                if strict:
                    raise ProtocolError(
                        f"journal '{path}' line {number} is not a JSON object"
                    )
                continue
            protocol.check_schema(record, source=f"journal '{path}' line {number}")
            yield record, line
