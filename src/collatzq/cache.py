"""Persistent orbit cache: append-only, line-oriented, human-inspectable.

File layout: one JSON object per line.  The first line is the header

    {"format": "collatz-cache", "version": 1}

and every following line is a record

    {"x": "<decimal>", "steps": <int>, "max": "<decimal>"}

keyed by the starting value, storing the step count to 1 and the maximum
excursion of the full trajectory.  Arbitrary-precision integers travel as
decimal strings so no consumer ever rounds them through a float.

The file only ever grows.  Re-storing an identical record is a no-op;
a record that disagrees with what the cache already holds is an integrity
error (a cache must never contain two answers for one key).  Processes
coordinate through ``flock`` on the file itself (POSIX): a load holds a
shared lock while it reads, and every write, the header included, is one
``O_APPEND`` write under an exclusive lock, with the header put first when
the file is empty.  So concurrent writers never interleave their lines, a
reader never sees half a batch, and processes whose first stores race to
one fresh path leave exactly one header.  A missing or zero-byte file is an
empty cache, and only a store creates the file.  A last line with no
trailing newline that does not parse is a torn append.
"""

from __future__ import annotations

import fcntl
import json
import os
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import CacheError

__all__ = ["CacheEntry", "OrbitCache", "HEADER"]

HEADER = {"format": "collatz-cache", "version": 1}

class CacheEntry(NamedTuple):
    steps: int
    max_excursion: int


def _parse_decimal(value: object, what: str, lineno: int, path: Path) -> int:
    if not isinstance(value, str) or not (value.isascii() and value.isdigit()):
        raise CacheError(f"{path}: line {lineno}: {what} must be a decimal string, got {value!r}")
    return int(value)


class OrbitCache:
    """Orbit summaries keyed by starting value, mirrored to a file.

    Opening only reads: it loads and validates every line, a missing or
    zero-byte file is an empty cache, and any malformed line or internal
    conflict raises CacheError naming the offending line.  The first store
    creates the file through the same locked append as every later one, and
    created tells whether this cache created it.  A file that cannot be
    read or appended to, or whose directory is missing, raises CacheError
    naming the path.

    Callers compute every record themselves and offer it to store or
    store_many, so the cache checks numbers and never supplies them.  Only
    store_many counts: an offered record the cache already holds is a hit,
    a new one is a miss, so hits + misses is the number of records offered.
    lookup is a plain read and counts nothing.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[int, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.created = False
        try:
            self._load()
        except OSError as exc:
            raise CacheError(f"{self.path}: {exc.strerror or exc}") from exc

    def __len__(self) -> int:
        return len(self._entries)

    def _read_lines(self) -> tuple[list[str], bool]:
        """The file's lines, read under a shared lock, and whether the last
        one lacks its trailing newline; a missing file has none."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            if not self.path.parent.is_dir():
                raise  # no store could create the file
            return [], False
        with fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_SH)
            data = fh.read()
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            # Number the line as splitlines() does.
            lineno = len((data[:exc.start].decode("ascii") + "_").splitlines())
            raise CacheError(
                f"{self.path}: line {lineno}: non-ASCII byte {data[exc.start]:#04x}"
            ) from exc
        return text.splitlines(), not text.endswith("\n")

    def _load(self) -> None:
        lines, unterminated = self._read_lines()
        if not lines:
            return  # no bytes: the first append writes the header
        try:
            head = json.loads(lines[0])
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise CacheError(f"{self.path}: line 1: unreadable header: {exc}") from exc
        if head != HEADER:
            raise CacheError(f"{self.path}: line 1: unexpected header {head!r}")
        torn = len(lines) if unterminated else 0
        entries = self._entries
        for lineno, line in enumerate(lines[1:], start=2):
            x, entry = self._parse_record(line, lineno, lineno == torn)
            known = entries.setdefault(x, entry)
            if known is not entry and known != entry:
                raise CacheError(
                    f"{self.path}: line {lineno}: conflicting record for x={x}: "
                    f"{known} vs {entry}"
                )

    def _parse_record(self, line: str, lineno: int, last_unterminated: bool) -> tuple[int, CacheEntry]:
        """Validate one record line."""
        if not line.strip():
            raise CacheError(f"{self.path}: line {lineno}: blank line in record section")
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            if last_unterminated:
                raise CacheError(
                    f"{self.path}: line {lineno}: torn append: the last line has no "
                    f"trailing newline and is not a complete record: {exc}"
                ) from exc
            raise CacheError(f"{self.path}: line {lineno}: unreadable record: {exc}") from exc
        if not isinstance(rec, dict) or set(rec) != {"x", "steps", "max"}:
            raise CacheError(f"{self.path}: line {lineno}: record must have keys x, steps, max")
        x = _parse_decimal(rec["x"], "x", lineno, self.path)
        if not isinstance(rec["steps"], int) or isinstance(rec["steps"], bool) or rec["steps"] < 0:
            raise CacheError(f"{self.path}: line {lineno}: steps must be a nonnegative integer")
        mx = _parse_decimal(rec["max"], "max", lineno, self.path)
        return x, CacheEntry(rec["steps"], mx)

    def lookup(self, x: int) -> CacheEntry | None:
        return self._entries.get(x)

    def store(self, x: int, steps: int, max_excursion: int) -> None:
        """Record one orbit summary; idempotent, conflict-checked, returns nothing."""
        self.store_many([(x, steps, max_excursion)])

    def store_many(self, items: Iterable[tuple[int, int, int]]) -> None:
        """Batch store with a single file append; counts each record offered.

        Returns nothing: the caller already holds every record it offers.
        """
        new_lines: list[str] = []
        entries = self._entries
        for x, steps, max_excursion in items:
            entry = CacheEntry(steps, max_excursion)
            known = entries.setdefault(x, entry)
            if known is entry:
                record = {"x": str(x), "steps": steps, "max": str(max_excursion)}
                new_lines.append(json.dumps(record) + "\n")
                self.misses += 1
            elif known != entry:
                raise CacheError(
                    f"{self.path}: conflicting store for x={x}: cached {known}, offered {entry}"
                )
            else:
                self.hits += 1
        if new_lines:
            try:
                self._append("".join(new_lines).encode("ascii"))
            except OSError as exc:
                raise CacheError(f"{self.path}: {exc.strerror or exc}") from exc

    def _append(self, batch: bytes) -> None:
        # The one write path and the only one that creates the file: the open
        # that makes it sets created, and the first to lock it empty writes the header.
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags | os.O_EXCL, 0o666)
            self.created = True
        except FileExistsError:
            fd = os.open(self.path, flags, 0o666)  # O_CREAT: a dangling symlink's target
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if not size:
                batch = (json.dumps(HEADER) + "\n").encode("ascii") + batch
            elif os.pread(fd, 1, size - 1) != b"\n":
                batch = b"\n" + batch  # start on a new line after an unterminated one
            view = memoryview(batch)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
