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
shared lock while it reads, and a store appends its whole batch with one
``O_APPEND`` write under an exclusive lock, so concurrent writers never
interleave their lines and a reader never sees half a batch.  A last line
with no trailing newline that does not parse is reported as a torn append.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import CacheError

__all__ = ["CacheEntry", "OrbitCache", "HEADER"]

HEADER = {"format": "collatz-cache", "version": 1}

# The exact line store_many writes.  Every other line, canonical JSON or not,
# goes through json.loads and the checks in _parse_record.
_RECORD = re.compile(r'\{"x": "([0-9]+)", "steps": (0|[1-9][0-9]*), "max": "([0-9]+)"\}')


class CacheEntry(NamedTuple):
    steps: int
    max_excursion: int


def _parse_decimal(value: object, what: str, lineno: int, path: Path) -> int:
    if not isinstance(value, str) or not (value.isascii() and value.isdigit()):
        raise CacheError(f"{path}: line {lineno}: {what} must be a decimal string, got {value!r}")
    return int(value)


class OrbitCache:
    """Orbit summaries keyed by starting value, mirrored to a file.

    Opening a missing path creates a fresh cache (header only).  Opening an
    existing file loads and validates every line; any malformed line or
    internal conflict raises CacheError naming the offending line.  A file
    that cannot be created, read or appended to raises CacheError naming
    the path.

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
        try:
            self.created = self._create()
            if not self.created:
                self._load()
        except OSError as exc:
            raise CacheError(f"{self.path}: {exc.strerror or exc}") from exc

    def __len__(self) -> int:
        return len(self._entries)

    def _create(self) -> bool:
        """Write the header into a new file; False when the path exists."""
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            return False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            os.write(fd, (json.dumps(HEADER) + "\n").encode("ascii"))
        finally:
            os.close(fd)
        return True

    def _read_lines(self) -> tuple[list[str], bool]:
        """The file's lines, read under a shared lock, and whether the last
        one lacks its trailing newline."""
        with open(self.path, "rb") as fh:
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
            raise CacheError(f"{self.path}: line 1: missing header")
        try:
            head = json.loads(lines[0])
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise CacheError(f"{self.path}: line 1: unreadable header: {exc}") from exc
        if head != HEADER:
            raise CacheError(f"{self.path}: line 1: unexpected header {head!r}")
        torn = len(lines) if unterminated else 0
        entries = self._entries
        match = _RECORD.fullmatch
        make = CacheEntry._make
        for lineno, line in enumerate(lines[1:], start=2):
            m = match(line)
            if m is None:
                x, entry = self._parse_record(line, lineno, lineno == torn)
            else:
                x_text, steps_text, max_text = m.groups()
                x = int(x_text)
                entry = make((int(steps_text), int(max_text)))
            known = entries.setdefault(x, entry)
            if known is not entry and known != entry:
                raise CacheError(
                    f"{self.path}: line {lineno}: conflicting record for x={x}: "
                    f"{known} vs {entry}"
                )

    def _parse_record(self, line: str, lineno: int, last_unterminated: bool) -> tuple[int, CacheEntry]:
        """Validate a record line the canonical pattern did not take."""
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

    def store(self, x: int, steps: int, max_excursion: int) -> CacheEntry:
        """Record one orbit summary; idempotent, conflict-checked."""
        return self.store_many([(x, steps, max_excursion)])[0]

    def store_many(self, items: Iterable[tuple[int, int, int]]) -> list[CacheEntry]:
        """Batch store with a single file append; counts each record offered."""
        out: list[CacheEntry] = []
        new_lines: list[str] = []
        entries = self._entries
        make = CacheEntry._make
        for x, steps, max_excursion in items:
            known = entries.get(x)
            if known is None:
                entries[x] = known = make((steps, max_excursion))
                # Byte for byte json.dumps({"x": str(x), "steps": steps, "max": str(max_excursion)}).
                new_lines.append(f'{{"x": "{x}", "steps": {steps}, "max": "{max_excursion}"}}\n')
                self.misses += 1
            elif known != (steps, max_excursion):
                raise CacheError(
                    f"{self.path}: conflicting store for x={x}: "
                    f"cached {known}, offered {CacheEntry(steps, max_excursion)}"
                )
            else:
                self.hits += 1
            out.append(known)
        if new_lines:
            try:
                self._append("".join(new_lines).encode("ascii"))
            except OSError as exc:
                raise CacheError(f"{self.path}: {exc.strerror or exc}") from exc
        return out

    def _append(self, batch: bytes) -> None:
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                batch = b"\n" + batch  # start on a new line after an unterminated one
            view = memoryview(batch)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
