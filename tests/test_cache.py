"""Orbit cache: file format, validation, idempotence, conflicts, I/O faults,
torn appends and concurrent writers."""

import fcntl
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzq import CacheEntry, CacheError, OrbitCache


HEADER = '{"format": "collatz-cache", "version": 1}\n'


def test_new_file_gets_header(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = OrbitCache(path)
    assert cache.created
    assert path.read_text() == HEADER


def test_store_and_lookup_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = OrbitCache(path)
    cache.store(7, 5, 17)
    cache.store(27, 41, 3_077 * 10**30)
    reloaded = OrbitCache(path)
    assert not reloaded.created
    assert reloaded.lookup(7) == CacheEntry(steps=5, max_excursion=17)
    assert reloaded.lookup(27) == CacheEntry(steps=41, max_excursion=3_077 * 10**30)
    assert reloaded.lookup(9) is None


def test_record_lines_are_decimal_strings(tmp_path):
    path = tmp_path / "c.jsonl"
    OrbitCache(path).store(7, 5, 17)
    record = json.loads(path.read_text().splitlines()[1])
    assert record == {"x": "7", "steps": 5, "max": "17"}


def test_idempotent_store_appends_nothing(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = OrbitCache(path)
    cache.store(7, 5, 17)
    size = path.stat().st_size
    cache.store(7, 5, 17)
    assert path.stat().st_size == size


def test_conflicting_store_rejected(tmp_path):
    cache = OrbitCache(tmp_path / "c.jsonl")
    cache.store(7, 5, 17)
    with pytest.raises(CacheError) as exc:
        cache.store(7, 6, 17)
    assert str(exc.value).endswith(
        "conflicting store for x=7: "
        "cached CacheEntry(steps=5, max_excursion=17), offered CacheEntry(steps=6, max_excursion=17)"
    )


def test_conflicting_records_on_load_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        HEADER
        + '{"x": "7", "steps": 5, "max": "17"}\n'
        + '{"x": "7", "steps": 5, "max": "19"}\n'
    )
    with pytest.raises(CacheError) as exc:
        OrbitCache(path)
    assert "line 3" in str(exc.value)
    assert str(exc.value).endswith(
        "line 3: conflicting record for x=7: "
        "CacheEntry(steps=5, max_excursion=17) vs CacheEntry(steps=5, max_excursion=19)"
    )


def test_duplicate_agreeing_records_tolerated(tmp_path):
    path = tmp_path / "c.jsonl"
    line = '{"x": "7", "steps": 5, "max": "17"}\n'
    path.write_text(HEADER + line + line)
    assert OrbitCache(path).lookup(7) == CacheEntry(5, 17)


def test_missing_header(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"x": "7", "steps": 5, "max": "17"}\n')
    with pytest.raises(CacheError) as exc:
        OrbitCache(path)
    assert "line 1" in str(exc.value)


def test_wrong_header_version(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"format": "collatz-cache", "version": 2}\n')
    with pytest.raises(CacheError) as exc:
        OrbitCache(path)
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize(
    "bad_line",
    [
        "not json at all",
        '{"x": "7", "steps": 5}',
        '{"x": "7", "steps": 5, "max": "17", "extra": 1}',
        '{"x": 7, "steps": 5, "max": "17"}',
        '{"x": "7", "steps": "5", "max": "17"}',
        '{"x": "7", "steps": -2, "max": "17"}',
        '{"x": "7x", "steps": 5, "max": "17"}',
        '{"x": "7", "steps": 5, "max": 17}',
        "",
    ],
)
def test_corrupt_record_names_file_and_line(tmp_path, bad_line):
    path = tmp_path / "c.jsonl"
    path.write_text(HEADER + '{"x": "5", "steps": 1, "max": "5"}\n' + bad_line + "\n")
    with pytest.raises(CacheError) as exc:
        OrbitCache(path)
    message = str(exc.value)
    assert "line 3" in message
    assert str(path) in message


def test_store_many_batches(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = OrbitCache(path)
    cache.store_many([(1, 0, 1), (5, 1, 5), (7, 5, 17)])
    reloaded = OrbitCache(path)
    assert len(reloaded) == 3
    assert reloaded.lookup(5) == CacheEntry(1, 5)


def test_stores_count_hits_and_misses_lookups_count_nothing(tmp_path):
    cache = OrbitCache(tmp_path / "c.jsonl")
    cache.store(7, 5, 17)
    assert (cache.hits, cache.misses) == (0, 1)
    cache.store_many([(7, 5, 17), (11, 4, 17), (7, 5, 17)])
    assert (cache.hits, cache.misses) == (2, 2)
    cache.lookup(7)
    cache.lookup(13)
    assert (cache.hits, cache.misses) == (2, 2)
    reloaded = OrbitCache(tmp_path / "c.jsonl")
    assert (reloaded.hits, reloaded.misses) == (0, 0)
    reloaded.store(11, 4, 17)
    assert (reloaded.hits, reloaded.misses) == (1, 0)


@pytest.mark.parametrize("digit", ["\\u00b2", "\\u0660"])
def test_non_ascii_digit_escape_rejected(tmp_path, digit):
    # str.isdigit() holds for these, but they are not decimal strings.
    path = tmp_path / "c.jsonl"
    path.write_text(HEADER + '{"x": "7' + digit + '", "steps": 5, "max": "17"}\n')
    with pytest.raises(CacheError) as exc:
        OrbitCache(path)
    assert "line 2: x must be a decimal string" in str(exc.value)


class TestIOFaults:
    @pytest.mark.parametrize("content, where", [
        (HEADER + '{"x": "7", "steps": 5, "max": "1\xc37"}\n', "line 2: non-ASCII byte 0xc3"),
        (HEADER + '{"x": "7", "steps": 5, "max": "17"}\n{"x": "\xff"\n', "line 3: non-ASCII byte 0xff"),
        ('{"format": "collatz-cache\xe9", "version": 1}\n', "line 1: non-ASCII byte 0xe9"),
    ])
    def test_non_ascii_byte_names_line(self, tmp_path, content, where):
        path = tmp_path / "c.jsonl"
        path.write_bytes(content.encode("latin-1"))
        with pytest.raises(CacheError) as exc:
            OrbitCache(path)
        assert str(exc.value) == f"{path}: {where}"

    @pytest.mark.parametrize("tail", ["", "missing/c.jsonl", "plain/c.jsonl"])
    def test_unusable_path(self, tmp_path, tail):
        (tmp_path / "plain").write_text("a regular file, not a directory\n")
        path = tmp_path / tail
        with pytest.raises(CacheError) as exc:
            OrbitCache(path)
        assert str(path) in str(exc.value)

    def test_append_failure_is_cache_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = OrbitCache(path)
        path.unlink()
        path.mkdir()
        with pytest.raises(CacheError) as exc:
            cache.store(7, 5, 17)
        assert str(path) in str(exc.value)


@pytest.mark.parametrize("lineno", [1, 2])
def test_deeply_nested_line_is_cache_error(tmp_path, lineno):
    path = tmp_path / "c.jsonl"
    path.write_text((HEADER if lineno == 2 else "") + "[" * 100_000 + "\n")
    with pytest.raises(CacheError) as exc:
        OrbitCache(path)
    assert f"{path}: line {lineno}: unreadable " in str(exc.value)


class TestTornAppend:
    RECORD_7 = '{"x": "7", "steps": 5, "max": "17"}'

    def test_store_after_unterminated_last_line_starts_new_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(HEADER + self.RECORD_7)
        cache = OrbitCache(path)
        assert cache.lookup(7) == CacheEntry(5, 17)
        cache.store(11, 4, 17)
        assert path.read_text() == HEADER + self.RECORD_7 + "\n" + '{"x": "11", "steps": 4, "max": "17"}\n'
        reloaded = OrbitCache(path)
        assert reloaded.lookup(11) == CacheEntry(4, 17)

    def test_header_only_without_newline(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(HEADER.rstrip("\n"))
        OrbitCache(path).store(7, 5, 17)
        assert path.read_text() == HEADER + self.RECORD_7 + "\n"

    @pytest.mark.parametrize("torn", ['{"x": "9", "st', '{"x": "9", "steps": 13, "max": "5', "{"])
    def test_torn_last_line_diagnosed(self, tmp_path, torn):
        path = tmp_path / "c.jsonl"
        path.write_text(HEADER + self.RECORD_7 + "\n" + torn)
        with pytest.raises(CacheError) as exc:
            OrbitCache(path)
        message = str(exc.value)
        assert message.startswith(f"{path}: line 3: torn append: ")
        assert "no trailing newline" in message

    def test_terminated_bad_last_line_is_not_torn(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(HEADER + '{"x": "9", "st\n')
        with pytest.raises(CacheError) as exc:
            OrbitCache(path)
        assert f"{path}: line 2: unreadable record: " in str(exc.value)

    def test_unterminated_wrong_keys_is_not_torn(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(HEADER + '{"x": "9", "steps": 13}')
        with pytest.raises(CacheError) as exc:
            OrbitCache(path)
        assert str(exc.value) == f"{path}: line 2: record must have keys x, steps, max"


_WRITER = """
import sys
import time
from collatzq import OrbitCache

path, lo, hi, batch, go = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), float(sys.argv[5])
cache = OrbitCache(path)
time.sleep(max(0.0, go - time.time()))  # both writers start storing together
for start in range(lo, hi, batch):
    cache.store_many([(x, x % 97, 3 * x + 2**70) for x in range(start, min(start + batch, hi))])
"""


class TestConcurrentWriters:
    def test_two_processes_leave_loadable_union(self, tmp_path, child_env):
        path = tmp_path / "c.jsonl"
        OrbitCache(path)
        ranges = [(0, 6000, 40), (3000, 9000, 300)]
        go = time.time() + 1.0
        writers = [
            subprocess.Popen([sys.executable, "-c", _WRITER, str(path), str(lo), str(hi), str(b), str(go)],
                             env=child_env, stderr=subprocess.PIPE, text=True)
            for lo, hi, b in ranges
        ]
        for w in writers:
            _, err = w.communicate(timeout=120)
            assert w.returncode == 0, err
        cache = OrbitCache(path)
        assert len(cache) == 9000
        assert all(cache.lookup(x) == CacheEntry(x % 97, 3 * x + 2**70) for x in range(9000))
        lines = path.read_text().splitlines()
        # A writer stores the part of the overlap its load did not see.
        assert 1 + 9000 <= len(lines) <= 1 + 6000 + 6000
        assert all(line.endswith("}") for line in lines)

    def test_store_waits_for_exclusive_lock(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = OrbitCache(path)
        done = threading.Event()

        def store():
            cache.store(7, 5, 17)
            done.set()

        with open(path, "rb") as held:
            fcntl.flock(held.fileno(), fcntl.LOCK_EX)
            worker = threading.Thread(target=store)
            worker.start()
            try:
                assert not done.wait(0.3)
                assert path.read_text() == HEADER
            finally:
                fcntl.flock(held.fileno(), fcntl.LOCK_UN)
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert done.is_set()
        assert OrbitCache(path).lookup(7) == CacheEntry(5, 17)


# Differential test: the canonical-line fast path against json.loads plus the
# checks every record line went through before it existed.

def _reference_load(path: Path, lines: list[str]):
    """Per x, the entry a load must produce; or the CacheError message."""
    entries = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            return f"{path}: line {lineno}: blank line in record section"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"{path}: line {lineno}: unreadable record: {exc}"
        if not isinstance(rec, dict) or set(rec) != {"x", "steps", "max"}:
            return f"{path}: line {lineno}: record must have keys x, steps, max"
        for key in ("x", "steps", "max"):
            value = rec[key]
            if key == "steps":
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    return f"{path}: line {lineno}: steps must be a nonnegative integer"
            elif not isinstance(value, str) or not value.isdigit():
                return f"{path}: line {lineno}: {key} must be a decimal string, got {value!r}"
        x = int(rec["x"])
        entry = CacheEntry(rec["steps"], int(rec["max"]))
        if x in entries and entries[x] != entry:
            return f"{path}: line {lineno}: conflicting record for x={x}: {entries[x]} vs {entry}"
        entries[x] = entry
    return entries


_big = st.one_of(st.integers(0, 100), st.integers(2**64 - 2, 2**64 + 2), st.integers(0, 2**200))
_steps = st.one_of(st.integers(0, 12), st.integers(2**63, 2**70))


def _escape(digits: str, index: int) -> str:
    index %= len(digits)
    return digits[:index] + "\\u%04x" % ord(digits[index]) + digits[index + 1:]


@st.composite
def _record_line(draw):
    x = str(draw(st.sampled_from([0, 7, 9, 2**64 + 1]) | _big))
    steps = str(draw(_steps))
    mx = str(draw(_big))
    kind = draw(st.sampled_from([
        "canonical", "steps-leading-zero", "steps-literal", "x-leading-zero",
        "spaces", "reordered", "escape-x", "escape-max", "empty-x", "empty-max",
        "unquoted-x", "quoted-steps", "missing-key", "extra-key", "truncated",
    ]))
    fields = {"x": f'"{x}"', "steps": steps, "max": f'"{mx}"'}
    if kind == "steps-leading-zero":
        fields["steps"] = "0" + steps
    elif kind == "steps-literal":
        fields["steps"] = draw(st.sampled_from(["true", "false", "null", "5.0", "-2", "1e3", "-0"]))
    elif kind == "x-leading-zero":
        fields["x"] = f'"00{x}"'
    elif kind == "escape-x":
        fields["x"] = '"%s"' % _escape(x, draw(st.integers(0, 99)))
    elif kind == "escape-max":
        fields["max"] = '"%s"' % _escape(mx, draw(st.integers(0, 99)))
    elif kind == "empty-x":
        fields["x"] = '""'
    elif kind == "empty-max":
        fields["max"] = '""'
    elif kind == "unquoted-x":
        fields["x"] = x
    elif kind == "quoted-steps":
        fields["steps"] = f'"{steps}"'
    elif kind == "missing-key":
        del fields[draw(st.sampled_from(sorted(fields)))]
    elif kind == "extra-key":
        fields["extra"] = "1"
    keys = list(fields)
    if kind == "reordered":
        keys = draw(st.permutations(keys))
    sep, colon = (", ", ": ")
    if kind == "spaces":
        sep = draw(st.sampled_from([",", " , ", ",  "]))
        colon = draw(st.sampled_from([":", " : ", ":\t"]))
    line = "{" + sep.join(f'"{k}"{colon}{fields[k]}' for k in keys) + "}"
    if kind == "spaces" and draw(st.booleans()):
        line = " " + line + " "
    if kind == "truncated":
        line = line[: draw(st.integers(0, len(line) - 1))]
    return line


@settings(max_examples=300, deadline=None)
@given(st.lists(_record_line(), min_size=1, max_size=4))
def test_fast_path_agrees_with_json_path(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("diff") / "c.jsonl"
    path.write_text(HEADER + "".join(line + "\n" for line in lines))
    expected = _reference_load(path, lines)
    try:
        cache = OrbitCache(path)
    except CacheError as exc:
        assert str(exc) == expected
        return
    assert isinstance(expected, dict), expected
    assert len(cache) == len(expected)
    for x, entry in expected.items():
        got = cache.lookup(x)
        assert type(got) is CacheEntry and got == entry


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_big, st.integers(0, 2**70), _big), min_size=1, max_size=20,
                unique_by=lambda r: r[0]))
def test_written_lines_equal_json_dumps(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("dumps") / "c.jsonl"
    OrbitCache(path).store_many(records)
    expected = "".join(
        json.dumps({"x": str(x), "steps": steps, "max": str(mx)}) + "\n" for x, steps, mx in records
    )
    assert path.read_text() == HEADER + expected
