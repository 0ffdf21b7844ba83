import os
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from patternstats import formulas, oeis
from patternstats.distributions import distribution
from patternstats.formulas import catalan, closed_form
from patternstats.perms import parse_basis


def _write_catalan_bfile(path, count=20):
    # reference data synthesized from our own computation, not from OEIS
    lines = "".join(f"{n} {catalan(n)}\n" for n in range(count))
    path.write_text("# locally generated\n" + lines)


def test_id_validation():
    with pytest.raises(ValueError):
        oeis.fetch("X123", offline=True)
    with pytest.raises(ValueError):
        oeis.fetch("A12345", offline=True)


def test_parse_bfile():
    terms = oeis.parse_bfile("# comment\n0 1\n1 1\n2 2\n\n3 5\n")
    assert terms == [1, 1, 2, 5]
    with pytest.raises(oeis.OeisFormatError) as info:
        oeis.parse_bfile("0 1\n1 2 3\n")
    assert info.value.line == 2
    with pytest.raises(oeis.OeisFormatError):
        oeis.parse_bfile("0 x\n")


def test_offline_cold_cache_errors(tmp_path):
    with pytest.raises(oeis.OeisOfflineError):
        oeis.fetch("A000108", cache=tmp_path, offline=True)


def test_warm_cache_is_used_offline(tmp_path):
    path = tmp_path / "A000108.txt"
    _write_catalan_bfile(path)
    before = path.read_bytes()
    ref = oeis.fetch("A000108", cache=tmp_path, offline=True)
    assert ref.source == "cache"
    assert ref.terms[:5] == [catalan(n) for n in range(5)]
    assert path.read_bytes() == before  # cache round trip is byte-stable


class _Response:
    def __init__(self, body):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def _serve(monkeypatch, body):
    # stands in for the network: every urlopen returns ``body``
    calls = []

    def urlopen(url, timeout):
        calls.append(url)
        return _Response(body)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return calls


def _http_error(code):
    return urllib.error.HTTPError("https://oeis.org/", code, "status", {},
                                  None)


@pytest.mark.parametrize("error, raised, message", [
    (_http_error(404), oeis.OeisNotFoundError, "no such sequence A000108"),
    (_http_error(503), oeis.OeisOfflineError, "HTTP 503 fetching A000108"),
    (urllib.error.URLError("no route"), oeis.OeisOfflineError,
     "cannot reach OEIS for A000108: <urlopen error no route>"),
])
def test_fetch_errors_name_what_failed(tmp_path, monkeypatch, error, raised,
                                       message):
    # a 404 means the sequence does not exist; any other HTTP code or an
    # unreachable host is an environment error, and nothing is cached
    def urlopen(url, timeout):
        raise error

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(raised, match=f"^{message}$") as info:
        oeis.fetch("A000108", cache=tmp_path)
    assert info.value.__cause__ is error
    assert list(tmp_path.iterdir()) == []


def test_served_body_is_cached_and_reread(tmp_path, monkeypatch):
    body = "".join(f"{n} {catalan(n)}\n" for n in range(12)).encode()
    calls = _serve(monkeypatch, body)
    ref = oeis.fetch("A000108", cache=tmp_path / "cache")
    assert ref.source == "network"
    assert ref.terms == [catalan(n) for n in range(12)]
    assert calls == ["https://oeis.org/A000108/b000108.txt"]
    again = oeis.fetch("A000108", cache=tmp_path / "cache")
    assert again.source == "cache"
    assert again.terms == ref.terms
    assert len(calls) == 1
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["A000108.txt"]
    assert (tmp_path / "cache" / "A000108.txt").read_bytes() == body


def test_failed_cache_write_leaves_no_bfile(tmp_path, monkeypatch):
    body = "".join(f"{n} {catalan(n)}\n" for n in range(12)).encode()
    _serve(monkeypatch, body)
    real = Path.write_bytes

    def truncated(self, data):
        real(self, data[:len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", truncated)
    with pytest.raises(OSError, match="no space left"):
        oeis.fetch("A000108", cache=tmp_path)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(Path, "write_bytes", real)
    with pytest.raises(oeis.OeisOfflineError):
        oeis.fetch("A000108", cache=tmp_path, offline=True)


def test_bfile_that_is_not_utf8_is_a_format_error(tmp_path, monkeypatch):
    # the cached and the served bytes are decoded in one place
    (tmp_path / "A000108.txt").write_bytes(b"0 1\n1 \xff\n")
    with pytest.raises(oeis.OeisFormatError, match="0xff is not UTF-8") as info:
        oeis.fetch("A000108", cache=tmp_path, offline=True)
    assert info.value.line == 2
    _serve(monkeypatch, b"\xff 1\n")
    with pytest.raises(oeis.OeisFormatError) as info:
        oeis.fetch("A000045", cache=tmp_path)
    assert info.value.line == 1
    assert not (tmp_path / "A000045.txt").exists()


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("PATTERNSTATS_OEIS_CACHE", str(tmp_path / "env"))
    assert oeis.cache_dir() == tmp_path / "env"
    assert oeis.cache_dir(tmp_path / "explicit") == tmp_path / "explicit"
    monkeypatch.delenv("PATTERNSTATS_OEIS_CACHE")
    assert oeis.cache_dir().name == "oeis"


def test_compare_and_shifted_offset(tmp_path):
    path = tmp_path / "A000108.txt"
    _write_catalan_bfile(path)
    ref = oeis.fetch("A000108", cache=tmp_path, offline=True)
    local = [catalan(n) for n in range(12)]
    report = oeis.compare(local, ref, offset=0)
    assert report.full_match and report.matched_prefix == 12
    shifted = oeis.compare(local, ref, offset=1)
    assert not shifted.full_match
    assert shifted.first_mismatch is not None
    assert shifted.first_mismatch[0] == 1  # catalan(0) == catalan(1)


def test_registry_flattenings_start_correctly():
    entry = oeis.sequence_for("PK231")
    assert entry.id == "A091894"
    terms = entry.local_terms(6)
    assert terms[:7] == [closed_form("PK231", 1, 0), closed_form("PK231", 2, 0),
                         closed_form("PK231", 3, 0), closed_form("PK231", 3, 1),
                         closed_form("PK231", 4, 0), closed_form("PK231", 4, 1),
                         closed_form("PK231", 5, 0)]
    assert len(oeis.sequence_for("A001263").local_terms(6)) == 21
    with pytest.raises(KeyError):
        oeis.sequence_for("NOPE")
    with pytest.raises(KeyError):
        oeis.sequence_for("A999999")


def test_local_bfile_format():
    text = oeis.local_bfile("PK231", 6)
    lines = text.splitlines()
    assert lines[0] == "1 1"
    assert lines[1] == "2 2"
    assert all(len(line.split()) == 2 for line in lines)


def test_formula_sequence_map_is_registered():
    for name, sid in oeis.FORMULA_SEQUENCES.items():
        assert sid in oeis.REGISTRY, (name, sid)


def _own_row(key, n):
    # a formula id names its closed form; the other keys, such as
    # DASC_132_213, name a series cell as STAT_PATTERN_PATTERN
    if key in formulas.FORMULAS:
        return formulas.closed_form_row(key, n)
    stat, *patterns = key.split("_")
    return distribution(stat.lower(), parse_basis(",".join(patterns)), n,
                        method="series")


def test_each_formula_sequence_matches_its_own_cell():
    # a sequence's terms are computed from one cell, so a key mapped to the
    # wrong sequence would print another cell's rows
    for key in oeis.FORMULA_SEQUENCES:
        start = formulas.formula(key).min_n if key in formulas.FORMULAS else 1
        want = []
        for n in range(start, 13):
            row = _own_row(key, n)
            want += [row.get(k, 0) for k in range(max(row, default=0) + 1)]
        assert oeis.sequence_for(key).local_terms(12) == want, key


@pytest.mark.skipif(os.environ.get("PATTERNSTATS_ONLINE") != "1",
                    reason="contacts oeis.org; set PATTERNSTATS_ONLINE=1")
def test_network_fetch_if_available(tmp_path):
    try:
        ref = oeis.fetch("A000108", cache=tmp_path, timeout=10.0)
    except oeis.OeisOfflineError:
        pytest.skip("network unavailable")
    assert ref.terms[:5] == [catalan(n) for n in range(5)]
    again = oeis.fetch("A000108", cache=tmp_path, offline=True)
    assert again.source == "cache"
    assert again.terms == ref.terms
