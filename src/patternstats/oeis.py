"""OEIS b-file client with a local cache, plus sequence flattenings.

``fetch`` downloads a sequence's b-file once and caches the raw bytes in a
directory of one file per sequence, renamed into place once fully
written; warm-cache fetches never touch the network.  The cache directory
is, in order of precedence, the explicit argument, the
``PATTERNSTATS_OEIS_CACHE`` environment variable, or
``~/.cache/patternstats/oeis``.

Locally computed reference terms come from the package's own formulas and
series: no sequence data is embedded in the source.  Each registry entry
records how a distribution triangle flattens into the sequence (row-by-row
in k within n, from a formula's first valid n) and how many leading remote
terms to skip, since triangle offsets vary between entries.
``skip_remote`` values are assumptions about the remote convention and are
only exercised by online comparisons.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import formulas, series

_ID_RE = re.compile(r"\AA\d{6}\Z")
_URL = "https://oeis.org/{sid}/b{digits}.txt"
_ENV_VAR = "PATTERNSTATS_OEIS_CACHE"


class OeisError(Exception):
    pass


class OeisOfflineError(OeisError):
    """Network unavailable (or offline mode) and the cache is cold."""


class OeisNotFoundError(OeisError):
    """The sequence id does not exist upstream."""


class OeisFormatError(OeisError):
    """A b-file line could not be parsed; ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


@dataclass
class OeisRef:
    id: str
    terms: list[int]
    source: str  # "network" or "cache"


@dataclass
class MatchReport:
    sequence_id: str
    compared: int
    matched_prefix: int
    first_mismatch: tuple[int, int, int] | None  # (index, local, remote)

    @property
    def full_match(self) -> bool:
        return self.first_mismatch is None and self.compared > 0

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence_id,
            "compared": self.compared,
            "matched_prefix": self.matched_prefix,
            "first_mismatch": self.first_mismatch,
        }


def cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "patternstats" / "oeis"


def _check_id(sid: str) -> str:
    if not _ID_RE.match(sid or ""):
        raise ValueError(f"malformed sequence id {sid!r}; expected A followed "
                         "by six digits")
    return sid


def parse_bfile(text: str) -> list[int]:
    """Values from b-file text: one "index value" pair per line, # comments."""
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise OeisFormatError(f"expected two fields, got {line!r}", lineno)
        try:
            int(fields[0])
            terms.append(int(fields[1]))
        except ValueError:
            raise OeisFormatError(f"non-integer field in {line!r}", lineno) from None
    return terms


def _read_bfile(body: bytes) -> list[int]:
    # the one decode of a b-file's bytes, from the cache or the network
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OeisFormatError(
            f"byte {body[exc.start]:#04x} is not UTF-8",
            body.count(b"\n", 0, exc.start) + 1) from None
    return parse_bfile(text)


def fetch(sid: str, cache: str | os.PathLike | None = None,
          offline: bool = False, timeout: float = 20.0) -> OeisRef:
    """Terms of a sequence, from the cache when warm, else one HTTP GET."""
    sid = _check_id(sid)
    directory = cache_dir(cache)
    path = directory / f"{sid}.txt"
    if path.exists():
        return OeisRef(sid, _read_bfile(path.read_bytes()), "cache")
    if offline:
        raise OeisOfflineError(f"offline and no cached terms for {sid}")
    # imported here: the network stack is costly to load, and only a
    # cold-cache fetch needs it
    import urllib.error
    import urllib.request

    url = _URL.format(sid=sid, digits=sid[1:])
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            body = resp.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise OeisNotFoundError(f"no such sequence {sid}") from exc
        raise OeisOfflineError(f"HTTP {exc.code} fetching {sid}") from exc
    except (urllib.error.URLError, OSError) as exc:
        raise OeisOfflineError(f"cannot reach OEIS for {sid}: {exc}") from exc
    terms = _read_bfile(body)
    directory.mkdir(parents=True, exist_ok=True)
    # written beside the cache file and renamed over it, so a failed write
    # never leaves a truncated b-file that a later run reads as the cache;
    # the process id keeps two processes sharing the cache apart
    tmp = directory / f".{sid}.{os.getpid()}.tmp"
    try:
        tmp.write_bytes(body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return OeisRef(sid, terms, "network")


def compare(local: list[int], ref: OeisRef, offset: int = 0) -> MatchReport:
    """Match locally computed terms against ``ref.terms[offset:]``."""
    remote = ref.terms[offset:]
    compared = min(len(local), len(remote))
    mismatch = None
    matched = compared
    for i in range(compared):
        if local[i] != remote[i]:
            mismatch = (i, local[i], remote[i])
            matched = i
            break
    return MatchReport(ref.id, compared, matched, mismatch)


# -- flattening registry ------------------------------------------------------

@dataclass
class SequenceEntry:
    id: str
    description: str
    local_terms: Callable[[int], list[int]]  # flatten rows for n <= max_n
    skip_remote: int = 0


def _flatten(row_of: Callable[[int], dict[int, int]], start_n: int,
             max_n: int) -> list[int]:
    """Rows n = start_n..max_n, each read for k = 0..its largest k."""
    out: list[int] = []
    for n in range(start_n, max_n + 1):
        row = row_of(n)
        top = max(row) if row else 0
        out.extend(row.get(k, 0) for k in range(top + 1))
    return out


def _formula_rows(fid: str, max_n: int) -> list[int]:
    """A formula's rows from its first valid n to max_n."""
    return _flatten(lambda n: formulas.closed_form_row(fid, n),
                    formulas.formula(fid).min_n, max_n)


def _ddes_132_213_terms(max_n: int) -> list[int]:
    return _flatten(series.series_ddes_132_213(max_n).row_counts, 1, max_n)


REGISTRY: dict[str, SequenceEntry] = {}


def _entry(sid: str, description: str, local_terms, skip_remote: int = 0) -> None:
    REGISTRY[sid] = SequenceEntry(sid, description, local_terms, skip_remote)


_entry("A000108", "Catalan numbers: single-pattern class sizes, n >= 0",
       lambda max_n: [formulas.catalan(n) for n in range(max_n + 1)])
_entry("A001263", "Narayana triangle: ascents over one-pattern classes, "
       "rows n >= 1, k = 0..n-1",
       lambda max_n: _formula_rows("ASC231", max_n))
_entry("A007318", "Pascal's triangle: ascents over S_n(213,312), "
       "rows n >= 1, k = 0..n-1",
       lambda max_n: _formula_rows("ASC_213_312", max_n))
_entry("A091894", "peaks over S_n(231): rows n >= 1; the remote triangle "
       "carries a leading row for the empty permutation",
       lambda max_n: _formula_rows("PK231", max_n), skip_remote=1)
_entry("A076791", "double descents over S_n(132,213): rows n >= 1 "
       "(binary words of length n-1 by their 00 count)", _ddes_132_213_terms)
_entry("A034867", "peaks over S_n(132,213): rows n >= 1",
       lambda max_n: _formula_rows("PK_132_213", max_n))
_entry("A034839", "ascents over S_n(123,132): rows n >= 1; the remote "
       "triangle carries a leading row for the empty permutation",
       lambda max_n: _formula_rows("ASC_123_132", max_n), skip_remote=1)
_entry("A093560", "double descents over S_n(123,132): rows n >= 3; the "
       "remote triangle carries one leading boundary row",
       lambda max_n: _formula_rows("DDES_123_132", max_n), skip_remote=1)
_entry("A119462", "valleys over S_n(123,132): rows n >= 2; the remote "
       "triangle carries one leading boundary row",
       lambda max_n: _formula_rows("VL_123_132", max_n), skip_remote=1)
_entry("A299927", "double ascents over S_n(213,312): rows n >= 1",
       lambda max_n: _formula_rows("DASC_213_312", max_n))


FORMULA_SEQUENCES = {
    "PK231": "A091894",
    "ASC132": "A001263", "DES132": "A001263",
    "ASC213": "A001263", "DES213": "A001263",
    "ASC231": "A001263", "DES231": "A001263",
    "ASC312": "A001263", "DES312": "A001263",
    "ASC_213_312": "A007318", "DES_213_312": "A007318",
    "ASC_132_213": "A007318", "DES_132_213": "A007318",
    "ASC_213_231": "A007318", "DES_213_231": "A007318",
    "PK_132_213": "A034867", "VL_132_213": "A034867",
    "PK_213_231": "A034867", "VL_213_231": "A034867",
    "PK_123_132": "A034867",
    "ASC_123_132": "A034839",
    "DDES_123_132": "A093560",
    "VL_123_132": "A119462",
    "DASC_213_312": "A299927", "DDES_213_312": "A299927",
    "DASC_132_213": "A076791", "DDES_132_213": "A076791",
    "DASC_213_231": "A076791", "DDES_213_231": "A076791",
}


def sequence_for(name: str) -> SequenceEntry:
    """Registry entry for an A-number or a formula id."""
    sid = FORMULA_SEQUENCES.get(name, name)
    if sid not in REGISTRY:
        raise KeyError(f"no registered flattening for {name!r}")
    return REGISTRY[sid]


def local_terms(name: str, max_n: int) -> list[int]:
    """Locally computed terms of an A-number or a formula id, n <= max_n."""
    series._check_max_n(max_n)
    return sequence_for(name).local_terms(max_n)


def local_bfile(name: str, max_n: int) -> str:
    """Locally computed terms rendered in b-file format, indexed from 1."""
    terms = local_terms(name, max_n)
    return "".join(f"{i} {t}\n" for i, t in enumerate(terms, start=1))


def check_sequence(name: str, max_n: int,
                   cache: str | os.PathLike | None = None,
                   offline: bool = False) -> MatchReport:
    """Compare the local flattening against fetched data."""
    series._check_max_n(max_n)
    entry = sequence_for(name)
    ref = fetch(entry.id, cache=cache, offline=offline)
    return compare(entry.local_terms(max_n), ref, offset=entry.skip_remote)
