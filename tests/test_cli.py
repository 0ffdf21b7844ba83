import dataclasses
import hashlib
import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from patternstats import bijections, cli, formulas, oeis, series
from patternstats.cli import main
from patternstats.formulas import binom, catalan
from patternstats.stats import STATS

from helpers import naive_dist


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_json(capsys):
    code, out, _ = run(capsys, "dist", "--stat", "pk", "--avoid", "231",
                       "--n", "4", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["counts"] == {"0": 8, "1": 6}
    assert blob["basis"] == ["231"]
    assert blob["method"] == "oracle"
    assert naive_dist("pk", 4, [(2, 3, 1)]) == {0: 8, 1: 6}
    code, out, _ = run(capsys, "dist", "--stat", "pk", "--avoid", "321",
                       "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"] == {"0": 4, "1": 10}
    assert naive_dist("pk", 4, [(3, 2, 1)]) == {0: 4, 1: 10}


def test_dist_csv_pascal_row(capsys):
    code, out, _ = run(capsys, "dist", "--stat", "asc", "--avoid", "213,312",
                       "--n", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,count"
    got = {int(line.split(",")[1]): int(line.split(",")[2])
           for line in lines[1:]}
    assert got == {k: binom(5, k) for k in range(6)}


def test_dist_markdown(capsys):
    code, out, _ = run(capsys, "dist", "--stat", "vl", "--avoid", "123,132",
                       "--n", "5", "--format", "markdown")
    assert code == 0
    assert "| n | k | count |" in out
    assert "| 5 | 0 | 2 |" in out
    assert "| 5 | 1 | 12 |" in out
    assert naive_dist("vl", 5, [(1, 2, 3), (1, 3, 2)]) == {0: 2, 1: 12, 2: 2}


def test_dist_range(capsys):
    code, out, _ = run(capsys, "dist", "--stat", "des", "--avoid", "321",
                       "--n", "2-4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [2, 3, 4]


@pytest.mark.parametrize("ns, message", [
    ("5-3", "--n range '5-3' is reversed: 5 > 3"),
    ("-1", "--n expects a length N or a range LO-HI"),
    ("3-", "--n expects a length N or a range LO-HI"),
    ("2-x", "--n expects a length N or a range LO-HI"),
])
def test_dist_bad_range_exits_2(capsys, ns, message):
    code, out, err = run(capsys, "dist", "--stat", "pk", "--avoid", "231",
                         "--n", ns)
    assert code == 2
    assert out == ""
    assert message in err


def test_dist_bad_basis_exits_2(capsys):
    code, _, err = run(capsys, "dist", "--stat", "pk", "--avoid", "2x1",
                       "--n", "4")
    assert code == 2 and err


def test_dist_duplicate_pattern_is_named(capsys):
    code, out, err = run(capsys, "dist", "--stat", "pk", "--avoid", "231,231",
                         "--n", "2")
    assert code == 2 and out == ""
    assert err == "duplicate patterns in basis: 231,231\n"
    assert "generator" not in err


def test_dist_unsupported_method_exits_2(capsys):
    code, _, err = run(capsys, "dist", "--stat", "pk", "--avoid", "123",
                       "--n", "4", "--method", "closed_form")
    assert code == 2 and "no closed form" in err


def test_map_psi(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "psi",
                       "--input", "617238459")
    assert code == 0
    assert out.splitlines()[0] == "UDUUDUDUUDUDUUDDDD"
    assert "input_pk=2" in out and "image_interior_uud=2" in out


def test_map_domain_violation_names_pattern(capsys):
    code, _, err = run(capsys, "map", "--bijection", "psi", "--input", "321")
    assert code == 2
    assert "321" in err


@pytest.mark.parametrize("name,text,err", [
    ("zeta", "312", "permutation 312 contains 312\n"),
    ("phi", "1,1", "not a permutation of 1..2: (1, 1)\n"),
    ("phi_inv", "UDD", "prefix falls below the axis (position 3)\n"),
])
def test_map_refusals_keep_their_message(capsys, name, text, err):
    assert run(capsys, "map", "--bijection", name, "--input", text) == (2, "", err)


def test_map_encoding(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "enc123132",
                       "--input", "653241", "--format", "json")
    assert code == 0
    assert json.loads(out)["image"] == "11001"


@pytest.mark.parametrize("name", ["enc132213", "enc213231", "enc123132"])
def test_map_refuses_the_empty_permutation(capsys, name):
    code, out, err = run(capsys, "map", "--bijection", name, "--input", "")
    assert (code, out) == (2, "")
    assert err == "the binary encodings need n >= 1\n"


def test_map_round_trips_twelve_entries(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "dec132213",
                       "--input", "01101001011")
    assert code == 0
    perm = out.splitlines()[0]
    assert perm == "12,9,10,11,7,8,6,4,5,1,2,3"
    code, out, _ = run(capsys, "map", "--bijection", "enc132213",
                       "--input", perm, "--format", "json")
    assert code == 0
    assert json.loads(out)["image"] == "01101001011"


def test_map_alphabet_flag(capsys):
    code, out, _ = run(capsys, "map", "--bijection", "iota", "--input",
                       "1100", "--alphabet", "10")
    assert code == 0
    assert out.splitlines()[0] == "UDUD"


def test_map_unknown_bijection(capsys):
    code, _, err = run(capsys, "map", "--bijection", "nope", "--input", "1")
    assert code == 2 and "unknown bijection" in err


def test_series_row_sums_catalan(capsys):
    code, out, _ = run(capsys, "series", "--name", "pk321", "--max-n", "6",
                       "--format", "csv")
    assert code == 0
    sums = {}
    for line in out.strip().splitlines()[1:]:
        n, _, c = (int(x) for x in line.split(","))
        sums[n] = sums.get(n, 0) + c
    assert sums == {n: catalan(n) for n in range(7)}


def test_series_ddes_row_sums(capsys):
    code, out, _ = run(capsys, "series", "--name", "ddes132213",
                       "--max-n", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    for row in rows[1:]:
        assert sum(row["counts"].values()) == 2 ** (row["n"] - 1)


def test_series_d_is_shift_of_des321(capsys):
    code, out_d, _ = run(capsys, "series", "--name", "D", "--max-n", "5",
                         "--format", "json")
    assert code == 0
    code, out_a, _ = run(capsys, "series", "--name", "des321", "--max-n", "4",
                         "--format", "json")
    assert code == 0
    d_rows = {r["n"]: r["counts"] for r in json.loads(out_d)["rows"]}
    a_rows = {r["n"]: r["counts"] for r in json.loads(out_a)["rows"]}
    for n in range(5):
        assert d_rows[n + 1] == a_rows[n]


def test_series_cap(capsys):
    code, _, err = run(capsys, "series", "--name", "pk321", "--max-n", "99")
    assert code == 2 and "cap" in err


def test_dist_series_follows_the_series_cap(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("series_cap = 5\n")
    for argv in (["series", "--name", "des321", "--max-n", "10"],
                 ["dist", "--stat", "des", "--avoid", "321", "--n", "10",
                  "--method", "series"]):
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert (code, out) == (2, "")
        assert err == "series degree 10 exceeds series cap 5\n"
    dist = ["dist", "--stat", "des", "--avoid", "321", "--method", "series"]
    code, _, err = run(capsys, *dist, "--n", "24")
    assert code == 0, err
    code, _, err = run(capsys, *dist, "--n", "25")
    assert code == 2 and "series cap 24" in err


def test_dist_series_range_costs_one_solve(capsys, monkeypatch):
    calls = []
    solve = series.series_des_321

    def counted(max_n):
        calls.append(max_n)
        return solve(max_n)

    monkeypatch.setattr(series, "series_des_321", counted)
    code, out, err = run(capsys, "dist", "--stat", "des", "--avoid", "321",
                         "--n", "0-24", "--method", "series")
    assert code == 0, err
    assert [r["n"] for r in json.loads(out)] == list(range(25))
    assert calls == [24]


@pytest.mark.parametrize("argv, message", [
    (["pk", "2143", "8-11"], "permutation size 11 exceeds cap 10"),
    (["pk", "231", "13-15"], "class size 15 exceeds cap 14"),
    (["des", "321", "20-26", "--method", "series"],
     "series degree 25 exceeds series cap 24"),
    (["pk", "231", "0-2", "--method", "closed_form"],
     "PK231 is stated for n >= 1; got n = 0"),
    (["pk", "231", "1-2000", "--method", "closed_form"],
     "series degree 25 exceeds series cap 24"),
])
def test_dist_range_across_a_limit_names_the_first_refused_size(
        capsys, argv, message):
    stat, basis, ns, *method = argv
    code, out, err = run(capsys, "dist", "--stat", stat, "--avoid", basis,
                         "--n", ns, *method)
    assert (code, out) == (2, "")
    assert err == message + "\n"


@pytest.mark.parametrize("argv, message", [
    (["pk", "231"], "class size 15 exceeds cap 14"),
    (["des", "321", "--method", "series"],
     "series degree 25 exceeds series cap 24"),
])
def test_a_refused_range_is_not_listed(capsys, argv, message):
    assert isinstance(cli._parse_ns("0-3000000"), range)
    stat, basis, *method = argv
    code, out, err = run(capsys, "dist", "--stat", stat, "--avoid", basis,
                         "--n", "0-1000000000000", *method)
    assert (code, out) == (2, "")
    assert err == message + "\n"


def test_series_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["series", "--name", "nope", "--max-n", "4"])
    assert info.value.code == 2


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--only", "FORMULA_PK231",
                       "--max-n", "6")
    assert code == 0
    assert out.startswith("PASS FORMULA_PK231")


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    names = out.split()
    assert "FORMULA_PK231" in names and "IOTA_INVOLUTION" in names


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--only", "NOPE")
    assert code == 2 and "unknown checks" in err


def test_verify_catches_injected_off_by_one(capsys, monkeypatch):
    spec = formulas.FORMULAS["PK231"]
    broken = dataclasses.replace(
        spec, fn=lambda n, k: spec.fn(n, k) + (1 if (n, k) == (4, 0) else 0))
    monkeypatch.setitem(formulas.FORMULAS, "PK231", broken)
    code, out, _ = run(capsys, "verify", "--only", "FORMULA_PK231",
                       "--max-n", "6")
    assert code == 1
    assert "FAIL FORMULA_PK231" in out


def test_verify_json_reports(capsys):
    code, out, _ = run(capsys, "verify", "--only", "SERIES_B_PK231",
                       "--max-n", "6", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True


def test_oeis_bfile_output(capsys):
    code, out, _ = run(capsys, "oeis", "--formula", "PK231", "--max-n", "10",
                       "--format", "bfile")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 1" and lines[1] == "2 2"


@pytest.mark.parametrize("flag, name, sequence", [
    ("--formula", "PK231", "A091894"), ("--sequence", "A000108", "A000108")])
def test_oeis_json_output(capsys, flag, name, sequence):
    code, out, _ = run(capsys, "oeis", flag, name, "--format", "json",
                       "--max-n", "6")
    assert code == 0
    assert json.loads(out) == {"sequence": sequence,
                               "terms": oeis.local_terms(name, 6)}


def test_oeis_unknown_formula(capsys):
    code, _, err = run(capsys, "oeis", "--formula", "UNKNOWN")
    assert code == 2 and "UNKNOWN" in err


def test_oeis_offline_check_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "oeis", "--formula", "PK231", "--check",
                       "--offline", "--cache-dir", str(tmp_path))
    assert code == 3 and "network" in err


def test_config_file_sets_caps(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("# caps\nstructured_cap = 5\n")
    code, _, err = run(capsys, "--config", str(cfg), "dist", "--stat", "asc",
                       "--avoid", "132", "--n", "6")
    assert code == 2 and "cap" in err
    code, _, _ = run(capsys, "--config", str(cfg), "dist", "--stat", "asc",
                     "--avoid", "132", "--n", "5")
    assert code == 0


def test_config_caps_last_one_invocation(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("structured_cap = 5\nseries_cap = 3\n")
    code, _, _ = run(capsys, "--config", str(cfg), "dist", "--stat", "asc",
                     "--avoid", "123", "--n", "5")
    assert code == 0
    code, out, err = run(capsys, "dist", "--stat", "asc", "--avoid", "123",
                         "--n", "7")
    assert code == 0, err
    assert sum(json.loads(out)["counts"].values()) == catalan(7)
    code, _, err = run(capsys, "series", "--name", "des321", "--max-n", "5")
    assert code == 0, err


def test_main_twice_in_one_process_matches_fresh_processes(capsys, tmp_path,
                                                          monkeypatch):
    # the parser is built on the first call and kept: a call with a config
    # that lowers a cap, then one without, each give the stdout and exit
    # code of a fresh process
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("structured_cap = 5\n")
    calls = [["--config", str(cfg), "dist", "--stat", "pk", "--avoid", "231",
              "--n", "4-6"],
             ["dist", "--stat", "pk", "--avoid", "231", "--n", "4-6"]]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    cli._parser.cache_clear()
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    fresh = [subprocess.run([sys.executable, "-m", "patternstats.cli", *argv],
                            capture_output=True, text=True)
             for argv in calls]
    assert in_process == [(p.returncode, p.stdout) for p in fresh]
    assert [code for code, _ in in_process] == [2, 0]
    assert len(built) == 1


def test_cli_import_loads_no_network_or_pool_modules():
    heavy = ("urllib.request", "http.client", "ssl", "concurrent.futures")
    code = ("import sys, patternstats.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_config_cache_dir_feeds_oeis_check(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "A000108.txt").write_text(
        "".join(f"{n} {catalan(n)}\n" for n in range(20)))
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cache_dir = {cache}\n")
    code, out, _ = run(capsys, "--config", str(cfg), "oeis", "--sequence",
                       "A000108", "--check", "--offline", "--max-n", "15")
    assert code == 0
    assert json.loads(out)["first_mismatch"] is None


def test_bfile_that_is_not_utf8_exits_3(capsys, tmp_path):
    (tmp_path / "A000108.txt").write_bytes(b"0 1\n1 \xff\n")
    code, out, err = run(capsys, "oeis", "--sequence", "A000108", "--check",
                         "--offline", "--cache-dir", str(tmp_path))
    assert (code, out) == (3, "")
    assert err == "bad b-file: byte 0xff is not UTF-8 (line 2)\n"


@pytest.mark.parametrize("status, code, message", [
    (404, 2, "no such sequence A000108"),
    (503, 3, "network unavailable: HTTP 503 fetching A000108"),
    (None, 3, "network unavailable: cannot reach OEIS for A000108: "
              "<urlopen error no route>"),
])
def test_oeis_fetch_errors_exit_2_or_3(capsys, tmp_path, monkeypatch, status,
                                       code, message):
    # a sequence that does not exist is a usage error; a network that
    # fails is an environment error
    import urllib.error
    import urllib.request

    def urlopen(url, timeout):
        if status is None:
            raise urllib.error.URLError("no route")
        raise urllib.error.HTTPError(url, status, "status", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    got = run(capsys, "oeis", "--sequence", "A000108", "--check",
              "--cache-dir", str(tmp_path))
    assert got == (code, "", message + "\n")


@pytest.mark.parametrize("check", [[], ["--check", "--offline"]])
def test_oeis_refuses_above_the_series_cap_before_a_term(capsys, tmp_path,
                                                         monkeypatch, check):
    # local terms are closed-form or series rows, so oeis --max-n takes the
    # series cap, checked before the first row
    def refuse(*args):
        raise AssertionError("computed a row before the cap check")

    monkeypatch.setattr(formulas, "closed_form_row", refuse)
    for max_n in ("25", "1500"):
        got = run(capsys, "oeis", "--formula", "PK231", "--max-n", max_n,
                  *check)
        assert got == (2, "", f"series degree {max_n} exceeds series cap "
                              "24\n")
    monkeypatch.undo()
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("series_cap = 25\n")
    code, out, _ = run(capsys, "--config", str(cfg), "oeis", "--formula",
                       "PK231", "--max-n", "25")
    assert code == 0 and out == oeis.local_bfile("PK231", 25)


def test_bad_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("gen_cap\n")
    code, _, err = run(capsys, "--config", str(cfg), "verify", "--list")
    assert code == 2 and "key=value" in err


def test_unreadable_config_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing.cfg"
    code, out, err = run(capsys, "--config", str(missing), "verify", "--list")
    assert (code, out) == (2, "")
    assert f"cannot read config {missing}" in err


def test_undecodable_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_bytes(b"gen_cap = 5\n\xff\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--list")
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read config {cfg}: ")
    assert "0xff" in err


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("# caps\ngen-cap = 5\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--list")
    assert (code, out) == (2, "")
    assert f"{cfg}:2: unknown key 'gen-cap'" in err
    assert ("known keys: cache_dir, gen_cap, series_cap, structured_cap"
            in err)


@pytest.mark.parametrize("key", ["dyck_cap", "bits_cap"])
def test_removed_word_cap_keys_are_unknown(capsys, tmp_path, key):
    # Dyck and bit words take the class cap, structured_cap
    cfg = tmp_path / "caps.cfg"
    cfg.write_text(f"{key} = 4\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--list")
    assert (code, out) == (2, "")
    assert err == (f"{cfg}:1: unknown key {key!r}; known keys: cache_dir, "
                   "gen_cap, series_cap, structured_cap\n")


@pytest.mark.parametrize("value", ["five", "-3", "2.5", ""])
def test_non_integer_cap_exits_2(capsys, tmp_path, value):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text(f"series_cap = 4\ngen_cap = {value}\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--list")
    assert (code, out) == (2, "")
    assert f"config key gen_cap must be a nonnegative integer, got {value!r}" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--only", "CARD_PAIRS", "--max-n", "-1"),
    ("verify", "--all", "--max-n", "-1"),
    ("oeis", "--formula", "PK231", "--max-n", "-1"),
    ("oeis", "--formula", "PK231", "--max-n", "-1", "--check", "--offline"),
])
def test_negative_max_n_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "max_n must be nonnegative: -1\n")


def test_oeis_formula_without_sequence_exits_2(capsys):
    code, _, err = run(capsys, "oeis", "--formula", "DES_123_132")
    assert (code, err) == (2, "no registered flattening for 'DES_123_132'\n")


def test_verify_reports_a_raising_psi_inverse_as_a_failed_check(capsys,
                                                                 monkeypatch):
    # the pyramid's image comes back reversed, as 321; to_dyck_321 raises on it
    orig = bijections.from_dyck_321
    monkeypatch.setattr(bijections, "from_dyck_321",
                        lambda d: orig(d)[::-1] if d == "UUUDDD" else orig(d))
    code, out, _ = run(capsys, "verify", "--only", "PSI321_TRANSPORT",
                       "--max-n", "5")
    assert code == 1
    assert out == ("FAIL PSI321_TRANSPORT: image avoids 321 for UUUDDD\n"
                   "0/1 checks passed\n")


def test_verify_reports_a_raising_decoder_as_a_failed_check(capsys,
                                                            monkeypatch):
    # the word 11 decodes to 132 instead of 123; encode_132_213 raises on it
    orig = bijections.decode_132_213
    monkeypatch.setattr(bijections, "decode_132_213",
                        lambda bits: (1, 3, 2) if bits == "11" else orig(bits))
    code, out, _ = run(capsys, "verify", "--only", "ENC_132_213_TRANSPORT",
                       "--max-n", "5")
    assert code == 1
    assert out == ("FAIL ENC_132_213_TRANSPORT: decoded member avoids basis "
                   "for 11\n0/1 checks passed\n")


# sha256 of stdout: pins every check's name, order, bound and comparison
# count; change a digest only with a deliberate change to a check
_PINNED_STDOUT = {
    ("verify", "--list"):
        "c4f49126dd5dd3e98e5d75a928eb2396d99e5a83b5be5914bc985e5b48e365d2",
    ("verify", "--all", "--max-n", "7", "--format", "json"):
        "27bb7e014937eb72478bd9f2d1b851a77ae45bab845e610861822d1cd1bf5089",
}


@pytest.mark.parametrize("argv", list(_PINNED_STDOUT))
def test_verify_stdout_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT[argv]


# sha256 of the stdout of `dist --stat S --avoid B --n 0-12 --format json`
# for the six statistics in STATS order, one digest per basis of
# generate.STRUCTURED; pins the rows generate.count_lengths counts for each
# basis and the JSON that dist prints them in
_PINNED_DIST_STDOUT = {
    "231":
        "efc39fb5e6d35651580f63be6b37ba90ba1e3749ece537580addf491c14bc68a",
    "321":
        "781a8dde66d3497acf5b3635c152dc07d4d9574b312ad146a7100eed40569458",
    "213,312":
        "b97a797a267e196cff3ae98913daa60dac079c213187b90e786fc6a81f499b50",
    "132,213":
        "53709928c26f7b47e3e554468837da1221a451e1e356760558c6da3ed30eb9cc",
    "213,231":
        "d1a0b08e716110a1ad12c39001d8e4842ca34bda6a20de51be004d73b65fcb8c",
    "123,132":
        "059813cb646b21f2a3978103402adabac09edb86c20b5b4f72c3a7bd3cc49d5f",
    "132,321":
        "d65d70593c0b18a9f2db25b876428eccff3c1244743ecd6c350de51cea58147a",
}


# the same at `--n 0-14`, the class cap: pins the counted rows of the
# lengths where the slot automaton has the most states
_PINNED_DIST_STDOUT_14 = {
    "231":
        "f80550cd3ce8f7515d188f8576a66f4fab92ff86dc0d1e48ede5336248b4f265",
    "321":
        "1d8388c9dc04c2d86bd534a888e0bb881acb1f32cd0d5203c130d20e104ae8af",
    "213,312":
        "d468d5267b4c11083401ce0bbb3730609804ae80990cccefcabdebe59629d987",
    "132,213":
        "163f48ae72ac7710b1fdbf9648c68e8971d3bcc6a184d4586cf1e3900057aa5f",
    "213,231":
        "a7996157ced2e0fba19c964e44930ce3ac2c1b799e70a994b6cbbae9b264bef6",
    "123,132":
        "0399e071c2afe8f4cea5f9d36b3d4d42820085ffddde99d4a2a6589dd78f1d19",
    "132,321":
        "d4acbff0904aef4e7ce5e649bce9a766b1b88bc3afa6507d32a7d2d1229b68d9",
}


# the same for `dist ... --n 0-10 --format json` over length-3 bases
# outside generate.STRUCTURED; count_lengths counts them like the others,
# and each digest pins their rows and the JSON that dist prints them in
_PINNED_FILTER_DIST_STDOUT = {
    "123":
        "794f2a737a4d8a8a329828cf366349cddfb85274794f380d96fc2cc7d5d7a65c",
    "132":
        "cff874442f2e4a0d088f1d0cd0beefecec10bdfea61334857c513f741937d5d7",
    "213":
        "3d6543d255f66ba796058643d5042306b0ffa4ac2cd4e6e977458e7c395ef134",
    "312":
        "a7e1f266420f74ec7af871127fd39c3c47c89a1d773a5ae8a52f2cbe598a3193",
    "132,312":
        "a1a99074b52a43897311d342a5544628ce7ff0bac34b2f9d1df688b15c5d39e4",
    "123,132,213":
        "ce3a34786597c93d63c69eab20baf18ec207d6c8b881d5138fff41b821b2880f",
}


def _dist_digest(capsys, basis, ns):
    digest = hashlib.sha256()
    for stat in STATS:
        code, out, _ = run(capsys, "dist", "--stat", stat, "--avoid", basis,
                           "--n", ns, "--format", "json")
        assert code == 0
        digest.update(out.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("basis", list(_PINNED_DIST_STDOUT))
def test_dist_stdout_is_pinned(capsys, basis):
    assert _dist_digest(capsys, basis, "0-12") == _PINNED_DIST_STDOUT[basis]


@pytest.mark.parametrize("basis", list(_PINNED_DIST_STDOUT_14))
def test_dist_stdout_to_the_class_cap_is_pinned(capsys, basis):
    assert (_dist_digest(capsys, basis, "0-14")
            == _PINNED_DIST_STDOUT_14[basis])


@pytest.mark.parametrize("basis", list(_PINNED_FILTER_DIST_STDOUT))
def test_filter_dist_stdout_is_pinned(capsys, basis):
    assert (_dist_digest(capsys, basis, "0-10")
            == _PINNED_FILTER_DIST_STDOUT[basis])


# sha256 of `series --name NAME --max-n 24 --format FORMAT` stdout, recorded
# before the solver packed its rows; pins every coefficient the CLI prints
_PINNED_SERIES_STDOUT = {
    ("des321", "json"):
        "8b80559dbb331a292fd9b81ab99ff02f74adcb2de5458d15b0970d3499273b6d",
    ("des321", "csv"):
        "51ec1e3b6c49a676290575ebecee5f4250502e7fc451bcd863d23592feb7551f",
    ("pk321", "json"):
        "c49d8695247c59258f9a15efbb950a446050e6bb84e6532d2be42ae5a809a11d",
    ("pk321", "csv"):
        "01d3944b100e6367c4f5cc1c27b618abf9d60707b2c08777b438d8f019a319fc",
    ("B", "json"):
        "f9b9aa167251ad49b553f302658da83dcdeecff8af19ce3627287432c413453c",
    ("B", "csv"):
        "0248ce885703c1442f30372f8435e1994d0363dfc125a7026525d23c555e1217",
    ("D", "json"):
        "a4779c4e2e16df61228ef33791f7b0c6bcadfcb86633abff9d217b1da9e46a05",
    ("D", "csv"):
        "daa050b34d98f755dc3771174005f21b29bfd9bd73e08e3f077535e95ed68235",
    ("ddes132213", "json"):
        "e03b89f2a2f41834fee7e89253810b24892ea315eb42ea82ff82ffeb3e829a2a",
    ("ddes132213", "csv"):
        "9733e36306fdbd57d7b5a6fb3c0758ca47decc8bc4c641046fac7ccfcb3b3dbf",
}


@pytest.mark.parametrize("name,fmt", list(_PINNED_SERIES_STDOUT))
def test_series_stdout_is_pinned(capsys, name, fmt):
    code, out, _ = run(capsys, "series", "--name", name, "--max-n", "24",
                       "--format", fmt)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == _PINNED_SERIES_STDOUT[name, fmt])


# sha256 of the stdout of `oeis --formula NAME --max-n 12` for each name of
# oeis.FORMULA_SEQUENCES in sorted order, then of `oeis --sequence SID` for
# each A-number of oeis.REGISTRY in sorted order, each in bfile then json;
# recorded while the names were still listed by hand, so it pins every
# derived name, the sequence it prints and every term of it
_PINNED_OEIS_STDOUT = (
    "27e4c2fe2a7bef035665e4976c623a56a28c318bffe7b6c71b090c623b6893f0")


def test_oeis_stdout_is_pinned(capsys):
    argvs = [("--formula", name, "--max-n", "12")
             for name in sorted(oeis.FORMULA_SEQUENCES)]
    argvs += [("--sequence", sid) for sid in sorted(oeis.REGISTRY)]
    digest = hashlib.sha256()
    for argv in argvs:
        for fmt in ("bfile", "json"):
            code, out, _ = run(capsys, "oeis", *argv, "--format", fmt)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == _PINNED_OEIS_STDOUT


_WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def _expect_lines() -> list[tuple[int, str, str | None]]:
    # (exit code, argv text, the python code that builds "$P" there) of
    # each "expect <code> <argv>" line of the workflow, in order
    lines, build = [], None
    for line in _WORKFLOW.read_text().splitlines():
        line = line.strip()
        made = re.fullmatch(r'P=\$\(PYTHONPATH=src python -c "(.*)"\)', line)
        if made:
            build = made[1]
        expect = re.fullmatch(r"expect (\d+) (.*)", line)
        if expect:
            lines.append((int(expect[1]), expect[2], build))
    return lines


def test_ci_exit_code_table_holds_in_process(capsys, tmp_path, monkeypatch):
    # every exit code the workflow expects, through main in one process;
    # "$P" is built by the workflow's own command before it, and a file it
    # writes to a fresh temporary directory lands in tmp_path
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    table = _expect_lines()
    assert len(table) == 89
    assert sum('"$P"' in text for _, text, _ in table) == 4
    wrong = []
    for want, text, build in table:
        if '"$P"' in text:
            exec(build, {})
            text = text.replace('"$P"', capsys.readouterr().out.strip())
        argv = shlex.split(text.replace("$RUNNER_TEMP", str(tmp_path)))
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        capsys.readouterr()
        if got != want:
            wrong.append((text[:80], got, want))
    assert wrong == []
