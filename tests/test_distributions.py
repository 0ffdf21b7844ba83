import dataclasses
import itertools
import json
import re

import pytest

from patternstats import (bijections, distributions, formulas, generate,
                          perms, series, stats)
from patternstats.distributions import (
    UnsupportedMethodError,
    class_size,
    dist_table,
    distribution,
    symmetry_check,
    transform_basis,
    verify_all,
)

from helpers import naive_dist


def test_oracle_matches_independent_oracle():
    cases = [
        ("pk", [(2, 3, 1)]),
        ("vl", [(2, 1, 3), (3, 1, 2)]),
        ("ddes", [(3, 2, 1)]),
        ("asc", [(1, 3, 2)]),
    ]
    for stat, basis in cases:
        for n in range(7):
            assert distribution(stat, basis, n) == naive_dist(stat, n, basis)


def test_known_rows():
    assert distribution("pk", [(2, 3, 1)], 4) == {0: 8, 1: 6}
    assert distribution("vl", [(2, 1, 3), (3, 1, 2)], 6) == {0: 32}
    assert distribution("asc", [(1, 3, 2), (3, 2, 1)], 5,
                        method="closed_form") == {3: 10, 4: 1}


def test_methods_agree():
    for n in range(8):
        oracle = distribution("des", [(3, 2, 1)], n)
        assert distribution("des", [(3, 2, 1)], n, method="series") == oracle
    for n in range(1, 8):
        oracle = distribution("pk", [(2, 3, 1)], n)
        assert distribution("pk", [(2, 3, 1)], n, method="closed_form") == oracle


def test_unsupported_methods():
    with pytest.raises(UnsupportedMethodError,
                       match="^no closed form for pk over 123$"):
        distribution("pk", [(1, 2, 3)], 4, method="closed_form")
    with pytest.raises(UnsupportedMethodError,
                       match="^no series for dasc over 231$"):
        distribution("dasc", [(2, 3, 1)], 4, method="series")
    with pytest.raises(UnsupportedMethodError):
        distribution("pk", [(3, 2, 1)], 4, method="bogus")
    with pytest.raises(ValueError):
        distribution("maj", [(3, 2, 1)], 4)


def test_dist_table_json_schema():
    table = dist_table("pk", [(2, 3, 1)], [4], method="oracle")
    row = table.row_json(4)
    assert row == {
        "basis": ["231"],
        "stat": "pk",
        "n": 4,
        "counts": {"0": 8, "1": 6},
        "method": "oracle",
    }
    parsed = json.loads(table.to_json())
    assert parsed == row
    multi = dist_table("pk", [(2, 3, 1)], [3, 4])
    assert [r["n"] for r in json.loads(multi.to_json())] == [3, 4]


def _dumped(table) -> str:
    # the json module's text of the row dicts, which to_json writes itself
    rows = [table.row_json(n) for n in sorted(table.rows)]
    return json.dumps(rows[0] if len(rows) == 1 else rows, indent=2)


def test_to_json_is_json_dumps_of_the_row_dicts():
    for basis in _length3_bases():
        for stat in stats.STATS:
            one = dist_table(stat, basis, [5])
            assert one.to_json() == _dumped(one), (basis, stat)
            assert isinstance(json.loads(one.to_json()), dict)
            for ns in (range(2), range(9)):
                table = dist_table(stat, basis, ns)
                assert table.to_json() == _dumped(table), (basis, stat, ns)
    # Av(123,321) has no member from n = 5 on: empty counts
    empty = dist_table("pk", [(1, 2, 3), (3, 2, 1)], range(4, 7))
    assert [n for n, row in empty.rows.items() if not row] == [5, 6]
    assert empty.to_json() == _dumped(empty)
    assert '"counts": {},' in empty.to_json()
    assert dist_table("pk", [(2, 3, 1)], []).to_json() == "[]"
    answered = dict.fromkeys(("closed_form", "series"), 0)
    for text in distributions._SINGLE_BASES + distributions._PAIR_BASES:
        for stat, method, ns in itertools.product(
                stats.STATS, answered, ([7], range(3, 10))):
            try:
                table = dist_table(stat, perms.parse_basis(text), ns, method)
            except UnsupportedMethodError:
                continue
            answered[method] += 1
            assert table.to_json() == _dumped(table), (text, stat, method)
    assert answered == {"closed_form": 76, "series": 32}


def test_class_size():
    assert class_size(4, [(3, 2, 1)]) == 14
    assert class_size(0, [(3, 2, 1)]) == 1


def test_transform_basis():
    assert transform_basis([(2, 3, 1)], "r") == ((1, 3, 2),)
    assert transform_basis([(2, 3, 1)], "c") == ((2, 1, 3),)
    assert transform_basis([(2, 3, 1)], "rc") == ((3, 1, 2),)
    with pytest.raises(ValueError):
        transform_basis([(2, 3, 1)], "x")


def test_symmetry_check_reports():
    rep = symmetry_check("asc_des", [(2, 3, 1)], "r", 6)
    assert rep.passed and rep.checked == 2 * 7
    rep = symmetry_check("pk_vl", [(3, 2, 1)], "r", 6)
    assert rep.passed
    with pytest.raises(ValueError):
        symmetry_check("nope", [(2, 3, 1)], "r", 4)
    with pytest.raises(ValueError, match="^unknown transform 'x'$"):
        symmetry_check("asc_des", [(2, 3, 1)], "x", 4)


def test_symmetry_checks_compare_the_pinned_statistic_pairs(monkeypatch):
    # rows that name their statistic make every comparison fail with its
    # label, which names the two statistics compared: the nine pairs the
    # families compared when each was written out by hand
    monkeypatch.setattr(
        distributions._Run, "rows",
        lambda run, key, n: {s: {(key, s): 1} for s in stats.STATS})
    seen = {}
    for family in ("asc_des", "dasc_ddes", "pk_vl"):
        for transform in ("r", "c", "rc"):
            report = symmetry_check(family, [(2, 3, 1)], transform, 0)
            seen[family, transform] = re.match(
                r"(\w+)\(231\) vs (\w+)\(\d+\) at n=0: ",
                report.failure).groups()
    assert seen == {
        ("asc_des", "r"): ("asc", "des"), ("asc_des", "c"): ("asc", "des"),
        ("asc_des", "rc"): ("asc", "asc"),
        ("dasc_ddes", "r"): ("dasc", "ddes"),
        ("dasc_ddes", "c"): ("dasc", "ddes"),
        ("dasc_ddes", "rc"): ("dasc", "dasc"),
        ("pk_vl", "r"): ("pk", "pk"), ("pk_vl", "c"): ("pk", "vl"),
        ("pk_vl", "rc"): ("pk", "vl"),
    }


def test_card_checks_report_an_off_by_one_size(monkeypatch):
    # one wrong size, |S_4(132,321)| = 8, fails CARD_PAIRS alone, with the
    # counts and the label the three hand-written checks reported
    real, bad = distributions.class_size, perms.parse_basis("132,321")
    monkeypatch.setattr(
        distributions, "class_size",
        lambda n, key, caps=generate.Caps():
            real(n, key, caps) + (n == 4 and key == bad))
    reports = verify_all(6, ["CARD_SINGLE_CATALAN", "CARD_PAIRS",
                             "CARD_123_321_EMPTY"])
    assert [(r.name, r.passed, r.checked, r.failure) for r in reports] == [
        ("CARD_SINGLE_CATALAN", True, 42, None),
        ("CARD_PAIRS", False, 30, "|S_4(132,321)|: got 8, expected 7"),
        ("CARD_123_321_EMPTY", True, 2, None),
    ]


def test_symmetry_check_refuses_a_negative_max_n():
    # as verify_all does, rather than passing with nothing checked
    with pytest.raises(ValueError, match="max_n must be nonnegative: -1"):
        symmetry_check("asc_des", [(2, 3, 1)], "r", -1)


def test_verify_selection_and_unknown():
    reports = verify_all(5, selection="FORMULA_PK231")
    assert len(reports) == 1 and reports[0].passed
    with pytest.raises(KeyError):
        verify_all(5, selection="NOT_A_CHECK")


def test_injected_off_by_one_formula_fails(monkeypatch):
    spec = formulas.FORMULAS["PK231"]
    broken = dataclasses.replace(
        spec, fn=lambda n, k: spec.fn(n, k) + (1 if k == 0 else 0))
    monkeypatch.setitem(formulas.FORMULAS, "PK231", broken)
    report, = verify_all(5, selection="FORMULA_PK231")
    # the formula's row is the one got, the oracle's the one expected
    assert (report.passed, report.checked) == (False, 5)
    assert report.failure == "pk over 231 at n=1: got {0: 2}, expected {0: 1}"


def _bump_top(rows):
    # a +1 at k = 0 in the top row of {n: row}
    if rows:
        top = max(rows)
        rows[top] = {**rows[top], 0: rows[top].get(0, 0) + 1}
    return rows


@pytest.mark.parametrize("fault, checks, count", [
    ("closed_form", r"FORMULA_\w+|SERIES_B_PK231", 36),
    ("series", r"SERIES_\w+|INTERIOR_UUD_INDEC_DES", 5),
    # a wrong G makes D = zG wrong too, and the tally of D's words shows it
    ("_DES_321", r"SERIES_DES321_ORACLE|SERIES_B_PK231|INTERIOR_UUD_INDEC_DES",
     3),
])
def test_verify_checks_the_rows_of_each_dist_method(monkeypatch, fault,
                                                     checks, count):
    # every check that reads a series or closed-form row reads it through
    # the method table, so a fault planted in a route fails each of them and
    # no other check; so does a fault in the rows of G that one solve gives
    if fault in distributions.METHODS:
        route = distributions.METHODS[fault]
        monkeypatch.setitem(distributions.METHODS, fault, route._replace(
            rows=lambda name, ns, caps: _bump_top(route.rows(name, ns, caps))))
    else:
        solve = series._solve

        def bumped(equation, max_n):
            g, s = solve(equation, max_n)
            if equation is series._DES_321 and max_n >= 4:
                g[4] = (g[4][0] + 1, *g[4][1:])
            return g, s

        monkeypatch.setattr(series, "_solve", bumped)
    failed = [r.name for r in verify_all(7) if not r.passed]
    assert failed == [name for name in distributions.checks()
                      if re.fullmatch(checks, name)]
    assert len(failed) == count


def test_every_series_and_closed_form_row_a_check_reads_takes_the_cap(
        monkeypatch):
    # under series cap 5 at max_n = 9, each check that reads a series or
    # closed-form row refuses degree 6 before it solves or evaluates one,
    # and every other check passes without a solve
    calls = []

    def record(module, fn):
        original = getattr(module, fn)
        monkeypatch.setattr(module, fn, lambda *args: (
            calls.append((fn, args[0])) or original(*args)))

    record(series, "_solve")
    record(formulas, "closed_form_row")
    caps = generate.Caps(series=5)
    refused = "series degree 6 exceeds series cap 5"
    outcomes = {}
    for name in distributions.checks():
        try:
            report, = verify_all(9, selection=name, caps=caps)
            outcomes[name] = "passed" if report.passed else report.failure
        except generate.CapExceededError as exc:
            outcomes[name] = str(exc)
    assert outcomes == {
        name: refused if re.fullmatch(
            r"FORMULA_\w+|SERIES_\w+|INTERIOR_UUD_INDEC_DES", name)
        else "passed" for name in distributions.checks()}
    assert list(outcomes.values()).count(refused) == 40
    assert calls == []


@pytest.mark.parametrize("name, max_n, caps, message", [
    ("SERIES_DES321_ORACLE", 15, generate.Caps(),
     "class size 15 exceeds cap 14"),
    ("INTERIOR_UUD_INDEC_DES", 400, generate.Caps(),
     "Dyck word size 15 exceeds cap 14"),
    # the indecomposables of n + 1 share the cap of the class at n
    ("INTERIOR_UUD_INDEC_DES", 400, generate.Caps(structured=5),
     "Dyck word size 6 exceeds cap 5"),
    ("SERIES_B_PK231", 400, generate.Caps(),
     "series degree 25 exceeds series cap 24"),
])
def test_a_check_refuses_a_capped_size_before_it_solves(monkeypatch, name,
                                                        max_n, caps, message):
    def solve(equation, degree):
        raise AssertionError(f"solved to degree {degree} before a cap check")

    monkeypatch.setattr(series, "_solve", solve)
    with pytest.raises(generate.CapExceededError, match=f"^{message}$"):
        verify_all(max_n, selection=name, caps=caps)


def test_each_closed_form_and_series_cell_has_one_entry():
    # a FORMULA_ check finds its formula by its (statistic, basis) cell
    specs = list(formulas.FORMULAS.values())
    assert len({(spec.stat, spec.basis) for spec in specs}) == len(specs) == 35
    assert all(formulas.formula_for(spec.stat, spec.basis) is spec
               for spec in specs)
    cells = [(stat, perms.parse_basis(text))
             for _, entry_cells in series.SERIES.values()
             for stat, text in entry_cells]
    assert len(set(cells)) == len(cells)


def test_wrapped_series_is_the_one_checked(monkeypatch):
    # the check looks its series up when it runs, so a wrapped series is seen
    orig = series.series_des_321

    def bumped(max_n):
        rows = [list(r) for r in orig(max_n).rows]
        rows[4][1] += 1
        return series.BivariateSeries(rows)

    monkeypatch.setattr(series, "series_des_321", bumped)
    report, = verify_all(6, selection="SERIES_DES321_ORACLE")
    assert (report.passed, report.checked) == (False, 7)
    assert report.failure == ("descent row at n=4: got {0: 1, 1: 12, 2: 2}, "
                              "expected {0: 1, 1: 11, 2: 2}")


def test_map_error_after_a_failure_keeps_the_first_failure(monkeypatch):
    # the pyramid's image 123 comes back reversed, so the avoidance
    # comparison fails and to_dyck_321 then raises on 321
    orig = bijections.from_dyck_321
    monkeypatch.setattr(bijections, "from_dyck_321",
                        lambda d: orig(d)[::-1] if d == "UUUDDD" else orig(d))
    report, = verify_all(5, selection="PSI321_TRANSPORT")
    assert not report.passed
    assert report.failure == "image avoids 321 for UUUDDD"
    # 8 words before the pyramid with 3 comparisons each, then the
    # pyramid's avoidance, peak and raising round-trip comparisons
    assert report.checked == 8 * 3 + 3


def test_map_error_is_reported_as_the_failure(monkeypatch):
    orig = bijections.uud_des_involution
    monkeypatch.setattr(bijections, "uud_des_involution",
                        lambda d: "UUD" if d == "UDUD" else orig(d))
    report, = verify_all(4, selection="IOTA_INVOLUTION")
    assert not report.passed
    assert report.failure == ("raised InvalidDyckError: unbalanced word "
                              "(position 3)")
    # two comparisons each for the empty word and UD, then the one raising
    assert report.checked == 5


# structured basis walked -> (a class of the same size listed for it alone,
# the name of the reference that tells the two apart)
_WALK_FAULTS = {
    "231": ("213", "Dyck words"),
    "321": ("123", "Dyck words"),
    "213,312": ("132,213", "complements of 132,231"),
    "132,213": ("213,312", "bit words"),
    "213,231": ("132,213", "bit words"),
    "123,132": ("213,312", "bit words"),
    "132,321": ("123,231", "complements of 123,312"),
}


@pytest.mark.parametrize(
    "walked", _WALK_FAULTS,
    ids=[f"{walked}-{listed}" for walked, (listed, _) in _WALK_FAULTS.items()])
def test_structured_check_catches_a_fault_in_the_catalan_walk(
        monkeypatch, walked):
    # a walk that lists a class of the right size for one structured basis
    # is told apart only by a reference that shares no rule with that walk
    listed, reference = _WALK_FAULTS[walked]
    basis, wrong = perms.parse_basis(walked), perms.parse_basis(listed)
    real = generate._walk

    def faulty(n, key):
        return real(n, wrong if key == basis else key)

    monkeypatch.setattr(generate, "_walk", faulty)
    report, = verify_all(6, selection="STRUCTURED_MATCHES_FILTER")
    assert not report.passed
    assert report.failure.startswith(
        f"structured vs {reference} for {walked} at n=3: got ")


def test_cap_and_size_errors_still_raise():
    with pytest.raises(generate.CapExceededError):
        verify_all(6, selection="CARD_SINGLE_CATALAN",
                   caps=generate.Caps(structured=5))
    with pytest.raises(ValueError, match="max_n must be nonnegative: -1"):
        verify_all(-1, selection="CARD_PAIRS")


def test_listed_indecomposables_keep_their_cap_on_n():
    # gen_indec checks semilength n itself, not the n - 1 it wraps
    with pytest.raises(generate.CapExceededError,
                       match="Dyck word size 6 exceeds cap 5"):
        verify_all(5, selection="INTERIOR_UUD_INDEC_DES",
                   caps=generate.Caps(structured=5))
    report, = verify_all(5, selection="INTERIOR_UUD_INDEC_DES",
                         caps=generate.Caps(structured=6))
    assert report.passed


def test_reports_json_shape():
    reports = verify_all(4, selection=["FORMULA_PK231", "IOTA_INVOLUTION"])
    blob = json.loads(distributions.reports_json(reports))
    assert blob["passed"] is True
    assert [r["name"] for r in blob["reports"]] == [
        "FORMULA_PK231", "IOTA_INVOLUTION"]
    assert set(blob["reports"][0]) == {"name", "max_n", "passed", "checked",
                                       "failure"}


def test_structured_route_checks_only_the_class_cap(monkeypatch):
    # the oracle counts a structured class and lists none of the words
    # that encode it
    def refuse(n, cap=None):
        raise AssertionError("the oracle listed a word")

    for name in ("gen_dyck", "gen_indec", "gen_bits"):
        monkeypatch.setattr(generate, name, refuse)
    for basis in ([(3, 2, 1)], [(1, 3, 2), (2, 1, 3)], [(1, 2, 3), (1, 3, 2)]):
        assert distribution("pk", basis, 6) == naive_dist("pk", 6, basis)
    with pytest.raises(generate.CapExceededError, match="class size 6"):
        distribution("pk", [(3, 2, 1)], 6, caps=generate.Caps(structured=5))


def test_cache_hit_does_not_skip_generation_cap():
    distribution("des", [(1, 3, 2)], 6)
    with pytest.raises(generate.CapExceededError):
        distribution("des", [(1, 3, 2)], 6, caps=generate.Caps(structured=5))


def _length3_bases():
    patterns = list(itertools.permutations((1, 2, 3)))
    return [basis for r in range(1, 7)
            for basis in itertools.combinations(patterns, r)]


def test_refused_sizes_follow_the_one_cap_rule():
    # class_size, gen_class, distribution and, for a basis of length-3
    # patterns, count_lengths refuse exactly the sizes above the cap of the
    # basis's kind, with its message, alone and after every class was read
    # to n = 7 in the same process: caps.structured for each of the 63
    # bases of length-3 patterns, whether in STRUCTURED or not, and
    # caps.perm for the n! scan of any other basis
    caps = generate.Caps(perm=5, structured=6)
    bases = _length3_bases() + [((2, 1, 4, 3),), ((1, 2), (2, 3, 1))]
    assert len(bases) == 65
    assert sum(key not in generate.STRUCTURED for key in bases[:63]) == 56
    for after_reads in (False, True):
        if after_reads:
            for key in bases:
                for n in range(8):
                    distribution("pk", key, n)
                    class_size(n, key)
        for i, key in enumerate(bases):
            if i < 63:
                cap, what = caps.structured, "class"
            else:
                cap, what = caps.perm, "permutation"
            calls = [lambda: class_size(n, key, caps),
                     lambda: generate.gen_class(n, key, caps),
                     lambda: distribution("pk", key, n, caps=caps)]
            if all(len(p) == 3 for p in key):
                calls.append(
                    lambda: generate.count_lengths(n, key, ["pk"], caps))
            for n in range(8):
                for call in calls:
                    if n <= cap:
                        call()
                        continue
                    with pytest.raises(
                            generate.CapExceededError,
                            match=f"^{what} size {n} exceeds cap {cap}$"):
                        call()


@pytest.mark.parametrize("name, top, message", [
    ("STRUCTURED_MATCHES_FILTER", 6, "class size 7 exceeds cap 6"),
    ("SERIES_B_PK231", 6, "Dyck word size 7 exceeds cap 6"),
    ("UUD_DES_EQUIDISTRIBUTION", 6, "Dyck word size 7 exceeds cap 6"),
    # it reads the indecomposables of n + 1 at n
    ("INTERIOR_UUD_INDEC_DES", 5, "Dyck word size 7 exceeds cap 6"),
    ("IOTA_INVOLUTION", 6, "Dyck word size 7 exceeds cap 6"),
    ("PSI321_TRANSPORT", 6, "Dyck word size 7 exceeds cap 6"),
    ("PSI_HAT_DES_TRANSPORT", 6, "Dyck word size 7 exceeds cap 6"),
    ("ENC_132_213_TRANSPORT", 6, "class size 7 exceeds cap 6"),
    ("ENC_213_231_TRANSPORT", 6, "class size 7 exceeds cap 6"),
    ("ENC_123_132_TRANSPORT", 6, "class size 7 exceeds cap 6"),
])
def test_listed_words_take_the_cap_of_the_class_they_encode(name, top,
                                                            message):
    # a Dyck word of semilength n and a bit word of length n - 1 encode a
    # class at n, so every check that lists them reads to caps.structured,
    # whatever caps.perm is
    caps = generate.Caps(perm=2, structured=6)
    report, = verify_all(top, selection=name, caps=caps)
    assert report.passed and report.max_n == top
    with pytest.raises(generate.CapExceededError, match=f"^{message}$"):
        verify_all(top + 1, selection=name, caps=caps)


# what each call raises at max_n = 400 under structured cap C, with C + 1
# and C in the braces, when it is not the class at C + 1: SERIES_B_PK231
# reads Dyck words to n = 10 and then series rows to max_n, so the message
# is given for each C, these checks read Dyck words first, and
# symmetry_check is called over 2143, which the n! scan lists
_REFUSALS = {
    "SERIES_B_PK231": {5: "Dyck word size 6 exceeds cap 5",
                       14: "series degree 25 exceeds series cap 24"},
    **dict.fromkeys(("UUD_DES_EQUIDISTRIBUTION", "INTERIOR_UUD_INDEC_DES",
                     "IOTA_INVOLUTION", "PSI321_TRANSPORT",
                     "PSI_HAT_DES_TRANSPORT"),
                    "Dyck word size {} exceeds cap {}"),
    "symmetry_check": "permutation size 11 exceeds cap 10",
}


@pytest.mark.parametrize("name", [*distributions.checks(), "symmetry_check"])
def test_checks_refuse_their_first_capped_size_before_any_work(monkeypatch,
                                                                name):
    # every check, and symmetry_check over a basis the n! scan lists, checks
    # every size it reads before it lists, counts or solves anything, so a
    # size far above the cap costs nothing
    calls = []

    def record(module, fn):
        original = getattr(module, fn)
        monkeypatch.setattr(module, fn, lambda *args, **kwargs: (
            calls.append((fn, args[0])) or original(*args, **kwargs)))

    for fn in ("gen_class", "gen_dyck", "gen_bits", "gen_all",
               "count_lengths"):
        record(generate, fn)
    record(series, "_solve")
    bound = distributions._CHECKS.get(name, (None, None))[1]
    for cap in (5, 14):
        if bound is not None and bound <= cap:
            continue  # the check's bound keeps it within the cap
        caps = generate.Caps(structured=cap)
        message = _REFUSALS.get(name, "class size {} exceeds cap {}")
        if isinstance(message, dict):
            message = message[cap]
        with pytest.raises(generate.CapExceededError,
                           match=f"^{message.format(cap + 1, cap)}$"):
            if name == "symmetry_check":
                symmetry_check("pk_vl", [(2, 1, 4, 3)], "r", 400, caps=caps)
            else:
                verify_all(400, selection=name, caps=caps)
    assert calls == []


def _per_n_rows(stat, key, ns, method):
    # {n: row} by one distribution call per n, or the first error raised
    rows = {}
    for n in ns:
        try:
            rows[n] = distribution(stat, key, n, method)
        except ValueError as exc:
            return exc
    return rows


def test_dist_table_passes_a_range_on_unlisted(monkeypatch):
    seen = []
    monkeypatch.setitem(distributions.METHODS, "oracle",
                        distributions.METHODS["oracle"]._replace(
                            rows=lambda name, ns, caps:
                            seen.append(ns) or {}))
    ns = range(10 ** 6)
    dist_table("pk", [(2, 3, 1)], ns)
    dist_table("pk", [(2, 3, 1)], iter([3, 4]))
    assert seen[0] is ns and seen[1] == [3, 4]


def test_dist_table_equals_per_n_rows():
    # one call per range gives what one call per length gives, row for row
    # or the same first error, for every method on all 72 cells; every
    # closed form is stated for n >= 1, so range(10) compares its error
    # and range(3, 10) its rows
    answered = {ns: dict.fromkeys(distributions.METHODS, 0)
                for ns in (range(10), range(3, 10))}
    for text in distributions._SINGLE_BASES + distributions._PAIR_BASES:
        key = perms.parse_basis(text)
        for stat, method, ns in itertools.product(
                stats.STATS, distributions.METHODS, answered):
            want = _per_n_rows(stat, key, ns, method)
            if isinstance(want, Exception):
                with pytest.raises(type(want), match=re.escape(str(want))):
                    dist_table(stat, key, ns, method)
                continue
            answered[ns][method] += 1
            table = dist_table(stat, key, ns, method)
            assert table.rows == want
            assert list(table.rows) == list(ns)
    assert answered == {
        range(10): {"oracle": 72, "closed_form": 0, "series": 16},
        range(3, 10): {"oracle": 72, "closed_form": 38, "series": 16}}


def _routed_rows(stat, key, method, caps):
    # {n: row} for each n <= 12 the method answers, or None for a cell it
    # does not support
    rows = {}
    for n in range(13):
        try:
            rows[n] = distribution(stat, key, n, method, caps)
        except formulas.FormulaDomainError:
            continue
        except UnsupportedMethodError:
            return None
    return rows


def test_every_routed_cell_equals_the_oracle():
    # each cell of a one- or two-pattern basis that a route answers, itself
    # or through an r/c/rc image, the asc/des swap or pk(312) = pk(321),
    # gives the oracle's rows; every closed form is stated from n = 3 on
    caps = generate.Caps()
    answered = dict.fromkeys(("closed_form", "series"), 0)
    for key in _length3_bases():
        if len(key) > 2:
            continue
        for stat in stats.STATS:
            oracle = dist_table(stat, key, range(13), caps=caps).rows
            for method in answered:
                rows = _routed_rows(stat, key, method, caps)
                if rows is None:
                    continue
                answered[method] += 1
                assert set(range(3, 13)) <= set(rows), (stat, key, method)
                assert rows == {n: oracle[n] for n in rows}, (stat, key,
                                                              method)
    assert answered == {"closed_form": 88, "series": 20}


def test_oracle_rows_do_not_read_stat_image(monkeypatch):
    # the symmetry checks test STAT_IMAGE on oracle rows, so those rows
    # must not come through it
    keys = [key for key in _length3_bases() if len(key) <= 2]
    want = [dist_table(stat, key, range(8)).rows
            for key in keys for stat in stats.STATS]
    rotated = dict(zip(stats.STATS, stats.STATS[1:] + stats.STATS[:1]))
    monkeypatch.setattr(stats, "STAT_IMAGE",
                        {t: rotated for t in stats.STAT_IMAGE})
    assert [dist_table(stat, key, range(8)).rows
            for key in keys for stat in stats.STATS] == want


def test_each_wrong_stat_image_entry_fails_a_symmetry_check(monkeypatch):
    # all 90 wrong entries: 3 transforms, 6 statistics, 5 wrong images each
    names = [f"SYMMETRY_{family.upper()}"
             for family in distributions._FAMILIES]
    planted = 0
    for t, images in stats.STAT_IMAGE.items():
        for stat, image in images.items():
            for wrong in stats.STATS:
                if wrong == image:
                    continue
                with monkeypatch.context() as patch:
                    patch.setitem(stats.STAT_IMAGE[t], stat, wrong)
                    reports = verify_all(5, selection=names)
                assert not all(r.passed for r in reports), (t, stat, wrong)
                planted += 1
    assert planted == 90


def test_closed_form_refuses_above_the_series_cap_before_a_row(monkeypatch):
    def row(fid, n):
        raise AssertionError(f"row {n} of {fid} before a cap check")

    monkeypatch.setattr(formulas, "closed_form_row", row)
    with pytest.raises(generate.CapExceededError,
                       match="^series degree 25 exceeds series cap 24$"):
        dist_table("pk", [(2, 3, 1)], range(1, 2001), "closed_form")
    with pytest.raises(generate.CapExceededError,
                       match="^series degree 6 exceeds series cap 5$"):
        dist_table("pk", [(2, 3, 1)], [6], "closed_form",
                   generate.Caps(series=5))


def test_series_method_follows_the_series_cap():
    caps = generate.Caps(series=5)
    assert (distribution("des", [(3, 2, 1)], 5, method="series", caps=caps)
            == naive_dist("des", 5, [(3, 2, 1)]))
    with pytest.raises(generate.CapExceededError,
                       match="^series degree 6 exceeds series cap 5$"):
        distribution("des", [(3, 2, 1)], 6, method="series", caps=caps)


def _tally_by_member(members):
    # the tally through the one-statistic definitions, member by member
    rows = {s: {} for s in stats.STATS}
    for p in members:
        for s in stats.STATS:
            v = stats.stat(s, p)
            rows[s][v] = rows[s].get(v, 0) + 1
    return rows


def test_tally_by_word_matches_tally_by_member():
    # equal rows, each with its keys in increasing order
    cases = [itertools.permutations(range(1, n + 1)) for n in range(9)]
    cases += [generate.gen_class(n, key)
              for key in generate.STRUCTURED for n in range(11)]
    for members in cases:
        members = list(members)
        got = distributions._tally(members)
        assert got == _tally_by_member(members)
        assert all(list(row) == sorted(row) for row in got.values())


def test_oracle_lists_only_the_classes_it_does_not_count(monkeypatch):
    # every basis of length-3 patterns is counted, the structured pairs
    # too; listing goes through gen_class, so its calls name the listed
    # bases
    listed = []
    real = generate.gen_class

    def spy(n, basis, caps=generate.Caps()):
        listed.append(perms.normalize_basis(basis))
        return real(n, basis, caps)

    monkeypatch.setattr(generate, "gen_class", spy)
    bases = _length3_bases() + [((1, 2), (2, 3, 1)), ((2, 1, 4, 3),)]
    for key in bases:
        assert distribution("pk", key, 5) == naive_dist("pk", 5, key)
    assert listed == [((1, 2), (2, 3, 1)), ((2, 1, 4, 3),)]


def test_verify_counts_each_class_once_to_max_n(monkeypatch):
    # one pass per (basis, max_n): the rows of n = 0..7 do not come from
    # one cache miss and one pass per n
    # with all six statistics asked at once
    passes = []
    real = generate.count_lengths

    def spy(max_n, basis, stats_asked, caps=generate.Caps()):
        passes.append((perms.normalize_basis(basis), max_n))
        assert tuple(stats_asked) == stats.STATS
        return real(max_n, basis, stats_asked, caps)

    monkeypatch.setattr(generate, "count_lengths", spy)
    assert all(r.passed for r in verify_all(7))
    assert passes and {max_n for _, max_n in passes} == {7}
    assert len(passes) == len(set(passes))


def test_verify_lists_and_maps_each_dyck_word_once(monkeypatch):
    # one listing per run: every semilength is listed once, and each word
    # goes through each inverse map at most once, whichever checks read it
    listed, mapped = [], {"231": [], "321": []}
    real_dyck = generate.gen_dyck

    def spy_dyck(n, cap=None):
        listed.append(n)
        return real_dyck(n, cap)

    monkeypatch.setattr(generate, "gen_dyck", spy_dyck)
    for tag, words in mapped.items():
        real = getattr(bijections, f"from_dyck_{tag}")
        monkeypatch.setattr(bijections, f"from_dyck_{tag}",
                            lambda d, real=real, words=words:
                            words.append(d) or real(d))
    assert all(r.passed for r in verify_all(7))
    assert sorted(listed) == list(range(8))
    every_word = sum(formulas.catalan(n) for n in range(8))
    for words in mapped.values():
        assert len(words) == len(set(words)) == every_word == 626


def test_a_check_reports_alike_alone_and_among_all():
    # what one check reads from its run's listing or rows does not depend
    # on which checks ran before it
    together = {r.name: r.to_dict() for r in verify_all(7)}
    registry = distributions.checks()
    assert list(together) == list(registry)
    for name, report in together.items():
        assert verify_all(7, selection=name)[0].to_dict() == report
        assert registry[name](7, generate.Caps()).to_dict() == report


def test_no_listing_outlives_its_run(monkeypatch):
    assert all(r.passed for r in verify_all(7))
    orig = bijections.from_dyck_321
    monkeypatch.setattr(bijections, "from_dyck_321",
                        lambda d: orig(d)[::-1] if d == "UUUDDD" else orig(d))
    report, = verify_all(5, selection="PSI321_TRANSPORT")
    assert not report.passed
    assert report.failure == "image avoids 321 for UUUDDD"


def test_report_formats_a_label_only_on_its_first_failure():
    formatted = []

    class Arg:
        def __format__(self, spec):
            formatted.append(spec)
            return "arg"

    report = distributions.VerifyReport("X", 0)
    report.eq(1, 1, "at {}", Arg())
    report.ok(True, "at {}", Arg())
    assert formatted == [] and report.passed
    report.eq(1, 2, "at {}", Arg())
    report.ok(False, "at {}", Arg())
    assert (report.failure, report.checked) == ("at arg: got 1, expected 2", 4)
    assert formatted == [""]
    # a label without arguments is taken as it stands, braces and all
    plain = distributions.VerifyReport("Y", 0)
    plain.ok(False, "not a word over {0,1}")
    assert plain.failure == "not a word over {0,1}"


def test_a_tuple_label_keeps_its_text(monkeypatch):
    # the failure string is the one the eagerly formatted labels gave
    orig = bijections.rewrite_321_to_312
    monkeypatch.setattr(
        bijections, "rewrite_321_to_312",
        lambda p: orig(p)[::-1] if len(p) == 4 and p[0] == 2 else orig(p))
    report, = verify_all(6, selection="ZETA_PROPERTIES")
    assert (report.passed, report.checked) == (False, 788)
    assert report.failure == ("round trip for (2, 1, 3, 4): "
                              "got (4, 3, 1, 2), expected (2, 1, 3, 4)")


def test_a_range_counts_once_and_refuses_its_first_capped_n(monkeypatch):
    # one pass serves a range, and each call makes its own, for the one
    # statistic asked; a range that crosses a cap fails at its first
    # refused n, before any pass
    passes = []
    real = generate.count_lengths
    monkeypatch.setattr(generate, "count_lengths",
                        lambda max_n, basis, stats_asked, caps:
                        passes.append((max_n, tuple(stats_asked)))
                        or real(max_n, basis, stats_asked, caps))
    key = [(2, 1, 3), (3, 1, 2)]
    table = dist_table("pk", key, range(3, 13))
    assert passes == [(12, ("pk",))]
    assert [sum(row.values()) for row in table.rows.values()] == [
        2 ** (n - 1) for n in range(3, 13)]
    assert dist_table("vl", key, range(7)).rows == {
        n: naive_dist("vl", n, key) for n in range(7)}
    assert passes == [(12, ("pk",)), (6, ("vl",))]
    with pytest.raises(generate.CapExceededError,
                       match="^class size 15 exceeds cap 14$"):
        dist_table("pk", key, range(10, 16))
    with pytest.raises(generate.CapExceededError,
                       match="^class size 15 exceeds cap 14$"):
        dist_table("asc", [(1, 3, 2)], range(16))
    with pytest.raises(generate.CapExceededError,
                       match="^permutation size 11 exceeds cap 10$"):
        dist_table("asc", [(2, 1, 4, 3)], range(12))
    assert passes == [(12, ("pk",)), (6, ("vl",))]


def test_rows_do_not_depend_on_which_statistic_is_read_first():
    # read in either order, or counted alone as a dist row is, each row and
    # its key order are the same, keys in increasing order on a counted and
    # on a listed basis alike
    cases = [(key, 8) for key in _length3_bases()] + [(((2, 1, 4, 3),), 7)]
    for key, top in cases:
        seen = []
        for order in (stats.STATS, stats.STATS[::-1]):
            run = distributions._Run(generate.Caps(), top)
            rows = {s: {n: run.rows(key, n)[s] for n in range(top + 1)}
                    for s in order}
            seen.append({s: {n: list(row.items()) for n, row in rows[s].items()}
                         for s in stats.STATS})
        assert seen[0] == seen[1], key
        for s in stats.STATS:
            alone = distributions._Run(generate.Caps(), top, (s,))
            for n in range(top + 1):
                assert list(alone.rows(key, n)[s].items()) == seen[0][s][n], (
                    key, s, n)
                assert [k for k, _ in seen[0][s][n]] == sorted(
                    k for k, _ in seen[0][s][n]), (key, s, n)


def _bump_count(monkeypatch, text, n, stat):
    # count_lengths with one more member in one count of the row of
    # ``stat`` over basis ``text`` at length n
    key, real = perms.parse_basis(text), generate.count_lengths

    def bumped(max_n, basis, stats_asked, caps=generate.Caps()):
        counted = real(max_n, basis, stats_asked, caps)
        if (perms.normalize_basis(basis) == key and n <= max_n
                and stat in counted):
            row = counted[stat][n]
            row[min(row)] += 1
        return counted

    monkeypatch.setattr(generate, "count_lengths", bumped)


def test_a_dist_table_reads_no_rows_an_earlier_call_counted(monkeypatch):
    # a count changed after one call shows in the next call's rows, with
    # nothing cleared in between
    key = perms.parse_basis("231")
    before = dist_table("pk", key, range(8)).rows
    _bump_count(monkeypatch, "231", 5, "pk")
    after = dist_table("pk", key, range(8)).rows
    assert sum(after[5].values()) == sum(before[5].values()) + 1
    assert {n: row for n, row in after.items() if n != 5} == {
        n: row for n, row in before.items() if n != 5}


def test_a_verify_run_reads_no_rows_an_earlier_run_counted(monkeypatch):
    report, = verify_all(6, selection="PK_312_EQ_321")
    assert report.passed
    _bump_count(monkeypatch, "312", 4, "pk")
    report, = verify_all(6, selection="PK_312_EQ_321")
    assert not report.passed
    assert report.failure.startswith("peak rows at n=4: ")


def _container_sizes(module):
    return {name: len(value) for name, value in vars(module).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))}


def test_engine_calls_leave_the_module_as_they_found_it():
    # no verify run or dist range keeps anything in a module-level dict,
    # list or set, for a listed basis (12, 321) and a counted one (123,
    # 231) alike
    before = _container_sizes(distributions)
    assert all(r.passed for r in verify_all(7))
    dist_table("pk", [(1, 2), (3, 2, 1)], range(7))
    dist_table("vl", [(1, 2, 3), (2, 3, 1)], range(11))
    assert _container_sizes(distributions) == before


def test_clear_caches_changes_no_row():
    # it stays callable, and with nothing kept between calls it has
    # nothing to clear
    before = dist_table("pk", [(2, 3, 1)], range(8)).rows
    assert distributions.clear_caches() is None
    assert dist_table("pk", [(2, 3, 1)], range(8)).rows == before
