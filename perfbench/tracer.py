"""Tracer for the benchmark's traced run.

The tracer wraps public functions of ``patternstats`` at every module
attribute that holds them, so a call is seen whichever namespace its caller
looks the function up in.  Nothing is wrapped until :meth:`Tracer.install`
runs, and :meth:`Tracer.uninstall` puts every original back.

Work is attributed to *sites*.  A site counts calls, items yielded (for
generators), failed calls, busy time and self time:

* busy time is the inclusive time of the outermost calls of the site, so
  nested or recursive calls into the same site are not counted twice;
* self time is the part of that time not covered by another site called
  from within it.

Hot leaf functions (``all_stats``, ``avoids_all``, ``contains``) are only
counted.  Checks, dist jobs, series expansions and round trips are also
recorded as spans with parent ids; spans stay in memory until the run ends.
Iterators are timed across their consumption: every ``next`` counts towards
the site of the function that returned the iterator.

A site's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import dataclasses
import sys
import types
from contextlib import contextmanager
from time import perf_counter


class Site:
    __slots__ = ("name", "calls", "items", "failed", "busy", "self_s", "depth")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.items = 0
        self.failed = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.depth = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# (module, function names, site) for every wrapped call; the module is the
# one that defines the functions.
_CALL_SITES = (
    ("perms", ("avoids_all",), "perms.avoids_all"),
    ("perms", ("contains",), "perms.contains"),
    ("stats", ("all_stats",), "stats.all_stats"),
    ("dyck", ("check_dyck", "parse_dyck", "factor_count", "uud_count",
              "interior_uud_count", "decompose", "reverse_path",
              "is_indecomposable", "heights"), "dyck"),
    ("bijections", ("to_dyck_231", "to_dyck_321", "to_indec_dyck_321",
                    "rewrite_312_to_321", "uud_des_involution",
                    "encode_132_213", "encode_213_231", "encode_123_132"),
     "bijections.forward"),
    ("bijections", ("from_dyck_231", "from_dyck_321", "rewrite_321_to_312",
                    "decode_132_213", "decode_213_231", "decode_123_132"),
     "bijections.inverse"),
    ("formulas", ("binom", "catalan", "closed_form", "closed_form_row",
                  "formula_for"), "formulas"),
    ("cli", ("main",), "cli.main"),
)

_ITER_SITES = (
    ("gen_all", "generate.all"),
    ("gen_dyck", "generate.dyck"),
    ("gen_bits", "generate.bits"),
    ("gen_indec", "generate.indec"),
)

_SERIES_SITES = (
    ("series_des_321", "series.des321"),
    ("series_pk_321", "series.pk321"),
    ("series_indec_uud", "series.B"),
    ("series_indec_interior_uud", "series.D"),
    ("series_ddes_132_213", "series.ddes132213"),
)

_DISTRIBUTIONS_API = ("verify_all", "dist_table", "distribution", "class_size",
                      "symmetry_check", "transform_basis", "reports_json")


class Tracer:
    def __init__(self):
        self.sites: dict[str, Site] = {}
        self.spans: list[list] = []   # [id, parent id, name, start_s, end_s]
        self.origin = perf_counter()
        self._child = [0.0]           # time covered by children, per open frame
        self._open_spans: list[int | None] = [None]
        self._undo: list[tuple] = []

    # -- accounting -------------------------------------------------------

    def site(self, name: str) -> Site:
        s = self.sites.get(name)
        if s is None:
            s = self.sites[name] = Site(name)
        return s

    def reset(self) -> None:
        """Zero every counter in place, keeping the spans."""
        for s in self.sites.values():
            s.calls = s.items = s.failed = 0
            s.busy = s.self_s = 0.0

    def _enter(self, site: Site) -> float:
        site.depth += 1
        self._child.append(0.0)
        return perf_counter()

    def _leave(self, site: Site, t0: float) -> None:
        dur = perf_counter() - t0
        child = self._child.pop()
        self._child[-1] += dur
        site.self_s += dur - child
        site.depth -= 1
        if not site.depth:
            site.busy += dur

    @contextmanager
    def span(self, name: str, site_name: str):
        """Record a span and charge its time to a site."""
        site = self.site(site_name)
        record = [len(self.spans), self._open_spans[-1], name, None, None]
        self.spans.append(record)
        self._open_spans.append(record[0])
        site.calls += 1
        t0 = self._enter(site)
        try:
            yield
        finally:
            self._leave(site, t0)
            record[3] = t0 - self.origin
            record[4] = perf_counter() - self.origin
            self._open_spans.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, fn, site_name: str, on_result=None):
        site = self.site(site_name)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            site.calls += 1
            t0 = enter(site)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                site.failed += 1
                raise
            finally:
                leave(site, t0)
            if on_result is not None:
                on_result(site, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_iter(self, it, site: Site):
        enter, leave = self._enter, self._leave
        while True:
            t0 = enter(site)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                leave(site, t0)
            site.items += 1
            yield item

    def _wrap_iter(self, fn, site_for):
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            site = self.site(site_for(*args, **kwargs))
            site.calls += 1
            t0 = enter(site)
            try:
                it = iter(fn(*args, **kwargs))
            except Exception:
                site.failed += 1
                raise
            finally:
                leave(site, t0)
            return self._timed_iter(it, site)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_span(self, fn, name: str, site_name: str):
        def wrapper(*args, **kwargs):
            with self.span(name, site_name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every loaded patternstats module."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        from patternstats import distributions, formulas, generate, perms, series

        mods = {name.rsplit(".", 1)[-1]: m for name, m in sys.modules.items()
                if name.startswith("patternstats.")}
        wrappers: dict = {}
        for mod, names, site_name in _CALL_SITES:
            for name in names:
                fn = getattr(mods[mod], name)
                wrappers[fn] = self._wrap_call(fn, site_name)
        for name, site_name in _ITER_SITES:
            fn = getattr(generate, name)
            wrappers[fn] = self._wrap_iter(fn, lambda *a, _s=site_name, **k: _s)

        def class_site(n, basis, method="auto", cap=None):
            # resolve "auto" the way gen_class does; only sequences are
            # inspected, so a one-shot iterable reaches gen_class unconsumed
            if method == "auto" and isinstance(basis, (tuple, list)):
                try:
                    key = perms.normalize_basis(basis)
                except ValueError:
                    key = None
                method = "structured" if key in generate.STRUCTURED else "filter"
            return "generate.structured" if method == "structured" else "generate.filter"

        wrappers[generate.gen_class] = self._wrap_iter(generate.gen_class, class_site)

        def count_coeffs(site, result):
            site.items += sum(len(row) for row in result.rows)

        for name, site_name in _SERIES_SITES:
            fn = getattr(series, name)
            wrappers[fn] = self._wrap_call(fn, site_name, count_coeffs)
        for name in _DISTRIBUTIONS_API:
            fn = getattr(distributions, name)
            wrappers[fn] = self._wrap_call(fn, f"distributions.{name}")

        checks = distributions.checks

        def traced_checks():
            return {name: self._wrap_span(fn, name, f"distributions.check.{name}")
                    for name, fn in checks().items()}

        wrappers[checks] = traced_checks

        for m in [sys.modules["patternstats"], *mods.values()]:
            for attr, value in list(vars(m).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._undo.append((vars(m), attr, value))
                    setattr(m, attr, wrappers[value])

        # the FORMULA_* checks call each registered evaluator directly
        table = formulas.FORMULAS
        for fid, spec in list(table.items()):
            self._undo.append((table, fid, spec))
            table[fid] = dataclasses.replace(
                spec, fn=self._wrap_call(spec.fn, "formulas"))

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            namespace[key] = original

    # -- reports ----------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.sites.values():
            out[s.layer] = out.get(s.layer, 0.0) + s.self_s
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the counters as they stand."""
        s = self.sites.get
        empty = Site("")

        def get(name):
            return s(name) or empty

        filt, struct = get("generate.filter"), get("generate.structured")
        tested = get("generate.all").items
        fwd, inv = get("bijections.forward"), get("bijections.inverse")
        layer = self.layer_self()
        out = {
            "perms.avoids_all.calls": get("perms.avoids_all").calls,
            "perms.avoids_all.busy_s": get("perms.avoids_all").busy,
            "perms.filter.accept_ratio": filt.items / tested if tested else 0.0,
            "perms.contains.calls": get("perms.contains").calls,
            "perms.contains.busy_s": get("perms.contains").busy,
            "stats.all_stats.calls": get("stats.all_stats").calls,
            "stats.all_stats.busy_s": get("stats.all_stats").busy,
            "generate.filter.members": filt.items,
            "generate.filter.busy_s": filt.busy,
            "generate.structured.members": struct.items,
            "generate.structured.busy_s": struct.busy,
            "generate.structured.self_s": struct.self_s,
            "generate.dyck.words": get("generate.dyck").items,
            "generate.bits.words": get("generate.bits").items,
            "bijections.forward.calls": fwd.calls,
            "bijections.forward.busy_s": fwd.busy,
            "bijections.inverse.calls": inv.calls,
            "bijections.inverse.busy_s": inv.busy,
            "bijections.failed": fwd.failed + inv.failed,
            "dyck.calls": get("dyck").calls,
            "dyck.busy_s": get("dyck").busy,
            "series.coeffs": sum(get(n).items for _, n in _SERIES_SITES),
            "formulas.calls": get("formulas").calls,
            "formulas.busy_s": get("formulas").busy,
            "distributions.enumerations": filt.calls + struct.calls,
            "distributions.members": filt.items + struct.items,
            "distributions.self_s": layer.get("distributions", 0.0),
            "cli.main.busy_s": get("cli.main").busy,
            "cli.self_s": layer.get("cli", 0.0),
        }
        for _, site_name in _SERIES_SITES:
            out[f"{site_name}.busy_s"] = get(site_name).busy
        for name, site in self.sites.items():
            if name.startswith("distributions.check."):
                out[f"{name}.busy_s"] = site.busy
        return out

    def table(self) -> str:
        """Per-layer and per-site table of the counters, by self time."""
        rows = sorted(self.sites.values(), key=lambda x: -x.self_s)
        layer = self.layer_self()
        total = sum(layer.values()) or 1.0
        lines = [f"{'layer':<14}{'self_s':>10}{'share':>8}"]
        for name, t in sorted(layer.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:<14}{t:>10.4f}{t / total:>8.1%}")
        lines.append("")
        lines.append(f"{'site':<52}{'calls':>9}{'items':>10}{'busy_s':>10}"
                     f"{'self_s':>10}")
        for x in rows:
            if x.calls:
                lines.append(f"{x.name:<52}{x.calls:>9}{x.items:>10}"
                             f"{x.busy:>10.4f}{x.self_s:>10.4f}")
        return "\n".join(lines)
