"""Spans around macgame's entry points, recorded from the benchmark's own files.

The modules import each other's functions by name, so each entry point is
wrapped at every name a caller resolves (for example `feasible_rows` in
capacity, game, evolution and dynamics). Spans carry a name, the module
the function belongs to, a size tag, start, end and parent; they stay in
memory and are written out when the run ends. Nothing under src/ changes.
"""
from __future__ import annotations

import gzip
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


def _view_m(a):
    return a[0].m


# (module, function or Class.method, tag of the call's size)
ENTRIES = [
    ("capacity", "build_view", lambda a: a[0].m),
    ("capacity", "is_feasible", _view_m),
    ("capacity", "feasible_rows", lambda a: (a[0].m, len(a[1]))),
    ("capacity", "max_face_residual", _view_m),
    ("capacity", "sample_max_face", _view_m),
    ("capacity", "face_vertices", _view_m),
    ("capacity", "subset_sums", None),
    ("capacity", "capacity_of", None),
    ("capacity", "safe_rate", None),
    ("game", "best_response", _view_m),
    ("game", "is_nash", _view_m),
    ("game", "is_strong_equilibrium", _view_m),
    ("game", "is_pareto_optimal", _view_m),
    ("game", "efficiency_metrics", _view_m),
    ("game", "payoff", _view_m),
    ("game", "potential", _view_m),
    ("game", "Utility.__call__", None),
    ("selection", "normalized_equilibrium", _view_m),
    ("selection", "goodman_certificate", _view_m),
    ("evolution", "ess_check", _view_m),
    ("evolution", "expected_payoff", _view_m),
    ("evolution", "expected_payoff_mc", _view_m),
    ("evolution", "region_mass", _view_m),
    ("evolution", "mixed_feasible", _view_m),
    ("evolution", "PopulationState.replace_masses", lambda a: a[0].n),
    ("dynamics", "simulate", _view_m),
    ("dynamics", "PayoffTable.__init__", lambda a: (a[1].m, len(a[3]))),
    ("dynamics", "PayoffTable.payoffs", lambda a: (a[0].m, a[0].grid.size)),
    ("dynamics", "_payoff_vector", _view_m),
    ("dynamics", "_flow", lambda a: a[1].kind),
    ("dynamics", "euler_update", lambda a: len(a[0])),
    ("dynamics", "velocity", _view_m),
    ("dynamics", "rest_point_residual", _view_m),
    ("scenario", "parse_scenario", None),
    ("scenario", "build_model", None),
    ("scenario", "build_utility", None),
    ("scenario", "build_protocol", None),
    ("cli", "main", None),
    ("cli", "_write_trace", None),
    ("cli", "_write_state", None),
]


class Tracer:
    """Span recorder; `install` wraps the entry points, `restore` undoes it."""

    def __init__(self):
        self.spans = []       # [name, module, tag, start, end, parent]
        self._stack = [-1]
        self._undo = []

    def _wrap(self, fn, name, module, tagf):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            tag = None
            if tagf is not None:
                try:
                    tag = tagf(args)
                except (AttributeError, IndexError, TypeError):
                    pass
            rec = [name, module, tag, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import macgame
        mods = [macgame] + [sys.modules[f"macgame.{n}"] for n in
                            ("capacity", "game", "selection", "evolution",
                             "dynamics", "scenario", "cli")]
        for modname, attr, tagf in ENTRIES:
            mod = sys.modules[f"macgame.{modname}"]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, modname, tagf))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name, modname, tagf)
            for owner in mods:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        self._undo.append((owner, key, orig))
                        setattr(owner, key, wrapper)

    def restore(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    @contextmanager
    def span(self, name, module="bench"):
        rec = [name, module, None, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = perf_counter()
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    # -- aggregation -------------------------------------------------------
    def self_times(self) -> list:
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[5] >= 0:
                own[s[5]] -= s[4] - s[3]
        return own

    def module_self_s(self) -> dict:
        out = {}
        for s, own in zip(self.spans, self.self_times()):
            out[s[1]] = out.get(s[1], 0.0) + own
        return out

    def durations(self, name, tag=..., working=False) -> list:
        """Span durations; `working` keeps only calls that reached a traced callee."""
        parents = {s[5] for s in self.spans} if working else None
        return [s[4] - s[3] for i, s in enumerate(self.spans)
                if s[0] == name and (tag is ... or s[2] == tag)
                and (not working or i in parents)]

    def median(self, name, tag=..., scale=1.0, working=False):
        d = self.durations(name, tag, working)
        return statistics.median(d) * scale if d else 0.0

    def total(self, name, tag=...):
        return sum(self.durations(name, tag))

    def share_under(self, root: str, child: str) -> tuple:
        """(share of `root` span time spent in `child` spans below it, root seconds)."""
        roots = [i for i, s in enumerate(self.spans) if s[0] == root]
        base = sum(self.spans[i][4] - self.spans[i][3] for i in roots)
        inside = 0.0
        for s in self.spans:
            if s[0] == child:
                p = s[5]
                while p >= 0 and self.spans[p][0] != root:
                    p = self.spans[p][5]
                if p >= 0:
                    inside += s[4] - s[3]
        return (inside / base if base else 0.0), base

    def write(self, path: str, section: str, mode: str = "at"):
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, mode) as fh:
            if mode.startswith("w"):
                fh.write("section,id,parent,name,tag,start_us,end_us\n")
            for i, (name, _mod, tag, start, end, parent) in enumerate(self.spans):
                fh.write(f"{section},{i},{parent},{name},{str(tag).replace(',', ';')},"
                         f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")
