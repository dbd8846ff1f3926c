"""Wrapper-based span recorder for the traced benchmark run.

Tracer.install() wraps the public functions and methods of every traced
divcurl module, plus the internals the per-layer metrics name, and
rebinds each wrapper in every divcurl namespace that holds the original
(operators, forms and inequalities import helpers such as
perm_sign_between by name).  numpy's fftn/ifftn are wrapped too and
counted in the gridfield layer: during the timed ops only divcurl calls
them.  Nothing under src/ changes.

Every wrapped call adds to per-function call counts, inclusive time and
self time (duration minus the time covered by wrapped children).  Calls
of at least SPAN_MIN_S are also kept as spans (id, parent id, name,
start, end, op id) and written out at the end; shorter calls are only
aggregated, which bounds memory when a primitive runs millions of times.
A kept span's parent lasted at least as long, so it is kept as well.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

LAYERS = ("multiindex", "trigpoly", "operators", "gridfield", "forms",
          "symbol", "inequalities", "verify", "cli")
# private names wrapped in addition to the public ones
INTERNALS = {
    "operators": ("_t_table", "_tstar_table", "_apply_table",
                  "_tensor_by_summation", "_star_conjugate"),
    "gridfield": ("_deriv_multiplier",),
    "forms": ("_fourier_eval",),
    "cli": ("_emit",),
}
# dunder methods wrapped (the rest, such as __eq__ and __hash__, are
# dictionary plumbing)
DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__",
           "__neg__")
FFT = ("fftn", "ifftn")
SPAN_MIN_S = 1e-4


def divcurl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "divcurl" or name.startswith("divcurl."))
            and m is not None]


def rebind(original, replacement) -> int:
    """Point every divcurl module attribute bound to original at
    replacement; returns the number of bindings changed."""
    changed = 0
    for mod in divcurl_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed += 1
    return changed


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}          # name -> [calls, inclusive s, self s]
        self.counters = {}
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.op_id = 0
        self._op = None
        self._undo = []
        self._caches = {}

    # ---- installation --------------------------------------------------

    def install(self):
        import divcurl  # noqa: F401  (loads every module)

        for layer in LAYERS:
            mod = sys.modules[f"divcurl.{layer}"]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") and attr not in INTERNALS.get(layer, ()):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, type):
                    self._wrap_class(value, layer)
                elif callable(value):
                    if hasattr(value, "cache_info"):
                        self._caches[attr] = value
                    wrapper = self._wrap(value, f"{layer}.{attr}")
                    rebind(value, wrapper)
                    self._undo.append(functools.partial(rebind, wrapper, value))
        for attr in FFT:
            original = getattr(np.fft, attr)
            setattr(np.fft, attr,
                    self._wrap(original, f"numpy.fft.{attr}"))
            self._undo.append(functools.partial(setattr, np.fft, attr, original))

    def uninstall(self):
        for undo in reversed(self._undo):
            undo()
        self._undo = []

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            kind = type(raw) if isinstance(raw, (classmethod,
                                                 staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not callable(fn) or isinstance(fn, type):
                continue
            wrapper = self._wrap(fn, f"{layer}.{cls.__name__}.{attr}")
            setattr(cls, attr, kind(wrapper) if kind else wrapper)
            self._undo.append(functools.partial(setattr, cls, attr, raw))

    def _wrap(self, fn, name):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            tracer.next_id += 1
            node = [tracer.next_id, 0.0]
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - node[1]
                parent = stack[-1]
                parent[1] += dur
                if dur >= SPAN_MIN_S:
                    tracer.spans.append((node[0], parent[0], name, start,
                                         end, tracer.op_id))
            if hook is not None:
                for key, value in hook(args, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + value
            return result

        return wrapper

    # ---- one op ----------------------------------------------------------

    def begin_op(self, op_id, name):
        self.op_id = op_id
        self.next_id += 1
        self.stack = [[self.next_id, 0.0]]
        self._op = (self.next_id, name, time.perf_counter())
        self.active = True

    def end_op(self):
        self.active = False
        sid, name, start = self._op
        end = time.perf_counter()
        self.spans.append((sid, 0, f"op:{name}", start, end, self.op_id))
        self.counters["harness.self_s"] = (self.counters.get("harness.self_s", 0)
                                           + (end - start) - self.stack[0][1])

    def collect_cache_stats(self):
        """Add the hit/miss counts of the wrapped lru caches (divcurl's
        caches are cleared at the start of each pass, so this is the pass's
        share)."""
        for attr, cache in self._caches.items():
            info = cache.cache_info()
            for field in ("hits", "misses"):
                key = f"cache.{attr}.{field}"
                self.counters[key] = self.counters.get(key, 0) + getattr(info, field)

    # ---- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric of the traced run."""
        st, ct = self.stats, self.counters

        def calls(*names):
            return sum(st[n][0] for n in names if n in st)

        def incl(*names):
            return sum(st[n][1] for n in names if n in st)

        def ratio(*attrs):
            hits = sum(ct.get(f"cache.{a}.hits", 0) for a in attrs)
            misses = sum(ct.get(f"cache.{a}.misses", 0) for a in attrs)
            return hits / (hits + misses) if hits + misses else 0.0

        self_s = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, own) in st.items():
            layer = "gridfield" if name.startswith("numpy.") else name.split(".")[0]
            self_s[layer] += own
        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m.update({
            "multiindex.sign_calls": calls("multiindex.perm_sign_between",
                                           "multiindex.epsilon",
                                           "multiindex.complement"),
            "multiindex.labels_calls": calls("multiindex.labels"),
            "trigpoly.ctor_calls": calls("trigpoly.TrigPoly.__init__"),
            "trigpoly.diff_calls": calls("trigpoly.TrigPoly.diff"),
            "trigpoly.diff_alpha_calls": calls("trigpoly.TrigPoly.diff_alpha"),
            "trigpoly.mul_calls": calls("trigpoly.TrigPoly.__mul__",
                                        "trigpoly.TrigPoly.__rmul__"),
            "operators.apply_calls": calls("operators._apply_table"),
            "operators.route_check_s": (
                incl("operators.apply_T_star", "operators.apply_Top_star")
                - incl("operators._star_conjugate")),
            "operators.table_builds": sum(
                ct.get(f"cache.{a}.misses", 0)
                for a in ("_t_table", "_tstar_table")),
            "operators.table_hit_ratio": ratio("_t_table", "_tstar_table"),
            "operators.tensor_build_s": incl("operators._tensor_by_summation",
                                             "operators.box_coeff_closed_form"),
            "operators.tensor_entries": ct.get("operators.tensor_entries", 0),
            "gridfield.fft_calls": calls(*(f"numpy.fft.{a}" for a in FFT)),
            "gridfield.fft_bytes": ct.get("gridfield.fft_bytes", 0),
            "gridfield.deriv_cache_hit_ratio": ratio("_deriv_multiplier"),
            "forms.form_ctor_calls": calls("forms.Form.__init__"),
            "forms.pullback_s": incl("forms.pullback_linear"),
            "forms.norm_s": incl("forms.lp_norm", "forms.sobolev_norm",
                                 "forms.grad_lp_norm"),
            "symbol.box_symbol_calls": calls("symbol.box_symbol"),
            "symbol.directions": ct.get("symbol.directions", 0),
            "inequalities.hodge_solve_s": incl("inequalities.hodge_solve"),
            "verify.checks": ct.get("verify.checks", 0),
            "verify.checks_failed": ct.get("verify.checks_failed", 0),
            "cli.bytes_out": ct.get("cli.bytes_out", 0),
            "trace.self_s": sum(self_s.values()),
        })
        return m

    def write(self, path, meta):
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "functions": {
                name: {"calls": c, "inclusive_s": i, "self_s": s}
                for name, (c, i, s) in sorted(self.stats.items()) if c},
                "counters": self.counters}) + "\n")
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "op": op}) + "\n")


def _fft_bytes(args, result):
    return {"gridfield.fft_bytes": int(np.asarray(args[0]).nbytes)}


def _identity_counts(args, records):
    return {"verify.checks": len(records),
            "verify.checks_failed": sum(not r.passed for r in records)}


# counters taken from a wrapped call's arguments and result
_HOOKS = {
    "numpy.fft.fftn": _fft_bytes,
    "numpy.fft.ifftn": _fft_bytes,
    "verify.identity_suite": _identity_counts,
    "operators._tensor_by_summation":
        lambda args, entries: {"operators.tensor_entries": len(entries)},
    "symbol.ellipticity_scan":
        lambda args, report: {"symbol.directions": report["directions_tested"]},
    "cli._emit": lambda args, _: {"cli.bytes_out": len(args[0].encode())},
}
