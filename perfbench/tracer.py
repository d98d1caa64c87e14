"""Per-layer tracing, done from outside the program.

install() wraps the public functions of each forest_bialg module, and the
operators of Coefficient and LinComb, in place. A function that another
module imported by value is replaced in every namespace that holds it,
including default arguments, so `coproduct` is traced in verify, prelie,
cli and golden alike. A name that no longer exists is reported as absent.

Two kinds of wrapper:

* span wrappers record (id, name, start, end, parent id, operation id)
  whenever a call crosses from one layer into another; calls within a
  layer (recursion, helpers) only add to that function's counters. An
  operation is one run_suite or cli.main call from the benchmark.
* counter wrappers, for hot arithmetic and kernel calls, keep only a call
  count and self time, so a run holds no per-call records for them. The
  wrapper of enumerate_forests, a generator, times each item it yields.

Self time is a call's duration minus the time spent in traced callees.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import sys
import time
from array import array

perf = time.perf_counter

PACKAGE = "forest_bialg"

# (module, attribute, stat key, kind); kind is one of
# entry (an operation from the benchmark), span, counter, generator
TARGETS = (
    ("verify", "run_suite", "verify.run_suite", "entry"),
    ("cli", "main", "cli.main", "entry"),
    ("forest", "enumerate_forests", "forest.enumerate", "generator"),
    ("forest", "forest_from_encoding", "forest.from_encoding", "counter"),
    ("forest", "parse_forest", "forest.parse", "span"),
    ("_kernel", "postorder_indices", "kernel.postorder", "counter"),
    ("_kernel", "restrict_parents", "kernel.restrict", "counter"),
    ("_kernel", "biideal_splits", "kernel.biideal_splits", "counter"),
    ("freemod", "Coefficient.__add__", "freemod.coeff_add", "counter"),
    ("freemod", "Coefficient.__sub__", "freemod.coeff_sub", "counter"),
    ("freemod", "Coefficient.__neg__", "freemod.coeff_neg", "counter"),
    ("freemod", "Coefficient.__mul__", "freemod.coeff_mul", "counter"),
    ("freemod", "Coefficient.subst_mu", "freemod.subst_mu", "counter"),
    ("freemod", "Coefficient.subst_partial", "freemod.subst_partial", "counter"),
    ("freemod", "Coefficient.__str__", "freemod.coeff_str", "counter"),
    ("freemod", "Coefficient.to_json", "freemod.coeff_json", "counter"),
    ("freemod", "LinComb.__add__", "freemod.lincomb_add", "counter"),
    ("freemod", "LinComb.__sub__", "freemod.lincomb_sub", "counter"),
    ("freemod", "LinComb.__neg__", "freemod.lincomb_neg", "counter"),
    ("freemod", "LinComb.scale", "freemod.lincomb_scale", "counter"),
    ("freemod", "LinComb.tensor", "freemod.lincomb_tensor", "counter"),
    ("freemod", "LinComb.apply", "freemod.lincomb_apply", "counter"),
    ("freemod", "LinComb.map_basis", "freemod.lincomb_map_basis", "counter"),
    ("freemod", "LinComb.map_coeff", "freemod.lincomb_map_coeff", "counter"),
    ("freemod", "LinComb.__eq__", "freemod.lincomb_eq", "counter"),
    ("freemod", "LinComb.__str__", "freemod.lincomb_str", "counter"),
    ("freemod", "LinComb.to_json", "freemod.lincomb_json", "counter"),
    ("coalgebra", "coproduct_rec", "coalgebra.rec", "span"),
    ("coalgebra", "coproduct_biideal", "coalgebra.biideal", "span"),
    ("coalgebra", "coproduct_left", "coalgebra.left", "span"),
    ("coalgebra", "coproduct_right", "coalgebra.right", "span"),
    ("coalgebra", "coproduct_lin", "coalgebra.lin", "span"),
    ("coalgebra", "counit_left", "coalgebra.counit_left", "span"),
    ("coalgebra", "counit_right", "coalgebra.counit_right", "span"),
    ("dualprod", "star", "dualprod.star", "span"),
    ("dualprod", "star_lin", "dualprod.star_lin", "span"),
    ("dualprod", "star_weighted", "dualprod.star_weighted", "span"),
    ("dualprod", "pairing", "dualprod.pairing", "span"),
    ("morphisms", "phi_forest", "morphisms.phi", "span"),
    ("morphisms", "phi_subsets", "morphisms.phi_subsets", "span"),
    ("morphisms", "phi_at", "morphisms.phi_at", "span"),
    ("morphisms", "theta", "morphisms.theta", "span"),
    ("morphisms", "lc_concat", "morphisms.lc_concat", "span"),
    ("prelie", "prelie", "prelie.prelie", "span"),
    ("prelie", "prelie_sandwich", "prelie.sandwich", "span"),
    ("prelie", "prelie_lin", "prelie.lin", "span"),
    ("prelie", "bracket", "prelie.bracket", "span"),
    ("prelie", "bracket_lin", "prelie.bracket_lin", "span"),
)

# stat key -> (module, cache attribute, key built from the call's args):
# a call whose key is already cached counts as a hit
CACHES = {
    "forest.from_encoding": ("forest", "_ENC_INTERN", lambda a: (a[0], a[1])),
    "coalgebra.rec": ("coalgebra", "_REC_CACHE", lambda a: a[0]),
    "coalgebra.biideal": ("coalgebra", "_BIID_CACHE", lambda a: a[0]),
    "morphisms.phi": ("morphisms", "_PHI_CACHE", lambda a: a[0]),
}


class Stat:
    __slots__ = ("calls", "self_s", "hits", "acc")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0
        self.acc = 0      # tally kept by a NOTES or POST_NOTES hook


def _operand_monomials(stat, args):
    stat.acc += len(args[0].terms) + len(getattr(args[1], "terms", ()))


def _subset_masks(stat, args):
    stat.acc += 1 << args[0].nvertices


def _result_terms(stat, result):
    stat.acc += len(result.terms)


# stat key -> hook(stat, args) run before the call
NOTES = {
    "freemod.coeff_add": _operand_monomials,
    "freemod.coeff_mul": _operand_monomials,
    "morphisms.phi_subsets": _subset_masks,
}
# stat key -> hook(stat, result) run after the call
POST_NOTES = {"dualprod.star": _result_terms}


class Tracer:
    """Holds the counters and spans of one traced pass."""

    def __init__(self):
        self.stats = {key: Stat() for _, _, key, _ in TARGETS}
        self.absent = []
        self.child = 0.0      # traced-callee time of the running frame
        self.layer = None     # layer of the innermost open span
        self.span = -1        # id of the innermost open span
        self.op = -1          # current operation
        self.next_id = 0
        self.names = [key for _, _, key, _ in TARGETS]
        self.spans = {c: array("q") for c in ("id", "name", "parent", "op")}
        self.spans.update({c: array("d") for c in ("start", "end")})
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    # ------------------------------------------------------------ wrappers

    def _counter(self, fn, stat, hit, note, post):
        tr = self

        def counted(*args, **kwargs):
            if hit is not None and hit(args):
                stat.hits += 1
            if note is not None:
                note(stat, args)
            saved = tr.child
            tr.child = 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stat.calls += 1
                stat.self_s += dt - tr.child
                tr.child = saved + dt
            if post is not None:
                post(stat, result)
            return result

        return counted

    def _spanned(self, fn, stat, name, layer, entry, hit, note, post):
        tr = self
        cols = self.spans
        add_id, add_name, add_parent, add_op = (
            cols["id"].append, cols["name"].append, cols["parent"].append,
            cols["op"].append)
        add_start, add_end = cols["start"].append, cols["end"].append

        def spanned(*args, **kwargs):
            if hit is not None and hit(args):
                stat.hits += 1
            if note is not None:
                note(stat, args)
            outer_layer = tr.layer
            crossing = outer_layer != layer
            if crossing:
                parent = tr.span
                sid = tr.next_id
                tr.next_id = sid + 1
                tr.span = sid
                tr.layer = layer
                if entry and outer_layer is None:
                    tr.op += 1
            saved = tr.child
            tr.child = 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stat.calls += 1
                stat.self_s += dt - tr.child
                tr.child = saved + dt
                if crossing:
                    add_id(sid)
                    add_name(name)
                    add_parent(parent)
                    add_op(tr.op)
                    add_start(t0)
                    add_end(t1)
                    tr.span = parent
                    tr.layer = outer_layer
            if post is not None:
                post(stat, result)
            return result

        return spanned

    def _generator(self, fn, stat):
        tr = self

        def generate(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                saved = tr.child
                tr.child = 0.0
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf() - t0
                    stat.self_s += dt - tr.child
                    tr.child = saved + dt
                yield item

        return generate

    # ------------------------------------------------------------- install

    def install(self):
        """Wrap every target that exists; record the rest as absent."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name_idx, (mod_name, attr, key, kind) in enumerate(TARGETS):
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            stat = self.stats[key]
            hooks = self._hit_test(key), NOTES.get(key), POST_NOTES.get(key)
            if kind == "counter":
                wrapped = self._counter(orig, stat, *hooks)
            elif kind == "generator":
                wrapped = self._generator(orig, stat)
            else:
                wrapped = self._spanned(orig, stat, name_idx, key.split(".")[0],
                                        kind == "entry", *hooks)
            wrapped.__wrapped__ = orig
            if owner is not module:
                setattr(owner, leaf, wrapped)
            else:
                _replace_everywhere(modules, orig, wrapped)
        gc.callbacks.append(self._on_gc)
        return self

    def _hit_test(self, key):
        spec = CACHES.get(key)
        if spec is None:
            return None
        cache = self._cache(*spec[:2])
        if cache is None:
            return None
        make_key = spec[2]
        return lambda args: make_key(args) in cache

    def _cache(self, mod_name, attr):
        try:
            return getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{mod_name}.{attr}")
            return None

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf()
        else:
            self.gc_s += perf() - self._gc_t0
            self.gc_collections += 1

    def uninstall_gc(self):
        gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------- results

    def table_size(self, mod_name, attr):
        """len() of a module-level table or class attribute, 0 if absent."""
        try:
            obj = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            self.absent.append(f"{mod_name}.{attr}")
            return 0
        return len(obj)

    def write_spans(self, path):
        """Spans as one binary file of columns plus a JSON header."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "count": len(self.spans["id"]),
                  "columns": [[c, a.typecode] for c, a in self.spans.items()],
                  "clock": "time.perf_counter seconds"}
        with open(path + ".bin", "wb") as f:
            for a in self.spans.values():
                a.tofile(f)
        with open(path + ".json", "w") as f:
            json.dump(header, f)


def _replace_everywhere(modules, orig, wrapped):
    for module in modules:
        ns = vars(module)
        for name, value in list(ns.items()):
            if value is orig:
                ns[name] = wrapped
                continue
            # a default argument bound at definition time, as in
            # prelie_lin(x, y, product=prelie)
            fn = getattr(value, "__wrapped__", value)
            defaults = getattr(fn, "__defaults__", None)
            if defaults and any(d is orig for d in defaults):
                fn.__defaults__ = tuple(
                    wrapped if d is orig else d for d in defaults)
