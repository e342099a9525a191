"""Spans and counters around hopfcheck's layers, installed from outside.

The program itself carries no tracing.  `Tracer.install()` replaces the
public functions listed in SPANS with timing wrappers at every module
binding that names them (pipeline and duality bind names with
`from .x import f`, so patching only the defining module would miss their
calls), wraps the hot methods in COUNTED with call counters, and
`Tracer.remove()` puts every original back.

A span's self time is its duration minus the time of the spans it
encloses.  Counted methods are not spans: their time stays in the span that
called them.  Spans with the same name add up.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter
from time import perf_counter

# (defining module, function) -> span name.
SPANS = {
    ("hopf", "full_axiom_suite"): "hopf.axiom_suite",
    ("hopf", "find_group_likes"): "hopf.find_group_likes",
    ("hopf", "group_like_closure_check"): "hopf.group_like_closure",
    ("linalg", "solve_null_space"): "linalg.solve_null_space",
    ("linalg", "mat_inverse"): "linalg.mat_inverse",
    ("linalg", "rank"): "linalg.rank",
    ("integrals", "compute_modular"): "integrals.compute_modular",
    ("integrals", "modular_identity_checks"): "integrals.modular_identities",
    ("duality", "dual_hopf"): "duality.dual_hopf",
    ("duality", "verify_pairing"): "duality.pairing",
    ("duality", "compute_dual_integrals"): "duality.dual_integrals",
    ("duality", "dual_modular_links"): "duality.dual_modular_links",
    ("duality", "plancherel_check"): "duality.plancherel",
    ("duality", "biduality_check"): "duality.biduality",
    ("radford", "radford_check"): "radford.s4",
    ("radford", "radford_factorization"): "radford.factorization",
    ("radford", "s_order"): "radford.orders",
    ("radford", "s2_order"): "radford.orders",
    ("radford", "counimodular_check"): "radford.s2_variants",
    ("radford", "half_power_check"): "radford.s2_variants",
    ("gns", "positivity_verdict"): "gns.positivity",
    ("gns", "gns_build"): "gns.build",
    ("gns", "gns_representation_check"): "gns.representation",
    ("gns", "tomita_check"): "gns.tomita",
    ("gns", "operator_radford_check"): "gns.operator_radford",
    ("gns", "kac_collapse_check"): "gns.kac",
    ("fileformat", "load_hopf"): "fileformat.parse",
    ("fileformat", "save_hopf"): "fileformat.write",
    ("fileformat", "hopf_to_text"): "fileformat.write",
    ("pipeline", "run_pipeline"): "pipeline",
}

# A binding whose span name differs from the function's: the dual axiom
# suite runs the same function on the dual, and is its own layer metric.
RENAMED = {("duality", "full_axiom_suite"): "duality.dual_axiom_suite"}

# (defining module, class, method) -> timed span name, for methods that
# are layers of their own.
METHOD_SPANS = {("linalg", "Mat", "mul"): "linalg.mat_mul"}

# (defining module, class or None, attribute) -> counter name.
COUNTED = {
    ("cyclotomic", "Cyc", "__mul__"): "cyclotomic.mul",
    ("cyclotomic", "Cyc", "__add__"): "cyclotomic.add",
    ("cyclotomic", "Cyc", "__sub__"): "cyclotomic.add",
    ("cyclotomic", "Cyc", "__truediv__"): "cyclotomic.div",
    ("cyclotomic", "Cyc", "inverse"): "cyclotomic.inverse",
    ("cyclotomic", "Cyc", "embed"): "cyclotomic.embed",
    ("hopf", "HopfData", "mul"): "hopf.mul",
    ("hopf", "HopfData", "coprod"): "hopf.coprod",
    ("duality", None, "act_left"): "duality.act",
    ("duality", None, "act_right"): "duality.act",
}


def package_modules() -> dict:
    """Short name -> module, for the package and every hopfcheck submodule."""
    pkg = importlib.import_module("hopfcheck")
    mods = {"": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"hopfcheck.{info.name}")
    return mods


class Tracer:
    """Accumulates self time per span name and calls per span or counter name."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self._child_s = []   # one accumulator per open span
        self._undo = []      # (owner, attribute, original)

    def _span(self, name: str, fn):
        self_s, calls, stack = self.self_s, self.calls, self._child_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
        return traced

    def _counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _zero_test(self, fn):
        # is_zero also records how many tests find a nonzero scalar
        calls = self.calls

        def counted(c):
            calls["cyclotomic.is_zero"] += 1
            zero = fn(c)
            if not zero:
                calls["cyclotomic.is_zero.nonzero"] += 1
            return zero
        return counted

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        mods = package_modules()
        names = {}
        for (mod, fn), span in SPANS.items():
            names[id(getattr(mods[mod], fn))] = span
        for (mod, cls, attr), counter in COUNTED.items():
            if cls is None:
                names[id(getattr(mods[mod], attr))] = counter
        counters = set(COUNTED.values())
        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                name = names.get(id(value)) if callable(value) else None
                if name is None:
                    continue
                name = RENAMED.get((short, attr), name)
                wrap = self._counter if name in counters else self._span
                self._patch(mod, attr, wrap(name, value))
        for (mod, cls, attr), span in METHOD_SPANS.items():
            owner = getattr(mods[mod], cls)
            self._patch(owner, attr, self._span(span, getattr(owner, attr)))
        for (mod, cls, attr), counter in COUNTED.items():
            if cls is not None:
                owner = getattr(mods[mod], cls)
                self._patch(owner, attr, self._counter(counter, getattr(owner, attr)))
        cyc = mods["cyclotomic"].Cyc
        self._patch(cyc, "is_zero", self._zero_test(cyc.is_zero))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
