"""Span recorder for the traced benchmark run.

The wrappers live here, outside the package: ``install`` replaces each target
function or method with a timing wrapper in every ``asaikit`` module namespace
that bound it (``from .characters import generalized_bernoulli`` copies the
binding, so patching the defining module alone would miss those calls).
Spans are kept in flat arrays in memory and written out once, by ``dump``;
``derive`` turns a dump into per-layer counts and times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("arith", "characters", "asai", "distribution", "eisenstein", "cohomology", "padic", "cli")

# (module, attribute, metric stem, per-layer metrics reported for the stem).
# Dunder methods take the stem names `new` (__init__) and `mul` (__mul__).
TARGETS = (
    ("arith", "bessel_k_moment_check", "arith.bessel_k_moment_check", ("s",)),
    ("arith", "CyclotomicNumber.__mul__", "arith.CyclotomicNumber.mul", ("calls", "s")),
    ("arith", "CyclotomicNumber.inverse", "arith.CyclotomicNumber.inverse", ("calls", "s")),
    ("arith", "CyclotomicNumber.__init__", "arith.CyclotomicNumber.new", ("calls",)),
    ("arith", "ArithTables.__init__", "arith.ArithTables.new", ("s",)),
    ("characters", "generalized_gauss_sum", "characters.generalized_gauss_sum", ("calls", "s")),
    ("characters", "generalized_bernoulli", "characters.generalized_bernoulli", ("calls", "s")),
    ("characters", "DirichletCharacter.__init__", "characters.DirichletCharacter.new", ("calls",)),
    ("characters", "L_truncated", "characters.L_truncated", ("s",)),
    ("asai", "MockEigenform.tabulate", "asai.MockEigenform.tabulate", ("calls", "s")),
    ("asai", "random_mock_eigenform", "asai.random_mock_eigenform", ("s",)),
    ("asai", "euler_vs_coefficients", "asai.euler_vs_coefficients", ("s",)),
    ("distribution", "DistParams.tail_bound", "distribution.DistParams.tail_bound", ("s",)),
    ("distribution", "P_s", "distribution.P_s", ("calls", "s")),
    ("distribution", "verify_distribution_relation", "distribution.verify_distribution_relation", ("calls", "s")),
    ("distribution", "check_interpolation", "distribution.check_interpolation", ("calls", "s")),
    ("eisenstein", "higher_coeffs_analytic", "eisenstein.higher_coeffs_analytic", ("calls", "s")),
    ("eisenstein", "higher_coeff_exact", "eisenstein.higher_coeff_exact", ("calls", "s")),
    ("eisenstein", "constant_term", "eisenstein.constant_term", ("s",)),
    ("eisenstein", "membership_two_ways", "eisenstein.membership_two_ways", ("calls", "s")),
    ("cohomology", "denominator_lemma_check", "cohomology.denominator_lemma_check", ("s",)),
    ("cohomology", "translate", "cohomology.translate", ("calls", "s")),
    ("cohomology", "QuadCoeff.__mul__", "cohomology.QuadCoeff.mul", ("calls", "s")),
    ("cohomology", "pairing_series", "cohomology.pairing_series", ("s",)),
    ("padic", "padic_valuation", "padic.padic_valuation", ("calls", "s")),
    ("padic", "kummer_check", "padic.kummer_check", ("calls", "s")),
    # gives the cli layer a span of its own, so that cli.self_s is measured
    ("cli", "main", "cli.main", ()),
)

SUITES = ("arith", "characters", "asai", "distribution", "eisenstein", "cohomology", "padic")


def metric_names() -> list[str]:
    """Every per-layer metric of a traced run, in report order."""
    names = [f"{stem}.{kind}" for _, _, stem, kinds in TARGETS for kind in kinds]
    names += [f"cli.suite.{s}.s" for s in SUITES]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names.append("trace.overhead_s")
    return names


class Recorder:
    """Spans as parallel arrays: name id, parent span, outermost flag, start, end.

    A span is outermost when no enclosing span has the same name; inclusive
    time sums outermost spans only, so recursion is not counted twice.
    """

    def __init__(self):
        self.stems: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.outer = bytearray()
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth: list[int] = []

    def wrap(self, fn, stem: str):
        nid = len(self.stems)
        self.stems.append(stem)
        self._depth.append(0)
        name, parent, outer, start, end = self.name, self.parent, self.outer, self.start, self.end
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            outer.append(depth[nid] == 0)
            end.append(0.0)
            depth[nid] += 1
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
                depth[nid] -= 1

        return traced

    def dump(self, path: str, run_id: str) -> None:
        """Write the spans once: a JSON header line, then the raw arrays."""
        header = {"run_id": run_id, "stems": self.stems, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
            fh.write(self.outer)


def install(recorder: Recorder) -> None:
    """Wrap every target in every loaded asaikit module that binds it."""
    for layer in LAYERS:
        importlib.import_module(f"asaikit.{layer}")
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "asaikit"]
    for module, attr, stem, _ in TARGETS:
        owner = sys.modules[f"asaikit.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            wrapped = recorder.wrap(orig, stem)
            for key, value in list(vars(cls).items()):
                if value is orig:  # aliases such as __rmul__ = __mul__
                    setattr(cls, key, wrapped)
        else:
            orig = getattr(owner, attr)
            wrapped = recorder.wrap(orig, stem)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)


def load(path: str):
    """Read a dump back: (header, name, parent, start, end, outer)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
        outer = fh.read(n)
    if len(outer) != n:
        raise ValueError(f"truncated span dump {path}")
    return (header, *arrays, outer)


def derive(path: str) -> dict[str, float]:
    """Per-stem call counts and inclusive seconds, and self seconds per layer.

    A layer's self time is the duration of its spans minus the part covered
    by their direct child spans.
    """
    header, name, parent, start, end, outer = load(path)
    stems = header["stems"]
    n = len(start)
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i]
    calls = [0] * len(stems)
    inclusive = [0.0] * len(stems)
    self_by_stem = [0.0] * len(stems)
    for i in range(n):
        k = name[i]
        calls[k] += 1
        if outer[i]:
            inclusive[k] += dur[i]
        self_by_stem[k] += dur[i] - covered[i]
    out: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for k, stem in enumerate(stems):
        out[f"{stem}.calls"] = calls[k]
        out[f"{stem}.s"] = inclusive[k]
        self_s[stem.split(".")[0]] += self_by_stem[k]
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    return out
