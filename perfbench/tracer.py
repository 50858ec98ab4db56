"""Spans and counters around gsvindex's public functions, installed from outside.

Each target function is replaced by a wrapper at its defining module and in
every gsvindex module that imported it by name (for example index imports
build_algebra), so calls through any of those names are seen. Methods are
wrapped on their class. A span records its name, its parent span, its start
and its end; a layer's self time is its duration minus the time its child
spans cover. Targets that no longer exist are reported as absent and the
run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, qualified name) of each wrapped function.
TARGETS = (
    ("gsvindex.cli", "parse_problem_file"),
    ("gsvindex.cli", "cmd_compute"),
    ("gsvindex.index", "verify_tangency"),
    ("gsvindex.index", "ensure_regular_sequence"),
    ("gsvindex.index", "c_coefficient"),
    ("gsvindex.index", "is_good_sufficient"),
    ("gsvindex.index", "construct_good_deformation"),
    ("gsvindex.poly", "linear_substitute"),
    ("gsvindex.poly", "transform_vector_field"),
    ("gsvindex.poly", "minor_det"),
    ("gsvindex.localstd", "standard_basis"),
    ("gsvindex.localstd", "staircase"),
    ("gsvindex.localstd", "ideal_membership"),
    ("gsvindex.localstd", "CanonicalQuotient.__init__"),
    ("gsvindex.localstd", "CanonicalQuotient.coordinates"),
    ("gsvindex._groebner", "buchberger"),
    ("gsvindex._groebner", "divide"),
    ("gsvindex.algebra", "build_algebra"),
    ("gsvindex.algebra", "annihilator_quotient"),
    ("gsvindex._linalg", "mat_vec"),
    ("gsvindex._linalg", "inverse"),
    ("gsvindex._linalg", "rref"),
    ("gsvindex.sigform", "choose_linear_form"),
    ("gsvindex.sigform", "gram_of_form"),
    ("gsvindex.sigform", "signature_of"),
)


def span_name(module, qualname):
    return module.split(".", 1)[1].lstrip("_") + "." + qualname


def _coeff_bits(polys):
    bits = 0
    for p in polys:
        for c in getattr(p, "terms", {}).values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _observe_normalize(tr, r):
    tr.counters["index.normalize_attempts"] += getattr(r, "attempts_used", 0)


def _observe_std_basis(tr, r):
    basis = getattr(r, "basis", ())
    tr.maximum("localstd.basis_elems", len(basis))
    tr.maximum("localstd.max_coeff_bits", _coeff_bits(basis))


def _observe_staircase(tr, r):
    monos = getattr(r, "basis_monomials", None)
    if monos:
        tr.maximum("localstd.staircase_degree", max(sum(m) for m in monos))


def _observe_dim(key):
    return lambda tr, r: tr.maximum(key, getattr(r, "dim", 0))


OBSERVERS = {
    "index.ensure_regular_sequence": _observe_normalize,
    "localstd.standard_basis": _observe_std_basis,
    "localstd.staircase": _observe_staircase,
    "algebra.build_algebra": _observe_dim("algebra.dim_B0"),
    "algebra.annihilator_quotient": _observe_dim("algebra.dim_C0"),
    "sigform.gram_of_form": _observe_dim("sigform.gram_dim"),
}

# Reported metric -> (how it is computed, unit, spans it is read from).
# Stage metrics ("incl") are the wall time of the stage including its
# children; layer metrics ("self") exclude time in other wrapped functions.
METRICS = (
    ("cli.parse_s", "incl", "s", ("cli.parse_problem_file",)),
    ("cli.report_s", "self", "s", ("cli.cmd_compute",)),
    ("index.tangency_s", "incl", "s", ("index.verify_tangency",)),
    ("index.normalize_s", "incl", "s", ("index.ensure_regular_sequence",)),
    ("index.normalize_attempts", "counter", "count", ("index.ensure_regular_sequence",)),
    ("index.c1_s", "incl", "s", ("index.c_coefficient",)),
    ("index.goodness_s", "incl", "s", ("index.is_good_sufficient",)),
    ("index.deform_s", "incl", "s", ("index.construct_good_deformation",)),
    ("poly.substitute_s", "self", "s",
     ("poly.linear_substitute", "poly.transform_vector_field")),
    ("poly.minor_det_s", "self", "s", ("poly.minor_det",)),
    ("localstd.std_basis_s", "self", "s", ("localstd.standard_basis",)),
    ("localstd.std_basis_calls", "calls", "count", ("localstd.standard_basis",)),
    ("localstd.basis_elems", "max", "count", ("localstd.standard_basis",)),
    ("localstd.staircase_degree", "max", "count", ("localstd.staircase",)),
    ("localstd.max_coeff_bits", "max", "bits", ("localstd.standard_basis",)),
    ("localstd.membership_s", "self", "s", ("localstd.ideal_membership",)),
    ("localstd.membership_calls", "calls", "count", ("localstd.ideal_membership",)),
    ("localstd.canonical_init_s", "self", "s", ("localstd.CanonicalQuotient.__init__",)),
    ("localstd.canonical_coords_s", "self", "s",
     ("localstd.CanonicalQuotient.coordinates",)),
    ("localstd.canonical_coords_calls", "calls", "count",
     ("localstd.CanonicalQuotient.coordinates",)),
    ("groebner.buchberger_s", "self", "s", ("groebner.buchberger",)),
    ("groebner.divide_s", "self", "s", ("groebner.divide",)),
    ("groebner.divide_calls", "calls", "count", ("groebner.divide",)),
    ("algebra.build_s", "self", "s", ("algebra.build_algebra",)),
    ("algebra.annihilator_s", "self", "s", ("algebra.annihilator_quotient",)),
    ("algebra.dim_B0", "max", "count", ("algebra.build_algebra",)),
    ("algebra.dim_C0", "max", "count", ("algebra.annihilator_quotient",)),
    ("linalg.mat_vec_s", "self", "s", ("linalg.mat_vec",)),
    ("linalg.mat_vec_calls", "calls", "count", ("linalg.mat_vec",)),
    ("linalg.inverse_s", "self", "s", ("linalg.inverse",)),
    ("linalg.rref_s", "self", "s", ("linalg.rref",)),
    ("sigform.choose_form_s", "self", "s", ("sigform.choose_linear_form",)),
    ("sigform.gram_s", "self", "s", ("sigform.gram_of_form",)),
    ("sigform.signature_s", "self", "s", ("sigform.signature_of",)),
    ("sigform.gram_dim", "max", "count", ("sigform.gram_of_form",)),
)

_HIDDEN = "trace.observe"  # time spent reading sizes off results


class Tracer:
    """In-memory spans [name, parent, start, end] plus counters and maxima."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.stack = []
        self.counters = {m[0]: 0 for m in METRICS if m[1] == "counter"}
        self.maxima = {m[0]: 0 for m in METRICS if m[1] == "max"}
        self.absent = []
        self._restore = []

    def maximum(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    # -------------------------------------------------------- installation

    def install(self):
        for module, qualname in self.targets:
            name = span_name(module, qualname)
            try:
                mod = importlib.import_module(module)
                owner, attr = mod, qualname
                if "." in qualname:
                    cls, attr = qualname.split(".", 1)
                    owner = getattr(mod, cls)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, OBSERVERS.get(name))
            if owner is not mod:
                self._patch(owner, attr, wrapper)
                continue
            for other in list(sys.modules.values()):
                oname = getattr(other, "__name__", "")
                if oname != "gsvindex" and not oname.startswith("gsvindex."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._patch(other, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if observe is not None:
                start = perf_counter()
                observe(self, result)
                spans.append([_HIDDEN, parent, start, perf_counter()])
            return result

        return wrapper

    def span(self, name):
        """Context manager for a root span opened by the benchmark itself."""
        return _Span(self, name)

    # ----------------------------------------------------------- reading

    def self_times(self, root=None):
        """(self seconds, inclusive seconds, calls) per span name.

        With `root` (a span index), only spans below that span count.
        """
        keep = None
        if root is not None:
            keep = set()
            for i, (_, parent, _, _) in enumerate(self.spans):
                if i == root or parent in keep:
                    keep.add(i)
        child = [0.0] * len(self.spans)
        for i, (_, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
        selfs, incl, calls = {}, {}, {}
        for i, (name, _, start, end) in enumerate(self.spans):
            if keep is not None and i not in keep:
                continue
            dur = end - start
            selfs[name] = selfs.get(name, 0.0) + dur - child[i]
            incl[name] = incl.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
        return selfs, incl, calls

    def metrics(self, root=None):
        """Every METRICS entry as a number (0 where a layer did no work).

        Counters and maxima are kept per tracer, not per span, so with
        `root` only the time and call metrics are returned.
        """
        selfs, incl, calls = self.self_times(root)
        out = {}
        for metric, how, _, sources in METRICS:
            if root is not None and how in ("counter", "max"):
                continue
            if how == "self":
                out[metric] = sum(selfs.get(s, 0.0) for s in sources)
            elif how == "incl":
                out[metric] = sum(incl.get(s, 0.0) for s in sources)
            elif how == "calls":
                out[metric] = sum(calls.get(s, 0) for s in sources)
            elif how == "counter":
                out[metric] = self.counters.get(metric, 0)
            else:
                out[metric] = self.maxima.get(metric, 0)
        return out

    def absent_metrics(self):
        """Metrics whose every source span belongs to an absent target."""
        gone = set(self.absent)
        return [m for m, _, _, sources in METRICS if set(sources) <= gone]


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.index = None

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr.stack[-1] if tr.stack else -1,
                         perf_counter(), 0.0])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][3] = perf_counter()
        tr.stack.pop()
        return False
