"""Span tracer installed from outside the library.

Every traced function is wrapped at each module binding that calls it: the
package imports with ``from .x import f``, so ``search.build_fiducial`` and
``cli.build_fiducial`` are separate bindings of one function, and each is
replaced by a wrapper that records a span under the defining name
``fiducial.build_fiducial``.  Spans are recorded only inside a root span,
which the benchmark opens around each ``cli.main`` call, so the benchmark's
own input drawing and output checks never show up in the trace.

A span is (name, start, end, parent, root, error).  Per-layer statistics are
``calls``, ``busy_s`` (time inside the function, nested re-entries counted
once), ``self_s`` (busy time minus the time covered by child spans) and
``errors`` (calls that raised).  The stage funnel is counted from return
values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("qcore", "fiducial", "basisgen", "geometry", "entanglement",
           "hierarchy", "search", "reproduce", "cli")

# (defining module, function, modules whose binding is wrapped; None = every
# package module that binds the function, the defining module included)
TRACED = (
    ("fiducial", "build_fiducial", None),
    ("basisgen", "orbit_basis", None),
    ("basisgen", "check_orthonormal", None),
    ("geometry", "basis_bloch_table", None),
    ("geometry", "classify_geometry", None),
    ("geometry", "relational_chirality", None),
    ("geometry", "bloch_vector", None),
    ("entanglement", "invariant_fingerprint", None),
    ("entanglement", "pairwise_concurrence", None),
    ("entanglement", "permutation_stabilizer_order", None),
    ("entanglement", "three_tangle", None),
    ("qcore", "partial_trace", ("geometry", "entanglement")),
    ("qcore", "hermitian_eig", ("geometry", "entanglement")),
    # search's binding is used only by the witness scan: one call per
    # partial Clifford tuple tried
    ("qcore", "apply_on_qubit", ("search",)),
    ("search", "evaluate_polynomial_candidate", None),
    ("search", "search_regular", None),
    ("search", "lc_equivalence_witness", None),
    ("search", "group_into_classes", None),
    ("search", "conjugate_partner_key", None),
    ("hierarchy", "clifford_level_test", None),
    ("hierarchy", "is_pauli_like", None),
    ("hierarchy", "diagonal_clifford_level", None),
    ("reproduce", "reproduce_suite", None),
    ("cli", "hits_csv", None),
    ("cli", "render_json", None),
)

ROOT_SPAN = "cli.main"

FUNNEL_STAGES = ("candidates", "regular", "nonzero", "hits", "fingerprint_groups",
                 "witness_calls", "witness_found", "witness_tuples", "classes")

# Per-layer metrics in report order, each with its unit.
PER_LAYER = (
    ("fiducial.build_fiducial.calls", "count"),
    ("fiducial.build_fiducial.busy_s", "s"),
    ("fiducial.build_fiducial.per_candidate", "ratio"),
    ("basisgen.orbit_basis.calls", "count"),
    ("basisgen.orbit_basis.busy_s", "s"),
    ("basisgen.orbit_basis.per_candidate", "ratio"),
    ("basisgen.check_orthonormal.busy_s", "s"),
    ("geometry.basis_bloch_table.busy_s", "s"),
    ("geometry.classify_geometry.self_s", "s"),
    ("geometry.relational_chirality.calls", "count"),
    ("geometry.relational_chirality.busy_s", "s"),
    ("geometry.bloch_vector.calls", "count"),
    ("geometry.regular_ratio", "ratio"),
    ("entanglement.invariant_fingerprint.calls", "count"),
    ("entanglement.invariant_fingerprint.self_s", "s"),
    ("entanglement.pairwise_concurrence.calls", "count"),
    ("entanglement.pairwise_concurrence.busy_s", "s"),
    ("entanglement.permutation_stabilizer_order.busy_s", "s"),
    ("entanglement.three_tangle.busy_s", "s"),
    ("entanglement.fingerprint_useful_ratio", "ratio"),
    ("qcore.partial_trace.calls", "count"),
    ("qcore.partial_trace.busy_s", "s"),
    ("qcore.hermitian_eig.calls", "count"),
    ("qcore.hermitian_eig.busy_s", "s"),
    ("search.lc_equivalence_witness.calls", "count"),
    ("search.lc_equivalence_witness.busy_s", "s"),
    ("search.witness_found_ratio", "ratio"),
    ("search.witness_partial_tuples", "count"),
    ("search.group_into_classes.self_s", "s"),
    ("search.evaluate_polynomial_candidate.calls", "count"),
    ("search.evaluate_polynomial_candidate.busy_s", "s"),
    ("search.search_regular.self_s", "s"),
    ("search.hit_ratio", "ratio"),
    ("search.conjugate_partner_key.calls", "count"),
    ("search.conjugate_partner_key.busy_s", "s"),
    ("cli.hits_csv.busy_s", "s"),
    ("hierarchy.clifford_level_test.calls", "count"),
    ("hierarchy.clifford_level_test.busy_s", "s"),
    ("hierarchy.is_pauli_like.calls", "count"),
    ("hierarchy.diagonal_clifford_level.busy_s", "s"),
    ("reproduce.reproduce_suite.busy_s", "s"),
    ("cli.render_json.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.errors", "count"),
    *((f"funnel.{stage}", "count") for stage in FUNNEL_STAGES),
    ("failure_ratio", "ratio"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span recorder with the funnel counters of one pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    @contextmanager
    def root(self, name: str = ROOT_SPAN):
        """Open a root span; traced functions record only while one is open."""
        with self._span(name):
            yield

    @contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else idx
        self.spans.append(None)
        outer = self._depth[name] == 0
        self._depth[name] += 1
        self._stack.append(idx)
        error = False
        start = perf_counter()
        try:
            yield
        except BaseException:
            error = True
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self._depth[name] -= 1
            self.spans[idx] = (name, start, end, parent, root, error, outer)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self._span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every traced binding in the package with a recording wrapper."""
        if self._patched:
            return
        modules = {m: importlib.import_module(f"tetrabasis.{m}") for m in MODULES}
        for home, fname, bindings in TRACED:
            original = getattr(modules[home], fname)
            wrapper = self._wrap(f"{home}.{fname}", original)
            for bound in bindings or MODULES:
                module = modules[bound]
                if getattr(module, fname, None) is original:
                    self._patched.append((module, fname, original))
                    setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched = []

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, busy_s, self_s, errors} over the recorded spans."""
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        child_time = defaultdict(float)
        for name, start, end, parent, _root, _error, _outer in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, _parent, _root, error, outer) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["errors"] += int(error)
            if outer:
                entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
        return dict(stats)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded pass (overhead entries excluded)."""
        stats = self.summary()
        counts = self.counts

        def stat(name, key):
            return stats.get(name, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        candidates = stat("search.evaluate_polynomial_candidate", "calls")
        funnel = {
            "candidates": candidates,
            "regular": counts["regular"],
            "nonzero": counts["nonzero"],
            "hits": counts["hits"],
            "fingerprint_groups": counts["fingerprint_groups"],
            "witness_calls": stat("search.lc_equivalence_witness", "calls"),
            "witness_found": counts["witness_found"],
            "witness_tuples": stat("qcore.apply_on_qubit", "calls"),
            "classes": counts["classes"],
        }
        derived = {
            "fiducial.build_fiducial.per_candidate":
                ratio(stat("fiducial.build_fiducial", "calls"), candidates),
            "basisgen.orbit_basis.per_candidate":
                ratio(stat("basisgen.orbit_basis", "calls"), candidates),
            "geometry.regular_ratio":
                ratio(counts["geometry_regular"], stat("geometry.classify_geometry", "calls")),
            "entanglement.fingerprint_useful_ratio":
                ratio(counts["hits"], stat("entanglement.invariant_fingerprint", "calls")),
            "search.witness_found_ratio":
                ratio(counts["witness_found"], stat("search.lc_equivalence_witness", "calls")),
            "search.witness_partial_tuples": stat("qcore.apply_on_qubit", "calls"),
            "search.hit_ratio": ratio(counts["hits"], candidates),
        }
        out = {}
        for name, _unit in PER_LAYER:
            if name in derived:
                out[name] = derived[name]
            elif name.startswith("funnel."):
                out[name] = funnel[name.split(".", 1)[1]]
            elif name.count(".") == 2:
                func, key = name.rsplit(".", 1)
                out[name] = stat(func, key)
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, root, error, _outer) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "root": root, "parent": parent,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                    "error": error,
                }) + "\n")


def _observe_candidate(counts, hit):
    if hit.geometry.all_regular:
        counts["regular"] += 1
        if hit.geometry.nonzero_components:
            counts["nonzero"] += 1


def _observe_search(counts, hits):
    counts["hits"] += len(hits)


def _observe_classes(counts, records):
    counts["classes"] += len(records)
    counts["fingerprint_groups"] += len({r.fingerprint.class_key() for r in records})


def _observe_witness(counts, witness):
    counts["witness_found"] += witness is not None


def _observe_geometry(counts, report):
    counts["geometry_regular"] += report.all_regular


_OBSERVERS = {
    "search.evaluate_polynomial_candidate": _observe_candidate,
    "search.search_regular": _observe_search,
    "search.group_into_classes": _observe_classes,
    "search.lc_equivalence_witness": _observe_witness,
    "geometry.classify_geometry": _observe_geometry,
}
