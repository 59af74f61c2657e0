"""Spans around the calls into each weaklg layer, for the traced run.

`Tracer.install` replaces each public function named in LAYER_CALLS with a
timing wrapper at every module attribute that refers to it, since
`from .laurent import ...` leaves copies in the importing modules.  Spans
(name, start, end, parent, job id) stay in memory until `write`.  A layer's
self time is the time its spans cover minus the time their child spans
cover, so the self times of all layers add up to the traced `cli.main` time.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

# (module, attribute, span name).  A class attribute is written "Class.method".
LAYER_CALLS = (
    ("laurent", "multiply_term_maps", "laurent.mul"),
    ("laurent", "constant_term_series", "laurent.series"),
    ("laurent", "constant_term_series_mitm", "laurent.mitm"),
    ("dseries", "verify_weak_lg", "dseries.verify"),
    ("dseries", "solve_series", "dseries.solve"),
    ("dseries", "fit_operator", "dseries.fit"),
    ("search", "search", "search.search"),
    ("search", "search_mod_p", "search.mod_p"),
    ("search", "lift_and_verify", "search.lift"),
    ("polytope", "convex_hull", "polytope.hull"),
    ("polytope", "invariant_report", "polytope.invariants"),
    ("polytope", "lattice_points", "polytope.lattice_points"),
    ("polytope", "picard_rank", "polytope.picard"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "det", "linalg.det"),
    ("cli", "main", "cli.main"),
    ("laurent", "LaurentPoly.from_text", "cli.parse"),
    ("laurent", "PowerSeries.from_text", "cli.parse"),
    ("dseries", "DOperator.from_text", "cli.parse"),
    ("search", "SupportAnsatz.from_text", "cli.parse"),
    ("polytope", "polytope_from_text", "cli.parse"),
)

# Layers whose calls are wrapped; `catalog` is timed as an import instead.
TRACED_LAYERS = ("laurent", "dseries", "search", "polytope", "linalg", "cli")


def _bits(values):
    top = max(map(abs, values), default=0)
    if isinstance(top, Fraction):
        return max(top.numerator.bit_length(), top.denominator.bit_length())
    return top.bit_length()


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _count(name, args, result, counts):
    """Work counters read from a call's arguments and result."""
    if name in ("laurent.mul", "laurent.mul_mod"):
        counts[name + "_pairs"] += len(args[0]) * len(args[1])
        counts["laurent.max_terms"] = max(counts["laurent.max_terms"], len(result))
        if name == "laurent.mul":
            counts["laurent.max_coeff_bits"] = max(
                counts["laurent.max_coeff_bits"], _bits(result.values()))
    elif name == "dseries.fit":
        m, r = args[1], args[2]
        counts["dseries.fit_unknowns"] += (m + 1) * (r + 1)
    elif name == "search.search":
        stats = result.stats
        counts["search.enumerated"] += sum(s.enumerated for s in stats.prime_stats)
        counts["search.survivors"] += sum(s.survivor_count for s in stats.prime_stats)
        counts["search.lifts_tried"] += stats.lifts_tried
        counts["search.exact_matches"] += stats.exact_matches
    elif name == "polytope.hull":
        counts["polytope.hull_points"] += len(args[0])
    elif name == "polytope.lattice_points":
        counts["polytope.lattice_points_found"] += len(result)


class Tracer:
    """Installs the wrappers, records spans, and turns them into metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        self.counts = {k: 0 for k in (
            "laurent.mul_pairs", "laurent.mul_mod_pairs", "laurent.max_terms",
            "laurent.max_coeff_bits", "dseries.fit_unknowns", "search.enumerated",
            "search.survivors", "search.lifts_tried", "search.exact_matches",
            "polytope.hull_points", "polytope.lattice_points_found")}
        self.present = set()
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name
            if name == "laurent.mul" and (args[2] if len(args) > 2 else kwargs.get("reduce")):
                span_name = "laurent.mul_mod"
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _count(span_name, args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every named function that exists; missing ones are skipped."""
        modules = {k[len("weaklg."):]: m for k, m in sys.modules.items()
                   if k.startswith("weaklg.") and m is not None}
        for module_name, attr, name in LAYER_CALLS:
            module = modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = cls.__dict__.get(method) if cls is not None else None
                if not isinstance(original, classmethod):
                    continue
                setattr(cls, method, classmethod(self._wrap(original.__func__, name)))
                self._undo.append((cls, method, original))
                self.present.add(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(original, name)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
                        self._undo.append((other, key, original))
            self.present.add(name)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def metrics(self):
        """{metric: (value, unit)} for the spans recorded so far.

        Metrics of a function that no longer exists are left out.
        """
        total, calls = {}, {}
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                covered[parent] += end - start
        self_time = {layer: 0.0 for layer in TRACED_LAYERS}
        parse_self = 0.0
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            self_time[name.split(".")[0]] += end - start - inner
            if name == "cli.parse":
                parse_self += end - start - inner
        c = self.counts
        rows = (
            ("laurent.series_s", total.get("laurent.series", 0.0), "s", "laurent.series"),
            ("laurent.series_calls", calls.get("laurent.series", 0), "count", "laurent.series"),
            ("laurent.mitm_s", total.get("laurent.mitm", 0.0), "s", "laurent.mitm"),
            ("laurent.mul_s", total.get("laurent.mul", 0.0), "s", "laurent.mul"),
            ("laurent.mul_calls", calls.get("laurent.mul", 0), "count", "laurent.mul"),
            ("laurent.mul_pairs", c["laurent.mul_pairs"], "count", "laurent.mul"),
            ("laurent.mul_mod_s", total.get("laurent.mul_mod", 0.0), "s", "laurent.mul"),
            ("laurent.mul_mod_calls", calls.get("laurent.mul_mod", 0), "count", "laurent.mul"),
            ("laurent.mul_mod_pairs", c["laurent.mul_mod_pairs"], "count", "laurent.mul"),
            ("laurent.max_terms", c["laurent.max_terms"], "count", "laurent.mul"),
            ("laurent.max_coeff_bits", c["laurent.max_coeff_bits"], "bit", "laurent.mul"),
            ("dseries.verify_s", total.get("dseries.verify", 0.0), "s", "dseries.verify"),
            ("dseries.solve_s", total.get("dseries.solve", 0.0), "s", "dseries.solve"),
            ("dseries.fit_s", total.get("dseries.fit", 0.0), "s", "dseries.fit"),
            ("dseries.fit_unknowns", c["dseries.fit_unknowns"], "count", "dseries.fit"),
            ("search.mod_p_s", total.get("search.mod_p", 0.0), "s", "search.mod_p"),
            ("search.enumerated", c["search.enumerated"], "count", "search.search"),
            ("search.survivor_ratio", _ratio(c["search.survivors"], c["search.enumerated"]),
             "ratio", "search.search"),
            ("search.lift_s", total.get("search.lift", 0.0), "s", "search.lift"),
            ("search.lifts_tried", c["search.lifts_tried"], "count", "search.search"),
            ("search.match_ratio", _ratio(c["search.exact_matches"], c["search.lifts_tried"]),
             "ratio", "search.search"),
            ("polytope.hull_s", total.get("polytope.hull", 0.0), "s", "polytope.hull"),
            ("polytope.hull_calls", calls.get("polytope.hull", 0), "count", "polytope.hull"),
            ("polytope.hull_points", c["polytope.hull_points"], "count", "polytope.hull"),
            ("polytope.invariants_s", total.get("polytope.invariants", 0.0), "s",
             "polytope.invariants"),
            ("polytope.lattice_points_s", total.get("polytope.lattice_points", 0.0), "s",
             "polytope.lattice_points"),
            ("polytope.lattice_points_found", c["polytope.lattice_points_found"], "count",
             "polytope.lattice_points"),
            ("polytope.picard_s", total.get("polytope.picard", 0.0), "s", "polytope.picard"),
            ("linalg.nullspace_s", total.get("linalg.nullspace", 0.0), "s", "linalg.nullspace"),
            ("linalg.nullspace_calls", calls.get("linalg.nullspace", 0), "count",
             "linalg.nullspace"),
            ("linalg.rank_s", total.get("linalg.rank", 0.0), "s", "linalg.rank"),
            ("linalg.rank_calls", calls.get("linalg.rank", 0), "count", "linalg.rank"),
            ("linalg.det_calls", calls.get("linalg.det", 0), "count", "linalg.det"),
            ("cli.main_s", total.get("cli.main", 0.0), "s", "cli.main"),
            ("cli.parse_s", parse_self, "s", "cli.parse"),
        )
        out = {key: (value, unit) for key, value, unit, needs in rows if needs in self.present}
        for layer, value in self_time.items():
            out[f"{layer}.self_s"] = (value, "s")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, handle)
