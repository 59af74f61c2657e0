"""The benchmark's traced run finds every function it wraps, and sees its work.

perfbench/spans.py wraps weaklg functions by name and silently skips a name
that no longer resolves, which drops that layer's metrics from the traced
result.  These checks read the span table and fail instead.  The traced run
follows a warm-up run in the same process, so work kept between calls would
also drop out of it.
"""

import importlib
import importlib.util
import inspect
import json
import os

import weaklg.cli  # noqa: F401  (imports every traced module)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = {}
    for module_name, attr, _ in _spans().LAYER_CALLS:
        module = importlib.import_module(f"weaklg.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert isinstance(vars(getattr(module, cls_name)).get(method), classmethod), attr
        else:
            target = getattr(module, attr, None)
            assert callable(target), f"weaklg.{module_name}.{attr}"
            targets.setdefault(id(target), []).append(attr)
    # one object under two traced names would be wrapped twice
    assert all(len(names) == 1 for names in targets.values()), targets


def test_multiply_term_maps_takes_two_positional_arguments():
    # a third positional argument is counted as a modular product
    from weaklg.laurent import multiply_term_maps

    assert list(inspect.signature(multiply_term_maps).parameters) == ["a", "b"]


def test_tracer_installs_every_span_and_reports_every_per_layer_metric():
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.present == {name for _, _, name in spans.LAYER_CALLS}
        metrics = set(tracer.metrics())
    finally:
        tracer.uninstall()
    # perfbench/run.py adds these three to the tracer's metrics
    metrics |= {"catalog.import_s", "trace.wall_s", "trace.overhead_frac"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        wanted = {entry["name"] for entry in json.load(handle)["per_layer"]}
    assert metrics == wanted


def test_repeated_search_records_the_same_products():
    from weaklg import search
    from weaklg.laurent import LaurentPoly, constant_term_series

    # labels no other test uses: work kept from an earlier call would otherwise go unseen
    ansatz = search.SupportAnsatz(1, [
        search.OrbitSpec("trace-a", ((1,),), search.CoefficientDomain.fixed(1)),
        search.OrbitSpec("trace-b", ((-1,),), search.CoefficientDomain.free()),
    ])
    target = constant_term_series(LaurentPoly(1, {(1,): 1, (-1,): 3}), 8)
    config = search.SearchConfig(target=target, primes=(7,), height=5, depth=4)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            start = len(tracer.spans)
            search.search(ansatz, config)
            counts.append(sum(span[0] == "laurent.mul" for span in tracer.spans[start:]))
    finally:
        tracer.uninstall()
    assert counts[0] > 0 and counts[0] == counts[1], counts
