"""The benchmark's tracer (bench/spans.py) patches functions of the package by
name: building it fails where a traced name is renamed or deleted."""

import importlib.util
from pathlib import Path

import numpy as np

import contactkit.cli  # noqa: F401  loads every module the tracer patches
from contactkit import zoo
from conftest import sample

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_the_tracer_installs_and_uninstalls_every_traced_name():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    m = zoo.standard_sphere(1)
    # a traced method missing from its class is a KeyError here
    tracer = spans.Tracer([m])
    traced = {attr for _, _, attr, _ in spans.TARGETS.values()}
    assert traced <= {attr for _, attr, _, _ in tracer._patches}
    tracer.install()
    try:
        for owner, attr, _, wrapper in tracer._patches:
            assert getattr(owner, attr) is wrapper, attr
        pts = sample(m, 3)
        m.reeb_field(pts)
        m.tangent_frame(pts)
        m.form.dmatrix(pts, np.broadcast_to(np.eye(4), (3, 4, 4)))
    finally:
        tracer.uninstall()
    for owner, attr, original, _ in tracer._patches:
        assert getattr(owner, attr) is original, attr
    for name in ("manifold.reeb_field", "manifold.tangent_frame", "fields.dmatrix"):
        assert tracer.calls[name] == 1 and tracer.points[name] == 3, name
