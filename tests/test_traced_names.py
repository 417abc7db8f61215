"""The benchmark's tracer wraps darkpair functions by name: each must exist."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from darkpair import formfactors, operators
from darkpair.operators import OperatorExpr, apply_operator, build_h0, build_w
from darkpair.states import nc_state

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}"
        )
    assert callable(OperatorExpr.compose)


def test_apply_counters_read_the_state_amplitudes(tracing, threepair_table):
    # the traced benchmark passes count apply_operator's input and output
    # states through ``len(vec.amp)``, on the paired state as built
    state = nc_state(threepair_table)
    weights, _ = formfactors.from_spec(threepair_table, "asymmetric:3")
    exprs = (build_h0(threepair_table), build_w(threepair_table, -1, weights))
    images = [apply_operator(expr, state) for expr in exprs]
    counts = Counter()
    for expr, image in zip(exprs, images):
        tracing._count(counts, "apply_operator", (expr, state), image)
    assert all(len(image) for image in images)  # W is not dark with this weight
    assert counts == {"apply_calls": 2,
                      "apply_term_visits": len(state) * sum(map(len, exprs)),
                      "apply_out": sum(map(len, images))}


def test_term_counters_build_no_fraction(tracing, twopair_table, monkeypatch):
    # the tracer counts terms through ``len(expr.terms)``: the view's length
    # is the record's, read without a Fraction
    weights, _ = formfactors.from_spec(twopair_table, "random:5")
    w = build_w(twopair_table, -1, weights)
    monkeypatch.setattr(operators, "Fraction", None)  # building one now raises
    assert len(w.terms) == len(w) > 0
    counts = Counter()
    tracing._count(counts, "build_w", (twopair_table, -1, weights), w)
    assert counts == {"w_terms": len(w)}
