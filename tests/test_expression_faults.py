"""An expression chart that cannot be evaluated fails as a RiemannKitError (or
the documented OverflowError), never as a NaN result or a raw traceback, and
the CLI reports every such failure as one JSON document."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from riemannkit import comparison, expr, manifold, tensor, transport, variation
from riemannkit.cli import main
from riemannkit.errors import (BadParam, DomainFault, ParseError, RiemannKitError,
                               SingularMetric)

P = [0.3, 0.2]


def _doc(entry):
    return {"dim": 2, "coords": ["x", "y"], "metric": [[entry, "0"], ["0", "1"]]}


def _curvature_report(tmp_path, capsys, doc, point="0.3,0.2"):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code = main(["curvature", "--manifold", str(path), "--point", point])
    return code, json.loads(capsys.readouterr().out)


# -- numbers that are not finite ---------------------------------------------

@pytest.mark.parametrize("source, column", [("1e999", 1), ("2 + 1e400*x", 5), ("-1E999", 2),
                                            ("x*(1 + 9e9999)", 8)])
def test_a_non_finite_literal_is_a_parse_error_at_its_column(source, column):
    with pytest.raises(ParseError, match="not finite") as ei:
        expr.parse(source, ["x", "y"])
    assert (ei.value.line, ei.value.column) == (1, column)
    assert expr.parse("1e308", ["x"]) == expr.Num(1e308)


def test_a_non_finite_literal_is_an_error_report(tmp_path, capsys):
    code, rep = _curvature_report(tmp_path, capsys, _doc("1e999"))
    assert code == 1
    assert rep["error"]["type"] == "ParseError"
    assert rep["error"]["column"] == 1


OVERFLOWING = _doc("1 + 1e308*x*x")  # d2g = 2e308 overflows to inf; g and dg are finite


@pytest.mark.parametrize("call", [
    lambda c: manifold.metric_at(c, P),
    lambda c: tensor.curvature(c, P),
    lambda c: tensor.curvature_low_batch(c, np.tile(P, (3, 1))),
    lambda c: variation.conjugate_points(c, P, [0.0, 1.0], 1.0),
    lambda c: comparison.volume_compare(c, P, 0.1, 0.0, directions=16, ric_samples=1),
], ids=["metric_at", "curvature", "curvature_low_batch", "conjugate_points", "volume_compare"])
def test_a_metric_derivative_that_is_not_finite_is_a_located_fault(call):
    chart = manifold.chart_from_definition(OVERFLOWING)
    with pytest.raises(DomainFault, match=r"metric d2g not finite at \[0.3 0.2\]") as ei:
        call(chart)
    assert np.array_equal(ei.value.point, P)


def test_the_finiteness_check_passes_an_empty_batch():
    chart = manifold.chart_from_definition(OVERFLOWING)
    assert tensor.curvature_low_batch(chart, np.empty((0, 2)))[1].shape == (0, 2, 2, 2, 2)


def test_a_metric_derivative_that_is_not_finite_is_an_error_report(tmp_path, capsys):
    code, rep = _curvature_report(tmp_path, capsys, OVERFLOWING)
    assert code == 1
    assert rep["error"]["type"] == "DomainFault"
    assert rep["error"]["point"] == P


SQRT = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1 + sqrt(x)"]]}


@pytest.mark.parametrize("doc, fault", [(SQRT, DomainFault), (_doc("x"), SingularMetric)],
                         ids=["stack", "not_positive_definite"])
def test_metric_at_names_the_point_it_fails_at(doc, fault):
    # the evaluator's own fault, and metric_at's Cholesky check
    with pytest.raises(fault) as ei:
        manifold.metric_at(manifold.chart_from_definition(doc), [-1.0, 0.0])
    assert np.array_equal(ei.value.point, [-1.0, 0.0])


def test_a_fault_of_metric_at_is_an_error_report_with_its_point(tmp_path, capsys):
    code, rep = _curvature_report(tmp_path, capsys, SQRT, point="-1,0")
    assert code == 1
    assert rep["error"]["type"] == "DomainFault"
    assert rep["error"]["message"] == "sqrt of negative argument -1.0"
    assert rep["error"]["point"] == [-1.0, 0.0]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_orthonormal_frame_of_a_metric_that_is_not_finite_is_singular(bad):
    with pytest.raises(SingularMetric, match="not finite"):
        tensor.orthonormal_frame(np.diag([bad, 1.0]))


# -- overflow and deep nesting through the CLI -------------------------------

def test_an_overflow_is_an_error_report(tmp_path, capsys):
    code, rep = _curvature_report(tmp_path, capsys, _doc("exp(x)"), point="800,0.2")
    assert code == 1
    assert rep["error"]["type"] == "OverflowError"


DEEP = {
    "nested_parentheses": ("(" * 200 + "x" + ")" * 200, ParseError),
    "leading_minus_signs": ("-" * 2000 + "x", ParseError),
    "long_sum": ("1 + " + " + ".join(["x*y"] * 499), BadParam),
}


@pytest.mark.parametrize("source, error", DEEP.values(), ids=DEEP.keys())
def test_a_too_deep_expression_is_a_riemannkit_error(source, error):
    with pytest.raises(error, match="too deeply nested"):
        manifold.chart_from_definition(_doc(source))


@pytest.mark.parametrize("source, error", DEEP.values(), ids=DEEP.keys())
def test_a_too_deep_expression_is_an_error_report(tmp_path, capsys, source, error):
    code, rep = _curvature_report(tmp_path, capsys, _doc(source))
    assert code == 1
    assert rep["error"]["type"] == error.__name__
    assert "too deeply nested" in rep["error"]["message"]


# -- fuzzing one metric entry ------------------------------------------------

OPERANDS = ["0", "1", "2", "7", "0.5", "1e308", "1e999", "x", "y", "w"]  # w is unknown
OPERATORS = ["+", "-", "*", "/", "^"]
OPENERS = ["(", "-", *[f"{name}(" for name in expr.FUNCTIONS]]
TOKENS = OPERANDS + OPERATORS + OPENERS + [")"]


def _joined(terms):
    """The tokens of terms (openers, operand, closers) joined by operators, with
    a closing parenthesis for every one still open."""
    tokens = [t for (openers, operand, closers), op in terms for t in (*openers, operand, *closers, op)]
    tokens = tokens[:-1]
    return tokens + [")"] * (sum(t.endswith("(") for t in tokens) - tokens.count(")"))


TERMS = st.tuples(st.lists(st.sampled_from(OPENERS), max_size=2), st.sampled_from(OPERANDS),
                  st.lists(st.just(")"), max_size=1))
ENTRIES = st.one_of(  # mostly well formed, or any string of the tokens
    st.lists(st.tuples(TERMS, st.sampled_from(OPERATORS)), min_size=1, max_size=4).map(_joined),
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12))


@pytest.fixture(scope="module")
def chart_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "chart.json"


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ENTRIES)
def test_any_metric_entry_fails_only_as_documented(chart_file, capsys, tokens):
    entry = " ".join(tokens)
    try:
        chart = manifold.chart_from_definition(_doc(entry))
        for p in (P, [-0.5, 0.7]):
            tensor.curvature(chart, p)
        transport.integrate_geodesic(chart, P, [0.4, -0.3], 0.04,
                                     settings=transport.OdeSettings(step=0.01))
    except (RiemannKitError, OverflowError):
        pass
    chart_file.write_text(json.dumps(_doc(entry)))
    code = main(["curvature", "--manifold", str(chart_file), "--point", "0.3,0.2"])
    assert code in (0, 1, 2)
    json.loads(capsys.readouterr().out)
