"""Python's ``"%.17g"``, the array formatter that writes it in tables, and
the templates that write the structured documents.

``corruption_mfg._g17`` must write exactly ``"%.17g" % v`` for every
float64 and ``"%d" % n`` for every count, whether a value takes its numpy
path or its ``%`` fallback; and ``"%.17g"`` must read as ``format()``.  The
structured ``classify`` and ``equilibria`` documents must be exactly what
``json.dumps(..., sort_keys=True, indent=2)`` writes of their records.
"""

import dataclasses
import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corruption_mfg import _g17, cli  # noqa: E402
from corruption_mfg.equilibria import EquilibriumReport, Provenance  # noqa: E402
from corruption_mfg.hjb import ClassifierThreshold  # noqa: E402
from corruption_mfg.model import Behavior, SimplexError, StrategyProfile  # noqa: E402
from corruption_mfg.stability import Classification, Method, StabilityVerdict  # noqa: E402
from strategies import spread_params  # noqa: E402
from support import BASELINE, THREE_EQ, THREE_EQ_CONFIG, make_params  # noqa: E402


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(-2.225073858507201e-308)
def test_percent_format_matches_g17(v):
    # The CLI writes every real with "%.17g"; it must read as format() does.
    assert "%.17g" % v == format(v, ".17g")


def _texts(fields):
    """Each field's text: its bytes with the NULs dropped."""
    lines = np.empty((len(fields), fields.shape[1] + 1), dtype=np.uint8)
    lines[:, :-1] = fields
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _mismatches(values):
    """``(value, written, wanted)`` for each value ``g17`` does not write as ``%``."""
    values = np.asarray(values, dtype=np.float64)
    fields = _g17.g17(values)
    assert fields.shape == (len(values), _g17.FIELD)
    written = _texts(fields)
    return [(v, got, "%.17g" % v) for v, got in zip(values.tolist(), written)
            if got != "%.17g" % v]


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        values = np.concatenate([values, np.nextafter(values, -np.inf),
                                 np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_every_power_of_ten_and_its_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    assert _mismatches(_with_neighbours(powers)) == []


def test_every_power_of_two():
    assert _mismatches(_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))) == []


def test_subnormal_edges_zeros_infinities_and_nans():
    edges = [5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, 0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    assert _mismatches(_with_neighbours(edges)) == []


def test_random_bit_patterns():
    rng = np.random.default_rng(20250)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    assert _mismatches(bits.view(np.float64)) == []


def test_decimal_grids_and_ties():
    # Grids print with trailing zeros dropped; m / 2**17 has an 18th digit 5,
    # a tie between two 17-digit numbers, for m odd.
    grids = [np.arange(10_000) * step for step in (0.01, 0.03, 1e-5, 1e15, 7.5)]
    ties = (2**17 + np.arange(1, 2**12, 2)) / 2**17
    assert _mismatches(np.concatenate(grids + [ties, ties * 1e-7])) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_any_floats(values):
    assert _mismatches(values) == []


def _simulate_text():
    cfg = cli.parse_config(THREE_EQ_CONFIG + "t_end = 30\n")
    pieces = []
    cli.cmd_simulate(cfg, pieces.append)
    return "".join(pieces)


def test_forced_fallback_writes_the_same_bytes(monkeypatch):
    # TOL = 0.5 sends every value to "%", TOL = -1 none; both must write
    # what the default band writes.  The values are finite: NaN and +-inf
    # always take "%".
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.random(2000), rng.random(2000) * 1e-9, np.arange(2000) * 0.03,
                             (2**17 + np.arange(1, 2000, 2)) / 2**17,
                             rng.integers(0, 0x7FF << 52, 2000).view(np.float64)])
    texts, table = _texts(_g17.g17(values)), _simulate_text()
    for tol, fallbacks in ((0.5, len(values)), (-1.0, 0)):
        monkeypatch.setattr(_g17, "TOL", tol)
        assert len(_g17._round(values)[2]) == fallbacks
        assert _texts(_g17.g17(values)) == texts
        assert _simulate_text() == table


def _counts_texts(values):
    fields = _g17.d(np.asarray(values, dtype=np.int64))
    assert fields.shape[1] in (4, 8, 12, 16)
    return _texts(fields)


@pytest.mark.parametrize("top", [0, 9, 9999, 10**4, 10**8 - 1, 10**8, 10**12, 2**53])
def test_counts_match_percent_d(top):
    # Each array's largest count sets the field width; every smaller count
    # must still drop its leading zeros, whole groups of them too.
    edges = sorted({v for k in range(17) for v in (10**k - 1, 10**k, 10**k + 1) if 0 <= v <= top})
    values = np.array([0, *edges, top], dtype=np.int64)
    assert _counts_texts(values) == ["%d" % v for v in values.tolist()]


def test_random_counts_match_percent_d():
    rng = np.random.default_rng(11)
    values = (rng.integers(0, 2**53, 5000) >> rng.integers(0, 53, 5000)).astype(np.int64)
    assert _counts_texts(values) == ["%d" % v for v in values.tolist()]


# The structured documents' reference: the records as dicts, every
# non-finite float as its CSV token, through json.dumps.

def _strict(value):
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return cli._fmt_threshold(value)
    return value


def _json_reference(doc):
    return json.dumps(_strict(doc), sort_keys=True, indent=2) + "\n"


def _equilibria_reference(rows):
    return _json_reference([
        {
            "state": {"x_R": rep.state.x_R, "x_H": rep.state.x_H, "x_C": rep.state.x_C},
            "behavior": rep.behavior.value,
            "strategy": {"u_H": rep.strategy.u_H, "u_C": rep.strategy.u_C},
            "provenance": rep.provenance.value,
            "stability": {
                "classification": verdict.classification.value,
                "method": verdict.method.value,
                "eigen_real_parts": list(verdict.eigen_real_parts),
                "trace": verdict.trace,
                "det": verdict.det,
                "flags": dict(verdict.flags),
            },
            "diagnostics": {
                "q_value": rep.q_value,
                "x_bar": rep.x_bar,
                "residual": rep.residual,
                "flags": dict(rep.flags),
            },
            "warnings": list(rep.warnings),
        }
        for rep, verdict in rows
    ])


def _classify_reference(threshold, regime, disc):
    record = {"x_bar": threshold.value, "indifferent_everywhere": threshold.indifferent_everywhere,
              "regime": regime}
    if disc is not None:
        record["x_bar_discounted"] = disc.value
    return _json_reference(record)


_STRUCTURED = cli.parse_config(THREE_EQ_CONFIG + "format = structured\n")


def _written(command, **changes):
    pieces = []
    command(dataclasses.replace(_STRUCTURED, **changes), pieces.append)
    return "".join(pieces)


def _written_equilibria(rows):
    with mock.patch.object(cli, "_equilibrium_rows", return_value=rows):
        return _written(cli.cmd_equilibria)


def _written_classify(threshold, regime, disc):
    with mock.patch.multiple(cli, classifier_xbar=lambda p: threshold, _regime=lambda t: regime,
                             classifier_xbar_discounted=lambda p, delta: disc):
        return _written(cli.cmd_classify, delta=None if disc is None else 1.0)


_SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308)
_floats = st.sampled_from(_SPECIALS) | st.floats(allow_subnormal=True)
_strings = (st.sampled_from(('say "hi"', "back\\slash", "new\nline", "na\u00efve \u221e", ""))
            | st.text())
# Up to 3 pairs, a key repeated at times, as dict() reads them.
_flags = st.lists(st.tuples(_strings, st.booleans()), max_size=3).map(tuple)


def _row(cells, behavior=Behavior.HONEST, strategy=StrategyProfile(0, 1),
         provenance=Provenance.HONEST_BOUNDARY, rep_flags=(), warnings=(),
         classification=Classification.STABLE, method=Method.CLOSED_FORM,
         verdict_flags=(("a", True), ("c", False), ("b", True))):
    """A synthetic (report, verdict) with the ten float cells ``cells``."""
    x_r, x_h, x_c, q_value, x_bar, residual, low, high, trace, det = cells
    report = EquilibriumReport(SimpleNamespace(x_R=x_r, x_H=x_h, x_C=x_c), behavior, strategy,
                               provenance, q_value, x_bar, residual, rep_flags, warnings)
    return report, StabilityVerdict(classification, method, (low, high), trace, det,
                                    verdict_flags)


@pytest.mark.parametrize("special", _SPECIALS)
def test_every_float_cell_of_the_equilibria_document_writes_as_json_dumps(special):
    # One row with every cell ``special``, then one per cell with only it.
    rows = [_row([special] * 10)]
    rows += [_row([special if i == j else 0.5 for i in range(10)]) for j in range(10)]
    assert _written_equilibria(rows) == _equilibria_reference(rows)


@st.composite
def _synthetic_rows(draw):
    return [_row(draw(st.lists(_floats, min_size=10, max_size=10)),
                 draw(st.sampled_from(Behavior)),
                 StrategyProfile(draw(st.integers(0, 1)), draw(st.integers(0, 1))),
                 draw(st.sampled_from(Provenance)), draw(_flags),
                 tuple(draw(st.lists(_strings, max_size=3))),
                 draw(st.sampled_from(Classification)), draw(st.sampled_from(Method)),
                 draw(_flags))
            for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=150, deadline=None)
@given(_synthetic_rows())
def test_synthetic_equilibria_document_is_json_dumps(rows):
    assert _written_equilibria(rows) == _equilibria_reference(rows)


@settings(max_examples=200, deadline=None)
@given(spread_params())
@example(THREE_EQ)
@example(BASELINE)
@example(make_params(w_C=2.0))  # q_soc = 0 with a zero bracket: the indifferent corner
def test_equilibria_document_is_json_dumps(p):
    try:
        rows = cli._equilibrium_rows(p)
    except (SimplexError, ArithmeticError):
        hypothesis.assume(False)
    assert _written(cli.cmd_equilibria, params=p) == _equilibria_reference(rows)


@settings(max_examples=300, deadline=None)
@given(_floats, st.booleans(), _strings, st.none() | _floats)
@example(math.inf, True, "indifferent", None)
@example(-math.inf, False, 'a "corrupt"\nregime', -math.inf)
def test_synthetic_classify_document_is_json_dumps(value, indifferent, regime, disc_value):
    threshold = ClassifierThreshold(value, indifferent)
    disc = None if disc_value is None else ClassifierThreshold(disc_value)
    assert _written_classify(threshold, regime, disc) == _classify_reference(threshold, regime,
                                                                             disc)


@settings(max_examples=200, deadline=None)
@given(spread_params(), st.none() | st.floats(1e-300, 1e300))
@example(THREE_EQ, None)
@example(BASELINE, 1.0)  # x_bar and its discounted line at +inf
@example(make_params(w_C=2.0), 1.0)  # the indifferent corner
def test_classify_document_is_json_dumps(p, delta):
    threshold = cli.classifier_xbar(p)
    disc = None if delta is None else cli.classifier_xbar_discounted(p, delta)
    wanted = _classify_reference(threshold, cli._regime(threshold), disc)
    assert _written(cli.cmd_classify, params=p, delta=delta) == wanted
