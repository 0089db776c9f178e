"""Property pins for INOR's dead-epoch proof.

A case whose every candidate provably delivers 0.0 W is built and scored
on ``[n_min, n_min]`` only (``repro.core.inor._proven_dead``).  These
pins hold the shortcut to the full pass bit for bit: ``inor()`` against
the same pass with the proof switched off and against the scalar
reference loop ``_inor_scalar``, and every stacked caller
(``_inor_stack_raw``, ``dnor_stack``) lane for lane against ``inor()``.
They cover rows the proof fires on (all-negative, weak), rows where it
must not fire (mixed-sign dead rows whose bound fails, NaN rows, a zero
quiescent power, no charger) and stacks mixing dead and live lanes.
"""

import importlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dnor import DNORPlanner, dnor_stack
from repro.core.inor import _inor_result, _inor_scalar, _inor_stack_raw, inor
from repro.core.overhead import SwitchingOverheadModel
from repro.power.charger import TEGCharger
from repro.power.converter import BuckBoostConverter
from repro.prediction.mlr import MLRPredictor
from repro.teg.datasheet import TGM_199_1_4_0_8

inor_module = importlib.import_module("repro.core.inor")

ROW_KINDS = ("all_negative", "mixed_dead", "weak", "nan", "live")


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_result(got, want, label=""):
    """Equal configuration, window and count; bit-equal floats."""
    assert got.config == want.config, label
    assert got.n_range == want.n_range, label
    assert got.candidates_evaluated == want.candidates_evaluated, label
    for field in ("voltage_v", "current_a", "power_w"):
        assert _bits(getattr(got.mpp, field)) == _bits(
            getattr(want.mpp, field)
        ), (label, field)
    assert _bits(got.delivered_power_w) == _bits(want.delivered_power_w), label


@st.composite
def emf_row(draw, n, kind=None):
    """One EMF row of ``n`` modules of a drawn (or given) kind."""
    kind = kind or draw(st.sampled_from(ROW_KINDS))
    unit = np.asarray(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    )
    if kind == "all_negative":
        row = -(1e-4 + draw(st.floats(0.01, 2.0)) * unit)
    elif kind == "mixed_dead":
        # Large swings of both signs with a non-positive mean: the
        # window is the dead-array full range, and the bound may fail.
        row = draw(st.floats(0.05, 6.0)) * (2.0 * unit - 1.0)
        row -= max(float(row.mean()), 0.0) + draw(st.floats(0.0, 0.05))
    elif kind == "weak":
        row = draw(st.floats(1e-3, 0.2)) * (unit - draw(st.floats(0.0, 0.6)))
    elif kind == "nan":
        row = 4.0 * unit - 1.0
        row[draw(st.integers(0, n - 1))] = np.nan
    else:
        row = 0.2 + 3.0 * unit
    return row


@st.composite
def chain(draw):
    n = draw(st.integers(2, 36))
    row = draw(emf_row(n))
    res = np.full(n, draw(st.floats(0.3, 3.0)))
    if draw(st.booleans()):
        res = res * (1.0 + np.asarray(
            draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        ))
    return row, res


def _proven(emf, res, charger):
    """Whether the dead-epoch proof fires on one EMF row."""
    dead = inor_module._proven_dead(
        emf[None], (emf / (2.0 * res))[None], res, charger.converter
    )
    return dead is not None and bool(dead[0])


def _charger(quiescent_w=None):
    if quiescent_w is None:
        return TEGCharger()
    return TEGCharger(converter=BuckBoostConverter(quiescent_power_w=quiescent_w))


class TestInorAgainstFullPass:
    @given(chain())
    @settings(max_examples=150, deadline=None)
    def test_proof_matches_unproven_pass(self, case):
        """The same batched pass with the proof switched off."""
        emf, res = case
        charger = _charger()
        got = inor(emf, res, charger=charger)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                inor_module,
                "_proven_dead",
                lambda *_: None,
            )
            want = inor(emf, res, charger=charger)
        assert_same_result(got, want)

    @given(chain())
    @settings(max_examples=150, deadline=None)
    def test_proof_matches_scalar(self, case):
        emf, res = case
        charger = _charger()
        got = inor(emf, res, charger=charger)
        want = _inor_scalar(emf, res, charger=charger)
        assert_same_result(got, want)

    @given(chain(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_explicit_windows(self, case, data):
        emf, res = case
        n = emf.size
        lo = data.draw(st.integers(1, n))
        hi = data.draw(st.integers(lo, n))
        charger = _charger()
        got = inor(emf, res, charger=charger, n_min=lo, n_max=hi)
        want = _inor_scalar(emf, res, charger=charger, n_min=lo, n_max=hi)
        assert_same_result(got, want)
        assert got.candidates_evaluated == hi - lo + 1

    @given(chain())
    @settings(max_examples=60, deadline=None)
    def test_zero_quiescent_power(self, case):
        """A zero quiescent power never proves a case (the test is
        strict), and the full pass still matches."""
        emf, res = case
        charger = _charger(quiescent_w=0.0)
        assert not _proven(emf, res, charger)
        got = inor(emf, res, charger=charger)
        want = _inor_scalar(emf, res, charger=charger)
        assert_same_result(got, want)

    @given(chain())
    @settings(max_examples=60, deadline=None)
    def test_no_charger(self, case):
        emf, res = case
        assert_same_result(inor(emf, res), _inor_scalar(emf, res))


class TestProofScope:
    def test_dead_case_builds_one_candidate(self):
        n = 40
        rng = np.random.default_rng(22)
        emf_rows = np.stack((-rng.uniform(0.0, 0.5, n), rng.uniform(0.5, 3.0, n)))
        res = np.full(n, 1.2)
        stack, *_, winners, n_mins, n_maxs = inor_module._inor_stack_raw(
            emf_rows, res, TEGCharger()
        )
        assert (n_mins[0], n_maxs[0]) == (1, n)  # the dead-array window
        assert stack.case_offsets[1] == 1  # ... built as one candidate
        assert winners[0] == 0
        live = stack.case_offsets[2] - stack.case_offsets[1]
        assert live == n_maxs[1] - n_mins[1] + 1

    @pytest.mark.parametrize(
        "row",
        [
            [np.nan, -0.5, -0.2],
            [np.inf, -0.5, -0.2],
            [-np.inf, -0.5, -0.2],
            [-6.0, 5.9, -0.5],  # dead mean, bound far above quiescent
        ],
    )
    def test_rows_never_proven(self, row):
        emf = np.asarray(row)
        res = np.full(emf.size, 1.0)
        assert not _proven(emf, res, TEGCharger())

    def test_non_positive_resistance_never_proven(self):
        emf = np.full(4, -0.01)
        assert _proven(emf, np.ones(4), TEGCharger())
        with np.errstate(divide="ignore"):
            for res in ([1.0, -1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0]):
                assert not _proven(emf, np.asarray(res), TEGCharger())


@st.composite
def mixed_stack(draw):
    """A (K, N) stack mixing dead and live lanes, shared resistance."""
    n = draw(st.integers(2, 30))
    k = draw(st.integers(2, 6))
    rows = np.stack([draw(emf_row(n)) for _ in range(k)])
    return rows, np.full(n, draw(st.floats(0.3, 3.0)))


class TestStackedLanes:
    @given(mixed_stack())
    @settings(max_examples=80, deadline=None)
    def test_inor_stack_lanes_equal_inor(self, case):
        rows, res = case
        charger = _charger()
        raw = _inor_stack_raw(rows, res, charger)
        for c in range(rows.shape[0]):
            got = _inor_result(raw, c)
            assert_same_result(got, inor(rows[c], res, charger=charger), c)

    @given(
        st.integers(4, 24),
        st.lists(
            st.tuples(st.floats(-15.0, 40.0), st.floats(0.0, 12.0)),
            min_size=2,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_dnor_stack_first_epoch_equals_inor(self, n, lanes):
        """A first epoch adopts the lane's INOR proposal: dead lanes
        (temperatures at or below ambient) beside live ones."""
        ambient = 25.0
        profile = np.linspace(1.0, -1.0, n)
        temps = np.stack([ambient + lift + swing * profile for lift, swing in lanes])
        planners = [
            DNORPlanner(
                module=TGM_199_1_4_0_8,
                charger=TEGCharger(),
                overhead=SwitchingOverheadModel(),
                predictor=MLRPredictor(lags=4, train_window=120),
                tp_seconds=1.0,
                sample_dt_s=0.5,
                nominal_compute_s=1.0e-3,
            )
            for _ in lanes
        ]
        histories = [np.tile(row, (30, 1)) for row in temps]
        decisions = dnor_stack(planners, histories, ambient, [None] * len(lanes))
        alpha = TGM_199_1_4_0_8.emf_coefficient()
        res = np.full(n, TGM_199_1_4_0_8.internal_resistance())
        charger = TEGCharger()
        for k, decision in enumerate(decisions):
            want = inor(alpha * (temps[k] - ambient), res, charger=charger)
            assert decision.switch, k
            assert decision.config == want.config, k
