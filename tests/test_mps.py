import numpy as np
import pytest
import scipy.sparse as sp

from firegrid.lp import EQ, GE, LE, OPTIMAL, LpProblem, solve_lp_scipy
from firegrid.fluid import build_model, calibrate
from firegrid.mdp import FireState, GridSpec, RewardModel, SpreadModel
from firegrid.mpsio import write_mps

from oracles import parse_mps


def small_problem():
    c = np.array([1.0, -2.5, 0.0])
    a = sp.csr_matrix(np.array([
        [1.0, 1.0, 0.0],
        [0.5, 0.0, -3.25],
        [0.0, 2.0, 1.0],
    ]))
    senses = (LE, GE, EQ)
    b = np.array([4.0, -1.0, 2.0])
    lower = np.array([0.0, -1.0, -np.inf])
    upper = np.array([10.0, 1.0, np.inf])
    return LpProblem(c, a, senses, b, lower, upper)


def test_round_trip_preserves_problem():
    prob = small_problem()
    mask = np.array([False, True, False])
    text = write_mps(prob, mask, name="TINY")
    parsed, parsed_mask, name = parse_mps(text)
    assert name == "TINY"
    np.testing.assert_array_equal(parsed_mask, mask)
    np.testing.assert_allclose(parsed.c, prob.c)
    np.testing.assert_allclose(parsed.a.toarray(), prob.a.toarray())
    assert parsed.senses == prob.senses
    np.testing.assert_allclose(parsed.b, prob.b)
    np.testing.assert_allclose(parsed.lower, prob.lower)
    np.testing.assert_allclose(parsed.upper, prob.upper)


def test_round_trip_is_byte_identical():
    prob = small_problem()
    mask = np.array([True, False, True])
    once = write_mps(prob, mask)
    parsed, parsed_mask, _ = parse_mps(once)
    twice = write_mps(parsed, parsed_mask)
    assert once == twice


def test_empty_objective_still_valid():
    c = np.zeros(2)
    a = sp.csr_matrix(np.array([[1.0, 1.0]]))
    prob = LpProblem(c, a, (LE,), np.array([1.0]), np.zeros(2),
                     np.full(2, np.inf))
    text = write_mps(prob)
    parsed, _, _ = parse_mps(text)
    np.testing.assert_allclose(parsed.c, c)
    assert parse_mps(write_mps(parsed))[0].senses == (LE,)


def test_zero_column_survives_round_trip():
    # a column that appears nowhere must not vanish from the file
    c = np.zeros(2)
    a = sp.csr_matrix(np.array([[1.0, 0.0]]))
    prob = LpProblem(c, a, (LE,), np.array([1.0]), np.zeros(2), np.ones(2))
    parsed, _, _ = parse_mps(write_mps(prob))
    assert parsed.shape == (1, 2)


def test_fixed_format_field_positions():
    prob = small_problem()
    text = write_mps(prob, np.array([False, True, False]))
    for line in text.splitlines():
        if line.startswith("    C"):
            # field 2 at column 5, field 3 at column 15, field 4 at column 25
            assert line[4:12].strip().startswith("C")
            assert line[14:22].strip() != ""
            assert line[24:].strip() != ""
        if line.startswith(" UP") or line.startswith(" LO") or line.startswith(" FX"):
            assert line[4:12].strip() == "BND1"
            assert line[14:22].strip().startswith("C")


def test_ranges_section_rejected():
    text = "NAME          X\nROWS\n N  COST\nRANGES\nENDATA\n"
    with pytest.raises(ValueError):
        parse_mps(text)


def test_values_fit_twelve_characters():
    rng = np.random.default_rng(0)
    a = sp.csr_matrix(rng.normal(scale=1e9, size=(3, 3)))
    prob = LpProblem(rng.normal(size=3), a, (LE, LE, LE),
                     rng.normal(size=3), np.zeros(3), np.full(3, np.inf))
    for line in write_mps(prob).splitlines():
        if line.startswith("    C"):
            assert len(line[24:]) <= 12


def test_fluid_model_export_counts():
    # hand-counted single-cell, single-period model: 8 columns, 10 rows
    spec = GridSpec(1, 1)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    state = FireState((1,), (5,))
    model = build_model(calibrate(spread, state, 1), state,
                        RewardModel((-1.0,)), 1)
    text = write_mps(model.problem, model.integer_mask)
    parsed, mask, _ = parse_mps(text)
    assert parsed.shape == (10, 8)
    assert int(mask.sum()) == 4  # two indicator + two assignment binaries
    np.testing.assert_allclose(parsed.a.toarray(), model.problem.a.toarray())


def test_parsed_problem_solves_identically():
    # HiGHS, because the bundled simplex refuses the free third column, whose
    # MI bound this round trip covers
    prob = small_problem()
    parsed, _, _ = parse_mps(write_mps(prob))
    a = solve_lp_scipy(prob)
    b = solve_lp_scipy(parsed)
    assert a.status == b.status == OPTIMAL
    assert a.objective == pytest.approx(b.objective, abs=1e-9)
