import csv
import json
import math
import pathlib
import sys
import time
import warnings
from fractions import Fraction

import pytest

from pathprob import cli, modelio, solver
from pathprob.cli import UsageError, cli_main, parse_valuation
from pathprob.product import MAX_VERTICES
from pathprob.solver import BoundInfeasibleError

from oracles import convergence_rows

ROOT = pathlib.Path(__file__).resolve().parents[1]
UNIT = str(ROOT / "models" / "unit_deadline.json")
EXPOSURE = str(ROOT / "models" / "exposure_window.json")


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing


def test_parse_model_unit(unit_deadline):
    chain, dta = unit_deadline
    assert len(chain.states) == 2
    assert len(dta.locations) == 3
    assert dta.ceilings == (1,)


def test_round_trip(exposure_window):
    chain, dta = exposure_window
    text = modelio.serialize_model(chain, dta)
    chain2, dta2 = modelio.parse_model_text(text)
    assert chain2 == chain
    assert dta2 == dta


def test_parse_reports_syntax_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(modelio.ModelFormatError) as err:
        modelio.parse_model(str(bad))
    assert ":2:" in str(err.value)


def test_parse_rejects_zero_denominator(tmp_path):
    doc = json.loads(pathlib.Path(UNIT).read_text())
    doc["ctmc"]["states"][0]["rate"] = "1/0"
    with pytest.raises(modelio.ModelFormatError) as err:
        modelio.parse_model_text(json.dumps(doc))
    assert "rate" in str(err.value)


def test_parse_names_rule_with_unknown_clock():
    doc = json.loads(pathlib.Path(UNIT).read_text())
    doc["dta"]["rules"][0]["guard"] = "z<1"
    with pytest.raises(modelio.ModelFormatError) as err:
        modelio.parse_model_text(json.dumps(doc))
    assert "dta.rules[0]" in str(err.value)


def test_parse_rejects_unvalidated_models():
    doc = json.loads(pathlib.Path(UNIT).read_text())
    doc["ctmc"]["states"][0]["transitions"] = {"g": "9/10"}
    with pytest.raises(modelio.ModelValidationError) as err:
        modelio.parse_model_text(json.dumps(doc))
    assert "sums to 9/10" in str(err.value)


def test_parse_valuation_forms(exposure_window):
    _, dta = exposure_window

    assert parse_valuation("x=1/2, y=0.25", dta.clocks) == (
        Fraction(1, 2),
        Fraction(1, 4),
    )
    assert parse_valuation("", dta.clocks) == (Fraction(0), Fraction(0))
    assert parse_valuation("y=1", dta.clocks) == (Fraction(0), Fraction(1))


def test_clock_given_twice_is_usage_error(capsys):
    with pytest.raises(UsageError, match="clock 'x' given twice"):
        parse_valuation("x=1,x=2", ("x", "y"))
    code, _, err = run(
        capsys, "solve", "--model", EXPOSURE, "--state", "a", "--location",
        "q0", "--valuation", "x=1, y=0, x=1", "--grid", "4",
    )
    assert code == 64
    assert "clock 'x' given twice" in err


# ---------------------------------------------------------------------------
# subcommands


def test_solve_subcommand(capsys):
    code, out, _ = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--valuation", "x=0", "--grid", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["probability"] == pytest.approx(0.5904, abs=1e-12)
    assert doc["m"] == 4
    assert doc["|V|"] == 24
    assert doc["m_min"] == 1153
    assert doc["below_threshold"] is True
    assert doc["\U0001d520"] == pytest.approx(math.exp(-1) / 1153, rel=1e-12)
    assert doc["empirical_error_estimate"] > 0
    assert doc["grid_size"] == 30
    assert doc["residual"] < 1e-10
    assert "timing" in doc


def test_solve_reports_the_solver_method(tmp_path, capsys, reset_loop):
    """One exact pass where the grid has an order, sweeps where a reset
    loop leaves none."""
    code, out, _ = run(
        capsys, "solve", "--model", EXPOSURE, "--state", "a", "--location", "q0",
        "--valuation", "x=0,y=0", "--grid", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["solver_method"], doc["sweeps"]) == ("exact", 1)
    model = tmp_path / "loop.json"
    model.write_text(modelio.serialize_model(*reset_loop))
    code, out, _ = run(
        capsys, "solve", "--model", str(model), "--state", "s", "--location", "q0",
        "--valuation", "x=0", "--grid", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["solver_method"] == "sweep" and doc["sweeps"] > 1


def test_solve_writes_result_file(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, _, _ = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--grid", "8", "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["probability"] == pytest.approx(1 - (1 + 1 / 8) ** -8, abs=1e-12)


def test_solve_is_deterministic_modulo_timing(capsys):
    args = (
        "solve", "--model", EXPOSURE, "--state", "a", "--location", "q0",
        "--valuation", "x=0,y=0", "--grid", "4",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    a, b = json.loads(first), json.loads(second)
    a.pop("timing"), b.pop("timing")
    assert a == b


def test_simulate_subcommand(capsys):
    code, out, _ = run(
        capsys, "simulate", "--model", UNIT, "--state", "s", "--location",
        "q0", "--valuation", "x=0", "--samples", "20000", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 20000
    assert abs(doc["p_hat"] - (1 - math.exp(-1))) < 0.02
    assert doc["ci_halfwidth"] > 0
    assert doc["p_low"] <= doc["p_hat"] <= doc["p_high"]


def test_simulate_counts_are_pinned(capsys):
    """The counts of a seeded query on the batch streams."""
    _, out, _ = run(
        capsys, "simulate", "--model", UNIT, "--state", "s", "--location",
        "q0", "--valuation", "x=0", "--samples", "20000", "--seed", "7",
    )
    doc = json.loads(out)
    assert (doc["accepted"], doc["dead_absorbed"]) == (12612, 7388)


def test_simulate_from_a_start_beyond_the_float_range(capsys):
    """``y=1e400`` is no float; it runs as y = 2, one above y's ceiling."""
    counts = []
    for y in ("1e400", "2"):
        code, out, _ = run(
            capsys, "simulate", "--model", EXPOSURE, "--state", "a", "--location",
            "q0", "--valuation", f"x=0,y={y}", "--samples", "2000", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        counts.append((doc["accepted"], doc["dead_absorbed"], doc["censored"]))
    assert counts == [(535, 1465, 0)] * 2


def test_graph_subcommand(tmp_path, capsys):
    dot_file = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "graph", "--model", UNIT, "--dot", str(dot_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["vertex_count"] == 24
    classes = {v["class"] for v in doc["vertices"]}
    assert classes == {"final", "alive", "dead"}
    text = dot_file.read_text()
    assert text.startswith("digraph")
    assert "doublecircle" in text


def test_bound_subcommand(capsys):
    code, out, _ = run(capsys, "bound", "--model", UNIT, "--grid", "1153")
    assert code == 0
    doc = json.loads(out)
    assert doc["m_min"] == 1153
    assert doc["rho"] == pytest.approx(1 / 1153)
    assert doc["below_threshold"] is False
    assert doc["M1"] == pytest.approx(math.e, rel=1e-12)
    assert doc["M2"] == pytest.approx(2 * math.e, rel=1e-12)
    assert doc["theoretical_bound"] > 1  # honest but vacuous


def test_solve_document_carries_the_bound_document(capsys):
    """Every key of ``bound`` has the same value in ``solve`` at that grid."""
    code, out, _ = run(capsys, "bound", "--model", EXPOSURE, "--grid", "8")
    assert code == 0
    bound = json.loads(out)
    code, out, _ = run(
        capsys, "solve", "--model", EXPOSURE, "--state", "a", "--location",
        "q0", "--valuation", "x=0,y=0", "--grid", "8",
    )
    assert code == 0
    solved = json.loads(out)
    assert len(bound) == 11
    assert {key: solved[key] for key in bound} == bound


CLOCKLESS = {
    "ctmc": {"states": [
        {"name": "s", "rate": "1", "label": "a", "transitions": {"g": "1"}},
        {"name": "g", "rate": "1", "label": "b", "transitions": {"g": "1"}},
    ]},
    "dta": {"clocks": [], "locations": ["q0", "q1"], "final": ["q1"], "rules": [
        {"from": q, "signature": a, "guard": "true", "resets": [], "to": to}
        for q, a, to in (("q0", "a", "q0"), ("q0", "b", "q1"),
                         ("q1", "a", "q1"), ("q1", "b", "q1"))
    ]},
}


def test_bound_subcommand_without_clocks_is_exactly_zero(tmp_path, capsys):
    model = tmp_path / "clockless.json"
    model.write_text(json.dumps(CLOCKLESS))
    code, out, _ = run(capsys, "bound", "--model", str(model), "--grid", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["M1"] == doc["M3"] == 0.0
    assert doc["theoretical_bound"] == 0.0


def test_convergence_subcommand(tmp_path, capsys):
    out_csv = tmp_path / "conv.csv"
    code, _, _ = run(
        capsys, "convergence", "--model", UNIT, "--state", "s", "--location",
        "q0", "--grids", "4,8,16", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "m,rho,value,abs_error_vs_exact_or_prev,observed_order"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["4", "8", "16"]
    assert rows[0][3] == ""
    v4, v8, v16 = (1 - (1 + 1 / m) ** -m for m in (4, 8, 16))
    assert float(rows[1][3]) == pytest.approx(abs(v8 - v4), abs=1e-12)
    assert rows[0][4] == rows[1][4] == ""
    assert float(rows[2][4]) == pytest.approx(
        math.log2((v8 - v4) / (v16 - v8)), abs=1e-9
    )


def test_convergence_reports_an_order_only_on_doubling_grids(tmp_path,
                                                             capsys):
    out_csv = tmp_path / "conv.csv"
    code, _, _ = run(
        capsys, "convergence", "--model", UNIT, "--state", "s", "--location",
        "q0", "--grids", "4,12,24,48", "--out", str(out_csv),
    )
    assert code == 0
    rows = [line.split(",") for line in out_csv.read_text().strip().splitlines()[1:]]
    assert rows[2][4] == ""  # 4 -> 12 is not a doubling
    v12, v24, v48 = (1 - (1 + 1 / m) ** -m for m in (12, 24, 48))
    assert float(rows[3][4]) == pytest.approx(
        math.log2((v24 - v12) / (v48 - v24)), abs=1e-9
    )


def test_convergence_against_exact_reference(tmp_path, capsys):
    out_csv = tmp_path / "conv.csv"
    exact = 1 - math.exp(-1)
    code, _, _ = run(
        capsys, "convergence", "--model", UNIT, "--state", "s", "--location",
        "q0", "--grids", "8,16", "--out", str(out_csv), "--exact", str(exact),
    )
    assert code == 0
    rows = [line.split(",") for line in out_csv.read_text().strip().splitlines()[1:]]
    assert float(rows[0][3]) == pytest.approx(
        abs((1 - (1 + 1 / 8) ** -8) - exact), abs=1e-12
    )


def _convergence_csv(capsys, path, model, state, location, valuation, grids,
                     *extra):
    code, _, err = run(capsys, "convergence", "--model", model, "--state",
                       state, "--location", location, "--valuation", valuation,
                       "--grids", grids, "--out", str(path), *extra)
    assert code == 0, err
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


@pytest.mark.parametrize("grids", ["4,8,16,32,64", "4,12,24,48", "64,32,16",
                                   "8,8,16,32", "6,12,24"])
@pytest.mark.parametrize("x", ["0", "1/3", "1/10", "1/100"])
def test_convergence_rows_as_the_walk_they_replaced_on_unit_deadline(
        tmp_path, capsys, unit_deadline, x, grids):
    """The rows read the Richardson table and match, bit for bit, the loop
    that called ``approximate`` once per grid (tests/oracles.py)."""
    rows = _convergence_csv(capsys, tmp_path / "conv.csv", UNIT, "s", "q0",
                            f"x={x}", grids)
    expected = convergence_rows(*unit_deadline, "s", "q0", (Fraction(x),),
                                [int(m) for m in grids.split(",")])
    assert rows == [[str(c) for c in row] for row in expected]


def test_convergence_leaves_no_order_next_to_a_grid_read_at_a_dead_point(
        tmp_path, capsys, unit_deadline):
    """From x = 63/64 the 4, 8 and 16 grids snap to the dead x = 1, so
    the gaps from 4 to 8, 8 to 16 and 16 to 32 say nothing: their error
    fields are empty (the loop it replaced wrote 0.0, 0.0 and 0.0303), and
    so is the order at m = 64 that reads the last (it wrote
    1.0223678130284546).  The values, the errors at m = 64 and 128 and
    the order at m = 128 are as before."""
    grids = [4, 8, 16, 32, 64, 128]
    rows = _convergence_csv(capsys, tmp_path / "conv.csv", UNIT, "s", "q0",
                            "x=63/64", ",".join(map(str, grids)))
    expected = convergence_rows(*unit_deadline, "s", "q0",
                                (Fraction(63, 64),), grids)
    assert [row[:3] for row in rows] == [[str(c) for c in row[:3]]
                                         for row in expected]
    assert [row[3] for row in rows] == ["", "", "", "", str(expected[4][3]),
                                        str(expected[5][3])]
    assert [row[3] for row in expected[1:4]] == [0.0, 0.0, 0.030303030303030304]
    assert expected[4][4] == 1.0223678130284546
    assert [row[4] for row in rows] == ["", "", "", "", "",
                                        "7.978060391488102"]
    assert expected[5][4] == 7.978060391488102


@pytest.mark.parametrize("grids", [[4, 12, 32], [64, 32, 16, 8]])
def test_convergence_keeps_the_plain_difference_where_the_grids_do_not_double(
        tmp_path, capsys, unit_deadline, grids):
    """Next to a grid read at the dead x = 1, a grid list that does not
    double still writes the difference to the previous row: from x = 63/64
    the 4 and 12 grids, and the 16 and 8 grids, read the dead point."""
    rows = _convergence_csv(capsys, tmp_path / "conv.csv", UNIT, "s", "q0",
                            "x=63/64", ",".join(map(str, grids)))
    expected = convergence_rows(*unit_deadline, "s", "q0",
                                (Fraction(63, 64),), grids)
    assert rows == [[str(c) for c in row] for row in expected]
    assert all(row[3] != "" for row in rows[1:])


@pytest.mark.parametrize("exact", [None, 0.25])
def test_convergence_rows_as_the_walk_they_replaced_on_exposure_window(
        tmp_path, capsys, exposure_window, exact):
    extra = () if exact is None else ("--exact", str(exact))
    for state, valuation in (("a", "x=0,y=0"), ("a", "x=1/2,y=1/4"),
                             ("b", "x=0,y=1/2")):
        eta = parse_valuation(valuation, exposure_window[1].clocks)
        rows = _convergence_csv(capsys, tmp_path / "conv.csv", EXPOSURE, state,
                                "q0", valuation, "4,8,16,32", *extra)
        expected = convergence_rows(*exposure_window, state, "q0", eta,
                                    [4, 8, 16, 32], exact)
        assert rows == [[str(c) for c in row] for row in expected], valuation


@pytest.mark.parametrize("model, state, location, valuation, expected, big", [
    (EXPOSURE, "a", "qf", "x=0,y=0", "1.0", 1000),
    (EXPOSURE, "a", "qsink", "x=0,y=0", "0.0", 1000),
    (UNIT, "g", "q0", "x=0", "0.0", 1_000_000),
], ids=["final_location", "dead_location", "dead_state"])
def test_convergence_from_a_final_or_dead_start_solves_nothing(
        tmp_path, capsys, model, state, location, valuation, expected, big):
    """Every row is the exact value, with no grid solved, also on a grid
    ``big`` above the cell cap."""
    assert solver.grid_cells(*modelio.parse_model(model), big) > \
        solver.MAX_GRID_CELLS
    solver._solved.cache_clear()
    rows = _convergence_csv(capsys, tmp_path / "conv.csv", model, state,
                            location, valuation, f"4,8,16,{big}")
    assert solver._solved.cache_info().misses == 0
    assert rows == [["4", "0.25", expected, "", ""],
                    ["8", "0.125", expected, "0.0", ""],
                    ["16", "0.0625", expected, "0.0", ""],
                    [str(big), str(1.0 / big), expected, "0.0", ""]]


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "solve", "--model", UNIT)
    assert code == 64
    assert "usage error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def test_invalid_model_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(pathlib.Path(UNIT).read_text())
    doc["ctmc"]["states"][1]["rate"] = "0"
    bad.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "solve", "--model", str(bad), "--state", "s", "--location",
        "q0", "--grid", "4",
    )
    assert code == 1
    assert "rate must be positive" in err


@pytest.mark.parametrize("path,value,named", [
    (("ctmc", "states"), [1], "ctmc.states[0]: expected an object"),
    (("ctmc", "states", 0, "transitions"), ["g"],
     "ctmc.states[0].transitions: expected an object"),
    (("dta",), 5, "dta: expected an object"),
    (("dta", "locations"), "q0", "dta.locations: expected a list"),
    (("dta", "rules"), [5], "dta.rules[0]: expected an object"),
    (("dta", "rules", 0, "resets"), 0, "dta.rules[0].resets: expected a list"),
])
def test_mistyped_model_field_exit_code(tmp_path, capsys, path, value, named):
    """A field of the wrong JSON type is a format error naming the field,
    not a traceback."""
    doc = json.loads(pathlib.Path(UNIT).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    model = tmp_path / "mistyped.json"
    model.write_text(json.dumps(doc))
    code, _, err = run(capsys, "graph", "--model", str(model))
    assert code == 1
    assert f"invalid model/query: {named}" in err


@pytest.mark.parametrize("path,named", [
    (("ctmc", "states", 1, "rate"), "ctmc.states[1].rate"),
    (("ctmc", "states", 0, "transitions", "g"), "ctmc.states[0].transitions.g"),
])
def test_boolean_number_exit_code(tmp_path, capsys, path, named):
    """JSON ``true`` is no number, although Python counts a bool as an int."""
    test_mistyped_model_field_exit_code(
        tmp_path, capsys, path, True, f"{named}: bad rational True")


@pytest.mark.parametrize("command", [
    ("graph",),
    ("bound", "--grid", "4"),
    ("solve", "--state", "s", "--location", "q0", "--valuation", "x=0", "--grid", "4"),
    ("simulate", "--state", "s", "--location", "q0", "--valuation", "x=0",
     "--samples", "10"),
])
@pytest.mark.parametrize("rate", ["1e400", "1e-400"])
def test_rate_outside_float_range_exit_code(tmp_path, capsys, command, rate):
    doc = json.loads(pathlib.Path(UNIT).read_text())
    doc["ctmc"]["states"][1]["rate"] = rate
    model = tmp_path / "rate.json"
    model.write_text(json.dumps(doc))
    code, _, err = run(capsys, command[0], "--model", str(model), *command[1:])
    assert code == 1
    assert "state g: rate is not a positive finite float" in err


@pytest.mark.parametrize("command", [
    ("graph",),
    ("bound", "--grid", "4"),
    ("solve", "--state", "s", "--location", "q0", "--valuation", "x=0", "--grid", "4"),
    ("simulate", "--state", "s", "--location", "q0", "--valuation", "x=0",
     "--samples", "10"),
])
@pytest.mark.parametrize("rate, code", [("1e-310", 1), ("1e-300", 0)])
def test_rate_with_an_infinite_sojourn_exit_code(tmp_path, capsys, command,
                                                 rate, code):
    """A sojourn of 53 ln 2 / rate overflowed to inf in ``simulate``, and
    ``inf - inf`` made NaN region signatures."""
    doc = json.loads(pathlib.Path(UNIT).read_text())
    doc["ctmc"]["states"][1]["rate"] = rate
    model = tmp_path / "rate.json"
    model.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, err = run(capsys, command[0], "--model", str(model), *command[1:])
    assert got == code
    assert ("state g: rate 1e-310 is so small" in err) == (code == 1)


@pytest.mark.parametrize("rate", [720, 800])
def test_log_contraction_stays_finite_on_fast_chains(tmp_path, capsys, rate):
    """At these rates 𝔠 = e^-rate * rate / (2 * 24^2 + rate) underflows, to
    a subnormal at 720 and to 0.0 at 800; its log does not."""
    doc = json.loads(pathlib.Path(UNIT).read_text())
    for state in doc["ctmc"]["states"]:
        state["rate"] = str(rate)
    model = tmp_path / "fast.json"
    model.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "bound", "--model", str(model), "--grid", "8")
    assert code == 0
    report = json.loads(out)
    assert report["\U0001d520"] < sys.float_info.min
    assert report["log_contraction"] == pytest.approx(
        -rate + math.log(rate / (2 * 24 ** 2 + rate)), rel=1e-12)
    assert report["theoretical_bound"] == math.inf


def test_unknown_state_exit_code(capsys):
    code, _, err = run(
        capsys, "solve", "--model", UNIT, "--state", "nosuch", "--location",
        "q0", "--grid", "4",
    )
    assert code == 1


def test_infeasible_epsilon_exit_code(capsys):
    code, _, err = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--epsilon", "0.05",
    )
    assert code == 2
    assert "force" in err


def test_epsilon_with_empirical_fallback(capsys):
    code, out, _ = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--epsilon", "0.05", "--force-empirical",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["probability"] - (1 - math.exp(-1))) < 0.05


@pytest.mark.parametrize("force", [[], ["--force-empirical"]])
@pytest.mark.parametrize("location, expected", [("qf", 1.0), ("qsink", 0.0)])
def test_epsilon_query_from_a_final_or_dead_start_solves_nothing(
        capsys, monkeypatch, location, expected, force):
    """The answer is exact, so no grid is sized or solved, also where the
    theoretical bound would need m = inf."""
    monkeypatch.setattr(solver, "_solved",
                        lambda *args: pytest.fail(f"solved a grid {args[2:]}"))
    code, out, _ = run(
        capsys, "solve", "--model", EXPOSURE, "--state", "a", "--location",
        location, "--valuation", "x=0,y=0", "--epsilon", "1e-3", *force,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["probability"] == expected
    assert (doc["m"], doc["theoretical_bound"]) == (1, 0.0)
    assert (doc["solver_method"], doc["sweeps"]) == ("shortcut", 0)


def test_epsilon_query_sized_by_the_bound(tmp_path, capsys):
    """Without clocks the bound is 0, so the grid is sized by the bound
    alone, at m = m_min, and the answer is exact."""
    model = tmp_path / "clockless.json"
    model.write_text(json.dumps(CLOCKLESS))
    code, out, _ = run(capsys, "solve", "--model", str(model), "--state", "s",
                       "--location", "q0", "--epsilon", "1e-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["probability"] == 1.0
    assert doc["m"] == doc["m_min"] == 33
    assert doc["theoretical_bound"] == 0.0
    assert doc["solver_method"] == "exact"


def test_epsilon_query_with_an_infinite_bound_exit_code(capsys):
    code, _, err = run(
        capsys, "solve", "--model", EXPOSURE, "--state", "a", "--location",
        "q0", "--valuation", "x=0,y=0", "--epsilon", "1e-3",
    )
    assert code == 2
    assert "needs m = inf" in err


@pytest.mark.parametrize("epsilon", ["0", "1.5"])
def test_epsilon_outside_the_unit_interval_exit_code(capsys, epsilon):
    code, _, err = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--epsilon", epsilon,
    )
    assert code == 1
    assert "epsilon must lie in (0,1)" in err


def test_force_empirical_reaching_the_cell_cap_exit_code(capsys, monkeypatch):
    """The doubling stops at the cell cap before the values settle."""
    monkeypatch.setattr(solver, "MAX_GRID_CELLS", 100)
    code, _, err = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--epsilon", "1e-6", "--force-empirical",
    )
    assert code == 2
    assert "empirical sizing exceeded 100 grid cells" in err


def test_force_empirical_with_the_cap_below_the_first_grid_exit_code(
        capsys, monkeypatch, unit_deadline):
    """No grid of the doubling fits, so the sizing is refused as numerical
    with the first grid as m_required, not as an invalid query."""
    monkeypatch.setattr(solver, "MAX_GRID_CELLS",
                        solver.grid_cells(*unit_deadline, 8) - 1)
    code, _, err = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--epsilon", "1e-3", "--force-empirical",
    )
    assert code == 2
    assert "empirical sizing exceeded" in err
    with pytest.raises(BoundInfeasibleError) as refused:
        solver.approximate(*unit_deadline, "s", "q0", (Fraction(0),),
                           epsilon=1e-3, force_empirical=True)
    assert refused.value.m_required == 8


def test_force_empirical_solves_its_final_grid_once(capsys):
    """The doubling solves each grid once and the answer is the last row
    of its table, so no grid is read twice; the solved-grid cache holds no
    more than the m and 2m grids."""
    solver._solved.cache_clear()
    code, out, _ = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--epsilon", "1e-3", "--force-empirical",
    )
    assert code == 0
    m = json.loads(out)["m"]
    info = solver._solved.cache_info()
    assert info.misses == m.bit_length() - 3  # m = 8, 16, ..., m
    assert info.hits == 0
    assert info.currsize <= 2


def test_force_empirical_answers_with_the_extrapolant(capsys):
    """The accuracy query stops at m = 128 on the second-level extrapolant
    S_m; the grid value, the level, the order of the R gaps and the
    difference the stop compared stay beside it."""
    code, out, _ = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--epsilon", "1e-5", "--force-empirical",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 128
    assert abs(doc["probability"] - (1 - math.exp(-1))) <= 1e-5
    assert doc["grid_probability"] < doc["probability"]
    assert doc["richardson_level"] == 2
    assert solver.ROMBERG_ORDER_MIN <= doc["observed_order"] < math.log2(7)
    assert 0 < doc["empirical_error_estimate"] <= 1e-5 / 2


def test_grid_query_reports_its_grid_value_without_an_order(capsys):
    code, out, _ = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--grid", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["grid_probability"] == doc["probability"]
    assert doc["observed_order"] is None
    assert doc["richardson_level"] == 0


def test_fast_chain_reports_infinite_bounds(tmp_path, capsys):
    """At rate 800, exp(lambda*t_max) overflows and exp(-lambda*t_max)
    underflows: the constants and the bound read infinite, and the
    probability is still answered."""
    doc = json.loads(pathlib.Path(UNIT).read_text())
    for state in doc["ctmc"]["states"]:
        state["rate"] = "800"
    model = tmp_path / "fast.json"
    model.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", "--model", str(model), "--state", "s",
                       "--location", "q0", "--grid", "8")
    assert code == 0
    solved = json.loads(out)
    assert 0.0 <= solved["probability"] <= 1.0
    assert solved["snap_slack"] == 0.0
    code, out, _ = run(capsys, "bound", "--model", str(model), "--grid", "8")
    assert code == 0
    for doc in (solved, json.loads(out)):
        for name in ("M1", "M2", "M3", "theoretical_bound"):
            assert doc[name] == math.inf, name
    assert '"theoretical_bound": Infinity' in out


def test_oversized_grid_is_refused_promptly(tmp_path, capsys):
    query = ("--model", EXPOSURE, "--state", "a", "--location", "q0",
             "--valuation", "x=0,y=0")
    started = time.perf_counter()
    code, _, err = run(capsys, "solve", *query, "--grid", "1000")
    assert code == 1
    assert "max_grid_cells" in err
    code, _, err = run(capsys, "convergence", *query, "--grids", "4,1000",
                       "--out", str(tmp_path / "conv.csv"))
    assert code == 1
    assert "max_grid_cells" in err
    assert time.perf_counter() - started < 5.0


def test_grid_cap_counts_the_grids_the_query_builds(capsys, monkeypatch,
                                                   unit_deadline):
    """With the cap at the m = 8 grid, a start on the m/4 grid answers,
    since its estimate reads the coarser grids; a start off it needs the
    m = 16 grid for its estimate and is refused."""
    monkeypatch.setattr(solver, "MAX_GRID_CELLS",
                        solver.grid_cells(*unit_deadline, 8))
    query = ("solve", "--model", UNIT, "--state", "s", "--location", "q0",
             "--grid", "8")
    code, out, _ = run(capsys, *query, "--valuation", "x=0")
    assert code == 0
    assert json.loads(out)["empirical_error_estimate"] > 0
    code, _, err = run(capsys, *query, "--valuation", "x=1/8")
    assert code == 1
    assert "the m = 16 grid" in err and "max_grid_cells" in err


@pytest.mark.parametrize("counts", [
    ("--samples", "0"),
    ("--samples", "-5"),
    ("--samples", "100", "--kmax", "-1"),
])
def test_bad_trial_counts_exit_code(capsys, counts):
    code, _, err = run(
        capsys, "simulate", "--model", UNIT, "--state", "s", "--location",
        "q0", *counts,
    )
    assert code == 1
    assert "invalid model/query" in err


def test_negative_seed_exit_code(capsys):
    code, _, err = run(
        capsys, "simulate", "--model", UNIT, "--state", "s", "--location",
        "q0", "--samples", "100", "--seed", "-1",
    )
    assert code == 1
    assert "seed must be non-negative, got -1" in err


@pytest.mark.parametrize("bad,named", [
    (("--samples", "0"), "trial count must be at least 1, got 0"),
    (("--kmax", "-1"), "step bound must be non-negative, got -1"),
    (("--seed", "-1"), "seed must be non-negative, got -1"),
    (("--confidence", "0"), "confidence must lie in (0, 1), got 0"),
    (("--confidence", "1.5"), "confidence must lie in (0, 1), got 1.5"),
    (("--state", "nosuch"), "unknown state 'nosuch'"),
    (("--location", "nope"), "unknown location 'nope'"),
    (("--valuation", "x=-1/2"), "clock 'x' is -1/2"),
])
def test_simulate_arguments_are_checked_before_the_graph(capsys, monkeypatch,
                                                         bad, named):
    """A bad argument is refused before the product graph is built."""
    monkeypatch.setattr(cli, "build_graph",
                        lambda *args: pytest.fail("built the product graph"))
    code, _, err = run(
        capsys, "simulate", "--model", UNIT, "--state", "s", "--location",
        "q0", "--samples", "100", *bad,
    )
    assert code == 1
    assert f"invalid model/query: {named}" in err


@pytest.mark.parametrize("command", [
    ("solve", "--grid", "4"),
    ("simulate", "--samples", "10"),
])
@pytest.mark.parametrize("bad,named", [
    (("--valuation", "x=-1/2"), "clock 'x'"),
    (("--location", "nope"), "location 'nope'"),
])
def test_bad_start_exit_code(capsys, command, bad, named):
    code, _, err = run(
        capsys, command[0], "--model", UNIT, "--state", "s", "--location",
        "q0", *command[1:], *bad,
    )
    assert code == 1
    assert named in err


@pytest.mark.parametrize("confidence", ["0", "1.5"])
def test_bad_confidence_exit_code(capsys, confidence):
    code, _, err = run(
        capsys, "simulate", "--model", UNIT, "--state", "s", "--location",
        "q0", "--samples", "100", "--confidence", confidence,
    )
    assert code == 1
    assert "confidence must lie in (0, 1)" in err


@pytest.mark.parametrize("command", [
    ("solve", "--state", "s", "--location", "q0", "--grid", "0"),
    ("solve", "--state", "s", "--location", "q1", "--grid", "0"),
    ("convergence", "--state", "s", "--location", "q0", "--grids", "0,4"),
    ("bound", "--grid", "0"),
])
def test_grid_below_one_exit_code(tmp_path, capsys, command):
    out = ("--out", str(tmp_path / "conv.csv"))
    extra = out if command[0] == "convergence" else ()
    code, _, err = run(capsys, command[0], "--model", UNIT, *command[1:], *extra)
    assert code == 1
    assert "grid resolution m must be >= 1" in err


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("command", [
    ("graph",),
    ("solve", "--state", "s", "--location", "q0", "--grid", "4"),
])
def test_duplicated_rule_is_refused_at_validation(tmp_path, capsys, command,
                                                   copies):
    doc = json.loads(pathlib.Path(UNIT).read_text())
    doc["dta"]["rules"] += [doc["dta"]["rules"][0]] * copies
    model = tmp_path / "duplicated.json"
    model.write_text(json.dumps(doc))
    code, _, err = run(capsys, command[0], "--model", str(model), *command[1:])
    assert code == 1
    assert "overlap" in err


@pytest.mark.parametrize("bad,named", [
    (("--valuation", "x"), "bad valuation entry 'x', want clock=value"),
    (("--valuation", "z=0"), "unknown clock 'z'"),
    (("--valuation", "x=one"), "bad clock value 'one'"),
    (("--grids", "a"), "bad --grids"),
    (("--grids", ","), "--grids needs at least one resolution"),
])
def test_bad_query_text_is_usage_error(tmp_path, capsys, bad, named):
    code, _, err = run(
        capsys, "convergence", "--model", UNIT, "--state", "s", "--location",
        "q0", "--grids", "4", "--out", str(tmp_path / "conv.csv"), *bad,
    )
    assert code == 64
    assert f"usage error: {named}" in err


def test_missing_model_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "graph", "--model", str(tmp_path / "none.json"))
    assert code == 1
    assert "io error" in err


@pytest.mark.parametrize("path,value,named", [
    (("ctmc",), None, "document needs 'ctmc' and 'dta' sections"),
    (("ctmc", "states", 0, "rate"), None, "ctmc.states[0]: missing field 'rate'"),
    (("ctmc", "states", 0, "transitions"), {"nowhere": "1"},
     "ctmc.states[0].transitions: unknown target state 'nowhere'"),
    (("dta", "rules", 0, "resets"), ["z"],
     "dta.rules[0]: reset of unknown clock 'z'"),
    (("dta", "rules", 0, "guard"), "x<<1",
     "dta.rules[0]: cannot parse guard term 'x<<1'"),
    (("ctmc", "states", 0),
     {"name": "g", "rate": "1", "label": "b", "transitions": {"g": "1"}},
     "duplicate state names: ['g']"),
    (("dta", "locations"), ["q0", "q1", "qsink", "q1"],
     "duplicate location names: ['q1']"),
    (("dta", "clocks"), ["x", "x"], "duplicate clock names: ['x']"),
    (("dta", "final"), ["q1", "qz"], "final locations ['qz'] not declared"),
    (("dta", "rules", 0, "to"), "qz", "rule to unknown location 'qz'"),
])
def test_faulty_model_document_exit_code(tmp_path, capsys, path, value, named):
    """A value of None drops the field."""
    doc = json.loads(pathlib.Path(UNIT).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    model = tmp_path / "faulty.json"
    model.write_text(json.dumps(doc))
    code, _, err = run(capsys, "graph", "--model", str(model))
    assert code == 1
    assert f"invalid model/query: {named}" in err


def test_oversized_region_count_is_refused_promptly(tmp_path, capsys):
    """5 clocks at ceiling 3 have 417 338 regions; the count is refused
    from the closed form before a region is enumerated."""
    doc = json.loads(pathlib.Path(UNIT).read_text())
    clocks = ["x", "y", "z", "u", "v"]
    doc["dta"]["clocks"] = clocks
    doc["dta"]["rules"][0]["guard"] = " & ".join(f"{c}<=3" for c in clocks)
    model = tmp_path / "five_clocks.json"
    model.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, _, err = run(capsys, "graph", "--model", str(model))
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert "2504028 vertices" in err  # 2 states x 3 locations x 417 338
    assert "417338 clock regions" in err
    assert f"MAX_VERTICES = {MAX_VERTICES}" in err


def test_commands_share_one_parser_in_one_process(capsys):
    """The parser is built once per process; a second command after a
    first one still parses its own arguments."""
    code, out, _ = run(
        capsys, "solve", "--model", UNIT, "--state", "s", "--location", "q0",
        "--valuation", "x=0", "--grid", "4",
    )
    assert code == 0
    assert json.loads(out)["probability"] == pytest.approx(0.5904, abs=1e-12)
    code, out, _ = run(capsys, "graph", "--model", UNIT)
    assert code == 0
    assert json.loads(out)["vertex_count"] == 24
    code, _, err = run(capsys, "graph")
    assert code == 64
    assert "--model" in err
