import contextlib
import copy
import io
import json
import logging
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persimon.cli import build_parser, dump_params, load_params, load_scenario, main
from persimon.model import ScenarioError
from persimon.sim import simulate

from conftest import scale_gradient

DATA = Path(__file__).resolve().parents[1] / "src" / "persimon" / "data"


def write_scenario(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def small_doc(**over):
    doc = {
        "schema_version": 1,
        "mission": {"L": 40.0, "T": 8.0},
        "targets": [{"x": 10.0, "A": 1.0, "B": 5.0, "R0": 6.0},
                    {"x": 20.0, "A": 0.8, "B": 4.0, "R0": 8.0}],
        "agents": [{"s0": 8.0, "u0": 1, "r": 3.0,
                    "theta0": [11.0, 7.0], "w0": [1.0, 1.0]},
                   {"s0": 22.0, "u0": -1, "r": 3.0,
                    "theta0": [19.0, 23.0], "w0": [1.0, 1.0]}],
        "r_c": 6.0,
        "mode": "ALMOST",
        "numerics": {"h": 0.001, "eps_event": 1e-9, "sample_dt": 0.1},
        "optimizer": {"a_theta": 0.2, "a_w": 0.2, "eta": 0.6,
                      "epsilon": 1e-4, "max_iters": 3},
    }
    doc.update(over)
    return doc


def set_field(doc, field, value):
    """Set the field at a JSON path such as ``agents[0].theta0[1]``."""
    *parents, leaf = re.findall(r"\w+|\[\d+\]", field)
    node = doc
    for key in parents:
        node = node[int(key[1:-1])] if key.startswith("[") else node[key]
    if leaf.startswith("["):
        node[int(leaf[1:-1])] = value
    else:
        node[leaf] = value


@pytest.fixture
def scenario_file(tmp_path):
    f = tmp_path / "small.scenario"
    write_scenario(f, small_doc())
    return f


class TestLoad:
    def test_bundled_files_valid(self):
        for name in ("example1.scenario", "example2.scenario"):
            sc, params, opt = load_scenario(DATA / name)
            assert sc.n_targets == 7 and sc.n_agents == 3
            assert params[0].n_points == 56
            assert opt.max_iters == 200

    def test_malformed_decay_names_target(self, tmp_path):
        doc = small_doc()
        doc["targets"][1]["B"] = 0.5
        f = tmp_path / "bad.scenario"
        write_scenario(f, doc)
        rc = main(["simulate", "--scenario", str(f), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", [
        "mission.L", "mission.T", "r_c",
        "targets[1].x", "targets[1].A", "targets[1].B", "targets[1].R0",
        "agents[0].s0", "agents[0].u0", "agents[0].r", "agents[0].r_c",
        "agents[0].theta0[1]", "agents[0].w0[1]",
        "numerics.h", "numerics.eps_event", "numerics.sample_dt",
        "optimizer.a_theta", "optimizer.a_w", "optimizer.eta",
        "optimizer.epsilon", "optimizer.max_iters",
    ])
    def test_non_finite_number_names_field(self, tmp_path, capsys, field, value):
        doc = small_doc()
        set_field(doc, field, value)
        f = tmp_path / "nonfinite.scenario"
        write_scenario(f, doc)
        rc = main(["simulate", "--scenario", str(f), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"invalid scenario: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field,value,why", [
        ("agents[0].u0", 0.5, "not an integer"),
        ("optimizer.max_iters", 2.5, "not an integer"),
        ("optimizer.eta", 0.4, "must be in (0.5, 1]"),
        ("optimizer.a_theta", 0.0, "must be > 0"),
        ("optimizer.max_iters", -1, "must be >= 0"),
        ("numerics.sample_dt", 1e-15, "sample rows"),
    ])
    def test_bad_value_names_field(self, tmp_path, capsys, field, value, why):
        doc = small_doc()
        set_field(doc, field, value)
        f = tmp_path / "bad.scenario"
        write_scenario(f, doc)
        rc = main(["simulate", "--scenario", str(f), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"invalid scenario: {field}:" in err and why in err
        assert not (tmp_path / "o").exists()

    def test_integral_floats_accepted(self, tmp_path):
        doc = small_doc()
        set_field(doc, "agents[0].u0", 1.0)
        set_field(doc, "optimizer.max_iters", 3.0)
        f = tmp_path / "floats.scenario"
        write_scenario(f, doc)
        sc, _, opt = load_scenario(f)
        assert sc.agents[0].u0 == 1 and opt.max_iters == 3

    def test_u0_conflict_warned_once_per_agent_on_load(self, tmp_path, caplog):
        # agent 0 heads up to 11 and agent 1 down to 19, against their u0
        doc = small_doc()
        set_field(doc, "agents[0].u0", -1)
        set_field(doc, "agents[1].u0", 1)
        f = tmp_path / "u0.scenario"
        write_scenario(f, doc)

        def warnings():
            return [r.getMessage() for r in caplog.records if r.name == "persimon.policy"]

        with caplog.at_level(logging.WARNING, logger="persimon.policy"):
            sc, ps, _ = load_scenario(f)
            assert warnings() == [
                f"agent {j}: initial control u0={u0} conflicts with direction {u} "
                f"toward first switching point; using {u}"
                for j, u0, u in ((0, "-1", "+1"), (1, "+1", "-1"))]
            caplog.clear()
            simulate(sc, ps)
            simulate(sc, ps)
            assert warnings() == []
            load_scenario(DATA / "smoke.scenario")
            assert warnings() == []

    def test_step_h_accepted_and_ignored(self, tmp_path):
        outs = []
        for h in (1e-3, 0.5, -1.0):
            doc = small_doc()
            set_field(doc, "numerics.h", h)
            f = tmp_path / f"h{h}.scenario"
            write_scenario(f, doc)
            out = tmp_path / f"out{h}"
            assert main(["simulate", "--scenario", str(f), "--out", str(out)]) == 0
            outs.append([(out / n).read_bytes() for n in ("events.csv", "summary.json")])
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("field,value,path", [
        ("targets", 5, "targets"),
        ("numerics", [], "numerics"),
        ("agents[0].theta0", [[11.0, 7.0]], "agents[0].theta0[0]"),
        ("mission.L", True, "mission.L"),
        ("targets[0]", "x", "targets[0]"),
        ("mode", ["ALMOST"], "mode"),
        ("local_reentry_reset", "no", "local_reentry_reset"),
    ])
    def test_mistyped_value_names_path(self, tmp_path, capsys, field, value, path):
        doc = small_doc()
        set_field(doc, field, value)
        f = tmp_path / "typed.scenario"
        write_scenario(f, doc)
        rc = main(["simulate", "--scenario", str(f), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"invalid scenario: {path}: expected " in capsys.readouterr().err

    def test_huge_integer_names_path(self, tmp_path, capsys):
        f = tmp_path / "huge.scenario"
        write_scenario(f, small_doc())
        f.write_text(f.read_text().replace('"L": 40.0', '"L": 1' + "0" * 400))
        assert main(["simulate", "--scenario", str(f), "--out", str(tmp_path / "o")]) == 2
        assert "invalid scenario: mission.L: too large" in capsys.readouterr().err

    def test_deeply_nested_document_is_named(self, tmp_path, capsys):
        f = tmp_path / "deep.scenario"
        f.write_text('{"schema_version": 1, "mission": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["simulate", "--scenario", str(f), "--out", str(tmp_path / "o")]) == 2
        assert f"invalid scenario: {f}: maximum recursion depth" in capsys.readouterr().err

    def test_syntax_error_reports_line(self, tmp_path, capsys):
        f = tmp_path / "broken.scenario"
        f.write_text('{"schema_version": 1,\n  "mission": }\n')
        rc = main(["simulate", "--scenario", str(f), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


class TestSimulateCmd:
    def test_outputs(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["J"] > 0
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "t,s_1,s_2,u_1,u_2,R_1,R_2,P_1,P_2"
        assert len(traj) == 1 + 81  # header + samples at 0.1s over T=8
        events = (out / "events.csv").read_text().splitlines()
        assert events[0] == "time,kind,agent,target,payload"
        assert summary["gradient"][0]["theta_grad"]

    def test_no_agent_cost_formula(self, tmp_path):
        doc = small_doc(agents=[])
        f = tmp_path / "empty.scenario"
        write_scenario(f, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(f), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        expect = (6.0 + 1.0 * 8 / 2) + (8.0 + 0.8 * 8 / 2)
        assert summary["J"] == pytest.approx(expect, rel=1e-9)

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--scenario", str(scenario_file),
                         "--out", str(out), "--audit-events"]) == 0
        for name in ("trajectory.csv", "events.csv", "summary.json",
                     "audit_events_agent0.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestOptimizeCmd:
    def test_outputs_and_row_budget(self, scenario_file, tmp_path):
        out = tmp_path / "opt"
        rc = main(["optimize", "--scenario", str(scenario_file), "--out", str(out)])
        assert rc == 0
        hist = (out / "cost_history.csv").read_text().splitlines()
        assert hist[0] == "iteration,J,n_events,n_intervals,grad_norm_1,grad_norm_2"
        first = hist[1].split(",")
        assert int(first[2]) > 0 and int(first[3]) > 0
        assert len(hist) <= 1 + 3 + 1
        assert (out / "params_final.json").exists()
        assert (out / "checkpoints" / "params_iter0000.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] in ("TOL", "MAX_ITERS")
        assert summary["hold_violations"] == 0
        assert 0.0 <= summary["floor_leave_max_dev"] <= 1e-9
        assert summary["reentry_resets"] == 0

    def test_zero_iters_returns_initial_params(self, scenario_file, tmp_path):
        out = tmp_path / "opt0"
        rc = main(["optimize", "--scenario", str(scenario_file), "--out", str(out),
                   "--iters", "0"])
        assert rc == 0
        final = json.loads((out / "params_final.json").read_text())
        assert final["agents"][0]["theta"] == [11.0, 7.0]
        assert final["agents"][0]["w"] == [1.0, 1.0]

    def test_centralized_equals_almost_byte_identical(self, scenario_file, tmp_path):
        outs = {}
        for mode in ("CENTRALIZED", "ALMOST"):
            out = tmp_path / mode.lower()
            assert main(["optimize", "--scenario", str(scenario_file),
                         "--out", str(out), "--mode", mode, "--iters", "3"]) == 0
            outs[mode] = out
        a = (outs["ALMOST"] / "cost_history.csv").read_bytes()
        c = (outs["CENTRALIZED"] / "cost_history.csv").read_bytes()
        assert a == c
        pa = (outs["ALMOST"] / "params_final.json").read_bytes()
        pc = (outs["CENTRALIZED"] / "params_final.json").read_bytes()
        assert pa == pc


class TestGradcheckCmd:
    def test_passes_on_clean_build(self, scenario_file, tmp_path):
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--scenario", str(scenario_file), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "fd_report.json").read_text())
        assert report["pass_rate"] >= 0.95
        # the fixture must carry real signal or the check is vacuous
        assert any(abs(c["analytic"]) > 1e-3 for c in report["coords"])

    def test_corrupted_build_fails(self, scenario_file, tmp_path, monkeypatch):
        scale_gradient(monkeypatch, 1.5)
        out = tmp_path / "gc_bad"
        rc = main(["gradcheck", "--scenario", str(scenario_file), "--out", str(out)])
        assert rc == 1

    def test_empty_program_trivially_passes(self, tmp_path):
        doc = small_doc()
        for a in doc["agents"]:
            a["theta0"] = []
            a["w0"] = []
        f = tmp_path / "gamma0.scenario"
        write_scenario(f, doc)
        out = tmp_path / "gc0"
        assert main(["gradcheck", "--scenario", str(f), "--out", str(out)]) == 0


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--tol", "nan"], ["gradcheck", "--tol", "inf"],
        ["gradcheck", "--tol", "0"], ["gradcheck", "--tol", "-1"],
        ["gradcheck", "--threshold", "nan"], ["gradcheck", "--threshold", "1.5"],
        ["optimize", "--checkpoint-every", "0"], ["optimize", "--checkpoint-every", "-3"],
    ])
    def test_bad_value_rejected_at_parse_time(self, scenario_file, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--scenario", str(scenario_file), "--out", str(out)] + argv[1:])
        assert exc.value.code == 2
        assert f"argument {argv[1]}: " in capsys.readouterr().err
        assert not out.exists()

    def test_bounds_accepted(self):
        args = build_parser().parse_args(["gradcheck", "--scenario", "s", "--out", "o",
                                          "--tol", "1e-300", "--threshold", "1"])
        assert (args.tol, args.threshold) == (1e-300, 1.0)
        args = build_parser().parse_args(["gradcheck", "--scenario", "s", "--out", "o",
                                          "--threshold", "0"])
        assert (args.tol, args.threshold) == (1e-2, 0.0)
        args = build_parser().parse_args(["optimize", "--scenario", "s", "--out", "o",
                                          "--checkpoint-every", "1"])
        assert args.checkpoint_every == 1


class TestParamsRoundTrip:
    def test_dump_and_reload(self, scenario_file, tmp_path):
        sc, params, _ = load_scenario(scenario_file)
        f = tmp_path / "params.json"
        dump_params(params, f)
        again = load_params(f, sc)
        for p, q in zip(params, again):
            assert np.array_equal(p.theta, q.theta)
            assert np.array_equal(p.w, q.w)

    def test_simulate_with_params_override(self, scenario_file, tmp_path):
        sc, params, _ = load_scenario(scenario_file)
        pf = tmp_path / "params.json"
        dump_params(params, pf)
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(scenario_file),
                   "--params", str(pf), "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_params_file_is_named(self, scenario_file, tmp_path, capsys, kind):
        pf = tmp_path / "params.json"
        if kind == "directory":
            pf.mkdir()
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(scenario_file),
                   "--params", str(pf), "--out", str(out)])
        assert rc == 2
        assert f"invalid scenario: {pf}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows,path,why", [
        ([{"theta": [11.0, 7.0]}, {"theta": [19.0], "w": [1.0]}],
         "params.agents[0].w", "missing required field"),
        ([{"theta": [11.0, 7.0], "w": [1.0]}, {"theta": [19.0], "w": [1.0]}],
         "params.agents[0]", "theta has 2 entries but w has 1"),
        ([{"theta": [[11.0]], "w": [1.0]}, {"theta": [19.0], "w": [1.0]}],
         "params.agents[0].theta[0]", "expected a number, got an array"),
        ([{"theta": [19.0], "w": [1.0]}, 5], "params.agents[1]", "expected an object"),
    ])
    def test_malformed_params_name_path(self, scenario_file, tmp_path, capsys, rows, path, why):
        pf = tmp_path / "params.json"
        pf.write_text(json.dumps({"schema_version": 1, "agents": rows}))
        rc = main(["simulate", "--scenario", str(scenario_file),
                   "--params", str(pf), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"invalid scenario: {path}: {why}" in capsys.readouterr().err


SMOKE_DOC = json.loads((DATA / "smoke.scenario").read_text())
PARAMS_DOC = {"schema_version": 1,
              "agents": [{"theta": a["theta0"], "w": a["w0"]} for a in SMOKE_DOC["agents"]]}
# other JSON types, and extreme, subnormal and non-finite numbers
SWAPS = [None, True, "x", [], {}, [[1.0]], 0, -1, -0.0, 0.5, 5e-324, 1e-300, 1e308, -1e308,
         10 ** 400, float("nan"), float("inf"), float("-inf")]


def json_paths(node, at=()):
    yield at
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from json_paths(child, at + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three values dropped or replaced by ``SWAPS``."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(list(json_paths(doc))))
        swap = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        if not at:
            doc = swap
            continue
        node = doc
        for key in at[:-1]:
            node = node[key]
        if draw(st.booleans()):
            del node[at[-1]]
        else:
            node[at[-1]] = swap
    return doc


class TestLoaderFuzz:
    """Malformed and extreme documents either load or fail with a JSON path."""

    @settings(max_examples=300, deadline=None)
    @given(mutated(SMOKE_DOC))
    def test_scenario_loads_or_raises_scenario_error(self, doc):
        with tempfile.TemporaryDirectory() as d:
            f = Path(d) / "fuzz.scenario"
            write_scenario(f, doc)
            try:
                load_scenario(f)
            except ScenarioError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(mutated(PARAMS_DOC))
    def test_params_load_or_raise_scenario_error(self, doc):
        sc, _, _ = load_scenario(DATA / "smoke.scenario")
        with tempfile.TemporaryDirectory() as d:
            f = Path(d) / "fuzz.json"
            write_scenario(f, doc)
            try:
                load_params(f, sc)
            except ScenarioError:
                pass

    @settings(max_examples=60, deadline=None)
    @given(st.booleans(), st.data())
    def test_simulate_never_raises(self, scenario_side, data):
        scen = data.draw(mutated(SMOKE_DOC)) if scenario_side else SMOKE_DOC
        prm = PARAMS_DOC if scenario_side else data.draw(mutated(PARAMS_DOC))
        with tempfile.TemporaryDirectory() as d:
            write_scenario(Path(d) / "s.scenario", scen)
            write_scenario(Path(d) / "p.json", prm)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["simulate", "--scenario", str(Path(d) / "s.scenario"),
                           "--params", str(Path(d) / "p.json"), "--out", str(Path(d) / "o")])
        assert rc == 0 or "invalid scenario: " in err.getvalue()
