import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from persimon.cli import dump_params, load_scenario, main
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


class TestParamsRoundTrip:
    def test_dump_and_reload(self, scenario_file, tmp_path):
        sc, params, _ = load_scenario(scenario_file)
        f = tmp_path / "params.json"
        dump_params(params, f)
        from persimon.cli import load_params
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
