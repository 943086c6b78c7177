import pytest

from persimon.fdcheck import fd_gradient, grad_check
from persimon.sim import Simulator, simulate

from conftest import make_scenario, params, random_scenario, scale_gradient


class TestFdGradient:
    def test_unreachable_tail_coordinate_is_zero(self):
        # a dwell longer than the horizon makes the second point unreachable
        sc = make_scenario([(10.0, 1.0, 5.0, 10.0)], [(4.0, 1, 3.0)], T=10.0)
        ps = (params([10.0, 20.0], [50.0, 1.0]),)
        fd = fd_gradient(sc, ps, 0, "theta", 1, 1e-4)
        assert fd == pytest.approx(0.0, abs=1e-9)

    def test_dwell_extension_lowers_cost_while_uncertain(self):
        # coverage with uncertainty still positive: dwelling longer before
        # leaving for an empty corner keeps the decay running
        sc = make_scenario([(10.0, 1.0, 5.0, 10.0)], [(10.0, 0, 3.0)], T=6.0)
        ps = (params([10.0, 20.0], [2.0, 1.0]),)
        fd = fd_gradient(sc, ps, 0, "w", 0, 1e-4)
        assert fd is not None and fd < 0.0

    def test_two_step_consistency_on_smooth_config(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 10.0)], [(4.0, 1, 3.0)], T=10.0)
        ps = (params([12.0], [2.0]),)
        f1 = fd_gradient(sc, ps, 0, "theta", 0, 1e-3)
        f2 = fd_gradient(sc, ps, 0, "theta", 0, 1e-4)
        assert f1 == pytest.approx(f2, rel=0.05)

    def test_boundary_coordinate_skipped(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 10.0)], [(4.0, 1, 3.0)], T=10.0)
        ps = (params([12.0], [0.0]),)
        assert fd_gradient(sc, ps, 0, "w", 0, 1e-4) is None


class TestGradCheck:
    def test_random_configs_pass(self, rng):
        for _ in range(3):
            sc, ps = random_scenario(rng, T=14.0)
            report = grad_check(sc, ps, tol=1e-2)
            assert report.pass_rate() >= 0.95

    def test_zero_influence_params(self):
        # the agent program never enters sensing range of anything
        sc = make_scenario([(30.0, 1.0, 5.0, 5.0)], [(2.0, 1, 3.0)], T=8.0)
        report = grad_check(sc, (params([4.0, 6.0], [1.0, 1.0]),), tol=1e-2)
        for c in report.coords:
            assert c.analytic == pytest.approx(0.0, abs=1e-12)
        assert report.pass_rate() == 1.0

    def test_corrupted_gradient_detected(self, monkeypatch):
        scale_gradient(monkeypatch, 1.5)
        sc = make_scenario([(10.0, 1.0, 5.0, 10.0)], [(4.0, 1, 3.0)], T=10.0)
        report = grad_check(sc, (params([12.0], [2.0]),), tol=1e-2)
        assert report.pass_rate() < 0.95

    def test_report_serialization(self, tmp_path):
        sc = make_scenario([(10.0, 1.0, 5.0, 10.0)], [(4.0, 1, 3.0)], T=6.0)
        report = grad_check(sc, (params([12.0], [1.0]),), tol=1e-2)
        out = tmp_path / "report.json"
        report.save(out)
        text = out.read_text()
        assert '"pass_rate"' in text
        assert report.table()

    def test_oracle_independent_of_gradient_module(self):
        import ast, inspect
        import persimon.fdcheck as fdmod
        src = inspect.getsource(fdmod)
        tree = ast.parse(src)
        # fd_gradient's call graph stays within simulate/cost helpers
        fn = next(n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == "fd_gradient")
        names = {c.func.id for c in ast.walk(fn)
                 if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
        assert "full_gradient" not in names and "agent_gradient" not in names


class TestArguments:
    """Bad steps and tolerances fail at entry, before any simulation, naming
    the argument."""

    SC = make_scenario([(10.0, 1.0, 5.0, 10.0)], [(4.0, 1, 3.0)], T=6.0)
    PS = (params([12.0], [1.0]),)

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        monkeypatch.setattr(Simulator, "run", lambda self, *a: pytest.fail("simulated"))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), "0.01", None])
    def test_bad_tol(self, tol):
        with pytest.raises(ValueError, match=r"^tol must be a finite number > 0"):
            grad_check(self.SC, self.PS, tol=tol)

    @pytest.mark.parametrize("delta", [0.0, -1e-4, float("nan"), float("inf")])
    def test_bad_delta(self, delta):
        with pytest.raises(ValueError, match=r"^delta must be a finite number > 0"):
            fd_gradient(self.SC, self.PS, 0, "theta", 0, delta)
