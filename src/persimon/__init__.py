"""persimon: 1D multi-agent persistent monitoring.

Simulates the hybrid agent/target dynamics, localizes every mode-switching
event, computes exact event-driven cost gradients with respect to each
agent's switching points and dwell times under three information-sharing
modes, and optimizes trajectories by projected gradient descent.
"""

from .model import AgentSpec, InfoMode, Numerics, Scenario, ScenarioError, Target
from .policy import AgentParams, project_params
from .sim import SimRecord, Simulator, simulate
from .gradient import GradientVector, full_gradient
from .visibility import mode_gradients, visible_events
from .descent import OptimizerConfig, OptRun, optimize
from .fdcheck import FdReport, fd_gradient, grad_check

__all__ = [
    "AgentSpec", "InfoMode", "Numerics", "Scenario", "ScenarioError", "Target",
    "AgentParams", "project_params",
    "SimRecord", "Simulator", "simulate",
    "GradientVector", "full_gradient",
    "mode_gradients", "visible_events",
    "OptimizerConfig", "OptRun", "optimize",
    "FdReport", "fd_gradient", "grad_check",
]

__version__ = "0.1.0"
