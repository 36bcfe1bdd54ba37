"""Online NURBS path replanning for curvature-bounded, constant-speed
vehicles: geometry kernel, velocity-obstacle constraints, a constrained
differential-evolution solver, vector-field tracking, and a deterministic
mission simulator."""

from .geometry import (HeadingSpec, NurbsCurve, apply_delta,
                       build_path_with_headings, clamped_uniform_knots,
                       neutral_delta)
from .lshade import Individual, OptimizerConfig, ProblemDef, optimize
from .planner import (PlannerConfig, ReplanResult, Waypoint,
                      constraint_violations, cut_path_at_projection,
                      initial_path, mission_loop, replan_cycle)
from .scenario import Scenario, ScenarioError, load_scenario, run_mission
from .tracking import (UavState, heading_rate_command, step_dubins,
                       vector_field)
from .velocity_obstacle import (ObstacleState, VOCheck, in_truncated_vo,
                                path_vo_violation, time_to_collision)
from .world import (CollisionEvent, DynamicObstacle, SimLog, StaticObstacle,
                    World)

__version__ = "0.1.0"
