"""Kinetostatic analysis of two 3-limb parallel machine heads.

The two machines share base radius, platform radius and limb layout and
differ only in where the actuated prismatic joint sits in each limb: a
vertical rail before the revolute joint, or a telescoping link after it.
The package solves their inverse kinematics, builds constraint-embedded
Jacobians, maps parasitic motion, conditioning, workspace and stiffness,
and runs a paired comparison pipeline over tilt grids.

Units: mm, N, rad (interfaces that take degrees say so in their names).
"""
from .config import (
    ConfigError,
    SweepSettings,
    default_config_text,
    load_config,
    params_from_config,
    sweep_settings_from_config,
)
from .errors import (
    ConstraintViolation,
    CouplingSingular,
    GimbalDegeneracy,
    IntegrationDiverged,
    NoConvergence,
    PkmError,
    RankDeficiency,
    SingularConfiguration,
    SingularLimb,
    SingularStiffness,
    UnreachablePose,
)
from .geometry import (
    DEFAULT_AZIMUTHS,
    MechanismParams,
    Pose,
    StiffnessCoeffs,
    TaskRate,
    Variant,
    default_params,
    home_height,
    home_pose,
    orientation_from_tilts,
    pose_from_tilts,
)
from .grids import SweepGrid, read_map_csv, tilt_axes, write_map_csv
from .jacobian import (
    JacobianSet,
    build_jacobian,
    constraint_projector,
    homogenized_jacobian,
    project_task_rate,
)
from .kinematics import (
    LimbState,
    inverse_kinematics,
    spherical_joint_angles,
    spherical_joint_frame,
)
from .parasitic import (
    CompatiblePose,
    ParasiticCoupling,
    ParasiticShift,
    coupling_matrices,
    integrate_parasitic_path,
    parasitic_map,
    solve_loop_closure,
)
from .stiffness import (
    STIFFNESS_FIELDS,
    StiffnessResult,
    assemble_stiffness,
    deflection_under_load,
    stiffness_map_parasitic,
    stiffness_map_rotational,
)
from .svg import emit_heatmap_svg
from .sweep import (
    CompareSettings,
    ComparisonReport,
    condition_map,
    run_comparison,
    workspace_slice,
)

__version__ = "0.1.0"

__all__ = [
    "CompareSettings",
    "CompatiblePose",
    "ComparisonReport",
    "ConfigError",
    "ConstraintViolation",
    "CouplingSingular",
    "DEFAULT_AZIMUTHS",
    "GimbalDegeneracy",
    "IntegrationDiverged",
    "JacobianSet",
    "LimbState",
    "MechanismParams",
    "NoConvergence",
    "ParasiticCoupling",
    "ParasiticShift",
    "PkmError",
    "Pose",
    "RankDeficiency",
    "STIFFNESS_FIELDS",
    "SingularConfiguration",
    "SingularLimb",
    "SingularStiffness",
    "StiffnessCoeffs",
    "StiffnessResult",
    "SweepGrid",
    "SweepSettings",
    "TaskRate",
    "UnreachablePose",
    "Variant",
    "assemble_stiffness",
    "build_jacobian",
    "condition_map",
    "constraint_projector",
    "coupling_matrices",
    "default_config_text",
    "default_params",
    "deflection_under_load",
    "emit_heatmap_svg",
    "home_height",
    "home_pose",
    "homogenized_jacobian",
    "integrate_parasitic_path",
    "inverse_kinematics",
    "load_config",
    "orientation_from_tilts",
    "parasitic_map",
    "params_from_config",
    "pose_from_tilts",
    "project_task_rate",
    "read_map_csv",
    "run_comparison",
    "solve_loop_closure",
    "spherical_joint_angles",
    "spherical_joint_frame",
    "stiffness_map_parasitic",
    "stiffness_map_rotational",
    "sweep_settings_from_config",
    "tilt_axes",
    "workspace_slice",
    "write_map_csv",
]
