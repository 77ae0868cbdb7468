"""Screw-theoretic multibody dynamics for tree-topology rigid-body chains.

The package is organized by layer:

* :mod:`screwchain.se3` -- SO(3)/SE(3) kernels and screw algebra, for
  one screw and for stacks; every other layer takes its kernels from it.
* :mod:`screwchain.model` -- chain description, validation, file I/O.
* :mod:`screwchain.kinematics` -- POE forward kinematics, twists,
  accelerations, jerks and Jacobians in body-fixed, spatial, hybrid, and
  mixed representation; the table of Jacobian partials as Lie brackets.
* :mod:`screwchain.dynamics` -- Newton-Euler balances, recursive inverse
  dynamics with operation counting, closed-form equations of motion from
  the kinematics bracket table, forward dynamics, spatial-momentum form.
* :mod:`screwchain.integrators` -- joint-space RK4 and the Munthe-Kaas
  Lie-group RK4 with conservation diagnostics.
* :mod:`screwchain.cli` -- batch command-line front end.
"""

from . import se3, model, kinematics, dynamics, integrators, samples
from .se3 import Pose
from .model import (
    BodyModel,
    ChainModel,
    JointModel,
    ModelError,
    SpatialInertia,
    load_model,
    parse_model,
    serialize_model,
)
from .kinematics import JointState, KinematicsCache, SystemJacobian, Twist
from .samples import sample_model_path

__all__ = [
    "se3", "model", "kinematics", "dynamics", "integrators", "samples",
    "Pose", "BodyModel", "ChainModel", "JointModel", "ModelError",
    "SpatialInertia", "load_model", "parse_model", "serialize_model",
    "JointState", "KinematicsCache", "SystemJacobian", "Twist",
    "sample_model_path",
]
__version__ = "0.1.0"
