#!/usr/bin/env python3
"""Print one SHA-256 over every output of the scalar per-pose chain.

Seeded queries on six machines run closure, coupling, IK, Jacobian (and
homogenized_jacobian on its Ga and Gc), task rate projection, stiffness
and deflection; seeded RK4 paths run integrate_parasitic_path.  The
digest covers the raw bytes of every float and array the chain returns,
and the class and message of every error it raises.  Two trees that
print the same digest gave the same bits.  The digest depends on the
host's numpy and BLAS, so compare two trees on one host only:

    PYTHONPATH=src python3 scripts/scalar_digest.py [--queries N] [--paths N]

The solved and raised counts go to stderr.
"""
import argparse
import hashlib
import struct
import sys

import numpy as np

import pkm
from pkm.geometry import MechanismParams, StiffnessCoeffs, Variant, home_height

SEED = 20261020
TILT_MAX_RAD = 1.0
PATH_STEPS = 200
ERRORS = (pkm.PkmError, ValueError)


def machines() -> list[MechanismParams]:
    return [
        MechanismParams(Variant.Z3_PRS),
        MechanismParams(Variant.A3_RPS),
        MechanismParams(Variant.Z3_PRS, link_length=105.0),
        MechanismParams(Variant.A3_RPS, azimuths=(0.0, 2.0, 4.5)),
        MechanismParams(Variant.A3_RPS, stiffness=StiffnessCoeffs(k_sx=2e6, k_sz=5e5)),
        # clustered limbs: C1 is ill-conditioned but not singular
        MechanismParams(Variant.A3_RPS, azimuths=(0.0, 0.01, 0.02)),
    ]


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def feed(self, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                self.sha.update(f"{value.dtype.str}{value.shape}".encode())
                self.sha.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, float):
                self.sha.update(struct.pack("<d", value))
            else:
                raise TypeError(f"cannot digest {type(value).__name__}")

    def error(self, exc: Exception) -> None:
        self.sha.update(f"{type(exc).__name__}: {exc}".encode())


def query(digest: Digest, params: MechanismParams, psi, theta, z, wrench, xdot) -> None:
    """Feed one query's outputs, stage by stage, up to the first error."""
    cp = pkm.solve_loop_closure(params, psi, theta, z)
    shift = cp.parasitic
    digest.feed(cp.pose.p, cp.pose.R, cp.psi, cp.theta, cp.z, shift.x, shift.y, shift.gamma)
    try:
        coupling = pkm.coupling_matrices(params, cp.pose)
        digest.feed(coupling.C1, coupling.C2, coupling.C)
    except ERRORS as exc:
        digest.error(exc)
    states = pkm.inverse_kinematics(params, cp.pose)
    for s in states:
        digest.feed(s.anchor, s.attachment, s.g, s.l1, s.actuated_length, s.actuated, s.revolute)
    jac = pkm.build_jacobian(params, cp.pose, states)
    digest.feed(jac.G, jac.Ga, jac.Gc, jac.P, jac.feasible_basis, jac.J_hom, jac.kappa)
    J, kappa = pkm.homogenized_jacobian(jac.Ga, jac.Gc, params)
    digest.feed(J, kappa)
    rate = pkm.project_task_rate(jac.P, xdot)
    digest.feed(rate.v, rate.w)
    result = pkm.assemble_stiffness(params, cp.pose, states, jac)
    digest.feed(result.K, *result.diagonal_measures().values())
    for limb in result.limb_stiffness:
        digest.feed(limb.k_a, limb.k_c)
    deflection = pkm.deflection_under_load(result, wrench)
    digest.feed(deflection.platform, deflection.joints)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=1500)
    parser.add_argument("--paths", type=int, default=4)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(SEED)
    params = machines()
    digest = Digest()
    solved = raised = 0
    for k in range(args.queries):
        p = params[k % len(params)]
        psi, theta = rng.uniform(-TILT_MAX_RAD, TILT_MAX_RAD, 2).tolist()
        z = home_height(p) + rng.uniform(-0.1, 0.1) * p.link_length
        wrench = rng.normal(size=6) * np.array([1e3, 1e3, 1e3, 1e5, 1e5, 1e5])
        xdot = rng.normal(size=6)
        try:
            query(digest, p, psi, theta, z, wrench, xdot)
            solved += 1
        except ERRORS as exc:
            digest.error(exc)
            raised += 1
    for k in range(args.paths):
        p = params[k % len(params)]
        psi, theta = rng.uniform(-TILT_MAX_RAD, TILT_MAX_RAD, 2).tolist()
        try:
            cp = pkm.integrate_parasitic_path(p, psi, theta, steps=PATH_STEPS)
            shift = cp.parasitic
            digest.feed(cp.pose.p, cp.pose.R, shift.x, shift.y, shift.gamma)
        except ERRORS as exc:
            digest.error(exc)
    print(digest.sha.hexdigest())
    print(f"{solved} queries solved, {raised} raised, {args.paths} paths", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
