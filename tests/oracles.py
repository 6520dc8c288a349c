"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against scipy or explicit loops,
never by calling back into the code under test, so agreement is evidence
rather than tautology.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.spatial.transform import Rotation


def skew(v):
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rotation_from_tilts_scipy(psi, theta, gamma=0.0):
    # extrinsic x-y-z equals Rz(gamma) @ Ry(theta) @ Rx(psi)
    return Rotation.from_euler("xyz", [psi, theta, gamma]).as_matrix()


def rotate_pose_step(R, w, eps):
    """Exact exponential-map perturbation of an orientation, via scipy expm."""
    return scipy.linalg.expm(skew(np.asarray(w) * eps)) @ R


def projector_pinv(Gc):
    return np.eye(6) - Gc @ np.linalg.pinv(Gc)


def kappa_eig(Ga, Gc, r_platform):
    """Condition number of the homogenized feasible-space map, by a
    different route: scipy null_space basis + eigenvalues of J^T J."""
    sa = np.array(Ga, dtype=float)
    sa[3:, :] /= r_platform
    sc = np.array(Gc, dtype=float)
    sc[3:, :] /= r_platform
    N = scipy.linalg.null_space(sc.T)
    J = sa.T @ N
    w = np.linalg.eigvalsh(J.T @ J)
    return float(np.sqrt(w[-1] / w[0]))


def stiffness_rank1(G, rates):
    """K as an explicit sum of k_i * w_i w_i^T over the six wrench columns."""
    K = np.zeros((6, 6))
    for i in range(6):
        w = G[:, i]
        K += rates[i] * np.outer(w, w)
    return K


def parasitic_second_order(r_platform, psi, theta):
    """Leading-order parasitic shift for small tilts.

    Derived by expanding the three tangential constraint equations of the
    equilateral limb layout to second order in (psi, theta).
    """
    x = 0.25 * r_platform * (psi**2 - theta**2)
    y = -0.5 * r_platform * psi * theta
    gamma = 0.5 * psi * theta
    return x, y, gamma


def ik_z3_reference(r_base, r_platform, link_length, p, R):
    """Slide positions of the rail-driven machine, limb by limb, from
    scratch: rotate into the limb plane, subtract the strut projection."""
    out = []
    for k in range(3):
        xi = 2.0 * np.pi * k / 3.0
        c, s = np.cos(xi), np.sin(xi)
        joint = np.asarray(p) + R @ np.array([r_platform * c, r_platform * s, 0.0])
        gx = c * joint[0] + s * joint[1] - r_base
        gy = -s * joint[0] + c * joint[1]
        gz = joint[2]
        disc = link_length**2 - gx**2 - gy**2
        if disc < 0.0:
            return None
        out.append(gz - np.sqrt(disc))
    return np.array(out)


def ik_a3_reference(r_base, r_platform, p, R):
    """Telescopic strut lengths: plain distances from the base hinge line."""
    out = []
    for k in range(3):
        xi = 2.0 * np.pi * k / 3.0
        c, s = np.cos(xi), np.sin(xi)
        joint = np.asarray(p) + R @ np.array([r_platform * c, r_platform * s, 0.0])
        gx = c * joint[0] + s * joint[1] - r_base
        gz = joint[2]
        out.append(np.hypot(gx, gz))
    return np.array(out)


def euler_yxz_reference(R):
    """Angles (a, b, c) with R = Ry(a) @ Rx(b) @ Rz(c), via scipy."""
    return Rotation.from_matrix(R).as_euler("YXZ")
