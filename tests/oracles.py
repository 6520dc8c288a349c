"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against scipy or explicit loops,
never by calling back into the code under test, so agreement is evidence
rather than tautology.
"""
from __future__ import annotations

import csv
import math

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


def constraint_rank_reference(scaled, Gc, r, rank_tol=1e-10):
    """The constraint rank check with one full SVD of every cell, as the
    package ran it before its QR gate: (U, lost, rank) of scaled constraint
    wrenches (..., 6, 3) whose moment rows times r are Gc.

    The unscaled Gc decides where the scaled ratio sigma3 / sigma1 is below
    2 max(r, 1/r) rank_tol; rank counts the singular values that decided,
    at least rank_tol times the largest.
    """
    U, sigma, _ = np.linalg.svd(scaled, full_matrices=True)
    low, top = sigma[..., -1], sigma[..., 0]
    lost = np.asarray(low < rank_tol * top)
    near = ~lost & (low < 2.0 * max(r, 1.0 / r) * rank_tol * top)
    if np.count_nonzero(near):
        unscaled = np.linalg.svd(Gc[near], compute_uv=False)
        sigma[near] = unscaled
        lost[near] = unscaled[:, -1] < rank_tol * unscaled[:, 0]
    rank = np.count_nonzero(sigma >= rank_tol * sigma[..., :1], axis=-1)
    return U, lost, rank


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


def loop_closure_closed_form(azimuths, r_platform, psi, theta):
    """The exact loop closure (x, y, gamma) (N, 3) of cells at tilts psi and
    theta (N,), and C1 (N, 3, 3), the Jacobian of the closure rows there.

    Limb i's row is -s_i (x + a_ix) + c_i (y + a_iy) = 0 with c_i, s_i the
    cos and sin of its azimuth and a_i = Rz(gamma) v_i, v_i = Ry(theta)
    Rx(psi) r (c_i, s_i, 0).  Weighting the rows by k = c x s removes x and
    y and leaves A cos gamma + B sin gamma = 0, so gamma = atan(-A / B), the
    root nearest 0; x and y then follow from the two rows whose azimuths
    are furthest from parallel, by Cramer's rule.
    """
    xi = np.asarray(azimuths, dtype=float)
    c, s = np.cos(xi), np.sin(xi)
    k = np.cross(c, s)
    tilts = np.stack((psi, theta, np.zeros_like(psi)), axis=-1)
    R0 = Rotation.from_euler("xyz", tilts).as_matrix()
    body = r_platform * np.stack((c, s, np.zeros(3)), axis=-1)
    v = np.einsum("nrc,lc->nlr", R0, body)
    vx, vy = v[..., 0], v[..., 1]
    A = ((-s * vx + c * vy) * k).sum(axis=-1)
    B = ((c * vx + s * vy) * k).sum(axis=-1)
    gamma = np.arctan(-A / B)
    cg, sg = np.cos(gamma)[:, None], np.sin(gamma)[:, None]
    ax, ay = cg * vx - sg * vy, sg * vx + cg * vy
    # each row reads -s_i x + c_i y = h_i
    h = s * ax - c * ay
    i, j = max(((0, 1), (0, 2), (1, 2)), key=lambda ij: abs(math.sin(xi[ij[1]] - xi[ij[0]])))
    det = -s[i] * c[j] + c[i] * s[j]
    x = (h[:, i] * c[j] - c[i] * h[:, j]) / det
    y = (-s[i] * h[:, j] + s[j] * h[:, i]) / det
    C1 = np.stack(np.broadcast_arrays(-s, c, ax * c + ay * s), axis=-1)
    return np.stack((x, y, gamma), axis=-1), C1


def ik_z3_reference(r_base, r_platform, link_length, p, R, tol=1e-6):
    """Slide positions of the rail-driven machine, limb by limb, from
    scratch: rotate into the limb plane, subtract the strut projection.

    Returns (slides, failure).  failure is None, or (limb, status name) of
    the first limb that fails: UNREACHABLE where the strut cannot span the
    radial offset, else CONSTRAINT_VIOLATION where the joint lies more than
    tol off its limb plane.  A slide the strut cannot reach is NaN.
    """
    out, failure = [], None
    for k in range(3):
        xi = 2.0 * np.pi * k / 3.0
        c, s = np.cos(xi), np.sin(xi)
        joint = np.asarray(p) + R @ np.array([r_platform * c, r_platform * s, 0.0])
        gx = c * joint[0] + s * joint[1] - r_base
        gy = -s * joint[0] + c * joint[1]
        gz = joint[2]
        disc = link_length**2 - gx**2 - gy**2
        if failure is None and disc < 0.0:
            failure = (k + 1, "UNREACHABLE")
        elif failure is None and abs(gy) > tol:
            failure = (k + 1, "CONSTRAINT_VIOLATION")
        out.append(gz - np.sqrt(disc) if disc >= 0.0 else np.nan)
    return np.array(out), failure


def ik_a3_reference(r_base, r_platform, p, R, tol=1e-6, hinge_tol=1e-9):
    """Telescopic strut lengths: plain distances from the base hinge line.

    Returns (lengths, failure).  failure is None, or (limb, status name) of
    the first limb that fails: CONSTRAINT_VIOLATION where the joint lies
    more than tol off its limb plane, else UNREACHABLE where it sits within
    hinge_tol of the hinge.
    """
    out, failure = [], None
    for k in range(3):
        xi = 2.0 * np.pi * k / 3.0
        c, s = np.cos(xi), np.sin(xi)
        joint = np.asarray(p) + R @ np.array([r_platform * c, r_platform * s, 0.0])
        gx = c * joint[0] + s * joint[1] - r_base
        gy = -s * joint[0] + c * joint[1]
        gz = joint[2]
        length = np.hypot(gx, gz)
        if failure is None and abs(gy) > tol:
            failure = (k + 1, "CONSTRAINT_VIOLATION")
        elif failure is None and length < hinge_tol:
            failure = (k + 1, "UNREACHABLE")
        out.append(length)
    return np.array(out), failure


def spherical_rate_reference(S, R, axis):
    """Torsional rate a^T R^T S R a of a spherical joint with joint-frame
    rates S (3, 3) and orientation R about the axis a."""
    axis = np.asarray(axis, dtype=float)
    return float(axis @ R.T @ S @ R @ axis)


def distal_rotations_reference(azimuths, l1):
    """rot_z(xi) @ rot_y(pitch) (3, 3, 3) of one pose's three distal limb
    bodies from their link vectors l1, pitch the angle from vertical in the
    limb plane: plain-float math with every product written out, so that a
    frame built with the same operations matches it bit for bit."""
    out = []
    for xi, (x, y, z) in zip(azimuths, np.asarray(l1).tolist()):
        c, s = math.cos(xi), math.sin(xi)
        pitch = math.atan2(c * x + s * y, z)
        cp, sp = math.cos(pitch), math.sin(pitch)
        out.append([[c * cp, -s, c * sp], [s * cp, c, s * sp], [-sp, 0.0, cp]])
    return np.array(out)


def limb_rates_reference(params, l1):
    """Actuation, then constraint spring rates (6,) of the limbs with link
    vectors l1 (3, 3), limb by limb: the distal body's orientation
    rot_z(xi) @ rot_y(pitch) from scipy, the spherical rate about the
    revolute axis, and the series sums written out."""
    k = params.stiffness
    S = np.diag([k.k_sx, k.k_sy, k.k_sz])
    k_a = 1.0 / (1.0 / k.k_carriage + 1.0 / k.k_revolute + 1.0 / k.k_limb_body)
    k_c = []
    for xi, link in zip(params.azimuths, np.asarray(l1)):
        radial = np.array([np.cos(xi), np.sin(xi), 0.0])
        pitch = np.arctan2(link @ radial, link[2])
        R = Rotation.from_euler("ZY", [xi, pitch]).as_matrix()
        k_s = spherical_rate_reference(S, R, [-np.sin(xi), np.cos(xi), 0.0])
        k_c.append(1.0 / (1.0 / k_s + 1.0 / k.k_limb_body))
    return np.array([k_a] * 3 + k_c)


def links_reference(machine, r_base, r_platform, link_length, azimuths, p, R):
    """Platform attachments R a_i and link vectors l1_i, (3, 3) each, of the
    pose (p, R), limb by limb from the azimuths: the link vector solved
    afresh from the pose, without inverse kinematics."""
    attachments, links = [], []
    for xi in azimuths:
        c, s = np.cos(xi), np.sin(xi)
        attachment = R @ np.array([r_platform * c, r_platform * s, 0.0])
        link = np.asarray(p) + attachment - np.array([r_base * c, r_base * s, 0.0])
        if machine == "z3":
            # the fixed strut from the rail carriage, which slides along z
            link[2] = np.sqrt(link_length**2 - link[0] ** 2 - link[1] ** 2)
        attachments.append(attachment)
        links.append(link)
    return np.array(attachments), np.array(links)


def wrench_matrix_reference(machine, r_base, r_platform, link_length, azimuths, p, R):
    """G of the pose (p, R), limb by limb from the azimuths: the link vectors
    of links_reference, moments by np.cross, columns by np.column_stack."""
    active, constraint = [], []
    attachments, links = links_reference(
        machine, r_base, r_platform, link_length, azimuths, p, R
    )
    for xi, attachment, link in zip(azimuths, attachments, links):
        c, s = np.cos(xi), np.sin(xi)
        divisor = link[2] if machine == "z3" else np.linalg.norm(link)
        revolute = np.array([-s, c, 0.0])
        active.append(np.concatenate([link, np.cross(attachment, link)]) / divisor)
        constraint.append(np.concatenate([revolute, np.cross(attachment, revolute)]))
    return np.column_stack(active + constraint)


def assert_wrench_columns_close(G, reference, rtol=1e-12):
    """Each column of G within rtol of the reference column's largest entry."""
    scale = np.abs(reference).max(axis=0)
    assert np.all(np.abs(G - reference) <= rtol * scale)


def euler_yxz_reference(R):
    """Angles (a, b, c) with R = Ry(a) @ Rx(b) @ Rz(c), via scipy."""
    return Rotation.from_matrix(R).as_euler("YXZ")


def heatmap_cells_reference(grid, palette):
    """The heatmap's cell <rect> lines, cell by cell with one palette_color
    call each; palette_color is the scalar colour reference."""
    from pkm.svg import palette_color

    margin_l, margin_t, plot = 64.0, 34.0, 484.0
    n_psi, n_theta = grid.values.shape
    cw = plot / n_psi
    ch = plot / n_theta
    valid = grid.values[np.isfinite(grid.values)]
    vmin, vmax = (float(valid.min()), float(valid.max())) if valid.size else (0.0, 0.0)
    span = vmax - vmin
    lines = []
    for i in range(n_psi):
        x = margin_l + i * cw
        for j in range(n_theta):
            y = margin_t + plot - (j + 1) * ch
            if np.isfinite(grid.values[i, j]):
                t = (grid.values[i, j] - vmin) / span if span > 0.0 else 0.5
                fill = palette_color(palette, t)
            else:
                fill = "url(#miss)"
            lines.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.05:.2f}" '
                f'height="{ch + 0.05:.2f}" fill="{fill}"/>'
            )
    return lines


def emit_heatmap_svg_reference(grid, palette, path, title="", value_label=""):
    """The whole heatmap file, line by line: one palette_color call per cell
    (heatmap_cells_reference) and per colour-bar strip."""
    from pkm.svg import palette_color

    margin_l, margin_r, margin_t, margin_b, plot = 64.0, 110.0, 34.0, 50.0, 484.0
    bar_x, bar_w, strips = margin_l + plot + 26.0, 18.0, 64
    valid = grid.values[np.isfinite(grid.values)]
    vmin, vmax = (float(valid.min()), float(valid.max())) if valid.size else (0.0, 0.0)
    width, height = margin_l + plot + margin_r, margin_t + plot + margin_b
    text = 'font-family="sans-serif"'

    def ticks(axis):
        lo, hi = math.degrees(axis[0]), math.degrees(axis[-1])
        return [(0.0, f"{lo:.4g}"), (0.5, f"{(lo + hi) / 2.0:.4g}"), (1.0, f"{hi:.4g}")]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        "<defs>",
        '<pattern id="miss" width="6" height="6" patternUnits="userSpaceOnUse">',
        '<rect width="6" height="6" fill="#ffffff"/>',
        '<path d="M0,6 L6,0" stroke="#999999" stroke-width="1"/>',
        "</pattern>",
        "</defs>",
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]
    if title:
        lines.append(
            f'<text x="{margin_l + plot / 2.0:.2f}" y="22" {text} font-size="15" '
            f'text-anchor="middle">{title}</text>'
        )
    lines += heatmap_cells_reference(grid, palette)
    lines.append(
        f'<rect x="{margin_l:.2f}" y="{margin_t:.2f}" width="{plot:.2f}" height="{plot:.2f}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for frac, label in ticks(grid.psi_axis):
        lines.append(
            f'<text x="{margin_l + frac * plot:.2f}" y="{margin_t + plot + 18.0:.2f}" {text} '
            f'font-size="12" text-anchor="middle">{label}</text>'
        )
    for frac, label in ticks(grid.theta_axis):
        lines.append(
            f'<text x="{margin_l - 8.0:.2f}" y="{margin_t + plot - frac * plot + 4.0:.2f}" '
            f'{text} font-size="12" text-anchor="end">{label}</text>'
        )
    lines.append(
        f'<text x="{margin_l + plot / 2.0:.2f}" y="{height - 12.0:.2f}" {text} '
        f'font-size="13" text-anchor="middle">psi [deg]</text>'
    )
    mid = margin_t + plot / 2.0
    lines.append(
        f'<text x="16" y="{mid:.2f}" {text} font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {mid:.2f})">theta [deg]</text>'
    )
    strip = plot / strips
    for k in range(strips):
        lines.append(
            f'<rect x="{bar_x:.2f}" y="{margin_t + plot - (k + 1) * strip:.2f}" '
            f'width="{bar_w:.2f}" height="{strip + 0.05:.2f}" '
            f'fill="{palette_color(palette, (k + 0.5) / strips)}"/>'
        )
    lines.append(
        f'<rect x="{bar_x:.2f}" y="{margin_t:.2f}" width="{bar_w:.2f}" height="{plot:.2f}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    lines.append(
        f'<text x="{bar_x + bar_w + 6.0:.2f}" y="{margin_t + plot:.2f}" {text} '
        f'font-size="11">{vmin:.12g}</text>'
    )
    lines.append(
        f'<text x="{bar_x + bar_w + 6.0:.2f}" y="{margin_t + 10.0:.2f}" {text} '
        f'font-size="11">{vmax:.12g}</text>'
    )
    if value_label:
        lines.append(
            f'<text x="{bar_x + bar_w / 2.0:.2f}" y="{margin_t - 10.0:.2f}" {text} '
            f'font-size="12" text-anchor="middle">{value_label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_map_csv_reference(path, fields, units_note=None):
    """The map CSV, one csv.writer row per cell."""
    grids = list(fields.values())
    first = grids[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if units_note:
            fh.write(f"# {units_note}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["psi_deg", "theta_deg", *fields.keys()])
        for i, psi in enumerate(first.psi_axis):
            for j, theta in enumerate(first.theta_axis):
                row = [f"{math.degrees(psi):.12g}", f"{math.degrees(theta):.12g}"]
                for grid in grids:
                    value = grid.values[i, j]
                    row.append(f"{value:.12g}" if np.isfinite(value) else "")
                writer.writerow(row)


def path_rates_reference(params, psi_target, theta_target, s, u):
    """RK4 path state derivative by the numpy formula: rotation matrix,
    attachments, C1 and C2 as arrays, and a LAPACK solve of C1 d = C2 w."""
    psi = s * psi_target
    theta = s * theta_target
    gamma = u[2]
    cg, sg = math.cos(gamma), math.sin(gamma)
    ct = math.cos(theta)
    wx = -sg * theta_target + cg * ct * psi_target
    wy = cg * theta_target + sg * ct * psi_target
    R = rotation_from_tilts_scipy(psi, theta, gamma)
    c = np.cos(params.azimuths)
    s_ = np.sin(params.azimuths)
    body = params.r_platform * np.stack((c, s_, np.zeros(3)), axis=-1)
    attachments = body @ R.T
    ax, ay, az = attachments[:, 0], attachments[:, 1], attachments[:, 2]
    C1 = np.stack((-s_, c, ax * c + ay * s_), axis=-1)
    C2 = np.stack((az * c, az * s_), axis=-1)
    dependent = np.linalg.solve(C1, C2 @ np.array([wx, wy]))
    return np.array([dependent[0], dependent[1], dependent[2] + psi_target * math.sin(theta)])


def path_end_reference(params, psi, theta, steps=200):
    """(x, y, gamma) at the end of the straight tilt path, by classical RK4
    on numpy arrays over path_rates_reference."""
    h = 1.0 / steps
    u = np.zeros(3)
    for k in range(steps):
        s = k * h
        k1 = path_rates_reference(params, psi, theta, s, u)
        k2 = path_rates_reference(params, psi, theta, s + 0.5 * h, u + 0.5 * h * k1)
        k3 = path_rates_reference(params, psi, theta, s + 0.5 * h, u + 0.5 * h * k2)
        k4 = path_rates_reference(params, psi, theta, s + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u
