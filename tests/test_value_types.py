"""The per-pose value types: slotted and frozen, copied field by field, and deriving the rest."""
import copy
import dataclasses
import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from pkm import (
    CompatiblePose,
    JacobianSet,
    LimbState,
    ParasiticCoupling,
    ParasiticShift,
    Pose,
    StiffnessResult,
    TaskRate,
    Variant,
    assemble_stiffness,
    build_jacobian,
    coupling_matrices,
    default_params,
    deflection_under_load,
    inverse_kinematics,
    project_task_rate,
    solve_loop_closure,
)
from pkm.stiffness import Deflection, LimbStiffness

PER_POSE_TYPES = (
    Pose,
    TaskRate,
    LimbState,
    JacobianSet,
    ParasiticCoupling,
    ParasiticShift,
    CompatiblePose,
    LimbStiffness,
    StiffnessResult,
    Deflection,
)


LOAD = np.array([10.0, -20.0, 30.0, 1e3, -2e3, 5e2])


def one_query(params):
    """The pose_queries chain at one pose: (cp, states, jac, result, deflection)."""
    cp = solve_loop_closure(params, 0.3, -0.2)
    states = inverse_kinematics(params, cp.pose)
    jac = build_jacobian(params, cp.pose, states)
    result = assemble_stiffness(params, cp.pose, states, jac)
    return cp, states, jac, result, deflection_under_load(result, LOAD)


def properties(kind) -> list[str]:
    """The names of kind's public properties: the values it derives on each read."""
    return [
        name
        for name in dir(kind)
        if not name.startswith("_") and isinstance(getattr(kind, name), property)
    ]


def reachable(root):
    """Every object reachable from root through dataclass fields and public
    properties, tuples and lists, and every array through its base, each once."""
    seen, stack = set(), [root]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        yield item
        if dataclasses.is_dataclass(item):
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
            stack.extend(getattr(item, name) for name in properties(type(item)))
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, np.ndarray) and item.base is not None:
            stack.append(item.base)


@pytest.fixture
def built(a3_params):
    """One library-built instance of each per-pose type."""
    cp, states, jac, result, deflection = one_query(a3_params)
    instances = (
        cp.pose,
        project_task_rate(jac.P, np.arange(6.0)),
        states[0],
        jac,
        coupling_matrices(a3_params, cp.pose),
        cp.parasitic,
        cp,
        result.limb_stiffness[0],
        result,
        deflection,
    )
    return dict(zip(PER_POSE_TYPES, instances))


def same(a, b) -> bool:
    """Equal field by field, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("kind", PER_POSE_TYPES, ids=lambda kind: kind.__name__)
def test_per_pose_types_are_slotted_and_frozen(built, kind):
    instance = built[kind]
    assert type(instance) is kind
    assert not hasattr(instance, "__dict__")
    first = dataclasses.fields(kind)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(instance, first, getattr(instance, first))


@pytest.mark.parametrize("kind", PER_POSE_TYPES, ids=lambda kind: kind.__name__)
def test_per_pose_copies_keep_every_field(built, kind):
    instance = built[kind]
    for twin in (pickle.loads(pickle.dumps(instance)), copy.deepcopy(instance), copy.copy(instance)):
        assert same(twin, instance)


@pytest.mark.parametrize("kind", [Pose, TaskRate], ids=lambda kind: kind.__name__)
def test_copied_poses_and_rates_stay_read_only(built, kind):
    instance = built[kind]
    for twin in (pickle.loads(pickle.dumps(instance)), copy.deepcopy(instance)):
        for field in dataclasses.fields(kind):
            assert not getattr(twin, field.name).flags.writeable


def test_replace_on_a_pose_runs_its_checks(built):
    pose = built[Pose]
    with pytest.raises(ValueError, match="R is not orthonormal"):
        dataclasses.replace(pose, R=2.0 * pose.R)
    moved = dataclasses.replace(pose, p=[1, 2, 3])
    assert moved.p.dtype == float and not moved.p.flags.writeable
    assert moved.R.tobytes() == pose.R.tobytes()


def test_hand_built_limb_states_feed_build_jacobian(a3_params):
    # README: users may build LimbState themselves, from plain lists too
    cp, states, jac, _, _ = one_query(a3_params)
    by_hand = [
        LimbState(
            anchor=s.anchor.tolist(),
            attachment=s.attachment.tolist(),
            g=s.g.tolist(),
            l1=s.l1.tolist(),
            actuated_length=s.actuated_length,
            actuated=s.actuated.tolist(),
            revolute=s.revolute.tolist(),
        )
        for s in states
    ]
    assert same(build_jacobian(a3_params, cp.pose, by_hand), jac)
    # the caller's own objects, unconverted and not frozen
    assert all(type(state.l1) is list for state in by_hand)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_no_pkm_object_of_a_query_has_a_dict(variant):
    # what pose_queries keeps of a query; a per-pose type added without
    # slots=True fails here
    cp, _, _, result, deflection = one_query(default_params(variant))
    kinds = set()
    for item in reachable((cp, result, deflection)):
        if type(item).__module__.startswith("pkm"):
            kinds.add(type(item))
            assert not hasattr(item, "__dict__"), type(item).__name__
    assert {CompatiblePose, Pose, ParasiticShift, StiffnessResult, JacobianSet} <= kinds
    assert {LimbStiffness, Deflection} <= kinds


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_every_array_a_query_returns_is_read_only(variant):
    params = default_params(variant)
    cp, states, jac, result, deflection = one_query(params)
    coupling = coupling_matrices(params, cp.pose)
    rate = project_task_rate(jac.P, np.arange(6.0))
    roots = (cp, states, jac, result, deflection, coupling, rate)
    arrays = [item for item in reachable(roots) if isinstance(item, np.ndarray)]
    # 2 pose; 6 rows per limb and the 6 stacks they view (4 from IK, the
    # layout's anchor and tangent); 3 Jacobian fields (G, twist_basis, J_hom)
    # and 4 derived (the views Ga, Gc and feasible_basis, a fresh P); K and
    # the rates; 2 deflection (platform and a fresh joints; its G is the
    # Jacobian's); 3 coupling; 2 rate
    assert len(arrays) == 2 + 3 * 6 + 6 + 7 + 2 + 2 + 3 + 2
    assert [a for a in arrays if a.flags.writeable] == []
    with pytest.raises(ValueError, match="read-only"):
        result.jacobian.G[:, :3] *= 0
    # a later solve on the same result still sees the stiffness it was built with
    assert same(deflection_under_load(result, LOAD), deflection)


@pytest.mark.parametrize(
    "kind", [JacobianSet, StiffnessResult, Deflection], ids=lambda kind: kind.__name__
)
def test_copies_derive_the_same_values(built, kind):
    instance = built[kind]
    names = properties(kind)
    assert names
    for twin in (pickle.loads(pickle.dumps(instance)), copy.deepcopy(instance), copy.copy(instance)):
        for name in names:
            assert same(getattr(twin, name), getattr(instance, name)), name


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_replace_derives_from_the_new_fields(variant):
    _, _, jac, result, deflection = one_query(default_params(variant))
    G = 2.0 * jac.G
    U = jac.twist_basis[:, [3, 4, 5, 0, 1, 2]]  # feasible twists first
    moved = dataclasses.replace(jac, G=G, twist_basis=U)
    assert same(moved.Ga, G[:, :3]) and same(moved.Gc, G[:, 3:])
    assert same(moved.feasible_basis, U[:, 3:])
    assert same(moved.P, np.eye(6) - U[:, :3] @ U[:, :3].T)
    with pytest.raises(TypeError):
        dataclasses.replace(jac, P=jac.P)  # derived, so not a field

    K, rates = 2.0 * result.K, result.rates[::-1].copy()
    moved = dataclasses.replace(result, K=K, rates=rates)
    assert list(moved.diagonal_measures().values()) == K.diagonal().tolist()
    assert moved.kpx == 2.0 * result.kpx
    assert moved.limb_stiffness == tuple(
        LimbStiffness(k_a, k_c) for k_a, k_c in zip(rates[:3].tolist(), rates[3:].tolist())
    )

    assert deflection.G is result.jacobian.G  # kept, not copied
    platform = 2.0 * deflection.platform
    moved = dataclasses.replace(deflection, platform=platform)
    assert same(moved.joints, deflection.G.T @ platform)
    with pytest.raises(TypeError):
        dataclasses.replace(deflection, joints=deflection.joints)


def retained_bytes_per_query(params, n: int) -> float:
    """The bytes that n kept (cp, result, deflection) triples hold, per triple."""
    rng = np.random.default_rng(32)
    tilts = rng.uniform(-0.3, 0.3, (n, 2)).tolist()
    loads = rng.normal(size=(n, 6)) * LOAD
    one_query(params)  # fills the machine's caches
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = []
        for (psi, theta), load in zip(tilts, loads):
            cp = solve_loop_closure(params, psi, theta)
            result = assemble_stiffness(params, cp.pose)
            kept.append((cp, result, deflection_under_load(result, load)))
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_a_kept_query_holds_no_derived_copies(variant):
    # about 2.65 kB a triple, with its tuple and list slot; storing Ga, Gc,
    # feasible_basis, P, the six diagonals and the limb stiffness took
    # 3.95 kB, and storing the deflection's joints 2.81 kB
    assert retained_bytes_per_query(default_params(variant), 200) <= 2750
