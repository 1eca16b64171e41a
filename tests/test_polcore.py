import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.spatial.transform import Rotation as ScipyRotation

from fiberlink import polcore as pc

from conftest import (
    assert_same_complex, assert_same_floats, bloch_of_ket, quaternion_of_rotation_oracle, random_bloch,
    rotation_about_oracle, rotation_of_unitary, rotation_to_axis_angle, su2_of_rotation_oracle,
)


# ---------------------------------------------------------------------------
# process fidelity and the two-probe trace formula
# ---------------------------------------------------------------------------

def test_process_fidelity_identity():
    assert pc.process_fidelity(np.eye(3)) == 1.0


def test_process_fidelity_half_turn_any_axis(rng):
    for _ in range(20):
        axis = random_bloch(rng, pure=True)
        m = pc.rotation_about(axis, math.pi)
        assert pc.process_fidelity(m) == pytest.approx(0.0, abs=1e-12)


def test_process_fidelity_quarter_turn_s3():
    # tr Rz(90 deg) = 2 cos 90 + 1 = 1
    m = pc.rotation_about([0, 0, 1], math.pi / 2)
    assert pc.process_fidelity(m) == pytest.approx(0.5, abs=1e-12)


def test_process_fidelity_range_and_identity_condition(rng):
    for _ in range(500):
        m = pc.random_rotation(rng)
        f = pc.process_fidelity(m)
        assert 0.0 <= f <= 1.0 + 1e-12
        if f > 1.0 - 1e-12:
            assert np.allclose(m, np.eye(3), atol=1e-5)


def test_process_fidelity_stack_matches_scalar_bits(rng):
    # each entry of a stack is (1 + tr m) / 4 summed as one matrix alone,
    # and one matrix gives a float
    ms = np.array([pc.random_rotation(rng) for _ in range(300)]
                  + [np.eye(3), -np.eye(3), np.diag([1.0, -1.0, -1.0]), np.zeros((3, 3))])
    want = [(1.0 + (m[0][0] + m[1][1] + m[2][2])) / 4.0 for m in ms.tolist()]
    assert_same_floats(pc.process_fidelity(ms).tolist(), want)
    assert_same_floats(pc.process_fidelity(ms.reshape(2, -1, 3, 3)).ravel().tolist(), want)
    one = pc.process_fidelity(ms[0])
    assert isinstance(one, float)
    assert_same_floats([one], want[:1])


def test_trace_from_probe_pair_identity():
    assert pc.trace_from_probe_pair((1, 0, 0), (0, 1, 0)) == pytest.approx(3.0)


def test_trace_from_probe_pair_quarter_turn():
    # 90 deg rotation about s3 maps H -> D and D -> -H
    assert pc.trace_from_probe_pair((0, 1, 0), (-1, 0, 0)) == pytest.approx(1.0)


def test_trace_formula_matches_matrix_trace(rng):
    for _ in range(1000):
        m = pc.random_rotation(rng)
        t = pc.trace_from_probe_pair(m @ pc.S_H, m @ pc.S_D)
        assert t == pytest.approx(np.trace(m), abs=1e-9)


def test_trace_from_probe_pair_rejects_non_unit():
    with pytest.raises(pc.NonUnitProbe):
        pc.trace_from_probe_pair((1.01, 0, 0), (0, 1, 0))
    with pytest.raises(pc.NonUnitProbe):
        pc.trace_from_probe_pair((1, 0, 0), (0, 0.99, 0))


# ---------------------------------------------------------------------------
# axis-angle / SU(2) machinery against an independent implementation
# ---------------------------------------------------------------------------

def test_rotation_about_matches_scipy(rng):
    for _ in range(200):
        axis = random_bloch(rng, pure=True)
        angle = rng.uniform(-math.pi, math.pi)
        ours = pc.rotation_about(axis, angle)
        theirs = ScipyRotation.from_rotvec(angle * axis).as_matrix()
        assert np.allclose(ours, theirs, atol=1e-12)


# Angles where a sine, a cosine or a product may round to a signed zero,
# and large ones whose argument reduction numpy and math must agree on
_EDGE_ANGLES = (0.0, -0.0, math.pi, -math.pi, 5e-324, -5e-324, 1e3, -1e3, 1e15, -1e15)


def test_rotation_about_stack_matches_scalar_oracle_bits(rng):
    # each rotation of a stack has the scalar Rodrigues form's bits, signs of
    # zeros included, at any axis scale; coordinate axes put zeros in k
    n = 2000
    axes = rng.normal(size=(n, 3)) * rng.choice([1e-150, 1e-6, 1.0, 1e6, 1e150], size=(n, 1))
    axes[:6] = np.concatenate([np.eye(3), -np.eye(3)])
    axes[6:12] = np.concatenate([np.eye(3) * 1e-6, np.eye(3) * -1e6])
    axes[12] = [-0.0, 1.0, 0.0]
    angles = rng.uniform(-4.0, 4.0, size=n)
    angles[::5] = np.resize(_EDGE_ANGLES, angles[::5].size)
    angles[:13] = np.resize(_EDGE_ANGLES, 13)
    want = [rotation_about_oracle(a, t) for a, t in zip(axes, angles.tolist())]
    got = pc.rotation_about(axes, angles)
    assert got.shape == (n, 3, 3)
    assert_same_floats(got.ravel().tolist(), np.array(want).ravel().tolist())
    # any leading shape, angles as a list, and one axis alone
    got = pc.rotation_about(axes.reshape(4, -1, 3), angles.reshape(4, -1).tolist())
    assert_same_floats(got.ravel().tolist(), np.array(want).ravel().tolist())
    for i in range(13):
        one = pc.rotation_about(axes[i].tolist(), float(angles[i]))
        assert one.shape == (3, 3)
        assert_same_floats(one.ravel().tolist(), want[i].ravel().tolist())


def test_rotation_about_rejects_a_zero_axis():
    with pytest.raises(ValueError, match="nonzero"):
        pc.rotation_about([0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        pc.rotation_about([[1.0, 0.0, 0.0], [0.0, -0.0, 0.0]], [1.0, 1.0])


def test_axis_angle_round_trip(rng):
    for _ in range(200):
        m = pc.random_rotation(rng)
        axis, angle = rotation_to_axis_angle(m)
        assert 0.0 <= angle <= math.pi + 1e-12
        assert np.allclose(pc.rotation_about(axis, angle), m, atol=1e-10)


def test_su2_lift_adjoint_action(rng):
    for _ in range(200):
        m = pc.random_rotation(rng)
        u = pc.su2_of_rotation(m)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert np.trace(u).real >= -1e-12  # sign convention
        assert np.allclose(rotation_of_unitary(u), m, atol=1e-10)


def test_su2_rotation_round_trips(rng):
    # every branch of the quaternion extraction: trace > 0, and trace <= 0
    # with each diagonal element the largest (half turns about the axes
    # and turns by more than 2 pi / 3 near them and about random axes)
    rotations = [pc.random_rotation(rng) for _ in range(300)]
    for axis in np.eye(3):
        rotations.append(pc.rotation_about(axis, math.pi))
        for _ in range(30):
            tilt = axis + 0.2 * rng.normal(size=3)
            rotations.append(pc.rotation_about(tilt, rng.uniform(2.1, math.pi)))
    for _ in range(100):
        rotations.append(pc.rotation_about(rng.normal(size=3), rng.uniform(2.1, math.pi)))
    branches = set()
    for m in rotations:
        t = np.trace(m)
        branches.add("trace" if t > 0 else int(np.argmax(np.diag(m))))
        u = pc.su2_of_rotation(m)
        assert np.max(np.abs(rotation_of_unitary(u) - m)) <= 1e-14
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-14
        assert abs(np.linalg.det(u) - 1.0) <= 1e-14
        assert np.trace(u).real >= 0.0
        # and back, up to the sign a half turn leaves open
        back = pc.su2_of_rotation(rotation_of_unitary(u))
        assert min(np.max(np.abs(back - u)), np.max(np.abs(back + u))) <= 1e-14
    assert branches == {"trace", 0, 1, 2}


# Rotations for the stacked lift: every branch (trace > 0, then m00, m11 or
# m22 the largest diagonal element), ties on the diagonal (the first one
# wins), a trace of exactly 0, half turns about each axis with and without
# negative zeros off the diagonal, and turns near a half turn whose raw w is
# negative, so the sign flip runs.
_CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _trace_zero(m):
    """m with m22 moved (by rounding only) so its trace is exactly 0."""
    m = m.copy()
    m[2, 2] = -(m[0, 0] + m[1, 1])
    return m


_LIFT_CASES = [
    np.eye(3),
    np.array([[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]]),
    pc.rotation_about([0.3, -0.2, 0.9], 1.0),
    _CYCLE, _CYCLE.T, _trace_zero(pc.rotation_about([0.2, 0.5, 0.8], 2.0 * math.pi / 3.0)),
    np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0]),
    np.array([[-1.0, -0.0, 0.0], [0.0, -1.0, -0.0], [-0.0, -0.0, 1.0]]),
    np.array([[1.0, 0.0, -0.0], [-0.0, -1.0, 0.0], [0.0, -0.0, -1.0]]),
    pc.rotation_about([1, 1, 0], math.pi), pc.rotation_about([1, 0, 1], math.pi),
    pc.rotation_about([0, 1, 1], math.pi), pc.rotation_about([1, 1, 1], math.pi),
    *[pc.rotation_about(axis, angle) for axis in np.eye(3)
      for angle in (math.pi, -math.pi, math.pi - 0.1, 0.1 - math.pi, 2.5, -2.5)],
]


def _branch(m) -> int:
    (m00, _, _), (_, m11, _), (_, _, m22) = m.tolist()
    if m00 + m11 + m22 > 0:
        return 0
    return 1 if m00 >= m11 and m00 >= m22 else 2 if m11 >= m22 else 3


def _assert_lifts_match_oracle(stack) -> None:
    flat = stack.reshape(-1, 3, 3)
    q = pc._quaternion_of_rotation(stack)
    u = pc.su2_of_rotation(stack)
    assert q.shape == stack.shape[:-2] + (4,) and u.shape == stack.shape[:-2] + (2, 2)
    for m, qm, um in zip(flat, q.reshape(-1, 4), u.reshape(-1, 2, 2)):
        assert_same_floats(qm.tolist(), quaternion_of_rotation_oracle(m))
        assert_same_complex(um, su2_of_rotation_oracle(m))


def test_lift_cases_cover_every_branch_and_the_sign_flip():
    assert {_branch(m) for m in _LIFT_CASES} == {0, 1, 2, 3}
    raw_w = [(m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1])[_branch(m) - 1]
             for m in _LIFT_CASES if _branch(m) > 0]
    assert min(raw_w) < 0.0 < max(raw_w)
    assert any(m[0, 0] == m[1, 1] >= m[2, 2] for m in _LIFT_CASES if _branch(m) == 1)
    assert any(m[1, 1] == m[2, 2] > m[0, 0] for m in _LIFT_CASES if _branch(m) == 2)
    assert any(np.trace(m) == 0.0 and not np.array_equal(m, m.T) for m in _LIFT_CASES)


@pytest.mark.parametrize("case", range(len(_LIFT_CASES)))
def test_lift_of_one_rotation_matches_scalar_oracle(case):
    # a (3, 3) input takes the stacked path and gives (4,) and (2, 2)
    _assert_lifts_match_oracle(_LIFT_CASES[case])


def test_lift_of_the_case_stack_matches_scalar_oracle():
    stack = np.array(_LIFT_CASES)
    _assert_lifts_match_oracle(stack)
    _assert_lifts_match_oracle(stack[:24].reshape(2, 3, 4, 3, 3))


_UNIT = hst.floats(-1.0, 1.0, allow_nan=False)
_ROTATIONS = hst.one_of(
    hst.sampled_from(range(len(_LIFT_CASES))).map(lambda i: _LIFT_CASES[i]),
    hst.tuples(_UNIT, _UNIT, _UNIT, _UNIT).filter(lambda q: sum(v * v for v in q) > 1e-6).map(
        lambda q: pc._rotation_of_quaternion(np.array(q) / math.sqrt(sum(v * v for v in q)))),
)


# A stack of any rotations in any leading shape lifts each rotation to the
# bits the scalar oracle gives it alone, signs of zero included.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rotations=hst.lists(_ROTATIONS, min_size=1, max_size=12), lead=hst.sampled_from(((-1,), (1, -1), (-1, 1))))
def test_stacked_lift_matches_scalar_oracle(rotations, lead):
    _assert_lifts_match_oracle(np.array(rotations).reshape(lead + (3, 3)))


def test_bloch_ket_round_trips(rng):
    for _ in range(100):
        n = random_bloch(rng, pure=True)
        ket = pc.ket_of_bloch(n)
        assert np.allclose(bloch_of_ket(ket), n, atol=1e-12)
        rho = pc.density_of_bloch(n)
        assert np.allclose(pc.bloch_of_density(rho), n, atol=1e-12)


# ---------------------------------------------------------------------------
# loss figure, gamma, bound
# ---------------------------------------------------------------------------

def test_pdl_db_equal_transmissions():
    assert pc.pdl_db(0.5, 0.5) == pytest.approx(0.0)


def test_pdl_db_factor_two():
    assert pc.pdl_db(1.0, 0.5) == pytest.approx(3.0103, abs=1e-4)


def test_pdl_db_mean_link_ratio():
    # 0.08 dB corresponds to an intensity ratio of 10^0.008
    ratio = 10.0 ** 0.008
    assert pc.pdl_db(ratio, 1.0) == pytest.approx(0.08, abs=1e-12)
    assert ratio == pytest.approx(1.0186, abs=1e-4)


def test_pdl_db_invalid():
    with pytest.raises(pc.InvalidTransmission):
        pc.pdl_db(0.5, 0.0)
    with pytest.raises(pc.InvalidTransmission):
        pc.pdl_db(0.4, 0.5)


def test_pdl_gamma_limits():
    assert pc.pdl_gamma(1.0) == 0.0
    assert pc.pdl_gamma(0.0) == 1.0


def test_pdl_gamma_mean_link():
    t = 10.0 ** (-0.08 / 20.0)
    assert t == pytest.approx(0.99083, abs=1e-5)
    assert pc.pdl_gamma(t) == pytest.approx(0.009214, abs=1e-5)


def test_pdl_fidelity_bound_limits():
    assert pc.pdl_fidelity_bound(1.0) == 1.0
    assert pc.pdl_fidelity_bound(0.0) == 0.25


def test_pdl_fidelity_bound_mean_link():
    t = 10.0 ** (-0.08 / 20.0)
    assert pc.pdl_fidelity_bound(t) == pytest.approx(0.991, abs=1e-3)


def test_pdl_fidelity_bound_monotone():
    ts = np.linspace(0.0, 1.0, 101)
    bounds = [pc.pdl_fidelity_bound(t) for t in ts]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# loss element acting on Bloch vectors
# ---------------------------------------------------------------------------

def test_pdl_apply_pass_state_fixed_point(rng):
    for _ in range(50):
        el = pc.PdlElement.from_axis(random_bloch(rng, pure=True), rng.uniform(0.05, 0.999))
        p = el.pass_axis()
        assert np.allclose(pc.pdl_apply_bloch(p, el), p, atol=1e-12)
        assert np.allclose(pc.pdl_apply_bloch(-p, el), -p, atol=1e-12)


def test_pdl_apply_orthogonal_pure_input(rng):
    el = pc.PdlElement.from_axis([0, 0, 1], 0.7)
    lam = np.array([1.0, 0.0, 0.0])
    g = el.gamma
    expected = math.sqrt(1.0 - g * g) * lam + el.gamma_vec
    out = pc.pdl_apply_bloch(lam, el)
    assert np.allclose(out, expected, atol=1e-12)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_pdl_apply_matches_operator_oracle(rng):
    for _ in range(500):
        el = pc.PdlElement.from_axis(random_bloch(rng, pure=True), rng.uniform(0.02, 1.0))
        lam = random_bloch(rng, pure=bool(rng.integers(2)))
        b = el.operator()
        rho = pc.density_of_bloch(lam)
        out = b @ rho @ b.conj().T
        lam_oracle = pc.bloch_of_density(out / np.trace(out))
        assert np.allclose(pc.pdl_apply_bloch(lam, el), lam_oracle, atol=1e-10)


def test_pdl_apply_preserves_purity(rng):
    for _ in range(200):
        el = pc.PdlElement.from_axis(random_bloch(rng, pure=True), rng.uniform(0.02, 1.0))
        lam = random_bloch(rng, pure=True)
        assert np.linalg.norm(pc.pdl_apply_bloch(lam, el)) == pytest.approx(1.0, abs=1e-10)


def test_pdl_apply_fixed_points_are_only_pass_axes(rng):
    el = pc.PdlElement.from_axis([1, 1, 0], 0.6)
    p = el.pass_axis()
    for _ in range(300):
        lam = random_bloch(rng, pure=True)
        out = pc.pdl_apply_bloch(lam, el)
        if np.allclose(out, lam, atol=1e-9):
            assert np.allclose(lam, p, atol=1e-6) or np.allclose(lam, -p, atol=1e-6)


def test_pdl_apply_fully_extinguished():
    el = pc.PdlElement.from_axis([1, 0, 0], 0.0)  # perfect polarizer
    with pytest.raises(pc.FullyExtinguished):
        pc.pdl_apply_bloch(np.array([-1.0, 0.0, 0.0]), el)


@pytest.mark.parametrize("gamma_vec", [
    [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]],
], ids=["nan", "inf", "2-vector", "4-vector", "1x3"])
def test_pdl_element_rejects_bad_gamma(gamma_vec):
    # |(nan, 0, 0)| - 0 compares False against any tolerance, so a NaN
    # vector used to pass as lossless
    with pytest.raises(ValueError, match="finite 3-vector"):
        pc.PdlElement(gamma_vec=np.array(gamma_vec), amplitude_transmission=1.0)


def test_pdl_element_keeps_a_read_only_float_copy():
    given = [0.0, 0.0, pc.pdl_gamma(0.9)]
    el = pc.PdlElement(gamma_vec=given, amplitude_transmission=0.9)
    assert type(el.gamma_vec) is np.ndarray and el.gamma_vec.dtype == float
    assert el.gamma_vec.tolist() == given
    with pytest.raises(ValueError):
        el.gamma_vec[0] = 0.5
    array = np.array(given)
    assert pc.PdlElement(gamma_vec=array, amplitude_transmission=0.9).gamma_vec is not array


def test_pdl_element_compares_and_hashes_by_identity():
    # with field-wise equality, == compared gamma_vec arrays inside a tuple
    # and raised ValueError, and hash() raised TypeError
    a, b = pc.PdlElement.from_db([1, 0, 0], 0.5), pc.PdlElement.from_db([1, 0, 0], 0.5)
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1 and hash(a) != hash(b)


def test_pdl_element_invariants():
    el = pc.PdlElement.from_db([0, 1, 0], 0.08)
    assert el.gamma == pytest.approx(pc.pdl_gamma(el.amplitude_transmission), abs=1e-12)
    assert el.loss_db == pytest.approx(0.08, abs=1e-12)
    with pytest.raises(ValueError):
        pc.PdlElement(gamma_vec=np.array([0.5, 0, 0]), amplitude_transmission=0.99)
    with pytest.raises(pc.InvalidTransmission):
        pc.PdlElement.from_axis([1, 0, 0], 1.5)
