import copy
import itertools
import math

import numpy as np
import pytest
from scipy import optimize

from fiberlink import channel as chm
from fiberlink import instruments as ins
from fiberlink import polcore as pc
from fiberlink import stabilizer as st

from conftest import (
    PIEZO_AXES, assert_same_floats, make_test_channel, piezo_quaternion_oracle, piezo_turn_oracle,
    random_bloch,
)


# ---------------------------------------------------------------------------
# polarimeter
# ---------------------------------------------------------------------------

def test_polarimeter_noise_free_is_exact(rng):
    p = ins.Polarimeter(sigma=0.0, rng=rng)
    s = np.array([0.2, -0.4, 0.1])
    assert np.array_equal(p.read(s), s)


def test_polarimeter_small_sigma_unbiased(rng):
    # mixed input: the unit-ball clip never engages, reads are raw Gaussian
    p = ins.Polarimeter(sigma=1e-3, rng=rng)
    s = np.array([0.42, 0.34, 0.45])
    reads = np.array([p.read(s) for _ in range(10_000)])
    bias = reads.mean(axis=0) - s
    assert np.all(np.abs(bias) < 1e-4)


def test_polarimeter_direction_bias_quadratic_on_pure_inputs(rng):
    # the clip biases the degree of polarization but not the direction:
    # the direction estimate is unbiased to within the O(sigma^2) curvature
    sigma = 0.05
    p = ins.Polarimeter(sigma=sigma, rng=rng)
    s = np.array([0.6, 0.48, 0.64])
    n = 200_000
    acc = np.zeros(3)
    for _ in range(n):
        r = p.read(s)
        acc += r / np.linalg.norm(r)
    bias = acc / n - s
    assert np.all(np.abs(bias) < sigma**2)


def test_polarimeter_never_returns_norm_above_one(rng):
    p = ins.Polarimeter(sigma=0.05, rng=rng)
    s = random_bloch(rng, pure=True)
    for _ in range(500):
        assert np.linalg.norm(p.read(s)) <= 1.0 + 1e-12


def test_polarimeter_fidelity_estimate_unbiased(rng):
    # downstream two-probe fidelity estimate stays unbiased at sigma = 1e-2
    r = pc.rotation_about([0.3, 0.5, 1.0], 0.9)
    f_true = pc.process_fidelity(r)
    p = ins.Polarimeter(sigma=1e-2, rng=rng)
    n = 40_000
    est = np.empty(n)
    for i in range(n):
        s1 = p.read(r @ pc.S_H)
        s2 = p.read(r @ pc.S_D)
        s1 = s1 / np.linalg.norm(s1)
        s2 = s2 / np.linalg.norm(s2)
        est[i] = pc.process_fidelity_from_trace(pc.trace_from_probe_pair(s1, s2))
    assert abs(est.mean() - f_true) < 2e-4


def test_polarimeter_paired_reads_follow_twin_generator(rng):
    # read_pair draws six normals at once: bit for bit the inputs plus two
    # successive size-3 draws of a twin generator, interleaved with single
    # reads on the same stream; at sigma = 0.05 about half of the unit
    # inputs read with a norm above 1 and are renormalized
    sigma = 0.05
    p = ins.Polarimeter(sigma=sigma, rng=np.random.default_rng(5))
    twin = np.random.default_rng(5)

    def expected(s):
        x, y, z = (a + e for a, e in zip(s, twin.normal(0.0, sigma, 3).tolist()))
        n = math.sqrt(x * x + y * y + z * z)
        return ((x / n, y / n, z / n) if n > 1.0 else (x, y, z)), n > 1.0

    renormalized = 0
    for _ in range(200):
        h, d = (tuple(random_bloch(rng, pure=True).tolist()) for _ in range(2))
        (want_h, over_h), (want_d, over_d) = expected(h), expected(d)
        assert p.read_pair(h, d) == [want_h, want_d]
        renormalized += over_h + over_d
        s = random_bloch(rng, pure=True)
        want, over = expected(s.tolist())
        assert p.read(s).tolist() == list(want)
        renormalized += over
    assert 100 < renormalized < 500


def test_polarimeter_noise_blocks_follow_twin_generator_across_refills(rng):
    # Reads take their noise from blocks of _NOISE_BLOCK normals. Interleaved
    # single and paired reads cross several refills, at least one of them
    # inside a pair, and stay bit for bit the inputs plus a twin generator's
    # per-read draws.
    sigma = 0.05
    p = ins.Polarimeter(sigma=sigma, rng=np.random.default_rng(9))
    twin = np.random.default_rng(9)

    def expected(s):
        x, y, z = (a + e for a, e in zip(s, twin.normal(0.0, sigma, 3).tolist()))
        n = math.sqrt(x * x + y * y + z * z)
        return (x / n, y / n, z / n) if n > 1.0 else (x, y, z)

    drawn, split_pairs = 0, 0
    for k in range(ins._NOISE_BLOCK):
        if k < 4 or k % 5 == 0:
            s = random_bloch(rng, pure=True).tolist()
            assert p.read(np.array(s)).tolist() == list(expected(s))
            drawn += 3
        else:
            h, d = (tuple(random_bloch(rng, pure=True).tolist()) for _ in range(2))
            assert p.read_pair(h, d) == [expected(h), expected(d)]
            split_pairs += drawn // ins._NOISE_BLOCK != (drawn + 5) // ins._NOISE_BLOCK
            drawn += 6
    assert drawn // ins._NOISE_BLOCK >= 3 and split_pairs >= 1
    # the generator runs ahead of the reads to the end of the current block
    ahead = -drawn % ins._NOISE_BLOCK
    twin.normal(0.0, sigma, ahead)
    assert p.rng.bit_generator.state == twin.bit_generator.state


def test_noise_free_polarimeter_never_draws(rng):
    p = ins.Polarimeter(sigma=0.0, rng=np.random.default_rng(3))
    state = p.rng.bit_generator.state
    for _ in range(ins._NOISE_BLOCK):
        s = random_bloch(rng, pure=True)
        p.read(s)
        p.read_pair(s.tolist(), s.tolist())
    assert p.rng.bit_generator.state == state


def test_polarimeter_validation():
    with pytest.raises(ValueError):
        ins.Polarimeter(sigma=-0.1)


@pytest.mark.parametrize("make", [
    lambda: ins.Polarimeter(sigma=math.nan),
    lambda: ins.Polarimeter(sigma=math.inf),
    lambda: ins.Polarimeter(latency_s=math.nan),
    lambda: ins.Polarimeter(latency_s=-0.1),
    lambda: ins.PiezoController(settle_s=-1.0),
    lambda: ins.PiezoController(settle_s=math.nan),
    lambda: ins.PiezoController(settle_s=math.inf),
], ids=["pol_sigma_nan", "pol_sigma_inf", "pol_latency_nan", "pol_latency_negative",
        "piezo_settle_negative", "piezo_settle_nan", "piezo_settle_inf"])
def test_instrument_timing_and_noise_must_be_finite_and_non_negative(make):
    with pytest.raises(ValueError, match="finite and >= 0"):
        make()


@pytest.mark.parametrize("make, name, value", [
    (ins.Polarimeter, "sigma", -1.0),
    (ins.Polarimeter, "sigma", math.nan),
    (ins.Polarimeter, "latency_s", -5.0),
    (ins.Polarimeter, "rng", np.random.default_rng(1)),
], ids=["pol_sigma_negative", "pol_sigma_nan", "pol_latency_negative", "pol_rng"])
def test_instrument_settings_are_fixed_at_construction(make, name, value):
    # a setting changed after construction would skip the constructor's check
    instrument = make()
    before = getattr(instrument, name)
    with pytest.raises(AttributeError):
        setattr(instrument, name, value)
    assert getattr(instrument, name) is before


# ---------------------------------------------------------------------------
# piezo controller
# ---------------------------------------------------------------------------

def test_piezo_zero_voltages_identity():
    c = ins.PiezoController()
    assert np.allclose(c.rotation(), np.eye(3), atol=1e-15)


def test_piezo_single_channel_axis_angle(rng):
    for i in range(4):
        u = rng.uniform(-8.0, 8.0)
        volts = np.zeros(4)
        volts[i] = u
        c = ins.PiezoController(voltages=volts)
        expected = pc.rotation_about(PIEZO_AXES[i], 0.5 * u)
        assert np.allclose(c.rotation(), expected, atol=1e-12)


def test_piezo_continuity(rng):
    u = rng.uniform(-5, 5, size=4)
    c = ins.PiezoController(voltages=u)
    base = c.rotation()
    for i in range(4):
        du = np.zeros(4)
        du[i] = 1e-7
        c2 = ins.PiezoController(voltages=u + du)
        assert np.linalg.norm(c2.rotation() - base) < 1e-6


def test_piezo_voltage_limits():
    c = ins.PiezoController()
    with pytest.raises(ins.VoltageOutOfRange):
        c.set_voltages(np.array([11.0, 0, 0, 0]))
    with pytest.raises(ins.VoltageOutOfRange):
        ins.PiezoController(voltages=np.array([0, 0, 0, 12.0]))


def _rotation_about_product(c):
    m = np.eye(3)
    for axis, u in zip(PIEZO_AXES, c.voltages):
        m = pc.rotation_about(axis, c.gain_rad_per_v * u) @ m
    return m


@pytest.mark.parametrize("gain", [0.5, -0.7, 1.1])
def test_piezo_rotation_matches_rotation_about(rng, gain):
    # the columns are the turned axes of the scalar oracle, bit for bit, and
    # agree with the product of the four channels' Rodrigues matrices to
    # rounding: a proper rotation
    c = ins.PiezoController(gain_rad_per_v=gain)
    c.bias_neutral()
    cases = [
        np.zeros(4), np.full(4, -0.0), np.array([0.0, -0.0, -0.0, 0.0]),
        np.full(4, c.limit_v), np.full(4, -c.limit_v),
        np.array([c.limit_v, -c.limit_v, -c.limit_v, c.limit_v]),
        c.voltages,
        *rng.uniform(-c.limit_v, c.limit_v, size=(50, 4)),
    ]
    basis = np.eye(3).tolist()
    for u in cases:
        c.set_voltages(u)
        r = c.rotation()
        want = [v for e in basis for v in piezo_turn_oracle(gain, c.voltages, e)]
        assert_same_floats(r.T.ravel().tolist(), want)
        assert np.max(np.abs(r - _rotation_about_product(c))) <= 1e-14
        assert np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-14
        assert abs(np.linalg.det(r) - 1.0) <= 1e-14


@pytest.mark.parametrize("gain", [0.5, -0.7, 1.3, 0.01, 3.0])
def test_piezo_turn_oracle_matches_quaternion_oracle(gain):
    # turning s1, s2 and s3 channel by channel gives the columns of the
    # rotation of the four half-angle quaternions' product, to rounding
    rng = np.random.default_rng(41)
    cases = [[0.0] * 4, [-0.0] * 4, [10.0, -10.0, -10.0, 10.0],
             *rng.uniform(-10.0, 10.0, size=(4000, 4)).tolist()]
    basis = np.eye(3).tolist()
    worst = 0.0
    for u in cases:
        turned = np.array([piezo_turn_oracle(gain, u, e) for e in basis]).T
        quat = pc._rotation_of_quaternion(piezo_quaternion_oracle(PIEZO_AXES, [gain] * 4, u))
        worst = max(worst, np.abs(turned - quat).max())
    assert worst <= 4e-15


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_piezo_constructor_rejects_non_finite_voltage(bad):
    with pytest.raises(ins.VoltageOutOfRange):
        ins.PiezoController(voltages=np.array([bad, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_piezo_set_voltages_rejects_non_finite_voltage(bad):
    c = ins.PiezoController()
    with pytest.raises(ins.VoltageOutOfRange):
        c.set_voltages(np.array([bad, 0.0, 0.0, 0.0]))
    assert np.array_equal(c.voltages, np.zeros(4))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_piezo_apply_clamped_rejects_non_finite_voltage(bad):
    c = ins.PiezoController()
    with pytest.raises(ins.VoltageOutOfRange):
        c.apply_clamped(np.array([0.0, bad, 0.0, 0.0]))
    assert np.array_equal(c.voltages, np.zeros(4))
    assert c.clamp_events == 0


_WRITERS = ("constructor", "set_voltages", "apply_clamped", "bias_neutral")
# two Stokes vectors for the controller to turn
_PAIR = ((0.6, 0.0, -0.8), (-0.0, 0.96, 0.28))


def _stored_by(writer):
    """A controller whose voltages `writer` stored."""
    u = np.array([0.5, -1.0, 2.0, 9.5])
    if writer == "constructor":
        return ins.PiezoController(voltages=u)
    c = ins.PiezoController()
    if writer == "set_voltages":
        c.set_voltages(u)
    elif writer == "apply_clamped":
        c.apply_clamped(u + np.array([0.0, 0.0, 0.0, 1.0]))  # 10.5 V is re-centered
    else:
        c.bias_neutral()
    return c


@pytest.mark.parametrize("writer", _WRITERS)
def test_piezo_stores_a_tuple_of_four_floats(writer):
    volts = _stored_by(writer).voltages
    assert type(volts) is tuple and len(volts) == 4
    assert all(type(v) is float for v in volts)


@pytest.mark.parametrize("writer", _WRITERS)
def test_piezo_stored_voltages_are_read_only(writer):
    # a tuple: item assignment and in-place addition raise TypeError (a
    # read-only array raised ValueError)
    c = _stored_by(writer)
    before = c.voltages
    turned = c.turn_pair(*_PAIR)
    with pytest.raises(TypeError):
        c.voltages[0] = 1.0
    with pytest.raises(TypeError):
        c.voltages += 1.0
    assert c.voltages == before and c.turn_pair(*_PAIR) == turned


@pytest.mark.parametrize("writer", _WRITERS)
def test_piezo_read_leaves_the_controller_unchanged(writer):
    # turn_pair() and rotation() read the settings and voltages and store
    # nothing: every attribute equals its snapshot from before the reads
    c = _stored_by(writer)
    before = copy.deepcopy(vars(c))
    c.turn_pair(*_PAIR)
    c.rotation()
    after = vars(c)
    assert after.keys() == before.keys()
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(after[name], value), name
        else:
            assert after[name] == value, name


@pytest.mark.parametrize("limit", [-1.0, math.nan, 0.0, math.inf])
def test_piezo_requires_finite_positive_limit(limit):
    with pytest.raises(ValueError, match="limit_v"):
        ins.PiezoController(limit_v=limit)


def test_piezo_copies_requested_voltages():
    c = ins.PiezoController()
    u = np.array([0.5, -1.0, 2.0, 9.5])
    c.set_voltages(u)
    u[0] = 20.0
    assert c.voltages == (0.5, -1.0, 2.0, 9.5)
    returned = c.apply_clamped(u)
    u[1] = 7.0
    assert u[0] == 20.0 and returned is c.voltages and returned[1] == -1.0
    with pytest.raises(TypeError):
        returned[1] = 0.0


@pytest.mark.parametrize("name, value", [
    ("voltages", np.array([0.0, 0.0, 0.0, 10.5])),
    ("limit_v", 0.5),
    ("gain_rad_per_v", 0.7),
    ("settle_s", -1.0),
])
def test_piezo_settings_and_voltages_are_fixed_outside_the_writers(name, value):
    # only the checked writers store voltages, and the settings never change
    c = ins.PiezoController()
    c.set_voltages(np.array([0.5, -1.0, 2.0, 9.5]))
    turned = c.turn_pair(*_PAIR)
    with pytest.raises(AttributeError):
        setattr(c, name, value)
    assert c.gain_rad_per_v == 0.5 and c.limit_v == 10.0
    assert c.turn_pair(*_PAIR) == turned


@pytest.mark.parametrize("n", [5, 3])
def test_piezo_requires_four_voltages(n):
    with pytest.raises(ValueError, match="need 4 voltages"):
        ins.PiezoController(voltages=np.zeros(n))


# 3 or 5 voltages: test_piezo_requires_four_voltages and
# test_piezo_set_voltages_requires_four_channels
@pytest.mark.parametrize("u", [np.zeros((4, 1)), np.zeros((1, 4)), np.zeros((2, 4)), 0.0, []],
                         ids=["column", "row", "two_rows", "scalar", "empty"])
def test_piezo_writers_reject_a_request_that_is_not_four_numbers(u):
    c = ins.PiezoController(voltages=[0.5, -1.0, 2.0, 9.5])
    for write in (lambda: ins.PiezoController(voltages=u), lambda: c.set_voltages(u),
                  lambda: c.apply_clamped(u)):
        with pytest.raises(ValueError, match="need 4 voltages"):
            write()
    assert c.voltages == (0.5, -1.0, 2.0, 9.5) and c.clamp_events == 0


@pytest.mark.parametrize("gain", [0.5, -0.7, 1.1, -1e-3])
def test_piezo_neutral_bias_keeps_numpy_division_bits(gain):
    # the bias in Python floats equals the former numpy array division, bit
    # for bit and with its signs of zero (-0.0 at a negative gain)
    c = ins.PiezoController(gain_rad_per_v=gain, limit_v=1e4)
    c.bias_neutral()
    quarter = 0.5 * math.pi
    assert_same_floats(c.voltages, (np.array([0.0, -quarter, 0.0, quarter]) / gain).tolist())


@pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf, 0.0, -0.0])
def test_piezo_requires_finite_nonzero_gain(gain):
    with pytest.raises(ValueError, match="gain_rad_per_v must be finite and nonzero"):
        ins.PiezoController(gain_rad_per_v=gain)


def test_piezo_set_voltages_requires_four_channels():
    c = ins.PiezoController()
    for u in (np.zeros(3), np.zeros(5)):
        with pytest.raises(ValueError):
            c.set_voltages(u)
        with pytest.raises(ValueError):
            c.apply_clamped(u)
    assert np.array_equal(c.voltages, np.zeros(4))


def test_piezo_clamp_recenters_by_full_period():
    c = ins.PiezoController()
    # gain 0.5 rad/V -> a full turn is 4 pi V; 10.5 V recenters in range
    c.apply_clamped(np.array([10.5, 0, 0, 0]))
    assert c.clamp_events == 1
    assert abs(c.voltages[0] - (10.5 - 4 * math.pi)) < 1e-12
    rot_wrapped = c.rotation()
    expected = pc.rotation_about([1, 0, 0], 0.5 * 10.5)
    assert np.allclose(rot_wrapped, expected, atol=1e-10)


def test_piezo_neutral_bias_identity_and_full_rank():
    for gain in (0.5, -0.7, 1.1):
        c = ins.PiezoController(gain_rad_per_v=gain)
        c.bias_neutral()
        assert np.array_equal(c.rotation(), np.eye(3)), gain
        # finite-difference generators must span all three rotation directions
        base = c.rotation()
        gens = []
        for i in range(4):
            du = np.zeros(4)
            du[i] = 1e-6
            c2 = ins.PiezoController(voltages=c.voltages + du, gain_rad_per_v=gain)
            diff = (c2.rotation() - base) / 1e-6
            gens.append([diff[2, 1], diff[0, 2], diff[1, 0]])
        assert np.linalg.matrix_rank(np.array(gens), tol=1e-3) == 3, gain


def test_piezo_controllability_grid_oracle(rng):
    # brute-force grid search plus local polish compensates 1000 random
    # target rotations to process fidelity >= 0.999; validates the default
    # alternating-axis geometry
    gain = 0.5
    grid_1d = np.linspace(-2 * math.pi, 2 * math.pi, 7)
    grid_rots = []
    for angles in itertools.product(grid_1d, repeat=4):
        m = np.eye(3)
        for axis, ang in zip(PIEZO_AXES, angles):
            m = pc.rotation_about(axis, ang) @ m
        grid_rots.append(m)
    grid_rots = np.array(grid_rots)
    grid_angles = np.array(list(itertools.product(grid_1d, repeat=4)))

    def net_trace(u, target_t):
        # trace(R T) = sum over ij of R_ij T_ji, with R the rotation of the
        # channels' quaternion product and target_t the entries of T^T
        w, x, y, z = piezo_quaternion_oracle(PIEZO_AXES, [gain] * 4, u.tolist())
        r = (
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        )
        return sum(a * b for a, b in zip(r, target_t))

    worst = 1.0
    for _ in range(1000):
        target = pc.random_rotation(rng)
        traces = np.einsum("gij,jk->gik", grid_rots, target).trace(axis1=1, axis2=2)
        best = int(np.argmax(traces))
        u0 = grid_angles[best] / gain
        target_t = target.T.ravel().tolist()
        res = optimize.minimize(
            lambda u: -net_trace(u, target_t), u0, method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 400},
        )
        worst = min(worst, (1.0 - res.fun) / 4.0)
    assert worst >= 0.999


# ---------------------------------------------------------------------------
# reference switch
# ---------------------------------------------------------------------------

def test_reference_switch_shares_read_only_probes(monkeypatch):
    # the switch's H and D outputs are polcore's read-only constants, which
    # `probe_link` sends without a copy
    sent = []
    monkeypatch.setattr(st, "transmit_probe", lambda ch, s: sent.append(s) or chm.transmit_probe(ch, s))
    st.probe_link(make_test_channel())
    h, d = sent
    assert h is pc.S_H and d is pc.S_D
    for probe in (h, d, pc.S_R):
        with pytest.raises(ValueError):
            probe[0] = 0.5
    assert np.array_equal(pc.S_H, [1.0, 0.0, 0.0]) and np.array_equal(pc.S_D, [0.0, 1.0, 0.0])
