import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from fiberlink import channel as chm
from fiberlink import cli, config
from fiberlink import instruments as ins
from fiberlink import polcore as pc
from fiberlink import stabilizer as st

from conftest import (
    assert_same_floats, make_test_channel, piezo_quaternion_oracle, random_bloch,
)


def noise_free_polarimeter():
    return ins.Polarimeter(sigma=0.0, rng=np.random.default_rng(0))


def _link(ch):
    return st.probe_link(ch)


# ---------------------------------------------------------------------------
# error function
# ---------------------------------------------------------------------------

def test_error_function_compensated_channel_is_zero():
    ch = make_test_channel()
    piezo = ins.PiezoController()
    assert st.error_function(_link(ch), piezo, noise_free_polarimeter()) == pytest.approx(0.0, abs=1e-15)


def test_error_function_half_turn_about_s3():
    ch = make_test_channel(rotation=pc.rotation_about([0, 0, 1], math.pi))
    piezo = ins.PiezoController()
    f = st.error_function(_link(ch), piezo, noise_free_polarimeter())
    assert f == pytest.approx(8.0, abs=1e-12)


def test_error_function_equivalent_to_fidelity(rng):
    # in the rotation-only noise-free model f = 4 - 2(Q11 + Q22), so f = 0,
    # trace 3 and unit fidelity coincide
    pol = noise_free_polarimeter()
    piezo = ins.PiezoController()
    for _ in range(1000):
        q = pc.random_rotation(rng)
        ch = make_test_channel(rotation=q)
        f = st.error_function(_link(ch), piezo, pol)
        assert f == pytest.approx(4.0 - 2.0 * (q[0, 0] + q[1, 1]), abs=1e-9)
        fp = pc.process_fidelity(q)
        if f < 1e-12:
            assert fp == pytest.approx(1.0, abs=1e-9)
        if fp > 1.0 - 1e-12:
            assert f == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("pdl_transmission", [1.0, 0.8])
@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_measure_probe_pair_matches_matrix_oracle(rng, sigma, pdl_transmission):
    # the scalar probe path against the matrix path: rotation() applied to
    # each link output, read one probe at a time from a twin polarimeter
    limit = ins.PiezoController().limit_v
    worst = 0.0
    for k in range(300):
        ch = make_test_channel(
            rotation=pc.random_rotation(rng),
            pdl_axis=None if pdl_transmission == 1.0 else random_bloch(rng, pure=True),
            pdl_transmission=pdl_transmission,
        )
        piezo = ins.PiezoController(voltages=rng.uniform(-limit, limit, size=4))
        pol = ins.Polarimeter(sigma=sigma, rng=np.random.default_rng(k))
        twin = ins.Polarimeter(sigma=sigma, rng=np.random.default_rng(k))
        got = st.measure_probe_pair(_link(ch), piezo, pol)
        comp = piezo.rotation()
        want = [twin.read(comp @ chm.transmit_probe(ch, s)) for s in (pc.S_H, pc.S_D)]
        worst = max(worst, np.abs(np.asarray(got) - np.asarray(want)).max())
    assert worst <= 1e-15


def _direct_probe_pair(ch, q, twin):
    """H and D reads of the link outputs turned by the rotation of quaternion
    q, each output mapped afresh and read one at a time from `twin`."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = pc._rotation_entries(q)
    reads = []
    for s in (pc.S_H, pc.S_D):
        a, b, c = pc.pdl_apply_bloch(ch.rotation @ s, ch.current_pdl()).tolist()
        turned = [r00 * a + r01 * b + r02 * c, r10 * a + r11 * b + r12 * c,
                  r20 * a + r21 * b + r22 * c]
        reads += twin.read(np.array(turned)).tolist()
    return reads


# gains of the controllers the probe-path oracle drives
_GAINS = (0.5, -0.7, 1.1)
_VOLTS = hst.one_of(
    hst.sampled_from((0.0, -0.0, 0.1, -3.0, 10.0, -10.0, 10.0 + 1e-12, 10.5, -10.5, 25.0, -40.0)),
    hst.floats(-40.0, 40.0),
)
_STEPS = hst.lists(
    hst.tuples(hst.sampled_from(("set", "clamped", "neutral")),
               hst.lists(_VOLTS, min_size=4, max_size=4)),
    min_size=1, max_size=12,
)


# Every way of storing voltages, in any order: the controller's quaternion
# equals the scalar oracle, and the probe pair equals the direct map, bit for
# bit. The oracle uses none of the controller's code.
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(steps=_STEPS, gain=hst.sampled_from(_GAINS), seed=hst.integers(0, 2**16))
@example(steps=[("set", [0.0, 0.5, 0.0, -0.5]), ("set", [-0.0, 0.5, -0.0, -0.5]),
                ("set", [0.0, 0.5, -0.0, -0.5]), ("set", [0.0, 0.5, 0.0, -0.5])],
         gain=-0.7, seed=0)
def test_probe_path_matches_scalar_oracle(steps, gain, seed):
    rng = np.random.default_rng(seed)
    ch = make_test_channel(rotation=pc.random_rotation(rng),
                           pdl_axis=random_bloch(rng, pure=True), pdl_transmission=0.9)
    piezo = ins.PiezoController(gain_rad_per_v=gain)
    pol = ins.Polarimeter(sigma=1e-3, rng=np.random.default_rng(seed))
    twin = ins.Polarimeter(sigma=1e-3, rng=np.random.default_rng(seed))
    for kind, u in steps:
        try:
            if kind == "set":
                piezo.set_voltages(u)
            elif kind == "clamped":
                piezo.apply_clamped(u)
            else:
                piezo.bias_neutral()
        except ins.VoltageOutOfRange:
            assert kind == "set"  # and the voltages stay as they were
        volts = piezo.voltages
        assert all(abs(v) <= piezo.limit_v + 1e-12 for v in volts)
        q = piezo_quaternion_oracle(ins.PIEZO_AXES_DEFAULT, [gain] * 4, volts)
        assert_same_floats(piezo.quaternion(), q)
        got = st.measure_probe_pair(st.probe_link(ch), piezo, pol)
        assert_same_floats([v for read in got for v in read], _direct_probe_pair(ch, q, twin))


@pytest.fixture
def transmit_calls(monkeypatch):
    """The probes `stabilizer` sends through `transmit_probe`, in order."""
    calls = []

    def counting(ch, s_in):
        calls.append(s_in)
        return chm.transmit_probe(ch, s_in)

    monkeypatch.setattr(st, "transmit_probe", counting)
    return calls


def _preset_channel(rotation_seed):
    """The ppe_dutycycle preset's link, piezo, polarimeter and loop
    settings, from a Haar-random rotation."""
    scn = config.load(cli._preset_dir() / "ppe_dutycycle.ini")
    ch = scn.make_channel(rotation=pc.random_rotation(np.random.default_rng(rotation_seed)))
    return ch, scn.make_piezo(), scn.make_polarimeter(), scn.make_stabilizer_config()


@pytest.fixture
def probe_pair_calls(monkeypatch):
    """A list that grows by one per `measure_probe_pair` call."""
    calls = []
    measure = st.measure_probe_pair

    def counting(*args):
        calls.append(None)
        return measure(*args)

    monkeypatch.setattr(st, "measure_probe_pair", counting)
    return calls


def test_stabilize_maps_a_held_still_link_once(transmit_calls, probe_pair_calls):
    # the gain of the link memo, counted instead of timed: one H and one D
    # map for a whole convergence of hundreds of probe pairs
    ch, piezo, pol, cfg = _preset_channel(11)
    run = st.stabilize(ch, piezo, pol, cfg)
    assert run.iterations > 10 and len(probe_pair_calls) > 100
    assert [s.tolist() for s in transmit_calls] == [pc.S_H.tolist(), pc.S_D.tolist()]


class _CountingGenerator:
    """A numpy generator that counts its `normal` calls."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.normal(*args, **kwargs)


def test_stabilize_draws_read_noise_in_blocks(probe_pair_calls):
    # the gain of the noise blocks, counted instead of timed: N probe pairs
    # take ceil(6 N / _NOISE_BLOCK) generator calls, not one per pair
    ch, piezo, _, cfg = _preset_channel(11)
    counting = _CountingGenerator(np.random.default_rng(11))
    st.stabilize(ch, piezo, ins.Polarimeter(sigma=1e-3, rng=counting), cfg)
    n = len(probe_pair_calls)
    assert 6 * n > 2 * ins._NOISE_BLOCK
    assert counting.normal_calls == math.ceil(6 * n / ins._NOISE_BLOCK)


@pytest.mark.parametrize("spike_rate", [0.0, 1e3], ids=["quiet", "spiking"])
def test_duty_cycle_maps_each_window_boundary_once(transmit_calls, probe_pair_calls, spike_rate):
    # each window maps the link once, for the stabilization whose first probe
    # is the boundary read; the walk between windows moves it, and a spike
    # each step renews the loss
    ch, piezo, pol, cfg = _preset_channel(12)
    ch.spikes = chm.PdlSpikeProcess(rate_per_s=spike_rate, extra_db=0.5, duration_s=30.0)
    records, _, _ = st.duty_cycle_run(ch, piezo, pol, cfg, transmit_window_s=5.0, total_s=10.0)
    assert [r.stab_iterations > 0 for r in records] == [True, True]
    assert len(probe_pair_calls) > 100
    assert [s.tolist() for s in transmit_calls] == [pc.S_H.tolist(), pc.S_D.tolist()] * 2


@pytest.mark.parametrize("u0", [
    [10.0, 0.0, -0.3, 0.7],  # channel 1 on its limit, channel 2 at a zero half angle
    [0.4, -10.0, -0.0, 10.0],  # two channels on a limit and a negative zero
    [0.25, -0.5, 1.5, 0.0],
])
def test_quaternion_prefix_follows_gradient_probe_order(monkeypatch, u0):
    # over the gradient's probe order (one channel moved at a time, centre
    # probes at a limit, then a new point), with zero and negative-zero half
    # angles among the probes, quaternion() equals the scalar oracle, bit
    # for bit
    piezo = ins.PiezoController(voltages=np.array(u0))
    gains = [piezo.gain_rad_per_v] * 4
    probed = []

    def checking_error(link, piezo, polarimeter):
        volts = list(piezo.voltages)
        probed.append(volts)
        assert_same_floats(piezo.quaternion(), piezo_quaternion_oracle(ins.PIEZO_AXES_DEFAULT, gains, volts))
        return sum(v * v for v in volts)

    monkeypatch.setattr(st, "error_function", checking_error)
    ch = make_test_channel()
    for k, du in enumerate((0.1, 0.05, 0.1)):
        direction = st.gradient(_link(ch), piezo, noise_free_polarimeter(), delta_u_v=du)
        if k == 0:  # a channel on its limit probes the centre once
            assert probed.count(u0) == any(abs(v) == piezo.limit_v for v in u0)
        volts = piezo.voltages
        assert_same_floats(piezo.quaternion(), piezo_quaternion_oracle(ins.PIEZO_AXES_DEFAULT, gains, volts))
        piezo.apply_clamped(piezo.voltages + 0.1 * direction)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_gradient_vanishes_at_optimum():
    ch = make_test_channel()
    piezo = ins.PiezoController()
    g = st.gradient(_link(ch), piezo, noise_free_polarimeter(), delta_u_v=1e-3)
    assert np.linalg.norm(g) < 1e-9


def test_gradient_matches_analytic_on_synthetic_quadratic(monkeypatch):
    # central difference against the analytic derivative of a known quadratic
    a = np.array([
        [2.0, 0.3, 0.0, -0.1],
        [0.3, 1.5, 0.2, 0.0],
        [0.0, 0.2, 1.0, 0.4],
        [-0.1, 0.0, 0.4, 2.5],
    ])
    b = np.array([0.4, -0.2, 0.1, 0.3])

    def synthetic_error(link, piezo, polarimeter):
        u = piezo.voltages
        return float(u @ a @ u + b @ u + 1.0)

    monkeypatch.setattr(st, "error_function", synthetic_error)
    piezo = ins.PiezoController(voltages=np.array([0.5, -0.4, 0.2, 0.1]))
    ch = make_test_channel()
    g = st.gradient(_link(ch), piezo, noise_free_polarimeter(), delta_u_v=1e-3)
    analytic_descent = -(2.0 * a @ piezo.voltages + b)
    assert np.all(np.abs(g - analytic_descent) < 1e-6)
    assert np.array_equal(piezo.voltages, np.array([0.5, -0.4, 0.2, 0.1]))


def test_gradient_direction_decreases_error(rng):
    pol = noise_free_polarimeter()
    for k in range(100):
        ch = make_test_channel(rotation=pc.random_rotation(rng))
        piezo = ins.PiezoController()
        piezo.bias_neutral()
        f0 = st.error_function(_link(ch), piezo, pol)
        if f0 < 1e-9:
            continue
        g = st.gradient(_link(ch), piezo, pol, delta_u_v=1e-4)
        piezo.set_voltages(piezo.voltages + 1e-3 * g)
        assert st.error_function(_link(ch), piezo, pol) < f0


def test_gradient_one_sided_fallback_at_limits():
    ch = make_test_channel(rotation=pc.rotation_about([0, 1, 0], 0.4))
    piezo = ins.PiezoController(voltages=np.array([10.0, 0.0, 0.0, 0.0]))
    pol = noise_free_polarimeter()
    g = st.gradient(_link(ch), piezo, pol, delta_u_v=0.1)
    assert np.all(np.isfinite(g))
    assert np.array_equal(piezo.voltages, np.array([10.0, 0.0, 0.0, 0.0]))


def test_gradient_raises_when_no_probe_fits():
    ch = make_test_channel()
    piezo = ins.PiezoController(voltages=np.array([10.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ins.VoltageOutOfRange):
        st.gradient(_link(ch), piezo, noise_free_polarimeter(), delta_u_v=25.0)


@pytest.mark.parametrize("du", [math.nan, math.inf])
def test_gradient_rejects_non_finite_step_before_probing(monkeypatch, du):
    probes = []
    monkeypatch.setattr(st, "error_function", lambda *args: probes.append(None) or 0.0)
    piezo = ins.PiezoController(voltages=np.array([0.5, -0.4, 0.2, 0.1]))
    with pytest.raises(ValueError, match="delta_u_v"):
        st.gradient(_link(make_test_channel()), piezo, noise_free_polarimeter(), delta_u_v=du)
    assert probes == [] and piezo.voltages == (0.5, -0.4, 0.2, 0.1)


def test_gradient_looks_up_error_function_per_probe(monkeypatch):
    # criterion 06 patches the module-level error_function, so every probe
    # must go through it: two per channel, and at a channel on its limit the
    # out-of-range probe is replaced by one probe at the centre
    probes = []

    def counting_error(link, piezo, polarimeter):
        probes.append(list(piezo.voltages))
        return 0.0

    monkeypatch.setattr(st, "error_function", counting_error)
    ch = make_test_channel()
    interior = [0.5, -0.4, 0.2, 0.1]
    st.gradient(_link(ch), ins.PiezoController(voltages=np.array(interior)),
                noise_free_polarimeter(), delta_u_v=0.1)
    assert len(probes) == 8
    assert interior not in probes

    probes.clear()
    at_limit = [10.0, -0.4, 0.2, 0.1]
    st.gradient(_link(ch), ins.PiezoController(voltages=np.array(at_limit)),
                noise_free_polarimeter(), delta_u_v=0.1)
    assert len(probes) == 8
    assert probes.count(at_limit) == 1
    assert max(u[0] for u in probes) == 10.0


# ---------------------------------------------------------------------------
# adaptive schedule
# ---------------------------------------------------------------------------

def test_adapt_parameters_three_point_table():
    cfg = st.StabilizerConfig(fp_threshold=0.99, fp_crossover=0.95,
                              d0=2.0, d1=0.1, du0_v=0.2, du1_v=0.02)
    assert st.adapt_parameters(cfg, 0.5) == (2.0, 0.2)
    assert st.adapt_parameters(cfg, 0.95) == (2.0 + 0.1, 0.2 + 0.02)
    assert st.adapt_parameters(cfg, 1.0) == (0.1, 0.02)


def test_adapt_parameters_constant_below_crossover():
    cfg = st.StabilizerConfig()
    for fp in (0.0, 0.3, 0.9499):
        assert st.adapt_parameters(cfg, fp) == (cfg.d0, cfg.du0_v)


def test_adapt_parameters_decreasing_above_crossover():
    cfg = st.StabilizerConfig()
    ds = [st.adapt_parameters(cfg, fp)[0] for fp in (0.95, 0.97, 0.99, 1.0)]
    assert all(d2 < d1 for d1, d2 in zip(ds, ds[1:]))


def test_stabilizer_config_validation():
    with pytest.raises(ValueError):
        st.StabilizerConfig(fp_threshold=1.2)
    with pytest.raises(ValueError):
        st.StabilizerConfig(fp_crossover=0.99, fp_threshold=0.98)
    with pytest.raises(ValueError):
        st.StabilizerConfig(d0=-1.0)
    for name in ("d0", "d1", "du0_v", "du1_v"):
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match=name):
                st.StabilizerConfig(**{name: bad})


@pytest.mark.parametrize("bad", [1.5, 200.0, "200", None, 0, -3])
def test_stabilizer_config_requires_integer_max_iterations(bad):
    # a float count used to pass here and fail later inside stabilize's range()
    with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
        st.StabilizerConfig(max_iterations=bad)


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------

def test_stabilize_identity_channel_converges_immediately():
    ch = make_test_channel()
    run = st.stabilize(ch, ins.PiezoController(), noise_free_polarimeter())
    assert run.outcome is st.Outcome.CONVERGED
    assert run.iterations == 0
    assert run.final_fp >= 0.99


def test_stabilize_random_channels_noise_free(rng):
    cfg = st.StabilizerConfig(fp_threshold=0.99)
    converged = 0
    for k in range(100):
        ch = make_test_channel(rotation=pc.random_rotation(rng))
        run = st.stabilize(ch, ins.PiezoController(), noise_free_polarimeter(), cfg)
        if run.outcome is st.Outcome.CONVERGED:
            converged += 1
            assert run.final_fp >= cfg.fp_threshold
    assert converged >= 99


def test_stabilize_trace_and_limits(rng):
    cfg = st.StabilizerConfig(fp_threshold=0.99)
    ch = make_test_channel(rotation=pc.random_rotation(rng))
    piezo = ins.PiezoController()
    run = st.stabilize(ch, piezo, noise_free_polarimeter(), cfg)
    assert len(run.trace) == run.iterations + 1
    for row in run.trace:
        assert len(row) == len(st.TRACE_HEADER)
        assert all(abs(u) <= piezo.limit_v + 1e-9 for u in row[1:5])
    times = [row[-1] for row in run.trace]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


def test_stabilize_trace_csv_header(tmp_path, rng):
    ch = make_test_channel(rotation=pc.random_rotation(rng))
    run = st.stabilize(ch, ins.PiezoController(), noise_free_polarimeter())
    path = tmp_path / "trace.csv"
    run.write_trace_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "iteration,u1_v,u2_v,u3_v,u4_v,error_f,process_fidelity,time_s"


def test_stabilize_max_iterations_outcome(rng):
    cfg = st.StabilizerConfig(fp_threshold=0.999999, max_iterations=2)
    ch = make_test_channel(rotation=pc.random_rotation(rng))
    run = st.stabilize(ch, ins.PiezoController(), noise_free_polarimeter(), cfg)
    assert run.outcome is st.Outcome.MAX_ITERATIONS
    assert run.iterations == 2
    assert len(run.trace) == 3


def test_stabilize_warm_start_faster_than_cold(rng):
    cfg = st.StabilizerConfig(fp_threshold=0.99)
    pol = noise_free_polarimeter()
    cold, warm = [], []
    for k in range(40):
        ch = make_test_channel(rotation=pc.random_rotation(rng))
        piezo = ins.PiezoController()
        run = st.stabilize(ch, piezo, pol, cfg)
        cold.append(run.duration_s)
        # small drift after convergence: fidelity ~ 0.96
        angle = 2.0 * math.sqrt(0.04)
        pert = pc.rotation_about(rng.normal(size=3), angle)
        ch.rotation = pert @ ch.rotation
        warm.append(st.stabilize(ch, piezo, pol, cfg).duration_s)
    assert np.mean(warm) < np.mean(cold)
    assert np.median(warm) < np.median(cold)


def test_stabilize_with_noise_converges(rng):
    cfg = st.StabilizerConfig(fp_threshold=0.99)
    converged = 0
    for k in range(100):
        ch = make_test_channel(rotation=pc.random_rotation(rng))
        pol = ins.Polarimeter(sigma=1e-3, rng=np.random.default_rng(4000 + k))
        run = st.stabilize(ch, ins.PiezoController(), pol, cfg)
        converged += run.outcome is st.Outcome.CONVERGED
    assert converged >= 94


# ---------------------------------------------------------------------------
# duty cycle
# ---------------------------------------------------------------------------

def test_duty_cycle_zero_drift_single_stabilization(rng):
    ch = make_test_channel(rotation=pc.random_rotation(rng))
    piezo = ins.PiezoController()
    piezo.bias_neutral()
    cfg = st.StabilizerConfig(fp_threshold=0.99)
    records, _, _ = st.duty_cycle_run(
        ch, piezo, noise_free_polarimeter(), cfg,
        transmit_window_s=100.0, total_s=1000.0,
    )
    assert [r.stab_iterations > 0 for r in records] == [True] + [False] * 9
    assert all(r.fp_after >= cfg.fp_threshold for r in records)


def test_duty_cycle_night_drift_keeps_fidelity(rng):
    # calibrated night drift with 100 s windows: post-window fidelity stays
    # high at the 90 % quantile
    post_window = []
    for k in range(30):
        ch = make_test_channel(
            rotation=pc.random_rotation(rng),
            rng=np.random.default_rng(500 + k),
            night_rate=chm.NIGHT_RATE_DEFAULT,
            day_rate=chm.NIGHT_RATE_DEFAULT,
        )
        piezo = ins.PiezoController()
        piezo.bias_neutral()
        cfg = st.StabilizerConfig(fp_threshold=0.99)
        records, _, _ = st.duty_cycle_run(
            ch, piezo, noise_free_polarimeter(), cfg,
            transmit_window_s=100.0, total_s=600.0, drift_dt_s=10.0,
        )
        # fidelity at the start of window w+1 is the post-window value of w
        post_window.extend(r.fp_before for r in records[1:])
    assert np.quantile(post_window, 0.10) >= 0.98


def test_duty_cycle_ratio_bookkeeping(rng):
    # a window that stabilized records its run's time and fidelity; one that
    # did not records no time and keeps its boundary fidelity. With read
    # noise, a second boundary read could land on the other side of the
    # threshold and record a run of 0 iterations that took time
    rotation = pc.random_rotation(rng)
    for polarimeter in (noise_free_polarimeter(), ins.Polarimeter(sigma=1e-2, rng=np.random.default_rng(7))):
        ch = make_test_channel(
            rotation=rotation,
            rng=np.random.default_rng(17),
            night_rate=5e-5, day_rate=5e-5,
        )
        piezo = ins.PiezoController()
        piezo.bias_neutral()
        cfg = st.StabilizerConfig(fp_threshold=0.99)
        records, _, _ = st.duty_cycle_run(
            ch, piezo, polarimeter, cfg,
            transmit_window_s=100.0, total_s=2000.0, drift_dt_s=10.0,
        )
        stabilized = [r for r in records if r.stab_iterations > 0]
        assert 2 <= len(stabilized) < len(records)
        assert all(r.stab_duration_s > 0.0 and r.fp_after >= cfg.fp_threshold > r.fp_before for r in stabilized)
        assert all(r.stab_duration_s == 0.0 and r.fp_after == r.fp_before >= cfg.fp_threshold
                   for r in records if r.stab_iterations == 0)


def test_duty_cycle_step_counts(rng):
    ch = make_test_channel(rotation=pc.random_rotation(rng))
    records, rotations, spiked = st.duty_cycle_run(
        ch, ins.PiezoController(), noise_free_polarimeter(), st.StabilizerConfig(),
        transmit_window_s=10.0, total_s=50.0, drift_dt_s=1.0,
    )
    assert len(records) == 5
    assert rotations.shape == (5, 10, 3, 3) and spiked.shape == (5, 10) and not spiked.any()
    assert ch.clock_s == 50.0


def test_duty_cycle_piezo_idle_within_each_window(rng):
    # the arm-B accumulation reads the compensator once per window, which
    # holds only if the piezo does not move while a window is walked
    ch = make_test_channel(
        rotation=pc.random_rotation(rng),
        rng=np.random.default_rng(17),
        night_rate=5e-5, day_rate=5e-5,
    )
    piezo = ins.PiezoController()
    piezo.bias_neutral()
    records, rotations, spiked = st.duty_cycle_run(
        ch, piezo, noise_free_polarimeter(), st.StabilizerConfig(fp_threshold=0.99),
        transmit_window_s=100.0, total_s=2000.0, drift_dt_s=10.0,
    )
    assert len(records) == 20
    assert rotations.shape == (20, 10, 3, 3) and spiked.shape == (20, 10)
    # the link ends where the last window's walk left it
    assert np.array_equal(rotations[-1, -1], ch.rotation)
    # the last window's compensator is what the piezo still holds after it
    assert np.array_equal(records[-1].compensator, piezo.rotation())
    # the stabilizer did move the piezo between windows
    assert sum(r.stab_iterations > 0 for r in records) >= 2
    assert len({r.compensator.tobytes() for r in records}) >= 2


@pytest.mark.parametrize("window_s, total_s, n_windows", [
    (0.1, 1.0, 10), (0.7, 2.1, 3), (0.1, 2.1, 21), (3.0, 10.0, 4), (5.0, 5.0, 1),
])
def test_duty_cycle_window_count_is_exact(window_s, total_s, n_windows):
    # summing window starts in floats ran an eleventh window for 1.0 / 0.1
    records, rotations, spiked = st.duty_cycle_run(
        make_test_channel(), ins.PiezoController(), noise_free_polarimeter(),
        st.StabilizerConfig(), transmit_window_s=window_s, total_s=total_s,
    )
    assert len(records) == n_windows
    assert rotations.shape[:2] == spiked.shape == (n_windows, max(1, round(window_s)))
