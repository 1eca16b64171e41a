import math

import numpy as np
import pytest
from scipy import stats

from fiberlink import channel as chm
from fiberlink import polcore as pc

from conftest import (
    assert_same_complex, assert_same_floats, drift_step_oracle, make_test_channel, random_bloch,
    rotation_to_axis_angle, su2_of_rotation_oracle,
)


# ---------------------------------------------------------------------------
# drift walk
# ---------------------------------------------------------------------------

def test_advance_zero_rate_keeps_rotation(rng):
    ch = chm.ChannelState(rng=rng, day_rate=0.0, night_rate=0.0)
    before = ch.rotation
    ch.advance(5.0)
    assert np.array_equal(ch.rotation, before)
    assert ch.clock_s == 5.0


def test_advance_requires_positive_dt(rng):
    ch = chm.ChannelState(rng=rng)
    for dt in (0.0, -1.0):
        with pytest.raises(ValueError):
            ch.advance(dt)


@pytest.mark.parametrize("rates", [(-1e-6, 0.0), (0.0, -1e-6)])
def test_negative_rate_is_rejected(rng, rates):
    with pytest.raises(ValueError):
        chm.ChannelState(rng=rng, day_rate=rates[0], night_rate=rates[1])


# values the link used to take and then walk without drift, fail in the
# middle of a walk, never spike, fail at the first spike or never be day
@pytest.mark.parametrize("make, field, value", [
    (make_test_channel, "day_rate", math.nan),
    (make_test_channel, "night_rate", math.inf),
    (chm.PdlSpikeProcess, "rate_per_s", math.nan),
    (chm.PdlSpikeProcess, "extra_db", -1.0),
    (chm.PdlSpikeProcess, "duration_s", -5.0),
    (chm.DaySchedule, "day_start_s", math.nan),
    (chm.DaySchedule, "day_end_s", 86400.5),
], ids=["day_rate", "night_rate", "rate_per_s", "extra_db", "duration_s", "day_start_s",
        "day_end_s"])
def test_link_settings_are_checked_at_construction(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make(**{field: value})


@pytest.mark.parametrize("rotation", [
    [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]],
    np.eye(2), np.eye(3)[:2], np.ones(9),
], ids=["nan", "inf", "2x2", "2x3", "flat"])
def test_bad_rotation_is_rejected(rng, rotation):
    # a NaN entry used to surface only as VoltageOutOfRange from the first
    # stabilizer step
    with pytest.raises(ValueError, match="finite 3x3"):
        chm.ChannelState(rng=rng, rotation=np.array(rotation))


def test_link_stores_read_only_rotations(rng):
    given = pc.random_rotation(rng)
    ch = chm.ChannelState(rng=np.random.default_rng(3), rotation=given, day_rate=1e-3, night_rate=1e-3)
    assert ch.rotation is not given and np.array_equal(ch.rotation, given)
    given[0, 0] = 5.0  # the link keeps its own copy
    assert ch.rotation[0, 0] != 5.0
    for _ in range(2):
        with pytest.raises(ValueError):
            ch.rotation[0, 0] = 0.5
        ch.advance(1.0)
    # an assigned rotation is kept as it is; a still walk leaves it alone
    ch.rotation = np.eye(3)
    ch.day_rate = ch.night_rate = 0.0
    ch.advance(1.0)
    assert ch.rotation.flags.writeable


def test_walk_through_a_spike_shares_one_loss_element():
    ch = make_test_channel(pdl_axis=[0, 1, 0], pdl_transmission=0.95)
    ch.spikes = chm.PdlSpikeProcess(rate_per_s=1e9, extra_db=1.0, duration_s=30.0)
    first = ch.walk(1.0, 1)[1][0]
    ch.spikes = chm.PdlSpikeProcess(rate_per_s=0.0, extra_db=1.0, duration_s=30.0)
    losses = ch.walk(1.0, 10)[1]
    assert all(loss.gamma_vec.tobytes() == first.gamma_vec.tobytes() for loss in losses)
    assert first.gamma_vec.tobytes() == pc.PdlElement.from_db([0, 1, 0], 1.0 + ch.pdl.loss_db).gamma_vec.tobytes()
    ch.spikes = chm.PdlSpikeProcess(rate_per_s=1e9, extra_db=1.0, duration_s=30.0)
    renewed = ch.walk(1.0, 1)[1][0]  # a new spike's element has the same bits
    assert renewed.gamma_vec.tobytes() == first.gamma_vec.tobytes()
    ch.spikes = chm.PdlSpikeProcess(rate_per_s=0.0, extra_db=2.0, duration_s=30.0)
    assert ch.current_pdl().loss_db == pytest.approx(ch.pdl.loss_db + 2.0, abs=1e-9)


class _ScriptedNormals:
    """Generator stand-in: serves `head` as its first standard normals, then
    those of a seeded generator. Its `bit_generator.state` covers both."""

    def __init__(self, seed, head):
        self._rng = np.random.default_rng(seed)
        self._head = list(head)
        self.bit_generator = self

    @property
    def state(self):
        return self._rng.bit_generator.state, list(self._head)

    @state.setter
    def state(self, value):
        self._rng.bit_generator.state, self._head = value[0], list(value[1])

    def standard_normal(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        head, self._head = self._head[:n], self._head[n:]
        rest = self._rng.standard_normal(n - len(head))
        z = np.concatenate([np.array(head, dtype=float), rest])
        return z[0] if size is None else z.reshape(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self.standard_normal(size)

    def random(self):
        return self._rng.random()


def _outcome(ch, rotations, losses):
    """(rotations, per-step losses, clock, next draw) of a finished walk."""
    losses = [(p.amplitude_transmission, *p.gamma_vec.tolist()) for p in losses]
    return np.array(rotations), losses, ch.clock_s, ch.rng.standard_normal(4)


def _walk_and_oracle(make_rng, n, dt=10.0, **kw):
    """Outcomes of n scalar oracle steps and of one `walk(dt, n)`."""
    oracle = chm.ChannelState(rng=make_rng(), **kw)
    steps = [drift_step_oracle(oracle, dt) for _ in range(n)]
    ch = chm.ChannelState(rng=make_rng(), **kw)
    return [_outcome(oracle, *zip(*steps)), _outcome(ch, *ch.walk(dt, n))]


def _assert_bit_equal(results):
    (rot_o, loss_o, clock_o, next_o), (rot_w, loss_w, clock_w, next_w) = results
    assert rot_o.shape == rot_w.shape
    assert np.array_equal(rot_o, rot_w)
    assert_same_floats([x for step in loss_w for x in step], [x for step in loss_o for x in step])
    assert clock_o == clock_w
    assert np.array_equal(next_o, next_w)


@pytest.mark.parametrize("seed", [0, 1, 7, 52101, 20260810])
def test_walk_matches_advance_bit_for_bit(seed):
    kw = dict(rotation=pc.random_rotation(np.random.default_rng(seed + 1)), day_rate=3e-6)
    reference = _walk_and_oracle(lambda: np.random.default_rng(seed), 400, **kw)
    _assert_bit_equal(reference)
    # `advance` is a walk of one step
    ch = chm.ChannelState(rng=np.random.default_rng(seed), **kw)
    steps = []
    for _ in range(400):
        ch.advance(10.0)
        steps.append((ch.rotation, ch.current_pdl()))
    _assert_bit_equal([reference[0], _outcome(ch, *zip(*steps))])
    ch = chm.ChannelState(rng=np.random.default_rng(seed), **kw)
    assert ch.walk(10.0, 0) == ([], []) and ch.clock_s == 0.0


@pytest.mark.parametrize("spikes", [0.0, 0.05], ids=["block", "spikes"])
def test_walk_splits_into_consecutive_walks(spikes):
    # the duty cycle walks window by window: 07:25 to 07:35 in three walks
    kw = dict(clock_s=chm.DaySchedule().day_start_s - 300.0, day_rate=2e-5,
              spikes=chm.PdlSpikeProcess(rate_per_s=spikes))
    whole = chm.ChannelState(rng=np.random.default_rng(8), **kw)
    parts = chm.ChannelState(rng=np.random.default_rng(8), **kw)
    rotations, losses = [], []
    for n in (250, 1, 349):
        r, loss = parts.walk(1.0, n)
        rotations += r
        losses += loss
    _assert_bit_equal([_outcome(whole, *whole.walk(1.0, 600)), _outcome(parts, rotations, losses)])


def test_walk_crosses_day_and_night():
    # 07:20 to 18:10 in 50 s steps: night, the 07:30 switch, day, the 18:00 switch
    day = chm.DaySchedule()
    results = _walk_and_oracle(lambda: np.random.default_rng(3), 780, dt=50.0,
                               clock_s=day.day_start_s - 600.0, day_rate=2e-5)
    rates = {day.is_day(day.day_start_s - 600.0 + 50.0 * k) for k in range(780)}
    assert rates == {True, False}
    _assert_bit_equal(results)


def test_walk_with_zero_night_rate():
    day = chm.DaySchedule()
    results = _walk_and_oracle(lambda: np.random.default_rng(4), 40, dt=60.0,
                               clock_s=day.day_start_s - 1200.0, night_rate=0.0)
    rotations = results[1][0]
    assert np.array_equal(rotations[0], np.eye(3))  # still night
    assert not np.array_equal(rotations[-1], np.eye(3))
    _assert_bit_equal(results)


def test_walk_with_spikes_on():
    results = _walk_and_oracle(lambda: np.random.default_rng(5), 200, dt=1.0,
                               spikes=chm.PdlSpikeProcess(rate_per_s=0.05))
    assert len({loss[0] for loss in results[1][1]}) > 1  # a spike came and went
    _assert_bit_equal(results)


def test_spikes_never_move_the_drift():
    # spike times draw from `spike_rng`, so the rotations and the next
    # drift draw are the same bits at every spike rate
    walks = []
    for rate in (0.0, 1e-12, 0.05, 1e3):
        ch = chm.ChannelState(rng=np.random.default_rng(11), day_rate=3e-6,
                              spikes=chm.PdlSpikeProcess(rate_per_s=rate))
        walks.append(_outcome(ch, *ch.walk(1.0, 300)))
    for rotations, _, _, next_draw in walks[1:]:
        assert np.array_equal(rotations, walks[0][0])
        assert np.array_equal(next_draw, walks[0][3])
    assert walks[0][1] != walks[3][1]  # the losses do see the spikes


@pytest.mark.parametrize("row", [0, 6])
def test_walk_with_near_zero_axis(row):
    # step `row`'s axis draw is (1e-13, 0, 0): too short, so it is redrawn
    head = np.random.default_rng(9).standard_normal(4 * row).tolist() + [1e-13, 0.0, 0.0]
    results = _walk_and_oracle(lambda: _ScriptedNormals(6, head), 12)
    _assert_bit_equal(results)


def test_walk_requires_positive_dt(rng):
    ch = chm.ChannelState(rng=rng)
    for dt in (0.0, -1.0):
        with pytest.raises(ValueError):
            ch.walk(dt, 3)


def test_drift_is_deterministic_given_seed():
    def run(seed):
        ch = chm.ChannelState(rng=np.random.default_rng(seed), day_rate=1e-5, night_rate=1e-5)
        for _ in range(50):
            ch.advance(1.0)
        return ch.rotation

    assert np.array_equal(run(7), run(7))
    assert not np.array_equal(run(7), run(8))


def test_drift_mean_fidelity_decays_monotonically():
    taus = (20.0, 80.0, 320.0)
    means = []
    for tau in taus:
        fps = []
        for k in range(400):
            ch = chm.ChannelState(
                rng=np.random.default_rng(1000 + k), day_rate=1e-5, night_rate=1e-5
            )
            ch.walk(10.0, int(tau / 10))
            fps.append(pc.process_fidelity(ch.rotation))
        means.append(np.mean(fps))
    assert means[0] > means[1] > means[2]


def test_drift_calibration_night_quantiles():
    # defaults keep the 99 % curve above 0.99 for at least 60 s of night
    # drift and the 90 % curve above 0.98 at 160 s
    fps_60, fps_160 = [], []
    for k in range(1500):
        ch = chm.ChannelState(rng=np.random.default_rng(3000 + k))  # night at clock 0
        rotations, _ = ch.walk(1.0, 160)
        fps_60.append(pc.process_fidelity(rotations[59]))
        fps_160.append(pc.process_fidelity(rotations[159]))
    assert np.quantile(fps_60, 0.01) >= 0.99
    assert np.quantile(fps_160, 0.10) >= 0.98


def test_drift_axis_distribution_uniform_chi2():
    ch = chm.ChannelState(rng=np.random.default_rng(99), day_rate=1e-4, night_rate=1e-4)
    n = 100_000
    axes = np.empty((n, 3))
    prev = ch.rotation
    for i, rotation in enumerate(ch.walk(1.0, n)[0]):
        axes[i], _ = rotation_to_axis_angle(rotation @ prev.T)
        prev = rotation
    # equal-area bins: 10 bands in z, 10 sectors in azimuth
    z_bin = np.clip(((axes[:, 2] + 1.0) / 0.2).astype(int), 0, 9)
    az = np.arctan2(axes[:, 1], axes[:, 0])
    az_bin = np.clip(((az + math.pi) / (2 * math.pi / 10)).astype(int), 0, 9)
    counts = np.bincount(z_bin * 10 + az_bin, minlength=100)
    expected = n / 100
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=99)


def test_day_schedule_rate_selection():
    sched = chm.DaySchedule()
    ch = chm.ChannelState(rng=np.random.default_rng(0), schedule=sched)
    assert ch.rate_at(12 * 3600.0) == chm.DAY_RATE_DEFAULT
    assert ch.rate_at(3 * 3600.0) == chm.NIGHT_RATE_DEFAULT
    assert sched.is_day(7.5 * 3600.0)
    assert not sched.is_day(18.0 * 3600.0)
    assert sched.is_day((24 + 12) * 3600.0)  # wraps across midnight


def test_day_window_past_midnight():
    sched = chm.DaySchedule(day_start_s=22 * 3600.0, day_end_s=6 * 3600.0)
    assert sched.is_day(23 * 3600.0)
    assert sched.is_day(3 * 3600.0)
    assert not sched.is_day(12 * 3600.0)
    assert sched.is_day(22 * 3600.0) and not sched.is_day(6 * 3600.0)


# ---------------------------------------------------------------------------
# probe and qubit transmission
# ---------------------------------------------------------------------------

def test_transmit_probe_identity():
    ch = make_test_channel()
    s = np.array([0.3, -0.5, 0.2])
    assert np.allclose(chm.transmit_probe(ch, s), s, atol=1e-15)


def test_transmit_probe_known_rotation(rng):
    r = pc.random_rotation(rng)
    ch = make_test_channel(rotation=r)
    for _ in range(20):
        s = random_bloch(rng, pure=True)
        assert np.allclose(chm.transmit_probe(ch, s), r @ s, atol=1e-12)


def test_transmit_probe_rotation_plus_pdl_oracle(rng):
    r = pc.random_rotation(rng)
    ch = make_test_channel(rotation=r, pdl_axis=[0, 1, 0], pdl_transmission=0.9)
    el = ch.pdl
    for _ in range(50):
        s = random_bloch(rng, pure=True)
        expected = pc.pdl_apply_bloch(r @ s, el)
        assert np.allclose(chm.transmit_probe(ch, s), expected, atol=1e-10)


def test_transmit_probe_norm_preserved_without_pdl(rng):
    ch = make_test_channel(rotation=pc.random_rotation(rng))
    for _ in range(50):
        s = random_bloch(rng, pure=True)
        assert abs(np.linalg.norm(chm.transmit_probe(ch, s)) - 1.0) < 1e-12


def _assert_probes_fresh(ch):
    """Each probe's output, mapped twice, equals the direct map bit for bit."""
    outs = []
    for s in (pc.S_H, pc.S_D):
        expected = pc.pdl_apply_bloch(ch.rotation @ s, ch.current_pdl())
        for _ in range(2):
            got = chm.transmit_probe(ch, s)
            assert got.tobytes() == expected.tobytes()
        outs.append(expected)
    return outs


def test_transmit_probe_follows_every_change_to_the_link(rng):
    ch = make_test_channel(
        rotation=pc.random_rotation(rng), rng=np.random.default_rng(5),
        day_rate=1e-3, night_rate=1e-3, pdl_axis=[0.2, 0.5, -0.3], pdl_transmission=0.9,
    )
    history = [_assert_probes_fresh(ch)]
    ch.advance(1.0)
    history.append(_assert_probes_fresh(ch))
    ch.rotation = pc.random_rotation(rng)
    history.append(_assert_probes_fresh(ch))
    ch.rotation[...] = pc.random_rotation(rng)
    history.append(_assert_probes_fresh(ch))
    ch.rotation[1, 0] += 1e-12
    history.append(_assert_probes_fresh(ch))
    ch.pdl = pc.PdlElement.from_axis([0.0, -1.0, 0.4], 0.8)
    history.append(_assert_probes_fresh(ch))
    for before, after in zip(history, history[1:]):
        assert not np.array_equal(before[0], after[0])


def test_transmit_probe_follows_spikes(rng):
    ch = make_test_channel(
        rotation=pc.random_rotation(rng), pdl_axis=[1, 0, 0], pdl_transmission=0.95,
    )
    quiet = _assert_probes_fresh(ch)
    ch.spikes = chm.PdlSpikeProcess(rate_per_s=1e9, extra_db=1.0, duration_s=2.0)
    ch.advance(1.0)  # a spike starts and lasts until clock 3.0
    spiking = _assert_probes_fresh(ch)
    assert not np.array_equal(quiet[0], spiking[0])
    ch.spikes = chm.PdlSpikeProcess(rate_per_s=0.0, extra_db=1.0, duration_s=2.0)
    ch.advance(2.0)  # clock 3.0: the spike's last instant
    assert np.array_equal(_assert_probes_fresh(ch)[0], spiking[0])
    ch.advance(1e-9)  # the spike has ended
    assert np.array_equal(_assert_probes_fresh(ch)[0], quiet[0])


def test_transmit_probe_converts_non_float_inputs(rng):
    r = pc.random_rotation(rng)
    ch = make_test_channel(rotation=r, pdl_axis=[0, 1, 0], pdl_transmission=0.9)
    want = chm.transmit_probe(ch, np.array([0.0, 0.0, 1.0]))
    assert chm.transmit_probe(ch, [0, 0, 1]).tobytes() == want.tobytes()
    assert chm.transmit_probe(ch, np.array([0, 0, 1])).tobytes() == want.tobytes()
    ch.rotation = np.eye(3, dtype=int)
    expected = pc.pdl_apply_bloch(np.array([0.0, 0.0, 1.0]), ch.pdl)
    assert chm.transmit_probe(ch, [0, 0, 1]).tobytes() == expected.tobytes()


def test_transmit_qubit_kraus_identity_channel():
    ch = make_test_channel()
    k = chm.transmit_qubit_kraus(ch.rotation, ch.current_pdl())
    assert np.allclose(k / k[0, 0], np.eye(2), atol=1e-12)


def test_transmit_qubit_kraus_matches_probe_map(rng):
    for _ in range(10):
        r = pc.random_rotation(rng)
        ch = make_test_channel(rotation=r, pdl_axis=random_bloch(rng, pure=True),
                               pdl_transmission=rng.uniform(0.5, 1.0))
        k = chm.transmit_qubit_kraus(ch.rotation, ch.current_pdl())
        for _ in range(10):
            s = random_bloch(rng, pure=True)
            rho = pc.density_of_bloch(s)
            out = k @ rho @ k.conj().T
            lam = pc.bloch_of_density(out / np.trace(out))
            assert np.allclose(lam, chm.transmit_probe(ch, s), atol=1e-9)


def test_transmit_qubit_kraus_stack_matches_each_configuration(rng):
    # a stack of rotations, each with its own loss element, gives each
    # configuration's B U with the bits of one lift and one 2x2 product
    n = 300
    rotations = np.array([pc.random_rotation(rng) for _ in range(n)])
    rotations[:4] = [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
                     np.diag([-1.0, -1.0, 1.0])]
    losses = [pc.PdlElement.from_db(random_bloch(rng, pure=True), loss_db)
              for loss_db in rng.uniform(0.0, 3.0, size=n)]
    losses[:2] = [pc.PdlElement.from_axis(np.zeros(3), 1.0)] * 2
    want = [loss.operator() @ su2_of_rotation_oracle(r) for r, loss in zip(rotations, losses)]
    got = chm.transmit_qubit_kraus(rotations, losses)
    assert got.shape == (n, 2, 2)
    assert_same_complex(got, want)
    stacked = chm.transmit_qubit_kraus(rotations.reshape(3, -1, 3, 3), np.reshape(losses, (3, -1)))
    assert stacked.shape == (3, n // 3, 2, 2)
    assert_same_complex(stacked, want)
    for i in range(6):
        one = chm.transmit_qubit_kraus(rotations[i], losses[i])
        assert one.shape == (2, 2)
        assert_same_complex(one, want[i])


def test_transmit_qubit_kraus_success_probability_bounds(rng):
    for _ in range(20):
        t = rng.uniform(0.3, 1.0)
        ch = make_test_channel(
            rotation=pc.random_rotation(rng),
            pdl_axis=random_bloch(rng, pure=True),
            pdl_transmission=t,
        )
        k = chm.transmit_qubit_kraus(ch.rotation, ch.current_pdl())
        for _ in range(20):
            rho = pc.density_of_bloch(random_bloch(rng))
            p = np.trace(k @ rho @ k.conj().T).real
            assert t**2 - 1e-12 <= p <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# attenuation budget
# ---------------------------------------------------------------------------

MEASURED_BUDGET = (
    ("qfc_and_transfer", 6.78),
    ("link_q", 10.4),
    ("stab_sender", 0.46),
    ("stab_receiver", 1.3),
    ("filter_projection", 0.65),
    ("detector", 0.97),
    ("residual", 2.17),
)


def test_total_loss_db_measured_budget():
    budget = chm.AttenuationBudget(components=MEASURED_BUDGET)
    assert chm.total_loss_db(budget) == pytest.approx(22.73, abs=1e-9)


def test_effective_coincidence_reduction():
    total = chm.total_loss_db(chm.AttenuationBudget(components=MEASURED_BUDGET))
    assert total - 9.07 == pytest.approx(13.66, abs=1e-9)


def test_total_loss_db_zero_entry():
    assert chm.total_loss_db(chm.AttenuationBudget.of(("nothing", 0.0))) == 0.0


def test_total_loss_db_permutation_invariant(rng):
    perm = list(MEASURED_BUDGET)
    rng.shuffle(perm)
    assert chm.total_loss_db(chm.AttenuationBudget(components=tuple(perm))) == pytest.approx(
        22.73, abs=1e-9
    )


def test_budget_rejects_negative_loss():
    with pytest.raises(ValueError):
        chm.AttenuationBudget.of(("bad", -0.1))


@pytest.mark.parametrize("loss", [math.nan, math.inf])
def test_budget_rejects_non_finite_loss(loss):
    with pytest.raises(ValueError, match="component 'x' loss_db must be finite"):
        chm.AttenuationBudget.of(("fiber", 1.0), ("x", loss))


# ---------------------------------------------------------------------------
# background counts
# ---------------------------------------------------------------------------

def test_sample_background_zero_rate(rng):
    bg = chm.BackgroundSource(0.0)
    assert chm.sample_background(bg, 100.0, rng) == 0


def test_sample_background_mean(rng):
    bg = chm.BackgroundSource(19.7)
    n = 10_000
    counts = [chm.sample_background(bg, 100.0, rng) for _ in range(n)]
    mean = np.mean(counts)
    sigma_of_mean = math.sqrt(1970.0 / n)
    assert abs(mean - 1970.0) < 3 * sigma_of_mean


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_background_rejects_non_finite_rate(rate):
    with pytest.raises(ValueError, match="rate_per_s must be finite"):
        chm.BackgroundSource(rate)


def test_sample_background_deterministic():
    bg = chm.BackgroundSource(19.7)
    a = [chm.sample_background(bg, 1.0, np.random.default_rng(5)) for _ in range(10)]
    b = [chm.sample_background(bg, 1.0, np.random.default_rng(5)) for _ in range(10)]
    assert a == b


# ---------------------------------------------------------------------------
# delay drift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["overhead_km", "sensitivity_ps_per_km_k", "nu0_hz", "gate_time_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_delay_drift_model_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        chm.DelayDriftModel(**{name: value})


def test_doppler_delay_step_zero():
    m = chm.DelayDriftModel()
    assert chm.doppler_delay_step(m, 0.0) == 0.0


def test_doppler_delay_step_example():
    m = chm.DelayDriftModel(nu0_hz=1.9986e14, gate_time_s=0.01)
    assert chm.doppler_delay_step(m, 100.0) == pytest.approx(2.50e-15, abs=1e-17)


SPEED_OF_LIGHT = 299792458.0  # m/s


def _doppler_shift_from_path_rate(m, dnl_dt_m_per_s):
    """Doppler shift 2 (d nL/dt) nu0 / c of the retro-reflected carrier, Hz."""
    return 2.0 * dnl_dt_m_per_s * m.nu0_hz / SPEED_OF_LIGHT


def test_doppler_integration_recovers_path_change(rng):
    # synthesize a path-length rate profile; integrating the per-gate delays
    # must recover the total delay Delta(nL)/c
    m = chm.DelayDriftModel()
    t_gate = m.gate_time_s
    n = 2000
    rates = 1e-4 * np.sin(np.linspace(0, 4 * math.pi, n)) + rng.normal(0, 1e-6, n)
    total = 0.0
    for dnl_dt in rates:
        dnu = _doppler_shift_from_path_rate(m, dnl_dt)
        total += chm.doppler_delay_step(m, dnu)
    expected = np.sum(rates) * t_gate / SPEED_OF_LIGHT
    assert total == pytest.approx(expected, rel=1e-6)


def test_temperature_delay_constant_series():
    m = chm.DelayDriftModel()
    series = [(0.0, 280.0), (60.0, 280.0), (120.0, 280.0)]
    out = chm.temperature_delay_prediction(m, series)
    assert all(d == 0.0 for _, d in out)


def test_temperature_delay_one_kelvin_step():
    m = chm.DelayDriftModel(overhead_km=1.278, sensitivity_ps_per_km_k=37.4)
    out = chm.temperature_delay_prediction(m, [(0.0, 283.0), (60.0, 284.0)])
    assert out[1][1] == pytest.approx(95.6, abs=0.1)


def test_temperature_delay_linear_in_temperature(rng):
    m = chm.DelayDriftModel()
    temps = [(float(i), 280.0 + 0.01 * i) for i in range(10)]
    out = chm.temperature_delay_prediction(m, temps)
    deltas = np.diff([d for _, d in out])
    assert np.allclose(deltas, deltas[0], atol=1e-9)


def test_temperature_delay_empty_series():
    with pytest.raises(chm.EmptySeries):
        chm.temperature_delay_prediction(chm.DelayDriftModel(), [])


def test_temperature_delay_requires_monotone_timestamps():
    m = chm.DelayDriftModel()
    with pytest.raises(ValueError):
        chm.temperature_delay_prediction(m, [(1.0, 280.0), (0.0, 281.0)])


# ---------------------------------------------------------------------------
# spikes
# ---------------------------------------------------------------------------

def test_pdl_spike_raises_loss_temporarily():
    ch = make_test_channel(pdl_axis=[1, 0, 0], pdl_transmission=0.99)
    ch.spikes = chm.PdlSpikeProcess(rate_per_s=1e9, extra_db=1.0, duration_s=5.0)
    base_db = ch.pdl.loss_db
    ch.advance(1.0)
    assert ch.current_pdl().loss_db == pytest.approx(base_db + 1.0, abs=1e-9)
    ch.spikes = chm.PdlSpikeProcess(rate_per_s=0.0)
    ch._spike_until_s = -1.0
    assert ch.current_pdl().loss_db == pytest.approx(base_db, abs=1e-12)
