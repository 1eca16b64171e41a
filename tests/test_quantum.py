import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from fiberlink import polcore as pc
from fiberlink import protocols
from fiberlink import quantum as q
from fiberlink.channel import ChannelState, transmit_qubit_kraus

from conftest import (
    assert_same_complex,
    make_test_channel,
    process_design_oracle,
    random_mixed_state_2q,
    read_counts_csv,
    su2_of_rotation_oracle,
)


IDEAL_SOURCE = q.SpdcSource(phase_rad=0.0, noise_p=0.0)
IDEAL_ION = q.IonMemory(decay_per_s=0.0)


# ---------------------------------------------------------------------------
# pair source
# ---------------------------------------------------------------------------

def test_spdc_state_zero_phase_is_maximally_entangled():
    rho = q.spdc_state(IDEAL_SOURCE)
    assert q.bell_fidelity(rho) == pytest.approx(1.0, abs=1e-12)


def test_spdc_state_white_limit():
    rho = q.spdc_state(q.SpdcSource(noise_p=1.0))
    assert np.allclose(rho, np.eye(4) / 4.0, atol=1e-12)
    assert q.bell_fidelity(rho) == pytest.approx(0.25, abs=1e-12)


def test_spdc_noise_matches_measured_fidelity():
    # admixture reproducing the uncorrected pair fidelity
    p = 4.0 * (1.0 - 0.836) / 3.0
    assert p == pytest.approx(0.2187, abs=1e-4)
    rho = q.spdc_state(q.SpdcSource(noise_p=p))
    assert q.bell_fidelity(rho) == pytest.approx(0.836, abs=1e-12)


def test_spdc_fidelity_strictly_decreasing_in_noise():
    fids = [q.bell_fidelity(q.spdc_state(q.SpdcSource(noise_p=p)))
            for p in np.linspace(0.0, 1.0, 11)]
    assert all(f2 < f1 for f1, f2 in zip(fids, fids[1:]))
    for p, f in zip(np.linspace(0.0, 1.0, 11), fids):
        assert f == pytest.approx(1.0 - 0.75 * p, abs=1e-12)


def test_spdc_phase_rotates_coherence():
    rho = q.spdc_state(q.SpdcSource(phase_rad=math.pi))
    # at phi = pi the state is orthogonal in the coherence sign
    psi_minus = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    assert q.fidelity(rho, psi_minus) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# channel action on arm B
# ---------------------------------------------------------------------------

def through_link_arm_b(rho, ch):
    """Post-selected state and success probability of sending arm B through
    the link, by the superoperator path of the distribute-entanglement run."""
    op = transmit_qubit_kraus(ch.rotation, ch.current_pdl().operator())
    out = q.on_arm_b_superoperator(rho, q.arm_b_superoperator(op))
    prob = float(np.trace(out).real)
    return out / prob, prob


def test_apply_channel_identity():
    rho = q.spdc_state(IDEAL_SOURCE)
    out, prob = through_link_arm_b(rho, make_test_channel())
    assert np.allclose(out, rho, atol=1e-12)
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_apply_channel_pure_rotation_overlap_oracle(rng):
    rho = q.spdc_state(IDEAL_SOURCE)
    for _ in range(30):
        r = pc.random_rotation(rng)
        ch = make_test_channel(rotation=r)
        out, prob = through_link_arm_b(rho, ch)
        u = pc.su2_of_rotation(r)
        amp = q.BELL_PSI_PLUS.conj() @ (np.kron(np.eye(2), u) @ q.BELL_PSI_PLUS)
        assert q.bell_fidelity(out) == pytest.approx(abs(amp) ** 2, abs=1e-10)
        assert prob == pytest.approx(1.0, abs=1e-12)


def test_apply_channel_weak_pdl_fidelity_drop():
    rho = q.spdc_state(IDEAL_SOURCE)
    ch = make_test_channel(pdl_axis=[0, 1, 0], pdl_transmission=10 ** (-0.08 / 20))
    out, prob = through_link_arm_b(rho, ch)
    assert 1.0 - q.bell_fidelity(out) < 0.01
    assert prob <= 1.0 + 1e-12


def test_apply_channel_invariants_hold(rng):
    rho = random_mixed_state_2q(rng)
    ch = make_test_channel(rotation=pc.random_rotation(rng),
                           pdl_axis=[1, 0, 0], pdl_transmission=0.7)
    out, prob = through_link_arm_b(rho, ch)
    q.check_state(out)
    assert 0.7**2 - 1e-9 <= prob <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# heralded absorption
# ---------------------------------------------------------------------------

# (steps per window, windows, block cap in steps): the duty-cycle shapes of
# 5, 20, 160 and 60 s windows, each in one block, then caps that end a block
# between two windows, and caps below one window, whose steps are summed in
# chunks.
@pytest.mark.parametrize("steps, windows, cap", [
    (5, 30, None), (20, 6, None), (160, 3, None), (60, 4, None),
    (20, 6, 50), (60, 4, 130), (160, 3, 100),
    (160, 3, 1), (160, 3, 7), (160, 3, 13), (60, 4, 64), (5, 30, 3),
])
def test_arm_b_block_sums_match_per_window_sums(monkeypatch, steps, windows, cap):
    # each window's link superoperator equals the per-window sum
    # np.add.reduce(..., axis=0) of its steps' terms, bit for bit, and no
    # stack of operators holds more than the cap in steps
    if cap is not None:
        monkeypatch.setattr(protocols, "_ARM_B_BLOCK_STEPS", cap)
    cap = protocols._ARM_B_BLOCK_STEPS
    stacks = []
    monkeypatch.setattr(protocols.chmod, "transmit_qubit_kraus",
                        lambda r, b, kraus=transmit_qubit_kraus: stacks.append(r.shape[:-2]) or kraus(r, b))
    rng = np.random.default_rng(steps * windows)
    # a lossless link (the 60-step windows) or a lossy one, with its spike
    pdl = pc.PdlElement.from_db(rng.normal(size=3), (0.0, 0.08, 0.58, 3.0)[(steps + windows) % 4])
    spike = ChannelState(rng=rng, pdl=pdl).spike_pdl()
    ops = np.array([pdl.operator(), spike.operator()])
    rotations = np.array([[pc.random_rotation(rng) for _ in range(steps)] for _ in range(windows)])
    spiked = rng.random((windows, steps)) < 0.5
    got = list(protocols._arm_b_sums(rotations, spiked, ops))
    assert len(got) == windows
    for link_sum, window_rotations, window_spiked in zip(got, rotations, spiked):
        terms = [(spike if s else pdl).operator() @ su2_of_rotation_oracle(r)
                 for r, s in zip(window_rotations, window_spiked)]
        assert_same_complex(link_sum, np.add.reduce(q.arm_b_superoperator(terms), axis=0))
    assert max(math.prod(shape) for shape in stacks) <= cap
    assert sum(math.prod(shape) for shape in stacks) == windows * steps
    per_block = max(1, cap // steps)
    assert len(stacks) == math.ceil(windows / per_block) * math.ceil(steps / min(steps, cap))


def test_heralded_absorption_ideal_target():
    out = q.heralded_absorption(q.spdc_state(IDEAL_SOURCE), IDEAL_ION)
    assert q.fidelity(out, q.ION_PHOTON_TARGET) == pytest.approx(1.0, abs=1e-10)


def test_heralded_absorption_unital():
    out = q.heralded_absorption(np.eye(4, dtype=complex) / 4.0, IDEAL_ION)
    assert np.allclose(out, np.eye(4) / 4.0, atol=1e-12)


def test_heralded_absorption_noisy_band():
    # measured-pair admixture plus exposure-window dephasing lands the
    # memory-photon fidelity in the observed band around 0.79
    src = q.SpdcSource(noise_p=0.2187)
    ion = q.IonMemory(exposure_window_s=400e-6, decay_per_s=313.4)
    out = q.heralded_absorption(q.spdc_state(src), ion)
    fid = q.fidelity(out, q.ION_PHOTON_TARGET)
    assert fid == pytest.approx(0.79, abs=0.02)
    expected = (1.0 - src.noise_p) * (1.0 + ion.coherence()) / 2.0 + src.noise_p / 4.0
    assert fid == pytest.approx(expected, abs=1e-12)


def test_ion_memory_coherence():
    ion = q.IonMemory(exposure_window_s=400e-6, decay_per_s=313.4)
    assert ion.coherence() == pytest.approx(math.exp(-313.4 * 400e-6), abs=1e-12)
    with pytest.raises(ValueError):
        q.IonMemory(exposure_window_s=0.0)


# a NaN window made coherence() NaN and an infinite decay made it 0.0; a
# NaN or infinite rate or phase reached the source state unchecked
@pytest.mark.parametrize("make, field, value, bound", [
    (q.IonMemory, "exposure_window_s", math.nan, "> 0"),
    (q.IonMemory, "exposure_window_s", math.inf, "> 0"),
    (q.IonMemory, "decay_per_s", math.inf, ">= 0"),
    (q.IonMemory, "decay_per_s", math.nan, ">= 0"),
    (q.SpdcSource, "pair_rate_per_s", math.nan, ">= 0"),
    (q.SpdcSource, "pair_rate_per_s", math.inf, ">= 0"),
    (q.SpdcSource, "phase_rad", math.nan, "real"),
    (q.SpdcSource, "phase_rad", -math.inf, "real"),
], ids=["window_nan", "window_inf", "decay_inf", "decay_nan", "pair_rate_nan", "pair_rate_inf",
        "phase_nan", "phase_inf"])
def test_memory_and_source_reject_non_finite_fields(make, field, value, bound):
    with pytest.raises(ValueError, match=f"^{field} must be finite and {re.escape(bound)}, got"):
        make(**{field: value})


def test_bsm_branches_match_the_ancilla_round_trip():
    # the memory is dephased alone; dephasing it beside a maximally mixed
    # ancilla and tracing the ancilla out again gives the same branches, bit
    # for bit, at full coherence too (where the memory's signed zeros differ)
    rng = np.random.default_rng(8)
    kets = [*q.BASIS_KETS.values(), *(rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2)))]
    pairs = [q.spdc_state(q.SpdcSource(noise_p=p, phase_rad=0.3)) for p in (0.0, 0.2187)]
    for ket, pair, decay in itertools.product(kets, pairs, (0.0, 313.4)):
        ion = q.IonMemory(decay_per_s=decay)
        beside = np.kron(q._encode_prepared(ket), np.eye(2, dtype=complex) / 2.0)
        rho_m = np.einsum("ikjk->ij", q._dephase_first_qubit(beside, ion.coherence()).reshape(2, 2, 2, 2))
        joint = np.kron(rho_m, q._ABSORB_ARM_A @ pair @ q._ABSORB_ARM_A.conj().T)
        branches = q.bsm_branches(ket, pair, ion)
        for name, proj in q._BSM_PROJECTORS:
            sub = proj @ joint @ proj
            prob, rho_b = branches[name]
            assert prob == float(np.trace(sub).real)
            assert rho_b.tobytes() == q._partial_trace_to_last(sub).tobytes()


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------

def test_teleport_ideal_limits_all_cardinal_states():
    rho_pair = q.spdc_state(IDEAL_SOURCE)
    flip = pc.PAULI[2]  # memory-basis phase flip (circular axis)
    for label, ket in q.BASIS_KETS.items():
        branches = q.bsm_branches(ket, rho_pair, IDEAL_ION)
        p_m, out_m = branches["phi_minus"]
        p_p, out_p = branches["phi_plus"]
        assert q.fidelity(out_m / p_m, ket) == pytest.approx(1.0, abs=1e-9)
        expected = flip @ np.outer(ket, ket.conj()) @ flip.conj().T
        overlap = np.trace((out_p / p_p) @ expected).real
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_teleport_herald_probabilities_sum_to_half():
    branches = q.bsm_branches(q.BASIS_KETS["H"], q.spdc_state(IDEAL_SOURCE), IDEAL_ION)
    total = branches["phi_minus"][0] + branches["phi_plus"][0]
    assert total == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# state tomography
# ---------------------------------------------------------------------------

def exact_counts(rho, scale=1e6):
    return [(a, b, scale * p) for (a, b), p in q.coincidence_probabilities(rho).items()]


def test_tomography_round_trip_bell_state():
    rho = q.spdc_state(IDEAL_SOURCE)
    rec = q.tomography_2q(exact_counts(rho))
    assert q.bell_fidelity(rec) >= 0.9999


def test_tomography_round_trip_maximally_mixed():
    rec = q.tomography_2q(exact_counts(np.eye(4, dtype=complex) / 4.0))
    evals = np.linalg.eigvalsh(rec - np.eye(4) / 4.0)
    assert np.abs(evals).sum() < 1e-6  # trace distance


def test_tomography_round_trip_random_states(rng):
    for _ in range(100):
        rho = random_mixed_state_2q(rng)
        rec = q.tomography_2q(exact_counts(rho))
        assert np.allclose(rec, rho, atol=1e-8)


def test_tomography_handles_unequal_integration(rng):
    rho = random_mixed_state_2q(rng)
    probs = q.coincidence_probabilities(rho)
    rows = []
    for i, ((a, b), p) in enumerate(probs.items()):
        integration = 1.0 + (i % 3)
        rows.append((a, b, 1e6 * p * integration, integration))
    rec = q.tomography_2q(rows)
    assert np.allclose(rec, rho, atol=1e-8)


def test_tomography_poisson_sampling_within_3_sigma(rng):
    target = q.spdc_state(q.SpdcSource(noise_p=4 * (1 - 0.98) / 3))
    truth = q.bell_fidelity(target)
    counts = [(a, b, rng.poisson(1e4 * p))
              for (a, b), p in q.coincidence_probabilities(target).items()]
    rec = q.tomography_2q(counts)
    mc = q.mc_uncertainty(counts, n_resamples=200, rng=rng)
    assert abs(q.bell_fidelity(rec) - truth) <= 3 * mc.sigma


def test_tomography_singular_design_raises():
    rows = [("H", "H", 10.0)] * 16
    with pytest.raises(q.SingularDesign):
        q.tomography_2q(rows)
    with pytest.raises(q.SingularDesign):
        q.tomography_2q([("H", "H", 5.0)] * 3)
    with pytest.raises(q.SingularDesign):
        q.tomography_2q([("H", "X", 5.0)] * 16)


def test_design_cache_never_holds_a_singular_design():
    valid = exact_counts(q.spdc_state(IDEAL_SOURCE))
    deficient = [("H", "H", 10.0)] * 16
    unknown = [("H", "X", 5.0)] + [tuple(r) for r in valid[1:]]
    for _ in range(3):
        q.tomography_2q(valid)
        for rows in (deficient, unknown):
            with pytest.raises(q.SingularDesign):
                q.tomography_2q(rows)


def test_inversion_map_is_cached_read_only():
    settings = q.TOMO_BASES_2Q
    inversion = q._inversion_map(settings)
    assert q._inversion_map(settings) is inversion
    assert inversion.shape == (16, 16) and inversion.dtype == complex
    assert not inversion.flags.writeable
    with pytest.raises(ValueError):
        inversion[0, 0] = 1.0
    proj = q._projector_2q("H", "D")
    assert np.array_equal(proj, np.kron(q._projector("H"), q._projector("D")))


def test_coincidence_probabilities_match_per_setting_oracle(rng):
    # the per-setting trace the stacked product replaced, bit for bit
    states = [random_mixed_state_2q(rng) for _ in range(300)]
    states += [q.spdc_state(q.SpdcSource()), np.eye(4) / 4.0]
    for rho in states:
        probs = q.coincidence_probabilities(rho)
        assert list(probs) == list(q.TOMO_BASES_2Q)
        for (ba, bb), p in probs.items():
            assert type(p) is float
            assert p == float(np.trace(q._projector_2q(ba, bb) @ rho).real)
    assert not q._TOMO_PROJECTORS.flags.writeable


def _lstsq_operator(rows):
    """Oracle: the per-call least-squares solve the cached inversion map replaced.

    Returns the normalized operator before the physical projection, or None
    where tomography_2q falls back to I/4.
    """
    table = q.CountTable.of(rows)
    design = np.array([
        [np.trace(q._projector_2q(ba, bb) @ b).real for b in q._HERM_BASIS]
        for ba, bb in table.settings
    ])
    rates = np.array([n / t for n, t in zip(table.counts.tolist(), table.integration_s.tolist())])
    params, *_ = np.linalg.lstsq(design, rates, rcond=None)
    x = sum(p * b for p, b in zip(params, q._HERM_BASIS))
    total = float(np.trace(x).real)
    return None if total <= 0.0 else x / total


def _noisy_pair_state(rng):
    """Bell pair with white noise p in [0, 0.3] through a Haar-random arm-B unitary."""
    rho = q.spdc_state(q.SpdcSource(noise_p=rng.uniform(0.0, 0.3)))
    u = np.kron(np.eye(2), pc.su2_of_rotation(pc.random_rotation(rng)))
    return u @ rho @ u.conj().T


def test_tomography_matches_lstsq_oracle(rng):
    zero_tables = clipped_tables = 0
    for k in range(90):
        rho = _noisy_pair_state(rng)
        mean = (20.0, 200.0, 2000.0)[k % 3]
        probs = q.coincidence_probabilities(rho)
        if k % 9 == 4:
            # Unequal integration times: counts scale with each setting's time.
            rows = [
                (a, b, float(rng.poisson(4 * mean * p * (1 + i % 3))), 1.0 + i % 3)
                for i, ((a, b), p) in enumerate(probs.items())
            ]
        elif k % 9 == 7:
            # Over-complete: the 16 settings twice, each with its own draw.
            rows = [
                (a, b, float(rng.poisson(4 * mean * p)))
                for _ in range(2) for (a, b), p in probs.items()
            ]
        else:
            rows = [(a, b, float(rng.poisson(4 * mean * p))) for (a, b), p in probs.items()]
        if k % 5 == 0:
            # Settings that saw nothing (a blocked detector, a lost window).
            for i in rng.choice(16, size=2, replace=False):
                rows[i] = rows[i][:2] + (0.0,) + rows[i][3:]
        zero_tables += any(r[2] == 0.0 for r in rows)
        xn = _lstsq_operator(rows)
        assert xn is not None
        clipped_tables += np.linalg.eigvalsh(0.5 * (xn + xn.conj().T)).min() < 0.0
        want = q._project_physical(xn)
        got = q.tomography_2q(rows)
        assert np.abs(got - want).max() <= 1e-12
        # tomography_2q does not re-check positivity; the clipping must give it.
        assert np.linalg.eigvalsh(got).min() >= -1e-12
    assert zero_tables >= 15 and clipped_tables >= 40
    assert q._inversion_map(tuple(q.TOMO_BASES_2Q) * 2).shape == (16, 32)


def test_tomography_row_order_and_repeat_calls(rng):
    rho = random_mixed_state_2q(rng)
    rows = exact_counts(rho)
    first = q.tomography_2q(rows)
    assert np.array_equal(q.tomography_2q(rows), first)
    assert np.allclose(first, rho, atol=1e-8)
    permuted = [rows[i] for i in rng.permutation(len(rows))]
    assert np.abs(q.tomography_2q(permuted) - first).max() <= 1e-12


def test_tomography_all_zero_counts_falls_back_to_mixed():
    rows = [(a, b, 0.0) for a, b in q.TOMO_BASES_2Q]
    rec = q.tomography_2q(rows)
    assert np.array_equal(rec, np.eye(4, dtype=complex) / 4.0)


@pytest.mark.parametrize("field, value", [
    ("counts", -50.0),
    ("counts", np.nan),
    ("counts", np.inf),
    ("integration", 0.0),
    ("integration", -1.0),
    ("integration", np.nan),
    ("integration", np.inf),
])
def test_count_row_rejects_bad_counts_and_integration_times(field, value, tmp_path):
    rows = [(a, b, 100.0, 1.0) for a, b in q.TOMO_BASES_2Q]
    bad = ("D", "R", value, 1.0) if field == "counts" else ("D", "R", 100.0, value)
    rows[11] = bad
    columns = [np.array([r[k] for r in rows]) for k in (2, 3)]
    for call in (
        lambda r: q.CountTable(q.TOMO_BASES_2Q, *columns),
        q.CountTable.of,
        q.tomography_2q,
        lambda r: q.mc_uncertainty(r, 100, np.random.default_rng(0)),
        lambda r: q.subtract_expected_accidentals(r, 1.0),
        lambda r: q.write_counts_csv(tmp_path / "counts.csv", r),
    ):
        with pytest.raises(ValueError, match=f"count row {re.escape(repr(bad))}"):
            call(rows)


def test_count_table_owns_read_only_arrays_and_checks_shapes():
    rows = [(a, b, 10.0 + i, 2.0) for i, (a, b) in enumerate(q.TOMO_BASES_2Q)]
    table = q.CountTable.of(rows)
    assert q.CountTable.of(table) is table
    assert table.settings == q.TOMO_BASES_2Q
    counts = table.counts.copy()
    for arr in (table.counts, table.integration_s):
        assert arr.dtype == float and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the table owns copies: a caller's array written afterwards changes nothing
    source = np.array(counts)
    built = q.CountTable(q.TOMO_BASES_2Q, source, np.ones(16))
    source[:] = -1.0
    assert built.counts.tolist() == counts.tolist()
    with pytest.raises(AttributeError):
        table.counts = counts
    # a 3-field row is integrated for 1 s
    assert q.CountTable.of([("H", "H", 3)]).integration_s.tolist() == [1.0]
    for settings, n, t in ((q.TOMO_BASES_2Q, np.ones(15), np.ones(16)),
                           (q.TOMO_BASES_2Q, np.ones(16), np.ones(1)),
                           (q.TOMO_BASES_2Q[:3], np.ones(16), np.ones(16))):
        with pytest.raises(ValueError, match="count table"):
            q.CountTable(settings, n, t)
    with pytest.raises(ValueError):
        q.CountTable.of([("H", "H", 1.0, 1.0, 1.0)])


def test_count_table_consumers_take_rows_or_tables_bit_for_bit(rng, tmp_path):
    probs = q.coincidence_probabilities(_noisy_pair_state(rng))
    rows = [(a, b, float(rng.poisson(400 * p)), 0.5 + i % 3)
            for i, ((a, b), p) in enumerate(probs.items())]
    rows[5] = rows[5][:2] + (0,)  # an int count, integrated for 1 s
    table = q.CountTable.of(rows)
    assert q.tomography_2q(rows).tobytes() == q.tomography_2q(table).tobytes()
    by_rows = q.subtract_expected_accidentals(rows, 3.5)
    by_table = q.subtract_expected_accidentals(table, 3.5)
    assert by_rows.settings == by_table.settings == table.settings
    assert by_rows.counts.tobytes() == by_table.counts.tobytes()
    assert by_rows.integration_s.tobytes() == table.integration_s.tobytes()
    mc_rows = q.mc_uncertainty(rows, 100, np.random.default_rng(9))
    mc_table = q.mc_uncertainty(table, 100, np.random.default_rng(9))
    assert mc_rows.values.tobytes() == mc_table.values.tobytes()
    assert (mc_rows.point_estimate, mc_rows.warnings) == (mc_table.point_estimate, mc_table.warnings)
    q.write_counts_csv(tmp_path / "rows.csv", rows)
    q.write_counts_csv(tmp_path / "table.csv", table)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()
    assert read_counts_csv(tmp_path / "rows.csv")[5] == (*rows[5][:2], 0.0, 1.0)


@pytest.mark.parametrize("n_per_basis, accidental_mean", [(2.0, 0.0), (30.0, 0.4), (5e3, 2.0)])
def test_window_counts_block_draw_matches_scalar_draws(n_per_basis, accidental_mean):
    # one Poisson block per window against the per-row scalar draws it
    # replaced, with means below and above 10, where numpy switches sampler
    rho = _noisy_pair_state(np.random.default_rng(int(n_per_basis)))
    probs = q.coincidence_probabilities(rho)
    means = [n_per_basis * p + accidental_mean for p in probs.values()]
    assert (max(means) < 10, min(means) < 10 < max(means), min(means) > 10)[
        (2.0, 30.0, 5e3).index(n_per_basis)]
    rng, ref_rng = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(20):
        table = protocols._window_counts(rho, n_per_basis, accidental_mean, rng)
        assert table.settings == tuple(probs)
        assert table.counts.tolist() == [float(ref_rng.poisson(m)) for m in means]
        assert table.integration_s.tolist() == [1.0] * 16
    assert rng.random() == ref_rng.random()
    exact = protocols._window_counts(rho, n_per_basis, accidental_mean, None)
    assert exact.counts.tolist() == means


def test_tomography_decomposes_once_per_call(monkeypatch, rng):
    tables = []
    for k in range(30):
        probs = q.coincidence_probabilities(_noisy_pair_state(rng))
        mean = (20.0, 200.0, 2000.0)[k % 3]
        tables.append([(a, b, float(rng.poisson(4 * mean * p))) for (a, b), p in probs.items()])
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for rows in tables:
        q.tomography_2q(rows)
    assert calls == {"eigh": len(tables), "eigvalsh": 0}


# ---------------------------------------------------------------------------
# Monte Carlo uncertainty
# ---------------------------------------------------------------------------

def test_mc_uncertainty_degenerate_design_flagged(rng):
    rows = [(a, b, 0.0) for a, b in q.TOMO_BASES_2Q[:-1]] + [("R", "R", 100.0)]
    res = q.mc_uncertainty(rows, n_resamples=100, rng=rng)
    assert res.warnings


def test_mc_uncertainty_matches_per_row_resampling_bit_for_bit():
    target = q.spdc_state(q.SpdcSource(noise_p=0.1))
    counts = [(a, b, float(np.random.default_rng(i).poisson(50.0 * p)) if i % 5 else 0.0)
              for i, ((a, b), p) in enumerate(q.coincidence_probabilities(target).items())]
    counts[3] = (*counts[3][:2], 2500.0)
    tables = [[(a, b, n, 1.0) for a, b, n in counts]]
    # Over-complete (32 rows), non-unit integration times, zero means and
    # means on both sides of 10, where numpy's Poisson sampler switches
    # algorithm.
    probs = q.coincidence_probabilities(_noisy_pair_state(np.random.default_rng(5)))
    for scale in (2.0, 40.0, 3000.0):
        tables.append([
            (a, b, 0.0 if (i + rep) % 7 == 0 else scale * p * (0.5 + i % 4), 0.5 + i % 4)
            for rep in range(2) for i, ((a, b), p) in enumerate(probs.items())
        ])
    means = np.concatenate([[n for _, _, n, _ in t] for t in tables])
    assert (means == 0.0).any() and (means[means > 0] < 10).any() and (means > 10).any()
    assert len(tables[-1]) == 32

    for seed, table in enumerate(tables, start=4242):
        rng = np.random.default_rng(seed)
        res = q.mc_uncertainty(table, n_resamples=120, rng=rng)

        ref_rng = np.random.default_rng(seed)
        reference = np.empty(120)
        for k in range(120):
            resampled = [(a, b, float(ref_rng.poisson(n)), t) for a, b, n, t in table]
            reference[k] = q.bell_fidelity(q.tomography_2q(resampled))
        assert res.values.tobytes() == reference.tobytes()
        assert rng.random() == ref_rng.random()


def test_mc_uncertainty_calls_tomography_once_per_resample(monkeypatch):
    calls = []
    tomography = q.tomography_2q

    def counted(table):
        calls.append(len(q.CountTable.of(table).settings))
        return tomography(table)

    monkeypatch.setattr(q, "tomography_2q", counted)
    rows = [(a, b, 100.0 + i) for i, (a, b) in enumerate(q.TOMO_BASES_2Q)]
    for n in (100, 137):
        calls.clear()
        q.mc_uncertainty(rows, n, np.random.default_rng(n))
        assert calls == [16] * (n + 1)


def test_mc_uncertainty_sigma_scales_inverse_sqrt_n(rng):
    target = q.spdc_state(q.SpdcSource(noise_p=0.1))
    probs = q.coincidence_probabilities(target)
    sizes = np.array([1e3, 1e4, 1e5])
    sigmas = []
    for n in sizes:
        counts = [(a, b, n * p) for (a, b), p in probs.items()]
        sigmas.append(q.mc_uncertainty(counts, n_resamples=300, rng=rng).sigma)
    slope = np.polyfit(np.log10(sizes), np.log10(sigmas), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_mc_uncertainty_mean_near_point_estimate(rng):
    target = q.spdc_state(q.SpdcSource(noise_p=0.05))
    counts = [(a, b, rng.poisson(1e4 * p))
              for (a, b), p in q.coincidence_probabilities(target).items()]
    res = q.mc_uncertainty(counts, n_resamples=300, rng=rng)
    assert abs(res.mean - res.point_estimate) <= 1.5 * res.sigma
    with pytest.raises(ValueError):
        q.mc_uncertainty(counts, n_resamples=10, rng=rng)


# ---------------------------------------------------------------------------
# background correction: subtract rate_a * rate_b * window accidentals per
# unit integration time
# ---------------------------------------------------------------------------

def test_background_correction_zero_rates_unchanged():
    rows = [(a, b, 100.0 + i, 1.0 + i % 3) for i, (a, b) in enumerate(q.TOMO_BASES_2Q)]
    out = q.subtract_expected_accidentals(rows, 0.0)  # zero singles rates
    assert out.settings == q.TOMO_BASES_2Q
    assert out.counts.tolist() == [r[2] for r in rows]
    assert out.integration_s.tolist() == [r[3] for r in rows]


def test_background_correction_matches_per_row_clamp_bit_for_bit(rng):
    # np.maximum(n - e, 0.0) against the per-row max(0.0, n - e) it replaced,
    # signed zeros included: -0.0 counts and a -0.0 expectation give +0.0
    counts = np.concatenate([[0.0, -0.0, 5e-324, 1.0], rng.poisson(30.0, 28).astype(float)])
    rows = [(a, b, n) for (a, b), n in zip(q.TOMO_BASES_2Q * 2, counts.tolist())]
    for e in (0.0, -0.0, 5e-324, 0.5, 1.0, 30.0, 1e6):
        got = q.subtract_expected_accidentals(rows, e).counts
        want = np.array([max(0.0, n - e) for _, _, n in rows])
        assert got.tobytes() == want.tobytes(), e


def test_background_correction_recovers_injected_accidentals(rng):
    target = q.spdc_state(IDEAL_SOURCE)
    probs = q.coincidence_probabilities(target)
    n = 2e4
    rate_a, rate_b, window, integration = 2e4, 1e4, 1e-6, 1.0
    accidental = rate_a * rate_b * window * integration
    counts = [(a, b, rng.poisson(n * p + accidental), integration)
              for (a, b), p in probs.items()]
    raw_fid = q.bell_fidelity(q.tomography_2q(counts))
    corrected = q.subtract_expected_accidentals(counts, rate_a * rate_b * window)
    corr_fid = q.bell_fidelity(q.tomography_2q(corrected))
    mc = q.mc_uncertainty(corrected, n_resamples=200, rng=rng)
    assert corr_fid > raw_fid
    assert abs(corr_fid - 1.0) <= 3 * max(mc.sigma, 1e-3)


def test_background_correction_clamps_at_zero():
    rows = [("H", "H", 1.0, 1.0)] + [(a, b, 50.0, 1.0) for a, b in q.TOMO_BASES_2Q[1:]]
    out = q.subtract_expected_accidentals(rows, 1e3 * 1e3 * 1e-5)  # 10 accidentals
    assert out.counts[0] == 0.0
    assert all(n == pytest.approx(40.0) for n in out.counts[1:])


def test_background_correction_lifts_fidelity_toward_source_limit(rng):
    # white admixture calibrated to the uncorrected pair fidelity: removing
    # the equivalent flat accidental level recovers the underlying state
    src = q.SpdcSource(noise_p=0.2187)
    rho = q.spdc_state(src)
    n = 1e5
    counts = [(a, b, n * p, 1.0) for (a, b), p in q.coincidence_probabilities(rho).items()]
    raw = q.bell_fidelity(q.tomography_2q(counts))
    assert raw == pytest.approx(0.836, abs=1e-3)
    group_total = sum(c for a, b, c, _ in counts if a in "HV" and b in "HV")
    corrected = q.subtract_expected_accidentals(counts, group_total * src.noise_p / 4.0)
    lifted = q.bell_fidelity(q.tomography_2q(corrected))
    assert lifted >= 0.98


# ---------------------------------------------------------------------------
# process tomography
# ---------------------------------------------------------------------------

def test_process_tomography_identity():
    chi = q.process_tomography(lambda rho: rho)
    assert chi[0, 0].real == pytest.approx(1.0, abs=1e-9)
    assert np.abs(chi).sum() == pytest.approx(1.0, abs=1e-8)


def test_process_tomography_phase_flip_channels():
    for idx, sigma in enumerate(pc.PAULI, start=1):
        chi = q.process_tomography(lambda rho, s=sigma: s @ rho @ s.conj().T)
        assert chi[idx, idx].real == pytest.approx(1.0, abs=1e-9)


def test_process_tomography_depolarizing_mixture():
    def depolarize(rho):
        return 0.5 * rho + 0.5 * np.eye(2, dtype=complex) * np.trace(rho) / 2.0

    chi = q.process_tomography(depolarize)
    # chi diagonal of a depolarizing channel: (1 - 3p/4, p/4, p/4, p/4)
    assert chi[0, 0].real == pytest.approx(1.0 - 3 * 0.5 / 4, abs=1e-9)
    for i in range(1, 4):
        assert chi[i, i].real == pytest.approx(0.125, abs=1e-9)


def test_process_tomography_teleport_branches_ideal():
    rho_pair = q.spdc_state(IDEAL_SOURCE)

    def branch(herald):
        return lambda rho_in: q.bsm_branches(rho_in, rho_pair, IDEAL_ION)[herald][1]

    chi_minus = q.process_tomography(branch("phi_minus"))
    chi_plus = q.process_tomography(branch("phi_plus"))
    assert q.process_fidelity_element(chi_minus, "i") == pytest.approx(1.0, abs=1e-9)
    assert q.process_fidelity_element(chi_plus, "rl") == pytest.approx(1.0, abs=1e-9)


def test_process_tomography_singular_inputs():
    with pytest.raises(q.SingularDesign):
        q.process_tomography(lambda rho: rho, input_labels=("H", "V", "H", "V"))


def test_process_matrix_from_io_rejects_incomplete_inputs():
    h = np.outer(q.BASIS_KETS["H"], q.BASIS_KETS["H"].conj())
    with pytest.raises(q.SingularDesign):
        q.process_matrix_from_io([h] * 4, [h] * 4)


_REAL = hst.floats(-2.0, 2.0, allow_subnormal=False)
# an entry is zero, purely real or complex
_ENTRY = hst.one_of(
    hst.just(0j),
    _REAL.map(complex),
    hst.builds(complex, _REAL, _REAL),
)
_INPUT = hst.lists(_ENTRY, min_size=4, max_size=4).map(lambda e: np.array(e).reshape(2, 2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inputs=hst.lists(_INPUT, min_size=4, max_size=6))
@example(inputs=[np.outer(q.BASIS_KETS[b], q.BASIS_KETS[b].conj()) for b in q.TOMO_BASES_1Q])
def test_process_design_matches_the_column_by_column_oracle(inputs):
    got = q._process_design(inputs)
    want = process_design_oracle(inputs)
    assert got.shape == want.shape == (4 * len(inputs), 16)
    assert got.tobytes() == want.tobytes()


def test_bsm_projectors_are_read_only_bell_projectors():
    for (name, proj), bell in zip(q._BSM_PROJECTORS, (q._BELL_MINUS_MEM, q._BELL_PLUS_MEM)):
        want = np.kron(np.outer(bell, bell.conj()), np.eye(2, dtype=complex))
        assert proj.tobytes() == want.tobytes(), name
        assert not proj.flags.writeable


def test_process_matrix_psd_and_normalized(rng):
    src = q.SpdcSource(noise_p=0.3)
    ion = q.IonMemory(decay_per_s=500.0)
    rho_pair = q.spdc_state(src)
    chi = q.process_tomography(
        lambda rho_in: q.bsm_branches(rho_in, rho_pair, ion)["phi_minus"][1]
    )
    evals = np.linalg.eigvalsh(chi)
    assert evals.min() >= -1e-9
    assert np.trace(chi).real == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_check_state_validation():
    with pytest.raises(ValueError):
        q.check_state(np.diag([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        q.check_state(np.eye(4) / 2.0)
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        q.check_state(bad)


def test_check_state_hermiticity_matches_allclose():
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(2000):
        # A state near I/4 whose off-diagonal sizes put rtol * |entry|
        # (1e-12 to 1e-9) around atol, then a perturbation around the edge;
        # the real diagonal is left alone so that the trace stays exactly 1.
        off = np.triu(10.0 ** rng.uniform(-7.0, -4.0, size=(4, 4))
                      * np.exp(2j * np.pi * rng.random((4, 4))), 1)
        base = np.eye(4) / 4.0 + off + off.conj().T
        scale = 10.0 ** rng.uniform(-11.0, -9.0)
        pert = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rho = base + pert - np.diag(np.diag(pert).real)
        hermitian = np.allclose(rho, rho.conj().T, atol=1e-10)
        verdicts.append(hermitian)
        try:
            q.check_state(rho)
            passed = True
        except ValueError as exc:
            assert "not Hermitian" in str(exc)
            passed = False
        assert passed == hermitian
    assert 200 <= sum(verdicts) <= 1800


@pytest.mark.parametrize("entries", [
    {(2, 3): np.nan},
    {(1, 1): np.nan},
    {(0, 0): np.inf},
    {(0, 1): np.inf, (1, 0): np.inf},
    {(0, 1): complex(np.inf, np.inf), (1, 0): complex(np.inf, -np.inf)},
    {(0, 1): complex(np.inf, np.inf), (1, 0): complex(np.inf, 1.0)},
])
def test_check_state_rejects_non_finite_entries(entries):
    rho = np.eye(4, dtype=complex) / 4.0
    for ij, value in entries.items():
        rho[ij] = value
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        q.check_state(rho)


def test_purity_and_fidelity():
    rho = q.spdc_state(IDEAL_SOURCE)
    assert q.purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert q.purity(np.eye(4) / 4.0) == pytest.approx(0.25, abs=1e-12)


def test_count_table_csv_round_trip(tmp_path, rng):
    rho = q.spdc_state(q.SpdcSource(noise_p=0.1))
    counts = [(a, b, float(rng.poisson(1e4 * p)), 2.5)
              for (a, b), p in q.coincidence_probabilities(rho).items()]
    path = tmp_path / "counts.csv"
    q.write_counts_csv(path, counts)
    back = read_counts_csv(path)
    assert back == counts
    assert np.allclose(q.tomography_2q(back), q.tomography_2q(counts), atol=1e-12)
    assert path.read_text().splitlines()[0] == "basis_a,basis_b,counts,integration_s"
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n")
        read_counts_csv(bad)
