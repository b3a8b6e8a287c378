import dataclasses
import math
import re
import sys
import threading
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from fhmimo import bench
from fhmimo.config import SPEED_OF_LIGHT, ConfigError, RadarConfig
from fhmimo import impairments as imp
from fhmimo import radarrx as rrx
from fhmimo import waveform as wf


def _plan_psk(cfg, n_prt, seed=0, mode="dfrc"):
    rng = np.random.default_rng(seed)
    plan = wf.plan_hops(cfg, n_prt=n_prt, rng=rng, mode=mode)
    psk = wf.make_psk_grid(cfg, plan, 3 if mode == "dfrc" else 0, rng=rng)
    return plan, psk


# ---------------------------------------------------------------------------
# Geometry and scene
# ---------------------------------------------------------------------------

def test_blind_zone_is_750m(cfg):
    assert cfg.blind_range == pytest.approx(750.0)


def test_virtual_channel_count(cfg):
    # the config's M transmitters times the array's N receivers
    arr = rrx.ArrayModel()
    assert [f.name for f in dataclasses.fields(arr)] == [
        "n_rx", "tx_spacing", "rx_spacing"]
    assert arr.virtual_steering(0.0, cfg.n_tx).shape == (24,)
    assert arr.virtual_steering([0.0, 1.0], 3).shape == (2, 36)


@pytest.mark.parametrize("spacing", [{"tx_spacing": np.inf},
                                     {"rx_spacing": np.nan}],
                         ids=["tx-inf", "rx-nan"])
def test_array_model_refuses_a_non_finite_spacing(spacing):
    # the CLI refuses a non-finite number before the model sees it, so only
    # a library caller reaches this check
    with pytest.raises(ConfigError, match="tx_spacing and rx_spacing must "
                                          "be finite"):
        rrx.ArrayModel(**spacing)


def test_a_one_channel_virtual_array_is_refused():
    # one channel's angle spectrum is flat, so argmax took the grid's first
    # point: radar read a target at 3 deg as -30 deg and exited 0. The
    # array alone has no channel count: process_cpi refuses P = 1 before
    # the MTD, and M = 1 with N = 2 runs
    cfg = RadarConfig(n_tx=1, prts_per_cpi=4)
    plan, psk = _plan_psk(cfg, 4)
    for n_rx in (1, 2):
        arr = rrx.ArrayModel(n_rx=n_rx)
        profiles = rrx.echo_profiles(plan, psk, (rrx.Target(2000.0),), arr,
                                     cfg)
        if n_rx == 1:
            with pytest.raises(ConfigError, match=r"n_tx\*n_rx = 1.*>= 2"):
                rrx.process_cpi(profiles, cfg, arr, rrx.angle_grid(30, 8))
        else:
            rdm, _ = rrx.process_cpi(profiles, cfg, arr,
                                     rrx.angle_grid(30, 8))
            assert rdm.cube.shape[1] == 2


@pytest.mark.parametrize("n_rx", [4, 24])
def test_process_cpi_refuses_rx_of_another_antenna_count(cfg, n_rx):
    # the transmit count of estimate_angle is P // n_rx: the 24 channels
    # of a 12-antenna rx with n_rx = 4 would have been read as a
    # 6-transmitter array
    plan, psk = _plan_psk(cfg, 4)
    rx = np.zeros((12, 4, cfg.samples_per_prt), dtype=complex)
    profiles = rrx.matched_filter(rx, plan, psk, cfg)
    with pytest.raises(ConfigError, match=rf"24 channels.*n_tx\*n_rx = "
                                          rf"{2 * n_rx}$"):
        rrx.process_cpi(profiles, cfg, rrx.ArrayModel(n_rx=n_rx),
                        rrx.angle_grid(30, 8))


def test_virtual_array_is_contiguous_half_wavelength(cfg):
    # 2 TX at 6 wavelengths + 12 RX at half wavelength = 24-element
    # contiguous half-wavelength virtual ULA (no grating ambiguity)
    arr = rrx.ArrayModel()
    positions = sorted(0.5 * n + 6.0 * m
                       for n in range(arr.n_rx) for m in range(cfg.n_tx))
    assert positions == [0.5 * p for p in range(24)]
    # steering phases match the element positions
    theta = 17.3
    a = arr.virtual_steering(theta, cfg.n_tx)
    pos_p = np.array([0.5 * n + 6.0 * m
                      for n in range(arr.n_rx) for m in range(cfg.n_tx)])
    expect = np.exp(2j * np.pi * pos_p * np.sin(np.deg2rad(theta)))
    assert np.allclose(a, expect)


def test_scene_validation(cfg):
    with pytest.raises(ValueError):
        rrx.check_scene((rrx.Target(100.0, 0.0, 0.0),), cfg)
    with pytest.raises(ValueError):
        rrx.check_scene((rrx.Target(1000.0, 400.0, 0.0),), cfg)
    rng = np.random.default_rng(0)
    scene = bench.SweepSpec().random_scene(cfg, rng)
    rrx.check_scene(scene, cfg)
    assert len(scene) == 50 and type(scene) is tuple


# ---------------------------------------------------------------------------
# Echo synthesis
# ---------------------------------------------------------------------------

def test_echo_delay_sample(cfg):
    # 1500 m -> 10 us -> sample 400 at 40 MHz
    plan, psk = _plan_psk(cfg, 4)
    scene = (rrx.Target(1500.0, 0.0, 0.0),)
    rx = rrx.synthesize_echo(plan, psk, scene, rrx.ArrayModel(), cfg)
    first = np.argmax(np.abs(rx[0, 0]) > 0)
    assert first == 400


def test_echo_blind_zone_exclusion(cfg):
    # a target inside the blind zone is outside the observable window that
    # check_scene enforces: refused, not warned about and dropped,
    # and refused before the noise draw touches the generator
    plan, psk = _plan_psk(cfg, 2)
    scene = (rrx.Target(600.0, 0.0, 0.0),)
    g = np.random.default_rng(3)
    state = g.bit_generator.state
    with pytest.raises(ConfigError, match="range_m"):
        rrx.synthesize_echo(plan, psk, scene, rrx.ArrayModel(), cfg,
                            noise_var=1.0, rng=g)
    assert g.bit_generator.state == state


@pytest.mark.xfail(strict=True, reason=(
    "check_scene accepts a target within half a range bin of the "
    "unambiguous range, whose echo is wholly eclipsed; ROADMAP item 5's "
    "far-edge fix, a named seed-contract change, mends it"))
def test_every_target_check_scene_accepts_has_an_echo(cfg):
    # 5,999 and 6,000 m give round(delay * fs) = 1600 = samples_per_prt,
    # one sample past the PRT's last: a refusal or an echo passes
    plan, psk = _plan_psk(cfg, 4)
    for range_m in (5999.0, cfg.unambiguous_range):
        scene = (rrx.Target(range_m),)
        try:
            rrx.check_scene(scene, cfg)
        except ConfigError:
            continue
        rx = rrx.synthesize_echo(plan, psk, scene, rrx.ArrayModel(), cfg)
        assert np.any(rx), f"no echo at {range_m} m"


def test_zero_coefficient_scene_is_noise_only(cfg):
    plan, psk = _plan_psk(cfg, 2)
    scene = (rrx.Target(1500.0, 0.0, 0.0, coeff=0.0),)
    rx = rrx.synthesize_echo(plan, psk, scene, rrx.ArrayModel(), cfg,
                             noise_var=1.0, rng=3)
    active = rx[:, :, cfg.samples_per_pulse:]
    assert np.var(active) == pytest.approx(1.0, rel=0.02)


def test_echo_noise_depends_only_on_seed(cfg):
    # paired trials rely on equal noise for different plans
    plan_a, psk_a = _plan_psk(cfg, 2, seed=1)
    plan_b, psk_b = _plan_psk(cfg, 2, seed=2)
    empty = ()
    rx_a = rrx.synthesize_echo(plan_a, psk_a, empty, rrx.ArrayModel(), cfg,
                               noise_var=1.0, rng=42)
    rx_b = rrx.synthesize_echo(plan_b, psk_b, empty, rrx.ArrayModel(), cfg,
                               noise_var=1.0, rng=42)
    assert np.array_equal(rx_a, rx_b)


def test_echo_noise_seed_contract(cfg):
    # the contract in synthesize_echo's docstring: real block, then
    # imaginary block, scaled by sqrt(noise_var / 2), transmit window zeroed
    plan, psk = _plan_psk(cfg, 3)
    arr = rrx.ArrayModel(n_rx=4)
    noise_var = 2.5
    rx = rrx.synthesize_echo(plan, psk, (), arr, cfg,
                             noise_var=noise_var, rng=31)
    g = np.random.default_rng(31)
    s = (arr.n_rx, 3, cfg.samples_per_prt)
    expect = ((g.standard_normal(s) + 1j * g.standard_normal(s))
              * np.sqrt(noise_var / 2))
    expect[:, :, :cfg.samples_per_pulse] = 0.0
    assert rx.dtype == np.complex128
    assert np.array_equal(rx, expect)


def _front_end_cases():
    """(config, n_rx, n_prt) of the front-end identity: every M in 1-4
    with 1, 3 and 12 receive antennas on short CPIs, a 16-PRT config and
    the default CPI, whose 128 PRTs span several matched-filter blocks and
    noise draws."""
    cases = [pytest.param(RadarConfig(n_tx=m), n_rx, 3, id=f"M{m}-N{n_rx}")
             for m in (1, 2, 3, 4) for n_rx in (1, 3, 12)]
    return cases + [
        pytest.param(RadarConfig(prts_per_cpi=16), 4, 16, id="16-prt"),
        pytest.param(RadarConfig(), 12, 128, id="default")]


@pytest.mark.parametrize("cfg, n_rx, n_prt", _front_end_cases())
def test_echo_profiles_are_the_matched_filter_of_the_echo(monkeypatch, cfg,
                                                          n_rx, n_prt):
    # the scene front end writes each antenna's listening window into the
    # profile buffer and compresses it there; it must give the bytes of
    # the echo array's path on one, two and three threads (the draw on
    # the calling thread, the antennas on the others), with a target at
    # the blind range (its echo opens the listening window), one a sample
    # later, one whose pulse the PRT's end clips, a complex coefficient,
    # and with no noise or no scene
    plan, psk = _plan_psk(cfg, n_prt, seed=n_rx)
    arr = rrx.ArrayModel(n_rx=n_rx)
    step = SPEED_OF_LIGHT / (2 * cfg.sample_rate)       # one sample of delay
    scene = (rrx.Target(cfg.blind_range, 40.0, -3.0),
             rrx.Target(cfg.blind_range + step, 0.0, 12.0, 0.5 - 2j),
             rrx.Target(cfg.unambiguous_range - 5 * step, -90.0, 7.0),
             rrx.Target(2000.0, 150.0, 1.5))
    for targets, noise_var in ((scene, 10 ** 1.2), (scene, 0.0), ((), 2.0),
                               ((), 0.0)):
        expect = rrx.matched_filter(
            rrx.synthesize_echo(plan, psk, targets, arr, cfg,
                                noise_var=noise_var, rng=9), plan, psk, cfg)
        for n_threads in (1, 2, 3):
            monkeypatch.setattr(rrx, "usable_cpus", lambda: n_threads)
            got = rrx.echo_profiles(plan, psk, targets, arr, cfg,
                                    noise_var=noise_var, rng=9)
            assert got.flags.owndata and got.flags.c_contiguous
            assert _same_bits(got, expect), (len(targets), noise_var,
                                             n_threads)


def _broadcast_echo(plan, psk, scene, arr, cfg, noise_var, rng):
    """Reference echo array: one complex_noise draw of the whole (N,
    n_prt, samples_per_prt) block with its transmit window zeroed, then
    each target's echo at every antenna at once, as the (N, n_prt, E)
    product of its receive steering and its transmit contribution over
    its whole segment."""
    N, n_prt = arr.n_rx, plan.n_prt
    n_p, E = cfg.samples_per_prt, cfg.samples_per_pulse
    rx = imp.complex_noise((N, n_prt, n_p), noise_var, rng)
    rx[..., :E] = 0
    pulses = wf.synthesize(plan, psk, cfg).data
    for t in scene:
        d = int(round(t.delay() * cfg.sample_rate))
        a_t = rrx._ula(t.azimuth_deg, arr.tx_spacing, cfg.n_tx)
        a_r = rrx._ula(t.azimuth_deg, arr.rx_spacing, N)
        dopp = np.exp(2j * np.pi * t.doppler(cfg.wavelength)
                      * np.arange(n_prt) * cfg.prt_duration)
        contrib = t.coeff * dopp[:, None] * np.einsum("m,min->in", a_t,
                                                       pulses)
        stop = min(n_p, d + E)
        echo = a_r[:, None, None] * contrib[None, :, :stop - d]
        first = max(d, E)
        rx[:, :, first:stop] += echo[:, :, first - d:]
    return rx


def test_a_scene_of_several_contribution_blocks_is_the_broadcast_echo(
        cfg, monkeypatch):
    # the default 50-target scene on the default CPI: its contributions
    # (50 x 400 KB) fill ECHO_BLOCK_BYTES five times, so after the
    # pipelined first pass four more passes add the later targets before
    # the last compresses. The echo array and the profiles are the bytes
    # of the reference that adds every target at every antenna at once,
    # on one, two and three threads
    plan, psk = _plan_psk(cfg, cfg.prts_per_cpi, seed=8)
    arr = rrx.ArrayModel()
    scene = bench.SweepSpec().random_scene(cfg, 4)
    per_target = cfg.prts_per_cpi * cfg.samples_per_pulse * 16
    assert len(scene) == 50
    assert len(scene) * per_target > 4 * rrx.ECHO_BLOCK_BYTES
    ref = _broadcast_echo(plan, psk, scene, arr, cfg, 10 ** 1.6, 3)
    assert _same_bits(rrx.synthesize_echo(plan, psk, scene, arr, cfg,
                                          noise_var=10 ** 1.6, rng=3), ref)
    expect = rrx.matched_filter(ref, plan, psk, cfg)
    del ref
    for n_threads in (1, 2, 3):
        monkeypatch.setattr(rrx, "usable_cpus", lambda: n_threads)
        got = rrx.echo_profiles(plan, psk, scene, arr, cfg,
                                noise_var=10 ** 1.6, rng=3)
        assert _same_bits(got, expect), n_threads


def test_echo_profiles_peak_does_not_grow_with_the_scene(cfg, monkeypatch):
    # the contributions live in one block of ECHO_BLOCK_BYTES, which a
    # larger scene refills pass by pass: on two threads the traced peak of
    # a 50-target scene is within 2% of a 10-target one's (the same
    # measured), and both stay below 1.3 profile buffers (1.25 measured:
    # the buffer, the pulse spectra, the block and the scratch)
    monkeypatch.setattr(rrx, "usable_cpus", lambda: 2)
    plan, psk = _plan_psk(cfg, cfg.prts_per_cpi, seed=2)
    arr = rrx.ArrayModel()
    peaks = []
    for n_targets in (10, 50):
        scene = bench.SweepSpec(n_targets=n_targets).random_scene(cfg, 3)
        tracemalloc.start()
        try:
            profiles = rrx.echo_profiles(plan, psk, scene, arr, cfg,
                                         noise_var=10 ** 2.4, rng=4)
            peaks.append(tracemalloc.get_traced_memory()[1] / profiles.nbytes)
        finally:
            tracemalloc.stop()
        del profiles
    assert abs(peaks[1] / peaks[0] - 1) < 0.02, peaks
    assert max(peaks) < 1.3, peaks


class _Injected(Exception):
    pass


@pytest.mark.parametrize("where", ["draw", "antenna"])
@pytest.mark.parametrize("n_threads", [2, 3])
def test_a_failing_front_end_raises_and_leaves_no_thread_waiting(
        cfg, monkeypatch, where, n_threads):
    # an error in the draw (on the calling thread) once five of the six
    # antennas are drawn and the started threads wait for the sixth, or
    # in the compression of antenna 1 (on a started thread, while the
    # draw of the default CPI's later antennas goes on and another thread
    # waits for one) reaches the caller, and every thread the pipeline
    # started has ended: none waits for an antenna the draw will never give
    monkeypatch.setattr(rrx, "usable_cpus", lambda: n_threads)
    if where == "draw":
        def noise_steps(*args, real=rrx.noise_steps, **kwargs):
            steps = real(*args, **kwargs)
            for _ in range(5):
                yield next(steps)
            time.sleep(0.2)      # the other threads finish the five and wait
            raise _Injected

        monkeypatch.setattr(rrx, "noise_steps", noise_steps)
    else:
        def compress(profiles, n, *args, real=rrx._compress_antenna):
            if n == 1:
                raise _Injected
            real(profiles, n, *args)

        monkeypatch.setattr(rrx, "_compress_antenna", compress)
    plan, psk = _plan_psk(cfg, cfg.prts_per_cpi)
    scene = (rrx.Target(1500.0, 20.0, 3.0), rrx.Target(2500.0))
    before = set(threading.enumerate())
    raised = []

    def run():
        try:
            rrx.echo_profiles(plan, psk, scene, rrx.ArrayModel(n_rx=6), cfg,
                              noise_var=1.0, rng=2)
        except _Injected as error:
            raised.append(error)

    caller = threading.Thread(target=run)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the front end hung"
    assert len(raised) == 1
    assert set(threading.enumerate()) == before


def test_each_runs_a_call_after_its_set_up_and_its_lead_item():
    # calls below set_up run at once; call i >= set_up waits until every
    # set-up call has returned and the calling thread's lead has given
    # i - set_up + 1 items. The lead pauses between items, so the
    # started threads reach the waits; with the interpreter switching
    # threads as often as it can, three threads on two CPUs still run
    # every call once
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    passed = []
    try:
        runner = threading.Thread(target=_check_each_waits, args=(passed,))
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "_each hung"
    finally:
        sys.setswitchinterval(switch)
    assert passed == [True]


def _check_each_waits(passed):
    led, done, seen = [0], [0], []
    lock = threading.Lock()

    def lead():
        for _ in range(4):
            time.sleep(0.02)
            led[0] += 1
            yield

    def call(i, work):
        with lock:
            seen.append((i, led[0], done[0]))
        if i < 2:
            time.sleep(0.01)
            with lock:
                done[0] += 1

    for n_threads in (1, 2, 3):
        led[0] = done[0] = 0
        seen.clear()
        with mock.patch.object(rrx, "usable_cpus", lambda: n_threads):
            rrx._each(call, 6, (), lead=lead(), set_up=2)
        assert sorted(i for i, *_ in seen) == list(range(6))
        assert all(n_led > i - 2 and n_done == 2
                   for i, n_led, n_done in seen if i >= 2), seen
    passed.append(True)


def test_echo_profiles_refuse_bad_inputs_before_the_buffer(cfg):
    # a scene outside the window and a bad noise variance are refused
    # before the 69 MB profile buffer is allocated or the generator drawn
    # from: the refused call traces less than 1 MB
    plan, psk = _plan_psk(cfg, cfg.prts_per_cpi)
    arr = rrx.ArrayModel()
    g = np.random.default_rng(3)
    state = g.bit_generator.state
    for scene, noise_var, match in (((rrx.Target(600.0),), 1.0, "range_m"),
                                    ((), -1.0, "noise_var"),
                                    ((), np.nan, "noise_var")):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=match):
                rrx.echo_profiles(plan, psk, scene, arr, cfg,
                                  noise_var=noise_var, rng=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
    assert g.bit_generator.state == state


# ---------------------------------------------------------------------------
# Matched filter / MTD
# ---------------------------------------------------------------------------

def test_matched_filter_autocorrelation_peak(cfg):
    plan, psk = _plan_psk(cfg, 2)
    scene = (rrx.Target(1500.0, 0.0, 0.0),)
    arr = rrx.ArrayModel()
    rx = rrx.synthesize_echo(plan, psk, scene, arr, cfg)
    prof = rrx.matched_filter(rx, plan, psk, cfg)
    assert prof.shape == (2, 24, 1400)
    peak_bin = np.argmax(np.abs(prof[0, 0]))
    assert peak_bin == 400 - cfg.samples_per_pulse
    assert np.abs(prof[0, 0, peak_bin]) == pytest.approx(
        cfg.samples_per_pulse)  # pulse energy


def test_matched_filter_cross_channel_leakage_bound(cfg):
    # cross-correlation of the two planned pulses bounds the leakage of a
    # single-antenna echo into the other channel at the peak bin
    plan, psk = _plan_psk(cfg, 1, seed=5)
    pulses = wf.synthesize(plan, psk, cfg).data[:, 0]
    cross = np.abs(np.vdot(pulses[1], pulses[0]))
    # one receive stream whose echo, 400 samples late, carries pulse 0 only
    rx = np.zeros((1, 1, cfg.samples_per_prt), dtype=complex)
    rx[0, 0, 400:400 + cfg.samples_per_pulse] = pulses[0]
    prof = rrx.matched_filter(rx, plan, psk, cfg)
    d = 400 - cfg.samples_per_pulse
    assert np.abs(prof[0, 0, d]) == pytest.approx(cfg.samples_per_pulse)
    # the mismatched channel sees at most the pulses' cross-correlation,
    # which is exactly zero at the aligned lag (hop orthogonality)
    assert np.abs(prof[0, 1, d]) <= cross + 1e-6
    assert cross < 1e-9


def test_front_end_refuses_a_pulse_that_fills_the_prt():
    # 40 hops of 1 us fill the 40 us PRT: no listening sample, so no range
    # bin. RadarConfig accepts it (comm listens to the pulse itself); the
    # radar front end refuses it by name instead of mapping zero bins
    cfg = RadarConfig(hops_per_pulse=40, prts_per_cpi=4)
    assert cfg.samples_per_pulse == cfg.samples_per_prt
    plan, psk = _plan_psk(cfg, 4)
    arr = rrx.ArrayModel(n_rx=2)
    rx = rrx.synthesize_echo(plan, psk, (), arr, cfg)
    with pytest.raises(ConfigError, match="listening window"):
        rrx.matched_filter(rx, plan, psk, cfg)
    with pytest.raises(ConfigError, match="listening window"):
        rrx.echo_profiles(plan, psk, (), arr, cfg)


@pytest.mark.parametrize("shape", [(16, 800), (1, 1600)],
                         ids=["half-length-prts", "one-prt"])
def test_matched_filter_refuses_rx_unlike_the_plan(cfg, shape):
    # a 16-PRT plan: half-length PRTs gave 600 range bins where the config
    # has 1400, and a 1-PRT rx raised a bare numpy broadcast ValueError
    plan, psk = _plan_psk(cfg, 16)
    rx = np.zeros((2, *shape), dtype=complex)
    with pytest.raises(ConfigError,
                       match=re.escape(f"{shape}, but the plan and config "
                                       f"give (16, 1600)")):
        rrx.matched_filter(rx, plan, psk, cfg)


def _full_prt_correlation(rx, plan, psk, cfg):
    """Reference matched filter: the whole PRT zero-padded to a power of two
    >= n_p + E, one (N, M, n_prt, n_fft) product and inverse FFT, and the
    listening window [E, n_p) sliced out."""
    N, n_prt, n_p = rx.shape
    E = cfg.samples_per_pulse
    refs = wf.synthesize(plan, psk, cfg).data
    n_fft = 1
    while n_fft < n_p + E:
        n_fft *= 2
    RX = np.fft.fft(rx, n_fft, axis=-1)
    S = np.fft.fft(refs, n_fft, axis=-1)
    corr = np.fft.ifft(RX[:, None] * np.conj(S)[None], axis=-1)
    return corr[..., E:n_p].reshape(N * cfg.n_tx, n_prt, n_p - E)


@pytest.mark.parametrize("prt_duration", [40e-6, 30e-6])
def test_matched_filter_matches_full_prt_correlation(prt_duration):
    cfg = RadarConfig(prt_duration=prt_duration)
    plan, psk = _plan_psk(cfg, 4, seed=3)
    arr = rrx.ArrayModel(n_rx=3)
    scene = (rrx.Target(1500.0, 30.0, 1.0),)
    rx = rrx.synthesize_echo(plan, psk, scene, arr, cfg, noise_var=0.1,
                             rng=4)
    # samples inside the transmit window must not reach any range bin
    E = cfg.samples_per_pulse
    g = np.random.default_rng(5)
    rx[:, :, :E] = g.standard_normal((3, 4, E)) + 1j * g.standard_normal(
        (3, 4, E))
    prof = rrx.matched_filter(rx, plan, psk, cfg)
    ref = _full_prt_correlation(rx, plan, psk, cfg).transpose(1, 0, 2)
    assert prof.shape == ref.shape == (4, 6, cfg.samples_per_prt - E)
    assert np.abs(prof - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n_prt", [8, 7])
def test_mtd_equals_shifted_fft_exactly(cfg, n_prt):
    # odd slow-time lengths shift by (n_prt - 1) / 2, not n_prt / 2
    rng = np.random.default_rng(n_prt)
    prof = (rng.standard_normal((n_prt, 6, 50))
            + 1j * rng.standard_normal((n_prt, 6, 50)))
    expect = np.fft.fftshift(np.fft.fft(prof, axis=0), axes=0)
    rdm = rrx.mtd(prof, cfg)      # overwrites prof
    assert rdm.cube.shape == (n_prt, 6, 50)
    assert rdm.cube.flags.c_contiguous
    assert np.array_equal(rdm.cube, expect)
    assert np.array_equal(rdm.detection_statistic(),
                          np.abs(expect).sum(axis=1))


@pytest.mark.parametrize("mode", ["dfrc", "traditional"])
def test_process_cpi_cube_matches_an_independent_reference(mode):
    # off the default config (M = 3, 5 receive antennas, odd slow-time
    # length): the cube is the shifted slow-time FFT of the full-PRT
    # correlation of the echo, and it is the one buffer the front end
    # filled
    cfg = RadarConfig(n_tx=3)
    plan, psk = _plan_psk(cfg, 7, seed=11, mode=mode)
    arr = rrx.ArrayModel(n_rx=5)
    scene = (rrx.Target(1500.0, 30.0, 1.0), rrx.Target(2600.0, -80.0, -2.0))
    rx = rrx.synthesize_echo(plan, psk, scene, arr, cfg, noise_var=0.5,
                             rng=12)
    profiles = rrx.echo_profiles(plan, psk, scene, arr, cfg, noise_var=0.5,
                                 rng=12)
    rdm, _ = rrx.process_cpi(profiles, cfg, arr, rrx.angle_grid(30, 64))
    ref = np.fft.fftshift(np.fft.fft(_full_prt_correlation(rx, plan, psk, cfg),
                                     axis=1), axes=1).transpose(1, 0, 2)
    assert rdm.cube.shape == ref.shape == (7, 15, cfg.samples_per_prt
                                           - cfg.samples_per_pulse)
    assert rdm.cube is profiles and rdm.cube.flags.c_contiguous
    assert np.abs(rdm.cube - ref).max() <= 1e-12 * np.abs(ref).max()


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("n_tx, n_rx", [(2, 12), (3, 5)],
                         ids=["default", "M3-5rx"])
def test_the_chain_gives_the_same_bits_on_any_thread_count(monkeypatch,
                                                            n_tx, n_rx):
    # each antenna, channel and Doppler plane gets the same NumPy calls on
    # whichever thread runs it, so one thread, two and three (an uneven
    # split of 5 antennas, 15 channels and 128 planes) give byte-identical
    # cubes, detection columns and trial associations, also with the
    # interpreter switching threads as often as it can
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _compare_thread_counts(monkeypatch, n_tx, n_rx)
    finally:
        sys.setswitchinterval(switch)


def _compare_thread_counts(monkeypatch, n_tx, n_rx):
    cfg = RadarConfig(n_tx=n_tx)
    arr = rrx.ArrayModel(n_rx=n_rx)
    sweep = bench.SweepSpec(n_targets=10, angle_grid_points=64)
    plan, psk = _plan_psk(cfg, cfg.prts_per_cpi, seed=5)
    scene = sweep.random_scene(cfg, 6)
    grid = rrx.angle_grid(30, 64)
    first = None
    for n_threads in (1, 2, 3):
        monkeypatch.setattr(rrx, "usable_cpus", lambda: n_threads)
        profiles = rrx.echo_profiles(plan, psk, scene, arr, cfg,
                                     noise_var=10 ** 2.4, rng=7)
        rdm, dets = rrx.process_cpi(profiles, cfg, arr, grid)
        trial = bench.radar_trial(cfg, sweep, -24.0, [3, 1], "dfrc")
        got = (rdm.cube, [getattr(dets, f.name)
                          for f in dataclasses.fields(dets)], repr(trial))
        if first is None:
            first = got
            assert len(dets) > 10 and any(ok for ok, *_ in trial)
            continue
        assert _same_bits(got[0], first[0])
        assert all(_same_bits(a, b) for a, b in zip(got[1], first[1]))
        assert got[2] == first[2]


@pytest.mark.parametrize("cpus, n, threads", [(1, 4, 1), (3, 2, 2),
                                               (3, 5, 3)])
def test_each_runs_one_thread_per_usable_cpu_up_to_n(monkeypatch, cpus, n,
                                                       threads):
    # each thread waits at the barrier with its first call, so it breaks
    # unless `threads` threads run at once; the calling thread is one
    monkeypatch.setattr(rrx, "usable_cpus", lambda: cpus)
    barrier = threading.Barrier(threads, timeout=30)
    ids = []

    def call(i, work):
        if i < threads:
            barrier.wait()
        ids.append(threading.get_ident())

    rrx._each(call, n, ())
    assert len(ids) == n and threading.get_ident() in ids
    assert len(set(ids)) == threads


def test_process_cpi_never_holds_a_second_cube(cfg):
    # the map's cube is the profile buffer, which mtd transforms in place,
    # so what process_cpi allocates beyond the profiles it is given (the
    # MTD's scratch, the CFAR maps and the angle blocks) stays within 0.4
    # cubes (0.25 measured); a second cube-sized array would make it >= 1
    sweep = bench.SweepSpec(n_targets=10)
    plan, psk = _plan_psk(cfg, cfg.prts_per_cpi, seed=2)
    arr = rrx.ArrayModel()
    profiles = rrx.echo_profiles(plan, psk, sweep.random_scene(cfg, 3), arr,
                                 cfg, noise_var=10 ** 2.4, rng=4)
    grid = rrx.angle_grid(sweep.angle_fov_deg, sweep.angle_grid_points)
    tracemalloc.start()
    try:
        rdm, _ = rrx.process_cpi(profiles, cfg, arr, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rdm.cube is profiles
    assert peak < 0.4 * rdm.cube.nbytes


def test_process_cpi_frees_an_echo_only_it_holds_before_the_mtd(
        cfg, monkeypatch):
    # nothing reads the echo after pulse compression: an echo passed
    # unnamed, process_cpi(matched_filter(echo(), ...)), is gone before mtd
    # runs, and a caller that holds the echo keeps it. The scene front end
    # (bench.radar_cpi's) builds no echo array: when mtd runs, the traced
    # memory is the profile buffer and under 5% else (1.5% measured), and
    # the peak so far is under 1.5 buffers (1.30 measured: the noise draws
    # and compression scratch); building the echo array made it 1.87
    plan, psk = _plan_psk(cfg, 16)
    arr = rrx.ArrayModel()
    scene = (rrx.Target(2000.0),)
    echoes, alive, traced = [], [], []

    def echo():
        rx = rrx.synthesize_echo(plan, psk, scene, arr, cfg)
        echoes.append(weakref.ref(rx))
        return rx

    def mtd(profiles, cfg, real=rrx.mtd):
        if echoes:
            alive.append(echoes[-1]() is not None)
        if tracemalloc.is_tracing():
            traced.append([b / profiles.nbytes
                           for b in tracemalloc.get_traced_memory()])
        return real(profiles, cfg)

    monkeypatch.setattr(rrx, "mtd", mtd)
    grid = rrx.angle_grid(30, 8)
    rrx.process_cpi(rrx.matched_filter(echo(), plan, psk, cfg), cfg, arr,
                    grid)
    held = echo()
    rrx.process_cpi(rrx.matched_filter(held, plan, psk, cfg), cfg, arr, grid)
    assert alive == [False, True]
    echoes.clear()
    tracemalloc.start()
    try:
        rrx.process_cpi(rrx.echo_profiles(plan, psk, scene, arr, cfg,
                                          noise_var=1.0, rng=1),
                        cfg, arr, grid)
    finally:
        tracemalloc.stop()
    (current, peak), = traced
    assert 1.0 <= current < 1.05 and peak < 1.5, traced


def test_mtd_static_target_in_zero_doppler_bin(cfg):
    plan, psk = _plan_psk(cfg, 16)
    scene = (rrx.Target(2000.0, 0.0, 0.0),)
    rx = rrx.synthesize_echo(plan, psk, scene, rrx.ArrayModel(), cfg)
    rdm = rrx.mtd(rrx.matched_filter(rx, plan, psk, cfg), cfg)
    stat = rdm.detection_statistic()
    f_pk, t_pk = np.unravel_index(np.argmax(stat), stat.shape)
    assert f_pk == rdm.n_doppler // 2
    assert rdm.doppler_freqs()[f_pk] == 0.0


def test_mtd_bin_scalings(cfg):
    # 128 PRTs at 40 us: 195.3125 Hz per Doppler bin, ~5.33 m/s velocity
    assert cfg.doppler_bin == pytest.approx(195.3125)
    assert cfg.velocity_bin == pytest.approx(5.3267, abs=1e-3)
    assert cfg.unambiguous_velocity == pytest.approx(340.9, abs=0.1)
    assert cfg.range_bin == pytest.approx(3.75)


def test_moving_target_doppler_bin(cfg):
    v = 100.0
    plan, psk = _plan_psk(cfg, 128)
    scene = (rrx.Target(2000.0, v, 0.0),)
    rx = rrx.synthesize_echo(plan, psk, scene, rrx.ArrayModel(n_rx=2), cfg)
    rdm = rrx.mtd(rrx.matched_filter(rx, plan, psk, cfg), cfg)
    stat = rdm.detection_statistic()
    f_pk, _ = np.unravel_index(np.argmax(stat), stat.shape)
    v_hat = cfg.wavelength * rdm.doppler_freqs()[f_pk] / 2
    assert abs(v_hat - v) <= cfg.velocity_bin / 2 + 1e-9


def test_mtd_parseval_and_correlator_energy(cfg):
    """Exact energy identities of the chain: the slow-time DFT obeys
    Parseval, and the correlator's output energy over all circular lags
    equals the frequency-domain product energy."""
    plan, psk = _plan_psk(cfg, 8)
    rng = np.random.default_rng(77)
    rx = (rng.standard_normal((2, 8, 1600))
          + 1j * rng.standard_normal((2, 8, 1600)))
    prof = rrx.matched_filter(rx, plan, psk, cfg)
    rhs = prof.shape[0] * np.sum(np.abs(prof) ** 2)
    rdm = rrx.mtd(prof, cfg)      # overwrites prof
    lhs = np.sum(np.abs(rdm.cube) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)

    refs = wf.synthesize(plan, psk, cfg).data
    n_fft = 4096
    x = rx[0, 0]
    s = refs[0, 0]
    corr = np.fft.ifft(np.fft.fft(x, n_fft) * np.conj(np.fft.fft(s, n_fft)))
    assert np.sum(np.abs(corr) ** 2) == pytest.approx(
        np.sum(np.abs(np.fft.fft(x, n_fft)
                      * np.conj(np.fft.fft(s, n_fft))) ** 2) / n_fft,
        rel=1e-12)


# ---------------------------------------------------------------------------
# CFAR
# ---------------------------------------------------------------------------

def _poisson_interval(lam: float, z: float) -> tuple[int, int]:
    """Central interval [lo, hi] of a Poisson(lam) count: each tail beyond
    it holds at most Phi(-z)."""
    tail = 0.5 * math.erfc(z / math.sqrt(2))
    k = np.arange(int(lam + 12 * math.sqrt(lam) + 12))
    log_pmf = k * math.log(lam) - lam - np.array([math.lgamma(i + 1.0)
                                                  for i in k])
    cdf = np.cumsum(np.exp(log_pmf))
    return (int(np.searchsorted(cdf, tail)),
            int(np.searchsorted(cdf, 1.0 - tail)))


def test_poisson_interval_holds_its_tails():
    # lam = 4, z = 2 (tails of 0.0228 at most): P(N <= 0) = 0.018 and
    # P(N >= 9) = 0.021 fit, P(N <= 1) = 0.092 and P(N >= 8) = 0.051 not
    assert _poisson_interval(4.0, 2.0) == (1, 8)


def test_cfar_false_alarm_calibration(cfg):
    # noise-only maps: cfar_detect's own detections over >= 1e6 cells lie
    # in the two-sided z = 3.29 Poisson interval of p_fa x cells, at both
    # operating points (0.98 of it at 1e-3 and 1.03 at 1e-4 here).
    # Keeping only local maxima lowers the count: on 40 such CPIs it
    # dropped 10.3% (1e-3) and 4.4% (1e-4) of the threshold crossings,
    # far more than the 8 x p_fa of independent cells, since neighbouring
    # cells' noise is correlated. The crossings themselves ran 8.4% and
    # 10.6% above p_fa x cells (the threshold scale is the quantile for a
    # known noise mean, which the training ring only estimates), so the
    # two nearly cancel: 0.97 and 1.06 of p_fa x cells. At 1e-3 the
    # interval's half width (10%) is the size of the clustering's loss
    plan, psk = _plan_psk(cfg, 128)
    arr = rrx.ArrayModel()
    counts = {1e-3: 0, 1e-4: 0}
    cells = 0
    for trial in range(6):
        rx = rrx.synthesize_echo(plan, psk, (), arr, cfg,
                                 noise_var=1.0, rng=100 + trial)
        rdm = rrx.mtd(rrx.matched_filter(rx, plan, psk, cfg), cfg)
        for pfa in counts:
            counts[pfa] += len(rrx.cfar_detect(rdm, pfa))
        cells += rdm.n_doppler * rdm.n_range
    assert cells >= 1_000_000
    for pfa, n in counts.items():
        lo, hi = _poisson_interval(pfa * cells, 3.29)
        assert lo <= n <= hi, (pfa, n, lo, hi)


def test_cfar_single_target_single_cluster(cfg):
    # high-SNR single target: exactly one cluster at the true cell
    plan, psk = _plan_psk(cfg, 128)
    scene = (rrx.Target(2000.0, 50.0, 0.0),)
    rx = rrx.synthesize_echo(plan, psk, scene, rrx.ArrayModel(), cfg,
                             noise_var=10 ** (3.4), rng=5)
    rdm = rrx.mtd(rrx.matched_filter(rx, plan, psk, cfg), cfg)
    # tighter operating point: at p_fa=1e-4 a 1.8e5-cell map statistically
    # yields ~18 chance crossings; the single-cluster statement is about
    # the target, so test it at a false-alarm rate where E[FA] << 1
    dets = rrx.cfar_detect(rdm, p_fa=1e-7)
    assert len(dets) == 1
    delay_samples = round(2 * 2000.0 / SPEED_OF_LIGHT * cfg.sample_rate)
    assert dets.range_bin[0] == delay_samples - cfg.samples_per_pulse
    f_d = 2 * 50.0 / cfg.wavelength
    assert dets.doppler_bin[0] == (round(f_d / cfg.doppler_bin)
                                   + rdm.n_doppler // 2)


def test_cfar_fifty_target_scene_detection_rate(cfg):
    plan, psk = _plan_psk(cfg, 128)
    rng = np.random.default_rng(8)
    scene = bench.SweepSpec().random_scene(cfg, rng)
    arr = rrx.ArrayModel()
    # RDM-peak SNR per channel ~ +14 dB: input -30 dB + MF/MTD gain 44 dB
    profiles = rrx.echo_profiles(plan, psk, scene, arr, cfg,
                                 noise_var=10 ** (30 / 10), rng=9)
    grid = rrx.angle_grid(30, 512)
    rdm, dets = rrx.process_cpi(profiles, cfg, arr, grid=grid)
    hits = sum(r[0] for r in bench._associate(dets, scene, rdm))
    assert hits >= 45  # >= 90% of 50


# ---------------------------------------------------------------------------
# Angle estimation
# ---------------------------------------------------------------------------

def test_angle_exact_on_grid_point(cfg):
    arr = rrx.ArrayModel()
    grid = rrx.angle_grid(30, 1024)
    theta = grid[700]
    z = arr.virtual_steering(theta, cfg.n_tx)
    assert rrx.estimate_angle(z[None], arr, grid)[0] == theta


def test_angle_quantization_floor(cfg, rng):
    # noiseless random angles on a finite grid: RMSE ~ step/sqrt(12)
    arr = rrx.ArrayModel()
    grid = rrx.angle_grid(30, 4096)
    step = 60 / 4096
    thetas = rng.uniform(-25, 25, size=4000)
    z = arr.virtual_steering(thetas, cfg.n_tx)
    errs = rrx.estimate_angle(z, arr, grid) - thetas
    rmse = np.sqrt(np.mean(errs ** 2))
    assert rmse == pytest.approx(step / np.sqrt(12), rel=0.1)


def test_angle_batch_equals_row_by_row(rng):
    # a (D, P) call returns exactly what D calls on (1, P) rows return,
    # also on a near-tie: z = a(g_i) + a(g_j) has the same spectrum at grid
    # angles i and j, so the argmax follows the last bits of the sums.
    # Draw 7 of a seeded search over (i, j, phase) gave 26.25 deg alone,
    # through gemv, and 7.5 deg in any batch, through gemm
    arr = rrx.ArrayModel()
    grid = rrx.angle_grid(30, 256)
    thetas = rng.uniform(-25, 25, size=100)
    z = arr.virtual_steering(thetas, 2) + 0.3 * (
        rng.standard_normal((100, 24)) + 1j * rng.standard_normal((100, 24)))
    tie_rng = np.random.default_rng(7)
    i, j = tie_rng.choice(grid.size, 2, replace=False)
    A = arr.virtual_steering(grid[[i, j]], 2)
    tie = (A[0] + A[1]) * np.exp(1j * tie_rng.uniform(0, 2 * np.pi))
    z = np.concatenate([z[:50], tie[None], z[50:]])
    batch = rrx.estimate_angle(z, arr, grid)
    rows = [rrx.estimate_angle(zi[None], arr, grid)[0] for zi in z]
    assert batch.shape == (101,)
    assert batch[50] in grid[[i, j]]
    assert np.array_equal(batch, rows)
    assert rrx.estimate_angle(z[:0], arr, grid).shape == (0,)


def test_angle_memory_does_not_grow_with_the_detection_count(rng):
    # the (D, L) spectrum is taken in row blocks of about BLOCK_BYTES: the
    # traced peak at D = 5,000 is within one block of the peak at D = 500
    # (the one-shot spectrum and its magnitude took 30 MB at D = 5,000),
    # and the azimuths are the one-shot argmax |z A^H|^2 bit for bit
    arr = rrx.ArrayModel()
    grid = rrx.angle_grid(30, 256)
    A = arr.virtual_steering(grid, 2)
    peaks = []
    for d in (500, 5000):
        z = arr.virtual_steering(rng.uniform(-25, 25, size=d), 2) + 0.3 * (
            rng.standard_normal((d, 24)) + 1j * rng.standard_normal((d, 24)))
        tracemalloc.start()
        try:
            got = rrx.estimate_angle(z, arr, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        spectrum = np.abs(z @ A.conj().T)
        spectrum **= 2
        assert np.array_equal(got, grid[np.argmax(spectrum, axis=1)])
    assert abs(peaks[1] - peaks[0]) < rrx.BLOCK_BYTES < peaks[0] < 30e6 / 4


@pytest.mark.parametrize("d", [2, 3, 257, 513, 5053])
def test_angle_blocks_of_two_rows_or_more_give_the_one_shot_bits(
        monkeypatch, rng, d):
    # the blocks hold at least two rows: matmul takes a one-row product
    # through gemv, whose sums may round unlike the one-shot gemm. The
    # premise is checked on this BLAS, then the azimuths over blocks of
    # 2-3 rows (a 1-KiB block) and of the default size
    arr = rrx.ArrayModel()
    grid = rrx.angle_grid(30, 256)
    AH = arr.virtual_steering(grid, 2).conj().T
    z = rng.standard_normal((d, 24)) + 1j * rng.standard_normal((d, 24))
    whole = z @ AH
    for n in {1, d // 2, -(-d // 256)}:
        blocks = np.concatenate([b @ AH for b in np.array_split(z, n)])
        assert blocks.tobytes() == whole.tobytes()
    spectrum = np.abs(whole)
    spectrum **= 2
    one_shot = grid[np.argmax(spectrum, axis=1)]
    for block_bytes in (1 << 10, rrx.BLOCK_BYTES):
        monkeypatch.setattr(rrx, "BLOCK_BYTES", block_bytes)
        assert np.array_equal(rrx.estimate_angle(z, arr, grid), one_shot)


@pytest.mark.parametrize("make_cfg", [
    RadarConfig,
    lambda: RadarConfig(n_subbands=7, n_tx=3, hops_per_pulse=4,
                        bandwidth=14e6, sample_rate=28e6),
    lambda: bench.config_for_hop_duration(RadarConfig(), 0.5e-6)],
    ids=["default", "K7-M3-H4", "hop-0.5us"])
def test_estimate_params_mapping(make_cfg):
    # t* = 10 us -> 1500 m; f* = 0 -> v = 0; beyond the default config too
    cfg = make_cfg()
    plan, psk = _plan_psk(cfg, 128)
    scene = (rrx.Target(1500.0, 0.0, 7.5),)
    arr = rrx.ArrayModel()
    profiles = rrx.echo_profiles(plan, psk, scene, arr, cfg,
                                 noise_var=10.0 ** 3, rng=4)
    grid = rrx.angle_grid(30, 4096)
    rdm, dets = rrx.process_cpi(profiles, cfg, arr, grid=grid)
    best = np.argmax(dets.statistic)
    assert dets.range_m[best] == pytest.approx(1500.0, abs=cfg.range_bin)
    assert dets.velocity[best] == 0.0
    assert dets.azimuth_deg[best] == pytest.approx(7.5, abs=0.1)


def test_the_map_and_detections_are_read_only_values(cfg):
    # mtd's input becomes the map's cube, and estimate_params returns a new
    # list: the one cfar_detect gave keeps its zero columns
    plan, psk = _plan_psk(cfg, 16)
    arr = rrx.ArrayModel()
    rx = rrx.synthesize_echo(plan, psk, (rrx.Target(1500.0),), arr, cfg,
                             noise_var=1.0, rng=5)
    profiles = rrx.matched_filter(rx, plan, psk, cfg)
    rdm = rrx.mtd(profiles, cfg)
    assert rdm.cube is profiles
    raw = rrx.cfar_detect(rdm, 1e-4)
    dets = rrx.estimate_params(raw, rdm, arr, rrx.angle_grid(30, 64))
    assert dets is not raw and len(dets) == len(raw) > 0
    assert not raw.range_m.any() and dets.range_m.all()
    for value in (rdm, raw, dets):
        for f in dataclasses.fields(value):
            a = getattr(value, f.name)
            if isinstance(a, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dets.range_m = dets.velocity


def test_process_cpi_without_detections(cfg):
    plan, psk = _plan_psk(cfg, 16)
    arr = rrx.ArrayModel()
    _, dets = rrx.process_cpi(rrx.echo_profiles(plan, psk, (), arr, cfg),
                              cfg, arr, grid=rrx.angle_grid(30, 256))
    assert len(dets) == 0


def test_waveform_equivalence_quick(cfg):
    """Pilot-carrying and fully random waveforms give matching range and
    velocity errors on identical scenes and noise."""
    errs = {}
    for mode in ("dfrc", "traditional"):
        plan, psk = _plan_psk(cfg, 128, seed=3, mode=mode)
        rng = np.random.default_rng(12)
        scene = bench.SweepSpec(n_targets=8).random_scene(cfg, rng)
        arr = rrx.ArrayModel()
        profiles = rrx.echo_profiles(plan, psk, scene, arr, cfg,
                                     noise_var=10 ** (24 / 10), rng=13)
        grid = rrx.angle_grid(30, 512)
        rdm, dets = rrx.process_cpi(profiles, cfg, arr, grid=grid)
        errs[mode] = np.array([
            (dr, dv) for hit, dr, dv, _ in bench._associate(dets, scene, rdm)
            if hit])
    assert len(errs["dfrc"]) == len(errs["traditional"]) == 8
    rmse = {m: np.sqrt((e ** 2).mean(axis=0)) for m, e in errs.items()}
    assert np.allclose(rmse["dfrc"], rmse["traditional"], rtol=0.35)


def test_pilot_waveform_excess_detections_lie_on_its_doppler_rows(cfg):
    """One paired 10-target CPI at -24 dB in the criterion-7 geometry
    (ROADMAP item 4(a)). The zero pilots repeat every PRT, so their range
    sidelobes add coherently on each target's Doppler row; the cycled
    pilot repeats every K PRTs, which puts copies j*n_dop/K rows away. The
    pilot waveform therefore detects several times more than the random
    one there, with the same scene and noise: 205 against 38 detections on
    the targets' rows and 286 against 26 on the cycled rows in this CPI,
    and 3.8x to 6.2x and 4.7x to 10x over 14 other seeded CPIs."""
    sweep = bench.SweepSpec(n_targets=10)
    scene = sweep.random_scene(cfg, np.random.default_rng(21))
    arr = rrx.ArrayModel()
    grid = rrx.angle_grid(sweep.angle_fov_deg, 160)
    counts = {}
    for mode in ("dfrc", "traditional"):
        plan, psk = _plan_psk(cfg, cfg.prts_per_cpi, seed=22, mode=mode)
        profiles = rrx.echo_profiles(plan, psk, scene, arr, cfg,
                                     noise_var=10 ** 2.4, rng=23)
        rdm, dets = rrx.process_cpi(profiles, cfg, arr, grid=grid,
                                    p_fa=sweep.p_fa)
        F = rdm.n_doppler
        rows = {round(t.doppler(cfg.wavelength) / cfg.doppler_bin) + F // 2
                for t in scene}
        cycled = {(r + round(j * F / cfg.n_subbands)) % F for r in rows
                  for j in range(1, cfg.n_subbands)} - rows
        counts[mode] = [int(np.isin(dets.doppler_bin, list(r)).sum())
                        for r in (rows, cycled)]
    (pilot_rows, pilot_cycled), (random_rows, random_cycled) = (
        counts["dfrc"], counts["traditional"])
    assert pilot_rows >= 3 * random_rows > 0
    assert pilot_cycled >= 3 * random_cycled > 0
