import dataclasses
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from fhmimo.config import ConfigError, RadarConfig, noise_var_for_snr
from fhmimo import commrx as crx
from fhmimo import impairments as imp
from fhmimo import waveform as wf
from fhmimo.iqfile import read_iq, write_iq


def single_antenna_cfg():
    # single transmitter isolates closed-form checks from cross-antenna
    # spectral leakage (neglected in the receiver's spectral model)
    return RadarConfig(n_tx=1, hops_per_pulse=5)


# ---------------------------------------------------------------------------
# Clock relations
# ---------------------------------------------------------------------------

def test_sto_from_rho_closed_form():
    # -rho/(fs*(1-rho)) at 10 ppm, 40 MHz
    assert imp.sto_from_rho(1e-5, 40e6) == pytest.approx(-2.500025e-13,
                                                         rel=1e-6)
    assert imp.sto_from_rho(0.0, 40e6) == 0.0


def test_accumulated_sto(cfg):
    spec = imp.ImpairmentSpec(sto_initial=1e-9, sample_time_offset=0.0)
    assert imp.accumulated_sto(0, 0, spec, cfg) == 1e-9
    spec = imp.ImpairmentSpec(sto_initial=0.0, sample_time_offset=-2.5e-13)
    # i=1, h=0: 1600 samples elapsed
    assert imp.accumulated_sto(1, 0, spec, cfg) == pytest.approx(-4.0e-10)
    spec2 = imp.ImpairmentSpec(
        sto_initial=0.0, sample_time_offset=imp.sto_from_rho(1e-5, 40e6))
    assert spec2.sample_time_offset == pytest.approx(-2.500025e-13, rel=1e-6)
    with pytest.raises(ValueError):
        imp.accumulated_sto(0, 7, spec, cfg)


def test_clock_drift_small_vs_prt(cfg):
    # N_p * dTs << T_p for any plausible clock stability (<= 100 ppm)
    dts = imp.sto_from_rho(1e-4, cfg.sample_rate)
    assert abs(cfg.samples_per_prt * dts) / cfg.prt_duration < 1.01e-4


# ---------------------------------------------------------------------------
# Window gains
# ---------------------------------------------------------------------------

def window_gain(cfo: float, hop_duration: float) -> complex:
    """Continuous-time spectral gain of a hop window under CFO, the
    CFO-loss tests' analytic oracle: T*sinc(dw*T/2)*exp(j*dw*T/2); equals
    T at dw=0. ``imp.dft_window_gain`` is its discrete counterpart."""
    x = cfo * hop_duration / 2.0
    return hop_duration * np.sinc(x / np.pi) * np.exp(1j * x)


def test_window_gain_values():
    T = 1e-6
    assert window_gain(0.0, T) == pytest.approx(T)
    assert abs(window_gain(2 * np.pi / T, T)) < 1e-12 * T
    # half-cycle offset: magnitude 2T/pi
    assert abs(window_gain(np.pi / T, T)) == pytest.approx(2 * T / np.pi)


def test_dft_window_gain_matches_sum():
    fs, N = 40e6, 40
    for cfo in (0.0, 2 * np.pi * 3e3, -2 * np.pi * 1.1e4):
        direct = np.exp(1j * cfo * np.arange(N) / fs).sum()
        assert imp.dft_window_gain(cfo, N, fs) == pytest.approx(direct,
                                                                abs=1e-9)


# ---------------------------------------------------------------------------
# Channel application
# ---------------------------------------------------------------------------

def _frame(cfg, n_prt, rng, order_bits=3):
    plan = wf.plan_hops(cfg, n_prt=n_prt, rng=rng)
    psk = wf.make_psk_grid(cfg, plan, order_bits, rng=rng)
    return plan, psk, wf.synthesize(plan, psk, cfg)


def test_identity_channel_exact(cfg, rng):
    plan, psk, frame = _frame(cfg, 12, rng)
    out = imp.apply(frame, plan, psk, imp.ImpairmentSpec(), cfg)
    assert np.array_equal(out.data[0], frame.data.sum(axis=0))


def test_apply_checks_frame_geometry(cfg, rng):
    # a 40 MHz frame under an 80 MHz config used to come back relabelled
    # as 80 MHz with 3200-sample PRTs; a frame of another channel count or
    # first PRT than the plan's is refused too
    plan, psk, frame = _frame(cfg, 4, rng)
    fast = dataclasses.replace(cfg, sample_rate=80e6)
    with pytest.raises(ConfigError):
        imp.apply(frame, plan, psk, imp.ImpairmentSpec(), fast)
    for bad in (dataclasses.replace(frame, data=frame.data[:1]),
                dataclasses.replace(frame, first_prt=3)):
        with pytest.raises(ValueError):
            imp.apply(bad, plan, psk, imp.ImpairmentSpec(), cfg)


def test_linearity_in_frame(cfg, rng):
    plan, psk, frame = _frame(cfg, 6, rng)
    spec = imp.ImpairmentSpec.from_clock(1e-6, cfg, sto_initial=3e-9)
    base = imp.apply(frame, plan, psk, spec, cfg).data
    scaled_frame = dataclasses.replace(frame, data=2.5j * frame.data)
    scaled = imp.apply(scaled_frame, plan, psk, spec, cfg).data
    assert np.allclose(scaled, 2.5j * base, rtol=1e-12)


def test_noise_calibration(cfg):
    # the variance is measured where the noise is drawn: on the hop samples
    # (a 10 us PRT keeps the silent tail, and the memory, small)
    cfg = dataclasses.replace(cfg, prt_duration=10e-6)
    plan = wf.plan_hops(cfg, n_prt=5000, rng=0)
    frame = wf.IqFrame(np.zeros((cfg.n_tx, 5000, cfg.samples_per_prt)),
                       cfg.sample_rate)
    spec = imp.ImpairmentSpec(noise_var=2.0)
    hops = imp.apply(frame, plan, wf.make_psk_grid(cfg, plan, 0), spec, cfg,
                     rng=7).hops(cfg, 1)[0]
    assert hops.size >= 1_000_000
    assert np.var(hops) == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("shape", [
    (imp.NOISE_CHUNK,), (2, imp.NOISE_CHUNK), (3, imp.NOISE_CHUNK + 1),
    (imp.NOISE_CHUNK - 1,), (2000, 5, 40), (3, 7), (1,), (), (0, 4)],
    ids=["one-chunk", "two-chunks", "past-three-chunks", "under-a-chunk",
         "ber-chunk", "3x7", "one", "scalar", "empty"])
def test_noise_through_a_small_buffer_is_the_one_buffer_draw(shape):
    # noise_steps over one row of every sample draws through a buffer of
    # at most NOISE_CHUNK floats, in pieces once the row is longer, the
    # same numbers, in the same order, as one draw of the whole block; the
    # buffer is all the draw holds beyond its output. complex_noise, the
    # whole-array reference, gives the seed contract's bytes too
    g = np.random.default_rng(17)
    expect = ((g.standard_normal(shape) + 1j * g.standard_normal(shape))
              * np.sqrt(2.5 / 2))
    tracemalloc.start()
    try:
        got = np.empty(shape, complex)
        for _ in imp.noise_steps([got.reshape(1, -1)], 2.5, 17):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == expect.tobytes()
    assert peak <= got.nbytes + 8 * imp.NOISE_CHUNK + 4096
    whole = imp.complex_noise(shape, 2.5, 17)
    assert whole.dtype == np.complex128 and whole.shape == expect.shape
    assert whole.tobytes() == expect.tobytes()


@pytest.mark.parametrize("lead, row, width", [
    ((12, 128), 1600, 1400), ((2, 3), 7, 7), ((3, 2), 7, 0),
    ((2, 81), 1600, 1),
    ((2, 1), imp.NOISE_CHUNK + 5, imp.NOISE_CHUNK - 3),
    ((1, 3), 2 * imp.NOISE_CHUNK + 1, 2),
    ((1, 2), 3 * imp.NOISE_CHUNK, 3 * imp.NOISE_CHUNK // 2)],
    ids=["write-radar-window", "write-whole-rows", "write-no-window",
         "write-last-sample", "write-row-past-a-chunk",
         "write-row-past-two-chunks", "write-window-mid-chunk"])
def test_noise_window_is_the_whole_draw_without_the_blanked_columns(
        lead, row, width):
    # noise_steps run to its end on the last `width` samples of each
    # `row`-sample row, into a strided view, writes complex_noise's draw of
    # the whole rows with the first row - width columns dropped, byte for
    # byte, rows longer than a chunk too. Beyond its output it holds one
    # NOISE_CHUNK buffer and NumPy's iteration buffers for strided operands
    # (110 KB)
    whole = imp.complex_noise((*lead, row), 2.5, 23)
    out = np.full((*lead, 2, width), np.nan, complex)[..., 1, :]
    tracemalloc.start()
    try:
        for _ in imp.noise_steps(out, 2.5, 23, row=row):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tobytes() == whole[..., row - width:].tobytes()
    assert peak <= 8 * imp.NOISE_CHUNK + (1 << 18)


@pytest.mark.parametrize("lead, row, width", [
    ((12, 128), 1600, 1400), ((2, 3), 7, 7), ((3, 2), 7, 0),
    ((2, 3, 2), 9, 4),
    ((2, 1), imp.NOISE_CHUNK + 5, imp.NOISE_CHUNK - 3),
    ((1, 3), 2 * imp.NOISE_CHUNK + 1, 2)],
    ids=["write-radar-window", "write-whole-rows", "write-no-window",
         "write-two-lead-axes", "write-row-past-a-chunk",
         "write-row-past-two-chunks"])
def test_noise_steps_give_each_index_once_its_noise_is_whole(lead, row,
                                                             width):
    # the step generator that both pipelines run, over the blocks
    # of rows of each leading index of a strided view, in C order: it gives
    # every block's position once, in order, when that block already holds
    # its final bytes (the radar front end compresses an antenna from then
    # on), and run to its end it writes complex_noise's bytes
    whole = imp.complex_noise((*lead, row), 2.5, 29)
    out = np.full((*lead, 2, width), np.nan, complex)[..., 1, :]
    blocks = [out[index] for index in np.ndindex(*lead[:-1])]
    expect = whole[..., row - width:].reshape(len(blocks), lead[-1], width)
    steps = []
    for i in imp.noise_steps(blocks, 2.5, 29, row=row):
        assert blocks[i].tobytes() == expect[i].tobytes()
        steps.append(i)
    assert steps == list(range(len(blocks)))
    assert out.tobytes() == whole[..., row - width:].tobytes()


def test_noise_steps_over_blocks_of_any_row_counts():
    # blocks of 5, 2, 7 and 1 rows of one array (apply's PRT blocks end
    # with a short one) are drawn as one draw of all the rows
    whole = imp.complex_noise((15, 9), 2.5, 31)
    out = np.full((15, 9), np.nan, complex)
    blocks = [out[a:b] for a, b in ((0, 5), (5, 7), (7, 14), (14, 15))]
    assert list(imp.noise_steps(blocks, 2.5, 31)) == [0, 1, 2, 3]
    assert out.tobytes() == whole.tobytes()


def test_noise_steps_draw_nothing_for_a_variance_of_0():
    g = np.random.default_rng(4)
    state = g.bit_generator.state
    out = np.ones((2, 3, 4), complex)
    assert list(imp.noise_steps(out, 0.0, g)) == []
    assert g.bit_generator.state == state and (out == 1).all()


def test_channel_noise_seed_contract(cfg, tmp_path):
    # the contract in complex_noise's docstring, through apply: one
    # (n_prt, H, n_hop) draw on the hop view, real block, then imaginary
    # block, scaled by sqrt(noise_var / 2); the frame stores the pulse only,
    # and the silent tail of every PRT, which the receiver never reads, is
    # written as exact zeros
    plan = wf.plan_hops(cfg, n_prt=3, rng=0)
    psk = wf.make_psk_grid(cfg, plan, 0)
    frame = wf.synthesize(plan, psk, cfg)
    frame = dataclasses.replace(frame, data=np.zeros_like(frame.data))
    noise_var = 2.5
    spec = imp.ImpairmentSpec(noise_var=noise_var)
    out = imp.apply(frame, plan, psk, spec, cfg, rng=31)
    g = np.random.default_rng(31)
    s = (3, cfg.hops_per_pulse, cfg.samples_per_hop)
    expect = ((g.standard_normal(s) + 1j * g.standard_normal(s))
              * np.sqrt(noise_var / 2))
    assert out.data.dtype == np.complex128
    assert out.data.shape == (1, 3, cfg.samples_per_pulse)
    assert out.samples_per_prt == cfg.samples_per_prt
    assert np.array_equal(out.hops(cfg, 1)[0], expect)
    write_iq(tmp_path / "rx.iq", out)
    written = read_iq(tmp_path / "rx.iq").data
    assert written.shape == (1, 3, cfg.samples_per_prt)
    assert np.array_equal(written[0, :, :cfg.samples_per_pulse],
                          expect.reshape(3, -1).astype(np.complex64))
    assert np.all(written[0, :, cfg.samples_per_pulse:] == 0)
    # no noise: zeros, and the generator is left untouched
    state = g.bit_generator.state
    assert not imp.complex_noise(s, 0.0, g).any()
    assert g.bit_generator.state == state


SMALL_CFG = RadarConfig(n_subbands=7, n_tx=3, hops_per_pulse=4,
                        bandwidth=7e6, sample_rate=14e6, prt_duration=8e-6)


def _whole_noise_apply(frame, plan, spec, cfg, rng):
    # apply as it was with a whole noise array: the mix, the ramp, then
    # += one complex_noise draw of the hop shape
    M, H, n_hop = cfg.n_tx, cfg.hops_per_pulse, cfg.samples_per_hop
    gains = imp.slot_gain(plan.prt_indices()[:, None, None],
                          np.arange(H)[:, None], np.arange(M), plan.subband,
                          spec, cfg)
    ramp = np.exp(1j * spec.cfo * np.arange(n_hop) / cfg.sample_rate)
    mixed = np.empty((frame.n_prt, H, n_hop), complex)
    np.einsum("mihn,ihm->ihn", frame.hops(cfg, M), gains, out=mixed)
    mixed *= ramp
    mixed += imp.complex_noise(mixed.shape, spec.noise_var, rng)
    return mixed


@pytest.mark.parametrize("first_prt", [0, 5])
@pytest.mark.parametrize("snr_db", [4.0, None], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("cfg", [RadarConfig(), SMALL_CFG],
                         ids=["default", "M3-K7-H4"])
def test_noise_added_in_place_is_the_whole_noise_sum(cfg, snr_db,
                                                     first_prt):
    # each sample is fl(m + fl(s * scale)) either way, since complex
    # addition works on each component; a zero variance adds nothing, where
    # a zero array would have turned a -0.0 into +0.0
    rng = np.random.default_rng([first_prt, 3])
    noise_var = 0.0 if snr_db is None else noise_var_for_snr(snr_db)
    spec = imp.ImpairmentSpec.from_clock(
        1.5e-6, cfg, sto_initial=0.4 / cfg.sample_rate, noise_var=noise_var,
        front_end=imp.FrontEndProfile.rippled(cfg, rng=rng))
    plan = wf.plan_hops(cfg, n_prt=45, rng=rng, first_prt=first_prt)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
    frame = wf.synthesize(plan, psk, cfg)
    got = imp.apply(frame, plan, psk, spec, cfg, rng=41).data
    expect = _whole_noise_apply(frame, plan, spec, cfg, 41)
    assert got.tobytes() == expect.tobytes()


def test_apply_holds_its_output_and_one_noise_buffer(cfg, rng):
    # the noise goes into the output one PRT block at a time; beyond the
    # output apply holds the draw's float buffer, one block of mixing
    # scratch and NumPy's iteration buffer for the ramp's broadcast (one
    # NOISE_CHUNK of floats together), its (n_prt, H, M) slot gains and the
    # one-hop ramp, so the margin is the gains and 64 KiB. A whole noise
    # array, one more output's worth, broke this
    plan, psk, frame = _frame(cfg, 2000, rng)
    spec = imp.ImpairmentSpec.from_clock(1e-6, cfg, noise_var=0.5)
    gains = plan.n_prt * cfg.hops_per_pulse * cfg.n_tx * 16
    tracemalloc.start()
    try:
        out = imp.apply(frame, plan, psk, spec, cfg, rng=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.data.nbytes < peak
    assert peak <= out.data.nbytes + 8 * imp.NOISE_CHUNK + gains + 65536


def test_apply_and_read_iq_return_read_only_frames(cfg, rng, tmp_path,
                                                  monkeypatch):
    # synthesize, apply and read_iq hand IqFrame buffers they own, so it
    # copies none, and nothing can change them, not through the hop view
    # either
    handed = []
    take = wf.IqFrame.__post_init__

    def spy(frame):
        handed.append(frame.data.flags.owndata)
        take(frame)

    monkeypatch.setattr(wf.IqFrame, "__post_init__", spy)
    plan, psk, frame = _frame(cfg, 4, rng)
    out = imp.apply(frame, plan, psk, imp.ImpairmentSpec(noise_var=0.1),
                    cfg, rng=3)
    write_iq(tmp_path / "rx.iq", out)
    back = read_iq(tmp_path / "rx.iq")
    assert handed == [True, True, True]
    for rx in (frame, out, back):
        assert not rx.data.flags.writeable
        assert not rx.hops(cfg, rx.n_channels).flags.writeable
        with pytest.raises(ValueError):
            rx.hops(cfg, rx.n_channels)[0, 0, 0] = 0


def _block_rows(cfg):
    # PRTs of one of apply's blocks (a variance of 0 starts no draw)
    return imp.NoiseDraw(cfg, 1, 0.0, None).rows


def _prime_above(n):
    return next(p for p in range(n + 1, 2 * n + 3)
                if all(p % d for d in range(2, int(p ** 0.5) + 1)))


def _count_started_threads(monkeypatch):
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def _recording_steps(blocks, noise_var, recorded):
    # noise_steps' stand-in: 300 steps, each appended to the list passed
    # as the generator before it is given
    for i in range(300):
        recorded.append(i)
        yield i


def _read_draw(stop_at, seen):
    # one reader of a NoiseDraw over the recording steps: after wait(i + 1)
    # step i is recorded, and a close before the end stops the steps early
    # and ends their thread
    recorded = []
    draw = imp.NoiseDraw(SMALL_CFG, 1, 1.0, recorded)
    try:
        for i in range(stop_at):
            draw.wait(i + 1)
            seen.append(len(recorded) > i)
    finally:
        draw.close()
    seen.append(draw._thread is None or not draw._thread.is_alive())


def test_noise_draw_gives_each_block_before_its_wait_returns(monkeypatch):
    # eight readers, each with its own started draw, on a short switch
    # interval: no wait returns before its block is drawn, and every draw's
    # thread has ended once its reader closes, at the end or midway
    monkeypatch.setattr(imp, "usable_cpus", lambda: 2)
    monkeypatch.setattr(imp, "noise_steps", _recording_steps)
    before = set(threading.enumerate())
    started = _count_started_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seen = []
        readers = [threading.Thread(target=_read_draw,
                                    args=(300 - 100 * (r % 3), seen))
                   for r in range(8)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
            assert not reader.is_alive(), "a reader hung"
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == sum(301 - 100 * (r % 3) for r in range(8))
    assert all(seen)
    assert len(started) == 8 + 8           # the readers and their draws
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("prts", ["prime", "ragged"])
@pytest.mark.parametrize("snr_db", [4.0, None], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("cfg", [RadarConfig(), SMALL_CFG],
                         ids=["M2", "M3-K7-H4"])
def test_apply_is_the_whole_array_reference_at_any_cpu_count(
        cfg, snr_db, prts, cpus, monkeypatch):
    # the noise drawn into the output one PRT block at a time (on a
    # started thread with two or more usable CPUs) and each block's mix
    # added onto it, fl(n + m), are the bytes of the whole-array einsum x
    # ramp plus one complex_noise draw, fl(m + n), with the last block
    # short; a variance of 0 writes the mix (the frame holds -0.0
    # components) and starts no thread, nor does one usable CPU
    rows = _block_rows(cfg)
    n_prt = _prime_above(2 * rows) if prts == "prime" else 2 * rows + 5
    monkeypatch.setattr(imp, "usable_cpus", lambda: cpus)
    rng = np.random.default_rng([n_prt, 4])
    noise_var = 0.0 if snr_db is None else noise_var_for_snr(snr_db)
    spec = imp.ImpairmentSpec.from_clock(
        -2e-6, cfg, sto_initial=0.3 / cfg.sample_rate, noise_var=noise_var,
        front_end=imp.FrontEndProfile.rippled(cfg, rng=rng))
    plan, psk, frame = _frame(cfg, n_prt, rng)
    data = frame.data.copy()
    data[:, ::7] = -0.0 - 0.0j
    frame = dataclasses.replace(frame, data=data)
    expect = _whole_noise_apply(frame, plan,
                                dataclasses.replace(spec, noise_var=0.0),
                                cfg, None)
    if noise_var:
        expect += imp.complex_noise(expect.shape, noise_var, 43)
    started = _count_started_threads(monkeypatch)
    got = imp.apply(frame, plan, psk, spec, cfg, rng=43).data
    assert got.tobytes() == expect.tobytes()
    assert len(started) == (cpus > 1 and noise_var > 0)


def _mismatched(cfg, rng):
    plan, psk, frame = _frame(cfg, 40, rng)
    return plan, psk, dataclasses.replace(frame, first_prt=3)


def test_a_refused_apply_draws_nothing_and_starts_no_thread(cfg, rng,
                                                             monkeypatch):
    # the checks run before the draw starts: a frame that does not match
    # its plan is a ConfigError with the noise generator untouched
    monkeypatch.setattr(imp, "usable_cpus", lambda: 2)
    plan, psk, frame = _mismatched(cfg, rng)
    noise = np.random.default_rng(8)
    state = noise.bit_generator.state
    threads = threading.active_count()
    with pytest.raises(ConfigError, match="do not match frame"):
        imp.apply(frame, plan, psk, imp.ImpairmentSpec(noise_var=1.0), cfg,
                  rng=noise)
    assert noise.bit_generator.state == state
    assert threading.active_count() == threads


def test_a_refused_apply_joins_the_draw_it_was_given(cfg, rng, monkeypatch):
    # a draw that the caller started is joined when apply refuses the call
    monkeypatch.setattr(imp, "usable_cpus", lambda: 2)
    plan, psk, frame = _mismatched(cfg, rng)
    threads = threading.active_count()
    draw = imp.NoiseDraw(cfg, frame.n_prt, 1.0, 8)
    with pytest.raises(ConfigError, match="do not match frame"):
        imp.apply(frame, plan, psk, imp.ImpairmentSpec(noise_var=1.0), cfg,
                  rng=draw)
    assert threading.active_count() == threads
    _, _, frame = _frame(cfg, 40, rng)
    with pytest.raises(ConfigError, match="started noise draw"):
        imp.apply(frame, plan, psk, imp.ImpairmentSpec(noise_var=2.0), cfg,
                  rng=imp.NoiseDraw(cfg, frame.n_prt, 1.0, 8))
    assert threading.active_count() == threads


class _Injected(Exception):
    pass


def _failing_einsum(calls):
    # numpy for apply's module, but einsum raises on its third call
    def einsum(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise _Injected
        return np.einsum(*args, **kwargs)

    names = {k: getattr(np, k) for k in dir(np) if not k.startswith("__")}
    return types.SimpleNamespace(**{**names, "einsum": einsum})


@pytest.mark.parametrize("where", ["draw", "mixing"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_apply_raises_and_leaves_no_thread(cfg, rng, monkeypatch,
                                                     where, cpus):
    # an error in the draw (after its first block, on the started thread
    # with two CPUs, else from the calling thread's wait) or in the calling
    # thread's mixing of the third block rises from apply, and the draw's
    # thread has ended
    monkeypatch.setattr(imp, "usable_cpus", lambda: cpus)
    plan, psk, frame = _frame(cfg, 3 * _block_rows(cfg), rng)
    if where == "draw":
        def noise_steps(*args, real=imp.noise_steps):
            steps = real(*args)

            def failing():
                yield next(steps)
                raise _Injected

            return failing()

        monkeypatch.setattr(imp, "noise_steps", noise_steps)
    else:
        monkeypatch.setattr(imp, "np", _failing_einsum([]))
    spec = imp.ImpairmentSpec(noise_var=1.0)
    before = set(threading.enumerate())
    started = _count_started_threads(monkeypatch)
    raised = []

    def run():
        try:
            imp.apply(frame, plan, psk, spec, cfg, rng=5)
        except _Injected as error:
            raised.append(error)

    caller = threading.Thread(target=run)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "apply hung"
    assert len(raised) == 1
    assert len(started) == 1 + (cpus > 1)      # the caller and the draw
    assert set(threading.enumerate()) == before


def _time_domain_mix(plan, psk, spec, cfg):
    """Noiseless received frame of whole PRTs, as a capture stores it, from
    the closed form in the module docstring, each tone evaluated at its
    hop's sample instants:
    sum_m beta_m e^{j phi} e^{j (w + dw)(n/fs + dt_ih)} e^{j dw (i Tp + h T)}.
    """
    M, H, n_hop = cfg.n_tx, cfg.hops_per_pulse, cfg.samples_per_hop
    i = plan.prt_indices()[:, None, None]
    h = np.arange(H)[:, None]
    beta = (spec.front_end or imp.FrontEndProfile.flat(cfg)).response()
    w = 2 * np.pi * cfg.subband_frequency(plan.subband)     # (n_prt, H, M)
    dt = imp.accumulated_sto(i, h, spec, cfg)[..., None]   # (n_prt, H, 1, 1)
    t = np.arange(n_hop) / cfg.sample_rate
    tone = (beta[np.arange(M), plan.subband]
            * np.exp(1j * psk.phases))[..., None] \
        * np.exp(1j * (w + spec.cfo)[..., None] * (t + dt)) \
        * np.exp(1j * spec.cfo * (i * cfg.prt_duration
                                  + h * cfg.hop_duration))[..., None]
    data = np.zeros((1, plan.n_prt, cfg.samples_per_prt), np.complex128)
    data[0, :, :cfg.samples_per_pulse] = tone.sum(axis=2).reshape(
        plan.n_prt, -1)
    return wf.IqFrame(data, cfg.sample_rate, plan.first_prt)


@pytest.mark.parametrize("kw", [{}, {"n_subbands": 7, "n_tx": 3,
                                     "hops_per_pulse": 4, "bandwidth": 7e6,
                                     "sample_rate": 14e6,
                                     "prt_duration": 8e-6}])
def test_noiseless_apply_matches_time_domain_oracle(kw):
    # apply scales the synthesized tones by closed-form factors; the oracle
    # evaluates every impaired tone at its sample instants instead, into a
    # frame of whole PRTs. Without noise the hops agree to float rounding,
    # the receiver decides identically on apply's pulse-only frame and on
    # the oracle's whole PRTs in all four modes, and a generator passed
    # with noise_var = 0 changes no byte
    cfg = RadarConfig(**kw)
    rng = np.random.default_rng(17)
    plan = wf.plan_hops(cfg, n_prt=3 * cfg.n_subbands + 2, rng=rng,
                        first_prt=5)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
    spec = imp.ImpairmentSpec.from_clock(
        -1.7e-6, cfg, sto_initial=0.3 / cfg.sample_rate,
        front_end=imp.FrontEndProfile.rippled(cfg, rng=rng))
    frame = wf.synthesize(plan, psk, cfg)
    out = imp.apply(frame, plan, psk, spec, cfg)
    assert imp.apply(frame, plan, psk, spec, cfg, rng=9).data.tobytes() \
        == out.data.tobytes()
    oracle = _time_domain_mix(plan, psk, spec, cfg)
    assert out.data.shape == (1, plan.n_prt, cfg.samples_per_pulse)
    assert oracle.data.shape == (1, plan.n_prt, cfg.samples_per_prt)
    assert np.allclose(out.hops(cfg, 1), oracle.hops(cfg, 1), rtol=0,
                       atol=1e-12)
    for mode in crx.MODES:
        a = crx.demodulate(out, cfg, 3, mode=mode, spec=spec)
        b = crx.demodulate(oracle, cfg, 3, mode=mode, spec=spec)
        for name in ("slots", "psk_symbol", "fhcs_rows"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), mode
        assert a.n_erased_hops == b.n_erased_hops == 0, mode
        assert np.allclose(a.psk_phase, b.psk_phase, rtol=0, atol=1e-9)
        if mode != "flat":
            truth = psk.symbol_index[~plan.pinned]
            assert np.array_equal(a.psk_symbol, truth), mode


def test_silence_untouched_without_noise(cfg, rng, tmp_path):
    # the impaired pulse-only frame is written with a tail of exact zeros
    plan, psk, frame = _frame(cfg, 4, rng)
    spec = imp.ImpairmentSpec.from_clock(2e-6, cfg, sto_initial=5e-9)
    out = imp.apply(frame, plan, psk, spec, cfg)
    write_iq(tmp_path / "rx.iq", out)
    written = read_iq(tmp_path / "rx.iq").data[0]
    tail = written[:, cfg.samples_per_pulse:]
    assert tail.shape == (4, cfg.samples_per_prt - cfg.samples_per_pulse)
    assert np.all(tail == 0)
    assert np.array_equal(written[:, :cfg.samples_per_pulse],
                          out.data[0].astype(np.complex64))


def test_cfo_range_enforced(cfg):
    with pytest.raises(ConfigError):
        imp.ImpairmentSpec(cfo=np.pi / cfg.prt_duration * 1.01).validate(cfg)


@pytest.mark.parametrize("kw, match", [
    ({"cfo": np.nan}, "cfo, sto_initial and sample_time_offset must be "
                      "finite"),
    ({"sto_initial": np.inf}, "cfo, sto_initial and sample_time_offset "
                              "must be finite"),
    ({"noise_var": -1.0}, "noise_var must be finite and >= 0"),
    ({"front_end": imp.FrontEndProfile(np.ones((2, 7), complex),
                                       np.ones(2, complex))},
     "front-end profile shape mismatch")],
    ids=["cfo-nan", "sto-inf", "noise-negative", "front-end-2x7"])
def test_validate_refuses_each_bad_field(cfg, kw, match):
    # the CLI converts the impairment section to finite numbers and builds
    # the front end from the config, so only a library caller reaches these
    with pytest.raises(ConfigError, match=match):
        imp.ImpairmentSpec(**kw).validate(cfg)


def test_complex_noise_refuses_a_negative_variance():
    with pytest.raises(ConfigError, match="noise_var must be finite and >= 0"):
        imp.complex_noise((2, 3), -1.0, 0)


def test_front_end_ripple_bounds(cfg, rng):
    fe = imp.FrontEndProfile.rippled(cfg, rng=rng, ripple_db=1.0,
                                     ripple_rad=0.2)
    mag_db = 20 * np.log10(np.abs(fe.gains))
    assert np.max(np.abs(mag_db)) == pytest.approx(1.0)
    assert np.max(np.abs(np.angle(fe.gains))) == pytest.approx(0.2)
    with pytest.raises(ConfigError):
        imp.FrontEndProfile(np.zeros((2, 20)), np.ones(2))


# ---------------------------------------------------------------------------
# Spectral closed forms (oracle: hop DFT of the impaired time samples)
# ---------------------------------------------------------------------------

def test_hop_peak_closed_form_exact_single_antenna(rng):
    cfg1 = single_antenna_cfg()
    plan, psk, frame = _frame(cfg1, 8, rng)
    fe = imp.FrontEndProfile.rippled(cfg1, rng=rng)
    spec = imp.ImpairmentSpec.from_clock(1.8e-6, cfg1, sto_initial=9e-9,
                                         front_end=fe)
    out = imp.apply(frame, plan, psk, spec, cfg1, rng=None)
    n = cfg1.samples_per_hop
    for i in (0, 3, 7):
        for h in range(cfg1.hops_per_pulse):
            seg = out.data[0, i, h * n:(h + 1) * n]
            S = np.fft.fft(seg)
            k = int(plan.subband[i, h, 0])
            got = S[cfg1.subband_bin(k)]
            want = imp.expected_hop_peak(i, h, 0, k,
                                         float(psk.phases[i, h, 0]),
                                         spec, cfg1)
            assert got == pytest.approx(want, rel=1e-10)


def test_cfo_window_loss_matches_continuous_form(rng):
    # |S| relative to the ideal N_h equals |A(cfo)|/T up to the
    # discretization error (<< the effect itself)
    cfg1 = single_antenna_cfg()
    plan, psk, frame = _frame(cfg1, 2, rng)
    cfo = 2 * np.pi * 11e3
    spec = imp.ImpairmentSpec(cfo=cfo)
    out = imp.apply(frame, plan, psk, spec, cfg1)
    n = cfg1.samples_per_hop
    seg = out.data[0, 1, 2 * n:3 * n]
    S = np.fft.fft(seg)
    k = int(plan.subband[1, 2, 0])
    measured_loss = np.abs(S[cfg1.subband_bin(k)]) / cfg1.samples_per_hop
    analytic_loss = np.abs(window_gain(cfo, cfg1.hop_duration)) \
        / cfg1.hop_duration
    assert measured_loss == pytest.approx(analytic_loss, rel=1e-4)


def test_pilot_phase_accumulation_against_eq_forms(rng):
    """Measured zero-frequency pilots match the discrete closed form
    exactly; the continuous-integral form matches to the discretization
    bound cfo*T/(2*N_h) across |cfo|*T <= 0.1."""
    # shorter PRT so the |cfo|*T <= 0.1 test range stays inside the
    # |cfo|*T_p < pi estimator validity window
    cfg1 = RadarConfig(n_tx=1, hops_per_pulse=5, prt_duration=10e-6)
    plan, psk, frame = _frame(cfg1, 6, rng)
    for cfo_T in (0.02, 0.05, 0.1):
        cfo = cfo_T / cfg1.hop_duration
        spec = imp.ImpairmentSpec(cfo=cfo, sto_initial=4e-9,
                                  sample_time_offset=-2.5e-13)
        out = imp.apply(frame, plan, psk, spec, cfg1)
        for i in (0, 5):
            seg = out.data[0, i, :cfg1.samples_per_hop]
            measured = np.fft.fft(seg)[0]
            exact = imp.expected_hop_peak(i, 0, 0, cfg1.zero_subband,
                                          0.0, spec, cfg1)
            assert measured == pytest.approx(exact, rel=1e-10)
            # continuous form: window gain A(cfo)/T_s with the absolute-time
            # CFO rotation and the (approximate) accumulated-offset phase
            dt = imp.accumulated_sto(i, 0, spec, cfg1)
            approx = (window_gain(cfo, cfg1.hop_duration)
                      * cfg1.sample_rate
                      * np.exp(1j * cfo * (i * cfg1.prt_duration + dt)))
            bound = cfo_T / (2 * cfg1.samples_per_hop) + 1e-6
            assert abs(measured / approx - 1) < bound


def test_eq6_initial_offset_cross_term_cancels_in_ratios(rng):
    """The cfo*sto_initial cross term (approximated away in the spectral
    model) cancels identically in the pilot ratios the demodulator uses."""
    cfg1 = single_antenna_cfg()
    spec = imp.ImpairmentSpec(cfo=2 * np.pi * 9e3, sto_initial=2.4e-8,
                              sample_time_offset=-5e-14)
    # consecutive-PRT pilot ratio: initial offset drops out exactly
    a = imp.expected_hop_peak(3, 0, 0, cfg1.zero_subband, 0.0, spec, cfg1)
    b = imp.expected_hop_peak(4, 0, 0, cfg1.zero_subband, 0.0, spec, cfg1)
    expect = np.exp(1j * spec.cfo * (cfg1.prt_duration
                                     + cfg1.samples_per_prt
                                     * spec.sample_time_offset))
    assert b / a == pytest.approx(expect, rel=1e-12)
    # the raw cross term itself is small but NOT below 1e-6 rad; the model
    # relies on the cancellation, not on the term being negligible
    assert abs(spec.cfo * spec.sto_initial) < 2e-3
