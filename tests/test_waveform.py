import dataclasses
import itertools
import math

import numpy as np
import pytest

from fhmimo.config import ConfigError, RadarConfig
from fhmimo import waveform as wf
from fhmimo.iqfile import read_iq, write_iq


# ---------------------------------------------------------------------------
# FHCS codebook
# ---------------------------------------------------------------------------

def test_codebook_experiment_size(cfg):
    assert math.comb(cfg.n_subbands, cfg.n_tx) == 190
    assert wf.codebook_bits(cfg.n_subbands, cfg.n_tx) == 7
    assert 1 << wf.codebook_bits(cfg.n_subbands, cfg.n_tx) == 128


def test_codebook_degenerate_full_pick():
    assert math.comb(5, 5) == 1
    assert wf.codebook_bits(5, 5) == 0
    assert wf.unrank_subsets(np.array([0]), 5, 5).tolist() == [[0, 1, 2, 3, 4]]


def test_codebook_small_against_bruteforce():
    # oracle: plain lexicographic enumeration of 2-subsets of {0,1,2,3}
    brute = sorted(itertools.combinations(range(4), 2))
    assert math.comb(4, 2) == 6
    assert 1 << wf.codebook_bits(4, 2) == 4
    assert wf.codebook_bits(4, 2) == 2
    assert [tuple(s) for s in wf.unrank_subsets(np.arange(6), 4, 2).tolist()
            ] == brute
    assert np.array_equal(wf.rank_subsets(np.array(brute), 4),
                          np.arange(len(brute)))
    # every pool up to 12: the bits address the largest power of two of
    # the C(n, m) subsets, and the ranks run through them in lexicographic
    # order (m = 0 is a hop whose antennas are all pinned)
    for n in range(13):
        for m in range(n + 1):
            total = math.comb(n, m)
            bits = wf.codebook_bits(n, m)
            assert 1 << bits <= total < 2 << bits
            brute = np.array(list(itertools.combinations(range(n), m)),
                             dtype=np.int64).reshape(total, m)
            assert np.array_equal(
                wf.unrank_subsets(np.arange(total), n, m), brute)
            assert np.array_equal(wf.rank_subsets(brute, n),
                                  np.arange(total))


def test_rank_unrank_roundtrip_bulk(rng):
    n, m = 17, 4
    brute = list(itertools.combinations(range(n), m))
    idx = rng.integers(0, len(brute), size=200)
    subsets = np.array([brute[i] for i in idx])
    assert np.array_equal(wf.rank_subsets(subsets, n), idx)
    assert np.array_equal(wf.unrank_subsets(idx, n, m), subsets)


def test_codebook_rejects_overfull():
    with pytest.raises(ConfigError, match="more sub-bands than available"):
        wf.codebook_bits(3, 4)


# ---------------------------------------------------------------------------
# Pilot layout and plans
# ---------------------------------------------------------------------------

def _hop_layout(cfg, prt_index):
    """Per hop of one PRT: the pinned (antenna -> sub-band) map and the
    FHCS bit width, read from ``hop_groups``."""
    pins = [None] * cfg.hops_per_pulse
    bits = [None] * cfg.hops_per_pulse
    for g in wf.hop_groups(cfg, np.array([prt_index])):
        pins[g.hop] = {a: int(k) for a, k in zip(g.pin_ants, g.pin_ks[0])}
        bits[g.hop] = g.bits
    return pins, bits


def test_pinned_unrolling_two_antennas(cfg):
    # direct unrolling for M=2, H=5 on a PRT with nonzero pilot offset:
    # hop0: ant0@zero; hop1: ant1@zero + ant0@pilot; hop2: ant1@pilot
    pins, _ = _hop_layout(cfg, 23)
    k0, kp = 10, 13
    assert pins[0] == {0: k0}
    assert pins[1] == {1: k0, 0: kp}
    assert pins[2] == {1: kp}
    assert pins[3] == {} and pins[4] == {}


def test_pinned_unrolling_zero_offset_prt(cfg):
    # cycled pilot would collide with the zero pilots; it is skipped
    pins, _ = _hop_layout(cfg, 20)
    assert pins[0] == {0: 10}
    assert pins[1] == {1: 10}
    assert pins[2] == {}


def test_plan_pilot_structure_per_prt(cfg, rng):
    plan = wf.plan_hops(cfg, n_prt=40, rng=rng)
    for i in range(40):
        for m in range(cfg.n_tx):
            # exactly one zero-frequency pilot per (PRT, antenna)
            zero_hops = np.flatnonzero(
                plan.pinned[i, :, m]
                & (plan.subband[i, :, m] == cfg.zero_subband))
            if cfg.pilot_offset(i) == 0:
                assert list(zero_hops) == [m]
            else:
                cycled = np.flatnonzero(
                    plan.pinned[i, :, m]
                    & (plan.subband[i, :, m] == cfg.pilot_subband(i)))
                assert list(zero_hops) == [m]
                assert list(cycled) == [m + 1]


def test_plan_no_subband_reuse_within_hop(cfg, rng):
    # within-hop sub-band uniqueness holds by construction; check over
    # 1e4 random hops including zero-offset PRT indices
    plan = wf.plan_hops(cfg, n_prt=2000, rng=rng)
    sb = np.sort(plan.subband, axis=2)
    assert np.all(sb[:, :, 1:] != sb[:, :, :-1])


def test_plan_payload_ascending_among_free_antennas(cfg, rng):
    plan = wf.plan_hops(cfg, n_prt=200, rng=rng)
    free = ~plan.pinned
    for i in range(200):
        for h in range(cfg.hops_per_pulse):
            ks = plan.subband[i, h, free[i, h]]
            assert np.all(np.diff(ks) > 0)


def test_fhcs_roundtrip_identity(cfg, rng):
    bits = rng.integers(0, 2, size=60000, dtype=np.uint8)
    plan = wf.plan_hops(cfg, fhcs_bits=bits, n_prt=2000)
    back = wf.extract_payload_bits(plan, cfg)
    assert np.array_equal(back, bits[:back.size])
    # the plan read exactly these bits: they rebuild it, one fewer is short
    again = wf.plan_hops(cfg, fhcs_bits=back, n_prt=2000)
    assert np.array_equal(again.subband, plan.subband)
    with pytest.raises(wf.PayloadLengthError):
        wf.plan_hops(cfg, fhcs_bits=back[:-1], n_prt=2000)


@pytest.mark.parametrize("kw, first_prt", [
    ({}, 0),
    (dict(n_subbands=7, n_tx=3, hops_per_pulse=6, bandwidth=7e6,
          sample_rate=14e6, prt_duration=8e-6), 5)],
    ids=["default", "K7-M3-H6"])
def test_payload_codewords_against_bruteforce(kw, first_prt, rng):
    # oracle: walk (PRT, hop) in order; a hop's codeword is the rank of its
    # free antennas' sorted sub-bands among the combinations of the
    # sub-bands no pilot takes, and only hops whose codebook carries bits
    # have a row
    cfg = RadarConfig(**kw)
    plan = wf.plan_hops(cfg, n_prt=2 * cfg.n_subbands + 3, rng=rng,
                        first_prt=first_prt)
    rows = []
    for i in range(plan.n_prt):
        for h in range(cfg.hops_per_pulse):
            pin = plan.pinned[i, h]
            pool = [k for k in range(cfg.n_subbands)
                    if k not in plan.subband[i, h, pin]]
            free = tuple(sorted(plan.subband[i, h, ~pin]))
            n_bits = wf.codebook_bits(len(pool), len(free))
            if n_bits:
                codebook = list(itertools.combinations(pool, len(free)))
                rows.append((first_prt + i, h, n_bits,
                             codebook.index(free)))
    want = np.array(rows, dtype=np.int64).T
    got = wf.payload_codewords(plan, cfg)
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_plan_bits_exhausted(cfg):
    with pytest.raises(wf.PayloadLengthError):
        wf.plan_hops(cfg, fhcs_bits=np.ones(10, dtype=np.uint8), n_prt=40)


def test_plan_hops_refuses_an_empty_plan_and_an_unknown_mode(cfg):
    for mode in ("dfrc", "traditional"):
        with pytest.raises(ConfigError, match="n_prt must be >= 1"):
            wf.plan_hops(cfg, n_prt=0, mode=mode, rng=0)
    with pytest.raises(ValueError, match="unknown plan mode 'fhcs'"):
        wf.plan_hops(cfg, n_prt=3, mode="fhcs", rng=0)


def test_per_prt_capacity(cfg):
    # M=2, K=20: hops carry floor(log2(C(19,1)))=4, 0, 4, 7, 7 bits on a
    # regular PRT; the zero-offset PRT frees the cycled-pilot slots
    assert _hop_layout(cfg, 1)[1] == [4, 0, 4, 7, 7]
    assert _hop_layout(cfg, 0)[1] == [4, 4, 7, 7, 7]


def test_traditional_plan(cfg, rng):
    plan = wf.plan_hops(cfg, n_prt=500, mode="traditional", rng=rng)
    assert not plan.pinned.any()
    sb = np.sort(plan.subband, axis=2)
    assert np.all(sb[:, :, 1:] != sb[:, :, :-1])
    # antenna order random: ascending everywhere would be astronomically rare
    ordered = np.all(np.diff(plan.subband, axis=2) > 0, axis=2)
    assert not ordered.all()


# ---------------------------------------------------------------------------
# PSK grid / Gray mapping
# ---------------------------------------------------------------------------

def test_gray_mapping_roundtrip():
    for j in (1, 2, 3, 4):
        p = np.arange(1 << j)
        g = wf.gray_encode(p)
        assert sorted(g) == list(p)
        assert np.array_equal(wf.gray_decode(g), p)
        # adjacent constellation positions differ in exactly one bit
        ring = np.bitwise_count((g ^ np.roll(g, -1)).astype(np.uint64))
        assert np.all(ring == 1)


def test_psk_grid_phases(cfg, rng):
    plan = wf.plan_hops(cfg, n_prt=30, rng=rng)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
    assert psk.phases.shape == plan.subband.shape
    assert np.all(psk.phases[plan.pinned] == 0.0)
    assert np.all(psk.symbol_index[plan.pinned] == -1)
    on_grid = psk.phases[~plan.pinned] * 8 / (2 * np.pi)
    assert np.allclose(on_grid, np.round(on_grid))


def test_psk_bits_roundtrip(cfg, rng):
    plan = wf.plan_hops(cfg, n_prt=30, rng=rng)
    n_slots = int((~plan.pinned).sum())
    # a twin of the grid's generator draws the bits the grid carries
    bits = np.random.default_rng(7).integers(0, 2, size=n_slots * 4,
                                             dtype=np.uint8)
    psk = wf.make_psk_grid(cfg, plan, 4, rng=np.random.default_rng(7))
    # each payload slot carries the next 4 bits, MSB first, Gray-coded
    patterns = bits.reshape(-1, 4) @ (1 << np.arange(3, -1, -1))
    assert np.array_equal(wf.gray_encode(psk.symbol_index[~plan.pinned]),
                          patterns)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_synthesize_zero_subband_is_constant(cfg, rng):
    plan = wf.plan_hops(cfg, n_prt=5, rng=rng)
    frame = wf.synthesize(plan, wf.make_psk_grid(cfg, plan, 0), cfg)
    # hop 0 pins antenna 0 to the zero sub-band: constant-one samples
    seg = frame.data[0, 0, :cfg.samples_per_hop]
    assert np.allclose(seg, 1.0)


def test_synthesize_frame_layout(cfg, rng, tmp_path):
    # each 1600-sample PRT stores its 200 pulse samples, all active; the
    # silence is not stored, and the written FHIQ file holds it as a tail
    # of 1400 exact zeros per PRT
    plan = wf.plan_hops(cfg, n_prt=3, rng=rng)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
    frame = wf.synthesize(plan, psk, cfg)
    assert frame.data.shape == (2, 3, 200)
    assert frame.samples_per_prt == 1600 and frame.n_samples == 3 * 1600
    assert np.all(np.abs(frame.data) > 0.99)
    write_iq(tmp_path / "tx.iq", frame)
    written = read_iq(tmp_path / "tx.iq").data
    assert written.shape == (2, 3, 1600)
    assert np.all(np.abs(written[:, :, :200]) > 0.99)
    assert np.all(written[:, :, 200:] == 0)


def test_frame_refuses_a_lost_prt_length(cfg, rng):
    # rebuilding a pulse-only frame from its data alone drops the PRT
    # length: the result is a frame of 200-sample PRTs, and hops() refuses
    # it naming the stored and the PRT lengths
    plan = wf.plan_hops(cfg, n_prt=2, rng=rng)
    frame = wf.synthesize(plan, wf.make_psk_grid(cfg, plan, 0), cfg)
    lost = wf.IqFrame(frame.data * 2, frame.sample_rate)
    assert lost.samples_per_prt == 200
    with pytest.raises(ConfigError, match=r"storing 200 samples of "
                                          r"200-sample PRTs.*2 of 1600"):
        lost.hops(cfg, 2)
    kept = wf.IqFrame(frame.data * 2, frame.sample_rate,
                      samples_per_prt=frame.samples_per_prt)
    assert np.array_equal(kept.hops(cfg, 2), 2 * frame.hops(cfg, 2))
    # a frame storing less than the pulse has no hop view
    short = wf.IqFrame(frame.data[:, :, :120], frame.sample_rate,
                       samples_per_prt=1600)
    with pytest.raises(ConfigError, match=r"storing 120 samples of "
                                          r"1600-sample PRTs.*200-sample "
                                          r"pulses"):
        short.hops(cfg, 2)
    # and no frame stores more samples than a PRT has
    with pytest.raises(ConfigError, match="stores 200 samples of "
                                          "100-sample PRTs"):
        wf.IqFrame(frame.data, frame.sample_rate, samples_per_prt=100)


def test_a_negative_first_prt_is_refused(cfg):
    # plan_hops(first_prt=-2) -> synthesize -> write_iq wrote a file with
    # first_prt=-2 that read_iq refused as a bad header, and apply raised
    # a bare ValueError from accumulated_sto: a capture starts at PRT >= 0
    for mode in ("dfrc", "traditional"):
        with pytest.raises(ConfigError, match="first_prt must be >= 0"):
            wf.plan_hops(cfg, n_prt=3, mode=mode, rng=0, first_prt=-2)
    plan = wf.plan_hops(cfg, n_prt=3, rng=0)
    psk = wf.make_psk_grid(cfg, plan, 0)
    frame = wf.synthesize(plan, psk, cfg)
    with pytest.raises(ConfigError, match="first_prt must be >= 0"):
        dataclasses.replace(frame, first_prt=-2)
    with pytest.raises(ConfigError, match="first_prt must be >= 0"):
        wf.synthesize(dataclasses.replace(plan, first_prt=-2), psk, cfg)
    # a refused frame leaves the caller's array as it was
    data = np.zeros((1, 2, 8), complex)
    with pytest.raises(ConfigError, match="first_prt must be >= 0"):
        wf.IqFrame(data, 1.0, first_prt=-1)
    assert data.flags.writeable


def test_synthesize_refuses_a_grid_of_another_plan(cfg, rng):
    plan = wf.plan_hops(cfg, n_prt=3, rng=rng)
    longer = wf.plan_hops(cfg, n_prt=4, rng=rng)
    with pytest.raises(ValueError, match="psk grid does not match plan"):
        wf.synthesize(plan, wf.make_psk_grid(cfg, longer, 3, rng=rng), cfg)


def test_frame_hops_is_a_read_only_view(cfg, rng):
    # hop h of PRT i is samples [h*n_hop, (h+1)*n_hop) of that PRT, read
    # through a view of the frame's samples that, like them, refuses writes
    plan = wf.plan_hops(cfg, n_prt=3, rng=rng, first_prt=4)
    frame = wf.synthesize(plan, wf.make_psk_grid(cfg, plan, 0), cfg)
    assert frame.first_prt == 4
    hops = frame.hops(cfg, 2)
    assert hops.shape == (2, 3, 5, 40)
    assert np.shares_memory(hops, frame.data)
    assert np.array_equal(hops[1, 2, 3], frame.data[1, 2, 120:160])
    for samples in (hops[1, 2, 3], frame.data[1, 2, 120:160]):
        with pytest.raises(ValueError, match="read-only"):
            samples[:] = 7.0
    with pytest.raises(ConfigError):
        frame.hops(cfg, 1)


def test_frame_is_a_frozen_value_hashed_by_identity(cfg, rng):
    # fields cannot be rebound, two frames over the same samples are two
    # keys, and the samples are read-only: an array that owns its memory
    # is taken as it is, a view is copied, since its owner can still write
    plan = wf.plan_hops(cfg, n_prt=3, rng=rng)
    frame = wf.synthesize(plan, wf.make_psk_grid(cfg, plan, 0), cfg)
    twin = dataclasses.replace(frame)
    assert twin.data is frame.data and twin != frame
    assert len({frame, twin}) == 2
    for name, value in (("data", frame.data[:1]), ("first_prt", 1),
                        ("sample_rate", 1.0), ("samples_per_prt", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, name, value)
    assert not frame.data.flags.writeable and frame.data.flags.owndata
    assert wf.IqFrame(frame.data, 1.0).samples_per_prt == frame.data.shape[2]
    owned = np.zeros((1, 2, 8), complex)
    assert wf.IqFrame(owned, 1.0).data is owned
    assert not owned.flags.writeable
    buf = np.zeros((1, 2, 8), complex)
    viewed = wf.IqFrame(buf[:, :, :4], 1.0, samples_per_prt=8)
    assert not np.shares_memory(viewed.data, buf)
    assert buf.flags.writeable and not viewed.data.flags.writeable


def test_synthesize_hop_orthogonality_exact(cfg, rng):
    # inter-antenna inner product over any hop is exactly zero (integer
    # cycles per hop); check 1e4 random hops
    plan = wf.plan_hops(cfg, n_prt=2000, rng=rng)
    psk = wf.make_psk_grid(cfg, plan, 4, rng=rng)
    frame = wf.synthesize(plan, psk, cfg)
    hops = frame.hops(cfg, 2)
    inner = np.einsum("ihn,ihn->ih", hops[0], hops[1].conj())
    assert np.max(np.abs(inner)) < 1e-9


def test_synthesize_tone_frequencies(cfg, rng):
    plan = wf.plan_hops(cfg, n_prt=4, rng=rng)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
    frame = wf.synthesize(plan, psk, cfg)
    for i in (0, 3):
        for h in range(5):
            seg = frame.hops(cfg, 2)[:, i, h]
            spec = np.fft.fft(seg, axis=1)
            for m in range(2):
                b = np.argmax(np.abs(spec[m]))
                assert b == cfg.subband_bin(plan.subband[i, h, m])
                # peak carries the PSK phase (compare wrapped)
                dphi = np.angle(spec[m, b]) - float(psk.phases[i, h, m])
                assert abs((dphi + np.pi) % (2 * np.pi) - np.pi) < 1e-9
