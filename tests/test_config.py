import dataclasses
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fhmimo import bench, commrx, impairments, waveform
from fhmimo.config import (MAX_ORDER_BITS, SPEED_OF_LIGHT, ConfigError,
                           RadarConfig, check_order_bits, noise_var_for_snr,
                           usable_cpus)


def test_experiment_defaults_sizes(cfg):
    assert cfg.samples_per_prt == 1600
    assert cfg.samples_per_hop == 40
    assert cfg.samples_per_pulse == 200
    assert cfg.prts_per_cpi == 128
    assert cfg.cycles_per_hop == pytest.approx(1.0)


def test_subband_frequencies(cfg):
    # k=0 -> -10 MHz, k=19 -> +9 MHz, zero sub-band at k=10
    assert cfg.subband_frequency(0) == pytest.approx(-10e6)
    assert cfg.subband_frequency(19) == pytest.approx(9e6)
    assert cfg.subband_frequency(10) == 0.0
    assert cfg.zero_subband == 10
    freqs = cfg.subband_frequency(np.arange(20))
    assert np.allclose(np.diff(freqs), 1e6)


def test_subband_frequency_rejects_out_of_range(cfg):
    with pytest.raises(ValueError):
        cfg.subband_frequency(20)
    with pytest.raises(ValueError):
        cfg.subband_frequency(-1)


def test_subband_bins_land_on_integer_bins(cfg):
    bins = cfg.subband_bin(np.arange(20))
    # tone k completes f(k)*T cycles per hop; bin = cycles mod N_h
    expect = np.mod(np.rint(cfg.subband_frequency(np.arange(20))
                            * cfg.hop_duration), 40).astype(int)
    assert np.array_equal(bins, expect)
    assert cfg.subband_bin(cfg.zero_subband) == 0
    assert len(set(map(int, bins))) == 20


def test_odd_subband_count_zero_index():
    c = RadarConfig(n_subbands=5, bandwidth=5e6, sample_rate=5e6,
                    hop_duration=1e-6, prt_duration=40e-6)
    assert c.zero_subband == 3
    assert c.subband_frequency(3) == 0.0


def test_blind_zone_and_ambiguities(cfg):
    assert cfg.blind_range == pytest.approx(750.0)
    assert cfg.unambiguous_range == pytest.approx(6000.0)
    assert cfg.range_bin == pytest.approx(3.75)
    assert cfg.doppler_bin == pytest.approx(195.3125)
    assert cfg.velocity_bin == pytest.approx(
        cfg.wavelength * 195.3125 / 2)
    assert cfg.wavelength == pytest.approx(SPEED_OF_LIGHT / 5.5e9)


def test_pilot_cycle(cfg):
    assert cfg.pilot_offset(23) == 3
    assert cfg.pilot_subband(23) == 13
    assert cfg.pilot_offset(0) == 0
    assert cfg.subband_offset(10) == 0
    assert cfg.subband_offset(13) == 3
    assert cfg.subband_offset(0) == 10


@pytest.mark.parametrize("kw", [
    dict(hop_duration=0.7e-6),          # B*T/K not integer
    dict(n_tx=5),                       # needs H >= M+1
    dict(n_tx=25),                      # more antennas than sub-bands
    dict(prt_duration=4e-6),            # pulse longer than PRT
    dict(sample_rate=10e6),             # undersampled
])
def test_invalid_configs_rejected(kw):
    with pytest.raises(ConfigError):
        RadarConfig(**kw)


@pytest.mark.parametrize("kw, field", [
    (dict(hop_duration=0.7e-6), "hop_duration"),    # B*T/K not integer
    (dict(n_tx=5), "hops_per_pulse"),               # needs H >= M+1
    (dict(n_tx=25), "n_tx"),                # more antennas than sub-bands
    (dict(prt_duration=4e-6), "prt_duration"),      # pulse longer than PRT
    (dict(sample_rate=10e6), "sample_rate"),        # undersampled
    (dict(sample_rate=30.5e6), "hop_duration"),     # 30.5 samples per hop
    (dict(prt_duration=40.01e-6), "prt_duration"),  # 1600.4 per PRT
    (dict(n_subbands=0), "n_subbands"),
    (dict(prts_per_cpi=-1), "prts_per_cpi"),
    (dict(bandwidth=0.0), "bandwidth"),
    (dict(carrier_freq=-5.5e9), "carrier_freq"),
    (dict(hop_duration=float("nan")), "hop_duration"),
])
def test_a_refusal_leads_with_its_field(kw, field):
    # RadarConfig said "counts must be positive", "pulse does not fit in
    # the PRT" and the like; every refusal now leads with the field it
    # names, which the CLI prefixes with "radar.", and a NaN duration is
    # refused too (min() passed it on to round())
    with pytest.raises(ConfigError, match=f"^{field}[ :]"):
        RadarConfig(**kw)


def test_order_bits_rule_is_one_function(cfg):
    # 0..32 bits per symbol are accepted (a float64 phase decodes wider
    # symbols with errors), and every entry point refuses the rest with
    # the one message
    assert MAX_ORDER_BITS == 32
    for order_bits in (0, 1, 32):
        check_order_bits(order_bits)
    plan = waveform.plan_hops(cfg, n_prt=cfg.n_subbands, rng=0)
    frame = waveform.synthesize(
        plan, waveform.make_psk_grid(cfg, plan, 2, rng=0), cfg)
    for order_bits in (-1, 33, 50, 63, 64, 70):
        for refuse in (lambda j: check_order_bits(j),
                       lambda j: bench.data_rate(j, cfg),
                       lambda j: waveform.make_psk_grid(cfg, plan, j),
                       lambda j: commrx.demodulate(frame, cfg, j)):
            with pytest.raises(ConfigError,
                               match=r"^order_bits must be in \[0, 32\]: "
                                     r"the float64 phase"):
                refuse(order_bits)


def test_snr_conversion_is_one_function(cfg):
    # the SNR convention (unit tone power over the per-sample complex noise
    # variance) is written once; below about -3082.5 dB the float power
    # overflowed, and every study and command that read the SNR exited 5
    small = RadarConfig(prts_per_cpi=8)
    for snr_db in (-3082, -40, -16, 0, 7.5, 25, np.float64(-8)):
        assert noise_var_for_snr(snr_db) == 10.0 ** (-float(snr_db) / 10.0)
    assert noise_var_for_snr(np.inf) == 0.0
    for snr_db in (-3083, -4000, -1e308, -np.inf, np.nan):
        for refuse in (
                noise_var_for_snr,
                lambda s: bench.ber_point(small, 3, s, bench.SweepSpec(), 0),
                lambda s: bench.radar_trial(small, bench.SweepSpec(), s, 0,
                                            "dfrc"),
                lambda s: bench.SweepSpec(snr_grid_db=(0, s)),
                lambda s: bench.SweepSpec(radar_snr_grid_db=(s, -8))):
            with pytest.raises(ConfigError,
                               match=re.escape(f"snr_db={snr_db:g} dB ")):
                refuse(snr_db)


@pytest.fixture(scope="module")
def values():
    """One value of each type that derives from ``config.Value``, by name:
    the transmit truth and received frame of a noiseless 45-PRT capture,
    the receiver's memo of that frame and a rippled front end. The plan
    and the pilot table are built from views: a traditional plan keeps a
    slice of an argsort, and the averaged table broadcasts one group's
    entries over every group."""
    cfg = RadarConfig()
    plan = waveform.plan_hops(cfg, n_prt=45, rng=1, first_prt=5)
    psk = waveform.make_psk_grid(cfg, plan, 3, rng=2)
    frame = impairments.apply(waveform.synthesize(plan, psk, cfg), plan, psk,
                              impairments.ImpairmentSpec(), cfg)
    grid = commrx._slot_grid(frame, cfg)
    return {"IqFrame": frame, "PskGrid": psk,
            "HopPlan": waveform.plan_hops(cfg, n_prt=4, mode="traditional",
                                          rng=4),
            "HopGroup": waveform.hop_groups(cfg, plan.prt_indices())[1],
            "FrontEndProfile": impairments.FrontEndProfile.rippled(cfg,
                                                                   rng=3),
            "PilotRatioTable": commrx._averaged_table(grid.blind.table),
            "_SlotGrid": grid, "_BlindEstimate": grid.blind}


@pytest.mark.parametrize("name", [
    "IqFrame", "HopPlan", "PskGrid", "HopGroup", "FrontEndProfile",
    "PilotRatioTable", "_SlotGrid", "_BlindEstimate"])
def test_a_value_holds_read_only_arrays_and_copies_a_view(values, name):
    # every array field refuses writes and owns its memory, no field can be
    # rebound, dataclasses.replace builds a new value that takes read-only
    # arrays as they are, and a view is copied, since its owner can still
    # write it
    value = values[name]
    assert type(value).__name__ == name
    arrays = {k: a for k, a in vars(value).items()
              if isinstance(a, np.ndarray)}
    assert arrays
    for k, a in arrays.items():
        assert a.flags.owndata and not a.flags.writeable, k
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, k, a.copy())
    twin = dataclasses.replace(value)
    assert twin is not value and twin != value
    assert all(getattr(twin, k) is a for k, a in arrays.items())
    owners = {k: a.copy() for k, a in arrays.items()}
    viewed = dataclasses.replace(value, **{k: owner[...]
                                          for k, owner in owners.items()})
    for k, owner in owners.items():
        taken = getattr(viewed, k)
        assert not np.shares_memory(taken, owner), k
        assert np.array_equal(taken, owner) and not taken.flags.writeable
        assert owner.flags.writeable


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="counts the CPUs this process may run on")
def test_a_plain_process_uses_every_cpu_it_may_run_on(monkeypatch):
    # every CPU the affinity mask allows; without one, the CPU count, and
    # 1 where even that is unknown
    assert usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_a_process_multiprocessing_started_uses_one_cpu():
    # a worker's siblings already split the CPUs
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        assert pool.submit(usable_cpus).result() == 1
