import contextlib
import inspect
import io
import json
import math
import re
import tempfile
import tracemalloc
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhmimo import bench, cli, commrx, config, iqfile
from fhmimo import impairments as imp
from fhmimo import radarrx as rrx
from fhmimo import waveform as wf
from fhmimo.config import ConfigError, RadarConfig
from fhmimo.iqfile import IqFrame, IqFormatError, read_iq, write_iq


def run_cli(*args):
    return cli.main(list(args))


@pytest.fixture
def cfg_file(tmp_path):
    cfg = {
        "radar": {"prts_per_cpi": 20},
        "impairment": {"rho": 1e-6, "sto_initial": 7.5e-9, "snr_db": 25,
                       "front_end": "rippled"},
        "sweep": {"snr_grid_db": [0], "modulations": [3],
                  "hop_durations": [1e-6], "min_symbols": 1500,
                  "trials": 1, "n_targets": 3,
                  "radar_snr_grid_db": [-24], "angle_grid_points": 256},
        "run": {"seed": 3, "n_prt": 20},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_iq_file_roundtrip(tmp_path, rng):
    # exact at float32 storage, -0.0 and infinities included; the frame
    # comes back complex64 and read-only
    shape = (3, 2, 320)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    data[0, 0, :4] = [complex(-0.0, 1), complex(1, -0.0), complex(1, np.inf),
                      complex(-np.inf, np.nan)]
    frame = IqFrame(data, 40e6)
    write_iq(tmp_path / "x.iq", frame)
    # a capture from PRT 0 writes no first_prt key, and reads back as 0
    assert b"first_prt" not in (tmp_path / "x.iq").read_bytes()[:200]
    back = read_iq(tmp_path / "x.iq")
    assert back.sample_rate == 40e6
    assert back.samples_per_prt == 320 and back.first_prt == 0
    assert back.data.dtype == np.complex64
    assert not back.data.flags.writeable
    with pytest.raises(ValueError):
        back.data[0, 0, 0] = 0
    assert back.data.tobytes() == data.astype(np.complex64).tobytes()


def test_pulse_only_frame_writes_its_zero_tail(tmp_path, cfg):
    # a frame that stores only each PRT's pulse writes the same FHIQ bytes
    # as the same frame padded to whole PRTs by hand, and reads back as a
    # whole-PRT frame with equal hops
    plan = wf.plan_hops(cfg, n_prt=4, rng=3, first_prt=2)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=4)
    tx = wf.synthesize(plan, psk, cfg)
    rx = imp.apply(tx, plan, psk, imp.ImpairmentSpec(noise_var=0.5), cfg,
                   rng=5)
    E = cfg.samples_per_pulse
    for name, frame in (("tx", tx), ("rx", rx)):
        assert frame.data.shape[2] == E
        padded = np.zeros(frame.data.shape[:2] + (cfg.samples_per_prt,),
                          complex)
        padded[:, :, :E] = frame.data
        write_iq(tmp_path / f"{name}.iq", frame)
        write_iq(tmp_path / f"{name}-padded.iq",
                 IqFrame(padded, frame.sample_rate, frame.first_prt))
        assert (tmp_path / f"{name}.iq").read_bytes() \
            == (tmp_path / f"{name}-padded.iq").read_bytes()
        back = read_iq(tmp_path / f"{name}.iq")
        assert back.data.shape[2] == back.samples_per_prt \
            == cfg.samples_per_prt
        assert back.first_prt == 2
        n = frame.n_channels
        assert np.array_equal(back.hops(cfg, n),
                              frame.hops(cfg, n).astype(np.complex64))


def test_write_iq_holds_its_interleaved_samples_once(tmp_path, cfg):
    # writing a 500-PRT pulse-only frame (a 6.4 MB payload) holds one
    # float32 block of about iqfile.BLOCK_BYTES at a time: no bytes copy of
    # the payload, which doubled the peak, and no whole-payload array
    plan = wf.plan_hops(cfg, n_prt=500, rng=3)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=4)
    rx = imp.apply(wf.synthesize(plan, psk, cfg), plan, psk,
                   imp.ImpairmentSpec(), cfg)
    payload = rx.n_channels * rx.n_samples * 8
    tracemalloc.start()
    try:
        write_iq(tmp_path / "rx.iq", rx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * iqfile.BLOCK_BYTES < payload / 4
    assert (tmp_path / "rx.iq").stat().st_size > payload


def _whole_array_bytes(header: bytes, data, length) -> bytes:
    """The FHIQ payload as one interleaved float32 copy of ``data``."""
    stored = data.shape[-1]
    interleaved = np.zeros(data.shape[:-1] + (length, 2), np.float32)
    interleaved[..., :stored, 0] = data.real
    interleaved[..., :stored, 1] = data.imag
    return header + interleaved.tobytes()


@pytest.mark.parametrize("channels, n_prt, stored", [
    (2, 700, 1600), (1, 90, 200), (3, 333, 1600)],
    ids=["two-channels", "pulse-only", "prts-not-a-multiple-of-the-block"])
def test_blocked_writer_gives_the_whole_array_bytes(tmp_path, rng, channels,
                                                    n_prt, stored):
    # the writers fill and write blocks of whole rows; the file is the
    # bytes of one interleaved copy of the whole array, the zero tail of a
    # pulse-only frame and a last, partial block included
    data = (rng.standard_normal((channels, n_prt, stored))
            + 1j * rng.standard_normal((channels, n_prt, stored)))
    rows = iqfile.BLOCK_BYTES // (8 * 1600)
    assert channels * n_prt > rows and channels * n_prt % rows
    for frame in (IqFrame(data, 40e6, samples_per_prt=1600),
                  IqFrame(data.astype(np.complex64), 40e6, first_prt=3,
                          samples_per_prt=1600)):
        write_iq(tmp_path / "x.iq", frame)
        got = (tmp_path / "x.iq").read_bytes()
        head = got[:got.index(b"data\n") + 5]
        assert got == _whole_array_bytes(head, frame.data, 1600)
    cube = data.transpose(1, 0, 2).copy()      # (Doppler, channel, range)
    rdm = rrx.RangeDopplerMap(cube, RadarConfig())
    iqfile.write_rdm(tmp_path / "rdm.bin", rdm)
    got = (tmp_path / "rdm.bin").read_bytes()
    head = got[:got.index(b"data\n") + 5]
    assert got == _whole_array_bytes(head, cube, stored)


def test_iq_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.iq"
    p.write_bytes(b"NOTIQ\nx=1\ndata\n")
    with pytest.raises(IqFormatError):
        read_iq(p)
    head = b"FHIQ1\nsample_rate=1\nchannels=%d\nsamples=%d\n" \
           b"samples_per_prt=5\ndata\n"
    rate = b"FHIQ1\nsample_rate=%s\nchannels=1\nsamples=10\n" \
           b"samples_per_prt=5\ndata\n"
    # short payload, one trailing byte, a header claiming 1e12 samples
    # (checked before allocating), negative counts whose product fits, no
    # channels, no PRT, and a NaN or negative sample rate
    for bad in (head % (2, 10) + b"\x00\x00",
                head % (2, 10) + bytes(161),
                head % (1, 10 ** 12) + bytes(80),
                head % (-2, -10) + bytes(160),
                head % (0, 10),
                head % (1, 0),
                rate % b"nan" + bytes(80),
                rate % b"-4e7" + bytes(80)):
        p.write_bytes(bad)
        with pytest.raises(IqFormatError):
            read_iq(p)


@pytest.mark.parametrize("header, match", [
    (b"FHIQ1\nsample_rate\ndata\n", "bad header line 'sample_rate'"),
    (b"FHIQ1\nsample_rate=1\nchannels=1\ndata\n",
     "incomplete header: 'samples'")],
    ids=["line-without-a-value", "no-samples-key"])
def test_read_iq_names_what_is_wrong_with_a_header(tmp_path, header, match):
    p = tmp_path / "bad.iq"
    p.write_bytes(header + bytes(80))
    with pytest.raises(IqFormatError, match=match):
        read_iq(p)


def test_write_csv_writes_numpy_scalars_as_plain_numbers(tmp_path):
    iqfile.write_csv(tmp_path / "x.csv", ["n", "x"],
                     [(np.int64(-7), np.float32(0.5))])
    assert (tmp_path / "x.csv").read_text() == "n,x\n-7,0.5\n"


def test_txgen_writes_outputs(cfg_file, tmp_path):
    out = tmp_path / "tx"
    assert run_cli("--config", str(cfg_file), "--out", str(out),
                   "txgen") == 0
    frame = read_iq(out / "tx.iq")
    assert frame.n_channels == 2
    assert frame.n_samples == 20 * 1600
    plan_text = (out / "plan.txt").read_text()
    assert plan_text.splitlines()[1] == "prt,hop,antenna,subband,pinned,phase"
    assert len(plan_text.splitlines()) == 2 + 20 * 5 * 2
    assert (out / "effective_config.json").exists()


def test_txgen_payload_file_and_exhaustion(cfg_file, tmp_path):
    payload = tmp_path / "bits.txt"
    payload.write_text("10" * 40)
    cfg = json.loads(cfg_file.read_text())
    cfg["run"]["payload_file"] = str(payload)
    bad = tmp_path / "cfg2.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli("--config", str(bad), "--out", str(tmp_path / "o"),
                   "txgen") == cli.EXIT_PAYLOAD


def test_a_payload_file_without_bits_exits_4(cfg_file, tmp_path, capsys):
    payload = tmp_path / "bits.txt"
    payload.write_text("no binary digits here\n")
    cfg = json.loads(cfg_file.read_text())
    cfg["run"]["payload_file"] = str(payload)
    p = tmp_path / "cfg2.json"
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "txgen") == cli.EXIT_PAYLOAD == 4
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "payload",
                     "message": f"no payload bits found in {payload}"}


def test_comm_end_to_end_and_determinism(cfg_file, tmp_path):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    for out in (out1, out2):
        assert run_cli("--config", str(cfg_file), "--out", str(out),
                       "comm", "--mode", "estimated") == 0
    assert (out1 / "demod.csv").read_bytes() == (out2 / "demod.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == \
        (out2 / "summary.json").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    # noiseless-ish run over a 20-PRT CPI recovers everything
    assert summary["fhcs_ber"] == 0.0
    assert summary["n_psk_symbols"] == 20 * 6 + 2  # zero-offset PRT frees 2


def test_comm_known_mode_identity(cfg_file, tmp_path):
    cfg = json.loads(cfg_file.read_text())
    cfg["impairment"] = {}
    p = tmp_path / "cfg3.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "ck"
    assert run_cli("--config", str(p), "--out", str(out), "comm",
                   "--mode", "known") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["psk_ber"] == 0.0 and summary["fhcs_ber"] == 0.0


def test_comm_without_pilot_pairs_erases_everything(cfg_file, tmp_path):
    cfg = json.loads(cfg_file.read_text())
    cfg["impairment"]["snr_db"] = -20
    p = tmp_path / "cfg_low.json"
    p.write_text(json.dumps(cfg))
    for mode in ("estimated", "averaged", "flat"):
        out = tmp_path / f"low_{mode}"
        assert run_cli("--config", str(p), "--out", str(out), "comm",
                       "--mode", mode) == 0
        summary = json.loads((out / "summary.json").read_text())
        # no sync estimate: null, not a 0.0 that reads like one
        assert summary["cfo_hat"] is summary["rho_hat"] is None
        assert summary["sample_time_offset_hat"] is None
        assert summary["n_erased_slots"] == summary["n_psk_symbols"] > 0
        assert summary["psk_ber"] == 0.5 and summary["fhcs_ber"] == 0.5


def test_comm_from_iq_file(cfg_file, tmp_path):
    out_tx = tmp_path / "tx"
    run_cli("--config", str(cfg_file), "--out", str(out_tx), "txgen")
    cfg = json.loads(cfg_file.read_text())
    cfg["run"]["iq_file"] = str(out_tx / "tx.iq")
    # transmit frames are multi-channel; the comm receiver wants one stream.
    # Build a single-stream capture by summing antennas (identity channel).
    frame = read_iq(out_tx / "tx.iq")
    merged = IqFrame(frame.data.sum(axis=0, keepdims=True),
                     frame.sample_rate)
    write_iq(out_tx / "rx.iq", merged)
    cfg["run"]["iq_file"] = str(out_tx / "rx.iq")
    p = tmp_path / "cfg4.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "cf"
    assert run_cli("--config", str(p), "--out", str(out), "comm") == 0
    lines = (out / "demod.csv").read_text().splitlines()
    assert lines[1].startswith("prt,hop,antenna")
    assert len(lines) == 2 + 20 * 6 + 2
    # a capture skips make_psk_grid; demodulate checks order_bits itself,
    # and a capture is complex64, decoded at no more than 16 bits a symbol
    for order_bits, code in ((-1, cli.EXIT_CONFIG), (16, cli.EXIT_OK),
                             (17, cli.EXIT_CONFIG)):
        cfg["run"]["order_bits"] = order_bits
        p.write_text(json.dumps(cfg))
        assert run_cli("--config", str(p), "--out", str(out), "comm") == code


def test_comm_with_a_missing_capture_writes_no_config(tmp_path, capsys):
    # comm echoed effective_config.json before it read run.iq_file, so a
    # missing capture left a directory that read like a finished run
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"run": {"iq_file": str(tmp_path / "nope.iq")}}))
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(out),
                   "comm") == cli.EXIT_IO == 3
    assert json.loads(capsys.readouterr().err)["error"] == "io"
    assert not (out / "effective_config.json").exists()
    assert not out.exists()


def test_iq_frame_rejects_partial_prt(tmp_path):
    # an IqFrame holds whole PRTs only, so a file whose samples do not fill
    # them (1000 samples of 1600-sample PRTs, or 0-sample PRTs) is rejected
    # where it is read
    path = tmp_path / "partial.iq"
    for spp in (1600, 0):
        path.write_bytes(b"FHIQ1\nsample_rate=40000000\nchannels=1\n"
                         b"samples=1000\nsamples_per_prt=%d\ndata\n" % spp
                         + bytes(8000))
        with pytest.raises(IqFormatError, match="whole number"):
            read_iq(path)


def test_comm_rejects_iq_file_with_partial_prt(cfg_file, tmp_path):
    # 1000 samples is not a whole number of 1600-sample PRTs; IqFrame
    # cannot hold such a frame, so the file is written by hand
    path = tmp_path / "partial.iq"
    path.write_bytes(b"FHIQ1\nsample_rate=40000000\nchannels=1\n"
                     b"samples=1000\nsamples_per_prt=1600\ndata\n"
                     + np.zeros((1000, 2), dtype=np.float32).tobytes())
    with pytest.raises(IqFormatError):
        read_iq(path)
    cfg = json.loads(cfg_file.read_text())
    cfg["run"]["iq_file"] = str(path)
    p = tmp_path / "cfg5.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == cli.EXIT_IO == 3


def test_comm_rejects_iq_file_without_a_prt(cfg_file, tmp_path, capsys):
    # a header of 0 samples read as a frame of no PRT: comm exited 0 with
    # an empty demod.csv and a summary of nulls, which measure nothing
    path = tmp_path / "empty.iq"
    path.write_bytes(b"FHIQ1\nsample_rate=40000000\nchannels=1\n"
                     b"samples=0\nsamples_per_prt=1600\ndata\n")
    cfg = json.loads(cfg_file.read_text())
    cfg["run"]["iq_file"] = str(path)
    p = tmp_path / "cfg8.json"
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == cli.EXIT_IO == 3
    assert "samples=0" in json.loads(capsys.readouterr().err)["message"]
    assert not list((tmp_path / "o").glob("*.csv"))
    assert not (tmp_path / "o" / "summary.json").exists()


def test_comm_rejects_iq_file_of_another_config(cfg_file, tmp_path):
    # 800-sample PRTs at 20 MHz: not the configured 1600 at 40 MHz
    path = tmp_path / "other.iq"
    write_iq(path, IqFrame(np.ones((1, 4, 800), dtype=complex), 20e6))
    cfg = json.loads(cfg_file.read_text())
    cfg["run"]["iq_file"] = str(path)
    p = tmp_path / "cfg6.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == cli.EXIT_CONFIG == 2


def test_comm_rejects_iq_file_that_is_not_one_stream(cfg_file, tmp_path):
    # txgen's two transmit streams used to demodulate as antenna 0 alone,
    # and a file of no channels to exit 5 on an index error
    out_tx = tmp_path / "tx"
    assert run_cli("--config", str(cfg_file), "--out", str(out_tx),
                   "txgen") == 0
    empty = tmp_path / "empty.iq"
    empty.write_bytes(b"FHIQ1\nsample_rate=40000000\nchannels=0\n"
                      b"samples=1600\nsamples_per_prt=1600\ndata\n")
    cfg = json.loads(cfg_file.read_text())
    p = tmp_path / "cfg7.json"
    for path, code in ((out_tx / "tx.iq", cli.EXIT_CONFIG),
                       (empty, cli.EXIT_IO)):
        cfg["run"]["iq_file"] = str(path)
        p.write_text(json.dumps(cfg))
        assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                       "comm") == code


def test_iq_file_carries_first_prt(tmp_path):
    # a capture that starts at PRT 7 keeps its pilot-cycle phase through
    # the file and demodulates error-free in every mode
    cfg = RadarConfig()
    rng = np.random.default_rng(5)
    plan = wf.plan_hops(cfg, n_prt=60, rng=rng, first_prt=7)
    psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
    ident = imp.ImpairmentSpec()
    rx = imp.apply(wf.synthesize(plan, psk, cfg), plan, psk, ident, cfg)
    write_iq(tmp_path / "rx.iq", rx)
    back = read_iq(tmp_path / "rx.iq")
    assert back.first_prt == 7
    for mode in ("estimated", "averaged", "flat", "known"):
        rep = commrx.demodulate(back, cfg, 3, mode=mode, spec=ident)
        counts = commrx.score_report(rep, plan, psk, cfg)
        assert counts.psk_bit_errors == counts.fhcs_bit_errors == 0
        assert rep.n_erased_slots == rep.n_erased_hops == 0


def test_radar_command(cfg_file, tmp_path):
    out = tmp_path / "radar"
    assert run_cli("--config", str(cfg_file), "--out", str(out), "radar",
                   "--snr", "-20") == 0
    det_lines = (out / "detections.csv").read_text().splitlines()
    assert det_lines[1].startswith("doppler_bin,range_bin")
    assert (out / "rdm.bin").stat().st_size > 1000
    # the random scene's count is the sweep's, 3 in the fixture
    assert len((out / "scene.csv").read_text().splitlines()) == 2 + 3


def test_radar_without_an_snr_runs_at_0_db(cfg_file, tmp_path):
    # the echo's noise defaults to 0 dB: the same map, and the same
    # detections apart from the config hash, as radar --snr 0
    cfg = json.loads(cfg_file.read_text())
    del cfg["impairment"]["snr_db"]
    p = tmp_path / "no-snr.json"
    p.write_text(json.dumps(cfg))
    runs = {"default": [], "0-dB": ["--snr", "0"]}
    for name, flags in runs.items():
        assert run_cli("--config", str(p), "--out", str(tmp_path / name),
                       "radar", *flags) == 0
    default, zero = (tmp_path / "default", tmp_path / "0-dB")
    assert ((default / "rdm.bin").read_bytes()
            == (zero / "rdm.bin").read_bytes())
    lines = [(d / "detections.csv").read_text().splitlines()
             for d in (default, zero)]
    assert lines[0][0] != lines[1][0]                   # the hash lines
    assert lines[0][1:] == lines[1][1:] and len(lines[0]) > 2


def test_radar_without_a_listening_window_exits_2(cfg_file, tmp_path,
                                                  capsys):
    # a 40-hop pulse fills the 40 us PRT, so no range bin is left; radar
    # exited 0 with "wrote 0 detections" and a range-0 rdm.bin
    cfg = json.loads(cfg_file.read_text())
    cfg["radar"].update(hops_per_pulse=40, prts_per_cpi=16)
    cfg["sweep"].update(n_targets=2, range_span=[5000, 7000])
    p = tmp_path / "full.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(out),
                   "radar") == cli.EXIT_CONFIG == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert "listening window" in error["message"]
    assert "radar.prt_duration" in error["message"]
    assert not (out / "rdm.bin").exists()
    assert not out.exists()


def test_an_empty_target_list_is_a_scene_without_targets(cfg_file,
                                                          tmp_path):
    # an explicit empty list was read as "no list": radar exited 0 with a
    # scene of 50 random targets in scene.csv
    cfg = json.loads(cfg_file.read_text())
    cfg["scene"] = {"targets": []}
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("--config", str(p), "--out", str(out), "radar",
                   "--snr", "0") == 0
    lines = (out / "scene.csv").read_text().splitlines()
    assert lines[-1] == "range_m,velocity,azimuth_deg"     # header only


def test_a_one_channel_virtual_array_exits_2(cfg_file, tmp_path, capsys):
    # radar.n_tx 1 with array.n_rx 1 exited 0 and read a target at 3 deg
    # (and every other detection) at the angle grid's first point, -30 deg
    cfg = json.loads(cfg_file.read_text())
    cfg["radar"]["n_tx"] = 1
    cfg["array"] = {"n_rx": 1}
    cfg["scene"] = {"targets": [{"range_m": 2000, "azimuth_deg": 3}]}
    p = tmp_path / "one.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(out), "radar",
                   "--snr", "0") == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert "n_tx" in error["message"] and "n_rx" in error["message"]
    assert not (out / "detections.csv").exists()


def _with_impairment(cfg_file, tmp_path, keys, drop=()):
    """Config file whose impairment section is the fixture's, less the keys
    named in ``drop``, with ``keys`` set."""
    cfg = json.loads(cfg_file.read_text())
    for key in drop:
        cfg["impairment"].pop(key)
    cfg["impairment"].update(keys)
    p = tmp_path / "impairment.json"
    p.write_text(json.dumps(cfg))   # NaN is written as the literal NaN
    return p


@pytest.mark.parametrize("command, noise", [
    ("radar", {"noise_var": 1.0}),
    ("radar", {"snr_db": float("inf")}),
    ("radar", {"snr_db": float("nan")}),
    ("comm", {"noise_var": 0.0}),
    ("comm", {"snr_db": float("nan")})])
def test_invalid_noise_variance_rejected(cfg_file, tmp_path, capsys, command,
                                         noise):
    # a NaN or infinite SNR is a config error, not "no noise"; the noise
    # level is impairment.snr_db alone, so noise_var, the variance that
    # config.noise_var_for_snr works out from it, is an unknown key
    p = _with_impairment(cfg_file, tmp_path, noise, drop=("snr_db",))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   command) == cli.EXIT_CONFIG == 2
    [key] = noise
    assert key in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("command", [
    ["radar", "--snr", "-4000"], ["comm"],
    ["sweep", "--kind", "ber", "--snr", "-4000"],
    ["sweep", "--kind", "radar", "--snr", "-4000"]],
    ids=["radar", "comm", "sweep-ber", "sweep-radar"])
def test_snr_beyond_the_float_noise_variance_exits_2(
        cfg_file, tmp_path, capsys, monkeypatch, command):
    # 10^(4000/10) overflows a float: each command exited 5 with
    # "Numerical result out of range"; a sweep refuses the grid before any
    # worker starts
    pools = []
    monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
    monkeypatch.setattr(bench, "ProcessPoolExecutor",
                        lambda *a, **k: pools.append(a))
    p = _with_impairment(cfg_file, tmp_path, {"snr_db": -4000})
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   *command) == cli.EXIT_CONFIG == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert "snr_db=-4000 dB" in error["message"]
    assert pools == []


@pytest.mark.parametrize("keys, drop", [
    ({"cfo": float("nan")}, ("rho",)),
    ({"sto_initial": float("inf")}, ("rho",)),
    ({"sample_time_offset": float("nan")}, ("rho",)),
    ({"rho": float("nan")}, ())],
    ids=["cfo-nan", "sto_initial-inf", "sample_time_offset-nan", "rho-nan"])
def test_non_finite_clock_errors_rejected(cfg_file, tmp_path, capsys, keys,
                                          drop):
    # a NaN or infinite CFO, STO or clock stability used to give an all-NaN
    # frame and exit 0. The CFO and the clock mismatch follow from rho
    # alone (ImpairmentSpec.from_clock), so cfo and sample_time_offset are
    # unknown keys, refused by name even without rho
    p = _with_impairment(cfg_file, tmp_path, keys, drop)
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == cli.EXIT_CONFIG
    [key] = keys
    assert key in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("command, section, values, key", [
    ("radar", "array", {"n_rx": "abc"}, "n_rx"),
    ("comm", "run", {"n_prt": "x"}, "n_prt"),
    ("comm", "run", {"n_prt": -5}, "n_prt"),
    ("comm", "sweep", {"ripple_db": "x"}, "ripple_db"),
    ("radar", "scene", {"targets": [{"range_m": 100.0}]}, "range_m"),
    ("radar", "scene", {"targets": [{"velocity": 10.0}]}, "range_m"),
    ("radar", "scene", {"targets": [5]}, "targets"),
    ("radar", "array", {"n_rx": -3}, "n_rx"),
    ("radar", "array", {"n_rx": 0}, "n_rx"),
    ("radar", "array", {"rx_spacing": "nan"}, "rx_spacing"),
    ("radar", "sweep", {"range_span": [5000, 100]}, "range_span"),
    ("radar", "sweep", {"n_targets": -2}, "n_targets"),
    ("radar", "sweep", {"angle_grid_points": 0}, "angle_grid_points"),
    ("radar", "sweep", {"p_fa": 2.0}, "p_fa"),
    ("txgen", "run", {"order_bits": -1}, "order_bits"),
    ("comm", "run", {"order_bits": -1}, "order_bits"),
    ("comm", "run", {"mode": "bogus"}, "mode"),
    ("comm", "impairment", {"rho": 1.0}, "rho"),
    ("txgen", "run", {"n_prt": 20.5}, "n_prt"),
    ("radar", "array", {"n_rx": 2.7}, "n_rx"),
    ("comm", "run", {"order_bits": 64}, "order_bits"),
    ("comm", "run", {"order_bits": 70}, "order_bits"),
    ("radar", "sweep", {"range_span": [1000]}, "range_span"),
    ("radar", "sweep", {"velocity_span": [-5, 0, 5]}, "velocity_span"),
    ("radar", "sweep", {"angle_fov_deg": float("nan")}, "angle_fov_deg"),
    ("radar", "sweep", {"angle_grid_points": 2.5}, "angle_grid_points"),
    ("radar", "sweep", {"seed": "x"}, "unknown keys in [sweep]: ['seed']"),
    ("radar", "radar", {"n_subbands": "20"}, "n_subbands"),
    ("radar", "radar", {"hop_duration": "1e-6"}, "hop_duration"),
    ("radar", "sweep", {"p_fa": "0.01"}, "p_fa"),
    ("radar", "scene", {"targets": 5}, "targets"),
    ("sweep", "sweep", {"snr_grid_db": 5}, "snr_grid_db"),
    ("comm", "run", {"n_prt": True}, "n_prt"),
    ("comm", "impairment", {"snr_db": False}, "snr_db"),
    ("radar", "array", {"n_rx": True}, "n_rx"),
    ("radar", "sweep", {"n_targets": True}, "n_targets"),
    ("radar", "array", {"random_errors": True}, "random_errors"),
    ("radar", "scene", {"targets": [{"range_m": 1000, "foo": 1}]}, "foo"),
    ("comm", "run", {"iq_file": 0}, "iq_file"),
    ("txgen", "run", {"payload_file": 7}, "payload_file"),
    ("sweep", "sweep", {"rho_span": [1e-6]}, "rho_span"),
    ("sweep", "sweep", {"rho_span": [1e-6, 2e-6, 3]}, "rho_span"),
    ("sweep", "sweep", {"kind": "radar", "comm_mode": "bogus"}, "comm_mode"),
    ("sweep", "sweep", {"kind": "radar", "velocity_span": [-2000, 2000]},
     "velocity_span"),
    ("radar", "sweep", {"velocity_span": [-2000, 2000]}, "velocity_span"),
    ("comm", "radar", {"prt_duration": float("nan")}, "prt_duration"),
    ("comm", "radar", {"prt_duration": float("inf")}, "prt_duration"),
    ("comm", "radar", {"hop_duration": float("nan")}, "hop_duration"),
    ("comm", "radar", {"carrier_freq": float("nan")}, "carrier_freq"),
    ("comm", "radar", {"carrier_freq": float("inf")}, "carrier_freq"),
    ("comm", "sweep", {"ripple_db": float("nan")}, "ripple_db"),
    ("comm", "sweep", {"ripple_rad": float("nan")}, "ripple_rad"),
    ("comm", "sweep", {"ripple_rad": float("inf")}, "ripple_rad"),
    ("sweep", "sweep", {"snr_grid_db": [float("nan")]}, "snr_grid_db"),
    ("sweep", "sweep", {"hop_durations": [float("nan")]}, "hop_durations"),
    ("sweep", "sweep", {"ripple_db": float("nan")}, "ripple_db"),
    ("radar", "scene", {"targets": [{"range_m": 1000,
                                     "velocity": float("nan")}]}, "velocity"),
    ("radar", "scene", {"targets": [{"range_m": 1000,
                                     "azimuth_deg": float("nan")}]},
     "azimuth_deg"),
    ("radar", "scene", {"targets": [{"range_m": 1000,
                                     "azimuth_deg": float("inf")}]},
     "azimuth_deg"),
    ("radar", "scene", {"targets": [{"range_m": 1000, "coeff": "nan+0j"}]},
     "coeff"),
    ("radar", "sweep", {"angle_fov_deg": 1e308}, "angle_fov_deg"),
    ("txgen", "run", {"seed": -1}, "run.seed"),
    ("comm", "run", {"seed": -1}, "run.seed"),
    ("radar", "run", {"seed": -1}, "run.seed"),
    ("sweep", "run", {"seed": -3}, "run.seed"),
    ("radar", "scene", {"targets": [{"range_m": 1000}],
                        "range_span": [5000, 100]},
     "unknown keys in [scene]: ['range_span']"),
    ("comm", "impairment", {"front_end": "flat", "ripple_db": 6.0},
     "unknown keys in [impairment]: ['ripple_db']"),
    ("comm", "impairment", {"front_end": "flat", "ripple_rad": 0.3},
     "unknown keys in [impairment]: ['ripple_rad']"),
    ("comm", "impairment", {"noise_var": 5.0},
     "unknown keys in [impairment]: ['noise_var']"),
    ("sweep", "sweep", {"hop_durations": [1e-6, 0]}, "sweep.hop_durations"),
    ("sweep", "sweep", {"hop_durations": [-1e-6]}, "sweep.hop_durations"),
    ("sweep", "sweep", {"hop_durations": [0.3e-6]}, "sweep.hop_durations"),
    ("sweep", "sweep", {"hop_durations": [10e-6]}, "sweep.hop_durations"),
    ("radar", "run", {"n_prt": 0}, "run.n_prt"),
    ("sweep", "run", {"mode": "bogus"}, "run.mode"),
    ("sweep", "run", {"order_bits": 40}, "order_bits"),
    ("sweep", "sweep", {"kind": "radar", "n_targets": -2}, "sweep.n_targets"),
    ("txgen", "sweep", {"n_targets": -2}, "sweep.n_targets"),
    ("txgen", "sweep", {"modulations": [3, 40]}, "sweep.modulations"),
    ("comm", "sweep", {"modulations": [-1]}, "sweep.modulations"),
    ("radar", "sweep", {"modulations": [40]}, "sweep.modulations")],
    ids=["n_rx-text", "n_prt-text", "n_prt-negative", "ripple_db-text",
         "target-in-blind-zone", "target-without-range",
         "target-not-object", "n_rx-negative", "n_rx-zero", "rx_spacing-nan",
         "range_span-empty", "n_targets-negative", "angle_grid_points-zero",
         "p_fa-above-one", "order_bits-negative-txgen",
         "order_bits-negative-comm", "mode-unknown", "rho-one",
         "n_prt-fraction", "n_rx-fraction", "order_bits-64", "order_bits-70",
         "range_span-one-entry", "velocity_span-three-entries",
         "angle_fov_deg-nan", "angle_grid_points-fraction", "sweep-seed-text",
         "n_subbands-text", "hop_duration-text", "p_fa-text",
         "targets-not-list", "snr_grid_db-not-list", "n_prt-true",
         "snr_db-false", "n_rx-true", "n_targets-true",
         "random_errors-unknown",
         "target-unknown-key", "iq_file-number", "payload_file-number",
         "rho_span-one-entry", "rho_span-three-entries",
         "comm_mode-unknown", "sweep-velocity_span-aliased",
         "scene-velocity_span-aliased", "prt_duration-nan",
         "prt_duration-inf", "hop_duration-nan", "carrier_freq-nan",
         "carrier_freq-inf", "ripple_db-nan", "ripple_rad-nan",
         "ripple_rad-inf", "snr_grid_db-nan", "hop_durations-nan",
         "sweep-ripple_db-nan", "target-velocity-nan", "target-azimuth-nan",
         "target-azimuth-inf", "target-coeff-nan", "angle_fov_deg-1e308",
         "seed-negative-txgen", "seed-negative-comm", "seed-negative-radar",
         "sweep-seed-negative", "targets-next-to-random-scene-keys",
         "ripple_db-on-a-flat-front-end", "ripple_rad-on-a-flat-front-end",
         "noise_var-next-to-snr_db", "hop_durations-zero",
         "hop_durations-negative", "hop_durations-fractional-prt",
         "hop_durations-pulse-past-prt", "run-n_prt-zero-radar",
         "run-mode-unknown-sweep", "run-order_bits-40-sweep",
         "radar-n_targets-negative", "n_targets-negative-txgen",
         "modulations-40-txgen", "modulations-negative-comm",
         "modulations-40-radar"])
def test_malformed_config_values_are_config_errors(cfg_file, tmp_path,
                                                    capsys, command, section,
                                                    values, key):
    # each used to exit 5 ("internal") on an uncaught error, 2 with a bare
    # TypeError message, or 0 with meaningless output (n_rx 0, rx_spacing
    # NaN, n_targets < 0, p_fa > 1, a count truncated to an int, a JSON
    # boolean read as 0 or 1, array.random_errors giving skewed
    # angles (a radar run with seed 1 read targets at -3, 2 and 10 degrees
    # as -30.00, -24.38 and -15.94), a target key dropped, order_bits 64 overflowing int64 symbol arithmetic, a NaN
    # angle grid, a rho_span that is not two entries, a radar sweep with an
    # unknown comm_mode, a sweep velocity span beyond the unambiguous
    # velocity running aliased trials, a NaN or infinite number reaching
    # the radar timing, the carrier, the ripple, a sweep grid or a target,
    # a field of view whose grid step overflows, a negative seed reaching
    # SeedSequence as "expected non-negative integer", a target list whose
    # neighbouring scene keys, the empty range span too, were dropped
    # unread, a ripple on a flat front end or a noise_var next to snr_db
    # read and then ignored, a zero hop duration dividing by zero, a run key
    # that a command does not read ignored, a negative sweep.n_targets or a
    # PSK order beyond 32 in sweep.modulations run by txgen, comm and
    # radar, or refused by the radar sweep only inside a pool worker, a
    # hop duration the radar config cannot take refused without the key's
    # name); the error message names the offending key. The scene's random draw, the
    # front end's ripple scale and the seed are each one key, of sweep and
    # run, so their doubles in scene, impairment and sweep are unknown keys
    cfg = json.loads(cfg_file.read_text())
    cfg.setdefault(section, {}).update(values)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   command) == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and key in error["message"]


@pytest.mark.parametrize("section, key, value", [
    ("array", "n_rx", -3), ("sweep", "n_targets", -5),
    ("impairment", "snr_db", "x"), ("impairment", "rho", 5.0),
    ("impairment", "front_end", "bogus")],
    ids=["n_rx", "n_targets", "snr_db", "rho", "front_end"])
@pytest.mark.parametrize("command", [
    ["txgen"], ["comm"], ["radar", "--snr", "-10"], ["sweep", "--kind", "ber"],
    ["sweep", "--kind", "radar"], ["sweep", "--kind", "methods"]],
    ids=["txgen", "comm", "radar", "sweep-ber", "sweep-radar",
         "sweep-methods"])
def test_every_command_checks_every_section_but_the_scene(
        cfg_file, tmp_path, capsys, command, section, key, value):
    # a command checked only the sections it read: 24 of these 30 runs
    # exited 0 and 19 of them ignored the bad value. Every section is now
    # built for every command; only radar draws a random scene, and its
    # target count is sweep.n_targets, which SweepSpec checks. radar --snr
    # replaces impairment.snr_db, so it never sees the bad one
    cfg = json.loads(cfg_file.read_text())
    cfg.setdefault(section, {})[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   *command)
    if key == "snr_db" and command[0] == "radar":
        assert code == cli.EXIT_OK
    else:
        assert code == cli.EXIT_CONFIG
        assert key in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("key, value", [
    ("n_subbands", 0), ("n_tx", 25), ("hops_per_pulse", 2),
    ("hop_duration", 0.7e-6), ("prt_duration", 4e-6), ("bandwidth", 0.0),
    ("sample_rate", 10e6), ("carrier_freq", -5.5e9), ("prts_per_cpi", 0)],
    ids=["n_subbands-zero", "n_tx-past-the-sub-bands",
         "hops_per_pulse-below-the-pilot-layout",
         "hop_duration-fractional-tone-cycles", "prt_duration-below-the-pulse",
         "bandwidth-zero", "sample_rate-below-the-bandwidth",
         "carrier_freq-negative", "prts_per_cpi-zero"])
def test_a_radar_refusal_leads_with_its_key(cfg_file, tmp_path, capsys, key,
                                            value):
    # RadarConfig refused these with "counts must be positive",
    # "durations/frequencies must be positive", "need at least as many
    # sub-bands as antennas", "pulse does not fit in the PRT" and the like;
    # each check names its field, and the CLI puts "radar." in front
    cfg = json.loads(cfg_file.read_text())
    cfg["radar"][key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(out),
                   "txgen") == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert re.match(rf"radar\.{key}[ :]", error["message"]), error["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["txgen"], ["comm"], ["radar"], ["sweep", "--kind", "methods"]])
def test_every_command_checks_a_given_target_list(cfg_file, tmp_path,
                                                  capsys, command):
    # a target in the blind zone was refused by radar alone; a given target
    # list needs no draw, so every command checks it against the config
    cfg = json.loads(cfg_file.read_text())
    cfg["scene"] = {"targets": [{"range_m": 100.0}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   *command) == cli.EXIT_CONFIG
    assert "range_m 100.0" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("section, values, key", [
    ("impairment", {"rho": 3e-6}, "impairment.rho"),
    ("scene", {"targets": [{"range_m": 1500.0}, {"range_m": 1e9}]},
     "scene.targets[1]"),
    ("sweep", {"snr_grid_db": [0, -1e9]}, "sweep.snr_grid_db"),
    ("sweep", {"radar_snr_grid_db": [-1e9]}, "sweep.radar_snr_grid_db"),
    ("sweep", {"ripple_db": 1e300}, "sweep.ripple_db"),
    ("sweep", {"ripple_db": 6000.0}, "sweep.ripple_db"),
    ("sweep", {"ripple_db": 1000.0}, "sweep.ripple_db"),
    ("sweep", {"ripple_db": 3080.0}, "sweep.ripple_db"),
    ("radar", {"carrier_freq": 1e300}, "radar.carrier_freq"),
    ("radar", {"carrier_freq": 1e-300}, "radar.carrier_freq"),
    ("radar", {"sample_rate": 1e300, "prt_duration": 1e300},
     "radar.prt_duration"),
    ("impairment", {"snr_db": -1e300}, "impairment.snr_db"),
    ("array", {"n_rx": -1}, "array.n_rx"),
    ("run", {"order_bits": 33}, "run.order_bits"),
    ("sweep", {"kind": "bogus"}, "sweep.kind")],
    ids=["rho-aliased", "targets-out-of-window", "snr_grid_db-overflow",
         "radar_snr_grid_db-overflow", "ripple_db-overflow",
         "ripple_db-squared-overflow", "ripple_db-1000", "ripple_db-3080",
         "carrier_freq-1e300", "carrier_freq-1e-300",
         "samples_per_prt-overflow", "snr_db-overflow", "n_rx-negative",
         "order_bits-33", "kind-bogus"])
@pytest.mark.parametrize("command", [["txgen"], ["comm"], ["radar"], ["sweep"]],
                         ids=["txgen", "comm", "radar", "sweep"])
def test_every_command_names_a_refused_key(cfg_file, tmp_path, capsys,
                                           command, section, values, key):
    # each value was refused without its key ("CFO outside the unambiguous
    # range ...", "target range_m 1000000000.0 outside [...]", "snr_db=-1e+09
    # dB gives no finite noise variance ...") or, for the ripple, run to
    # exit 0 by txgen and a flat comm and refused by a rippled one only
    # after a numpy overflow warning; a ripple of 6000 dB has a finite gain
    # but not a finite squared gain, and comm multiplied two rippled pilot
    # peaks into an overflow warning, then wrote psk_ber 0.468 and exited 0;
    # at 1000 dB comm wrote psk_ber 0.507 and exited 0, at 3080 dB it
    # overflowed; a carrier of 1e300 Hz was refused by radar and sweep only
    # through the scene, and comm reported rho_hat -9.9e-315 with exit 0;
    # a carrier of 1e-300 Hz overflowed the wavelength in radar, an
    # infinite PRT sample count exited 5, and the SNR, array, PSK order
    # and sweep kind refusals did not name their key
    cfg = json.loads(cfg_file.read_text())
    cfg[section] = {**cfg.get(section, {}), **values}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(out),
                   *command) == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert error["message"].startswith(key)
    assert not out.exists()


@pytest.mark.parametrize("command, edits, names", [
    ("txgen", {"radar": {"carrier_freq": 1e12}},
     ["impairment.rho", "radar.carrier_freq", "radar.prt_duration"]),
    ("txgen", {"scene": {"targets": [{"range_m": 100.0}]}},
     ["scene.targets[0]", "radar.hop_duration", "radar.prt_duration"]),
    ("txgen", {"scene": {"targets": [{"range_m": 1500.0,
                                      "velocity": 1e4}]}},
     ["scene.targets[0]", "radar.carrier_freq", "radar.prt_duration"]),
    ("radar", {"sweep": {"velocity_span": [-1e4, 1e4]}},
     ["sweep.velocity_span", "radar.carrier_freq", "radar.prt_duration"]),
    ("radar", {"sweep": {"range_span": [10.0, 20.0]}},
     ["sweep.range_span", "radar.hop_duration", "radar.prt_duration"]),
    ("comm", {"radar": {"n_subbands": 4, "n_tx": 2, "hops_per_pulse": 3,
                        "bandwidth": 4e6, "sample_rate": 4e6}},
     ["radar.n_tx", "radar.sample_rate", "radar.hop_duration"])],
    ids=["cfo-carrier", "target-range", "target-velocity",
         "velocity_span", "range_span", "receiver-floor"])
def test_a_bound_set_by_the_radar_names_its_radar_keys(
        cfg_file, tmp_path, capsys, command, edits, names):
    # these refusals named only the key they lead with ("impairment.rho
    # 1e-06: CFO outside the unambiguous range |cfo|*prt_duration < pi"),
    # so a config that broke them by a radar key did not say which
    cfg = json.loads(cfg_file.read_text())
    for sec, values in edits.items():
        cfg[sec] = {**cfg.get(sec, {}), **values}
    p = tmp_path / "bound.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(out),
                   command) == cli.EXIT_CONFIG
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith(names[0])
    assert all(name in message for name in names[1:]), message
    assert not out.exists()


def test_a_refusal_inside_a_command_leaves_no_output_directory(
        cfg_file, tmp_path, capsys):
    # the BER sweep builds each hop duration's config only when it runs,
    # after the output directory is made: a hop of 1e-300 s exited 2 and
    # left that directory behind; a directory that was there stays
    cfg = json.loads(cfg_file.read_text())
    cfg["sweep"]["hop_durations"] = [1e-300]
    p = tmp_path / "hop.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "a" / "b"
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(out),
                   "sweep") == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["message"].startswith(
        "sweep.hop_durations")
    assert not (tmp_path / "a").exists()
    out.mkdir(parents=True)
    assert run_cli("--config", str(p), "--out", str(out),
                   "sweep") == cli.EXIT_CONFIG
    assert out.is_dir()


# deeper than the JSON decoder's recursion limit (the interpreter's, 1,000)
_DEEP = b"[" * 2000 + b"]" * 2000


@pytest.mark.parametrize("text", [
    b"\xff\xfe{}", _DEEP, b'{"run": {"seed": ' + _DEEP + b"}}", b'{"run": '],
    ids=["utf-16-byte-order-mark", "nested-at-the-root",
         "nested-under-run-seed", "cut-short"])
def test_a_config_file_json_cannot_decode_exits_2(tmp_path, capsys, text):
    # the first three exited 5 ("internal"), on a UnicodeDecodeError or on
    # the decoder's RecursionError; a JSON syntax error exited 2 without
    # naming the file
    p = tmp_path / "cfg.json"
    p.write_bytes(text)
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(out),
                   "txgen") == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert error["message"].startswith(str(p)), error["message"]
    assert not out.exists()


def test_a_seed_beyond_the_float_range_exits_2(cfg_file, tmp_path, capsys):
    # JSON's 1e999 reads as inf, which int() cannot take
    text = cfg_file.read_text()
    assert '"seed": 3' in text
    p = tmp_path / "seed.json"
    p.write_text(text.replace('"seed": 3', '"seed": 1e999'))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "txgen") == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "config",
                     "message": "run.seed: expected int, got inf"}


@pytest.mark.parametrize("section, key, accepted, refused", [
    ("radar", "carrier_freq", 2.99e12, 3e12),
    ("sweep", "ripple_db", -150.0, 150.01)],
    ids=["carrier_freq", "ripple_db"])
@pytest.mark.parametrize("command", ["txgen", "comm"])
def test_the_carrier_and_ripple_bounds_sit_where_the_readme_puts_them(
        tmp_path, capsys, command, section, key, accepted, refused):
    # the carrier stays below 3 THz, the top of the radio band; the ripple
    # within +/-150 dB, the largest at which a noiseless link still decoded
    # 8-, 16- and 64-PSK error-free (README, "refuses a bad value")
    assert (config.MAX_CARRIER_FREQ, bench.MAX_RIPPLE_DB) == (3e12, 150.0)
    for value, code in ((accepted, cli.EXIT_OK), (refused, cli.EXIT_CONFIG)):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({section: {key: value},
                                 "run": {"n_prt": 4}}))
        capsys.readouterr()
        assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                       command) == code
    assert json.loads(capsys.readouterr().err)["message"].startswith(
        f"{section}.{key}")


def test_a_noiseless_link_decodes_at_the_ripple_bound(tmp_path):
    # the bound's measurement, at one seed: a rippled front end at
    # +/-150 dB, no noise, 8PSK, estimated mode: no bit error
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"impairment": {"front_end": "rippled"},
                             "sweep": {"ripple_db": 150.0},
                             "run": {"n_prt": 40}}))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == cli.EXIT_OK
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["psk_ber"] == summary["fhcs_ber"] == 0.0


def test_comm_takes_a_pulse_that_fills_the_prt(tmp_path):
    # the comm link listens to the pulse itself and needs no listening
    # window; the scene, whose default range span does, is built by radar
    # alone, so a scene drawn for every command would refuse this config
    p = tmp_path / "full.json"
    p.write_text(json.dumps({"radar": {"hops_per_pulse": 40,
                                       "prts_per_cpi": 16}}))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == cli.EXIT_OK


@pytest.mark.parametrize("command", [["comm"], ["sweep", "--kind", "ber"],
                                     ["sweep", "--kind", "methods"]])
def test_hops_too_short_for_the_receiver_floor_exit_2(cfg_file, tmp_path,
                                                       command):
    # K=4, M=2 sampled at the bandwidth gives 4-sample hops, whose median
    # bin is a tone: the receiver refuses the config by name; `comm` used
    # to exit 0 with every hop erased and psk_ber 0.5
    cfg = json.loads(cfg_file.read_text())
    cfg["radar"].update(n_subbands=4, n_tx=2, hops_per_pulse=3,
                        bandwidth=4e6, sample_rate=4e6)
    cfg["sweep"].update(hop_durations=[1e-6], min_symbols=10)
    p = tmp_path / "short.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   *command) == cli.EXIT_CONFIG == 2


@pytest.mark.parametrize("radar, sweep, key", [
    ({}, {"kind": "radar", "velocity_span": [-2000, 2000]}, "velocity_span"),
    ({"hops_per_pulse": 40, "prts_per_cpi": 16},
     {"kind": "radar", "range_span": [5000, 7000]}, "listening window"),
    ({"n_subbands": 4, "n_tx": 2, "hops_per_pulse": 3, "bandwidth": 4e6,
      "sample_rate": 4e6},
     {"kind": "ber", "snr_grid_db": [0, 10], "min_symbols": 10},
     "samples_per_hop"),
    ({}, {"kind": "ber", "snr_grid_db": [0, 10], "min_symbols": 10,
          "rho_span": [1e-6, 3e-6]}, "sweep.rho_span")],
    ids=["radar-velocity_span-aliased", "radar-no-listening-window",
         "ber-hops-too-short", "ber-rho_span-aliased"])
def test_sweep_config_error_raised_in_a_worker_exits_2(
        cfg_file, tmp_path, capsys, monkeypatch, radar, sweep, key):
    # these configs are refused by the point itself, so with two usable
    # CPUs the ConfigError is raised inside a pool worker; it reaches the
    # CLI as itself: exit 2, with the offending key named
    pools = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append(max_workers)
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", Pool)
    cfg = json.loads(cfg_file.read_text())
    cfg["radar"].update(radar)
    cfg["sweep"].update(sweep)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "sweep") == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and key in error["message"]
    assert pools == [2]


@pytest.mark.parametrize("seed", [0, 14])
def test_a_rho_span_past_the_unambiguous_cfo_is_refused_at_every_seed(
        tmp_path, capsys, seed):
    # |rho| above about 2.27e-6 aliases the default config's CFO; the
    # methods study refused this span only when its draw landed there
    # (seed 14, without naming the key) and ran at seed 0. The span's
    # largest |rho| is checked before any draw
    p = tmp_path / "rho.json"
    p.write_text(json.dumps({"sweep": {"kind": "methods",
                                       "rho_span": [1e-6, 3e-6]}}))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "--seed", str(seed), "sweep") == cli.EXIT_CONFIG
    assert "sweep.rho_span" in json.loads(capsys.readouterr().err)["message"]


def test_comm_summary_writes_null_for_rates_over_nothing(cfg_file,
                                                         tmp_path):
    # order_bits 0 carries no PSK bit: psk_ber is null, the other rates
    # were measured and keep their values
    cfg = json.loads(cfg_file.read_text())
    cfg["run"]["order_bits"] = 0
    p = tmp_path / "m0.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("--config", str(p), "--out", str(out), "comm") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["psk_bits"] == 0 and summary["psk_ber"] is None
    assert summary["psk_ser"] == 0.0 and summary["fhcs_ber"] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_comm_with_32_bit_symbols_runs_cleanly(cfg_file, tmp_path):
    # the widest symbol accepted (config.MAX_ORDER_BITS); an integral float
    # count is still accepted
    cfg = json.loads(cfg_file.read_text())
    cfg["run"].update(order_bits=32, n_prt=20.0)
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == 0


@pytest.mark.parametrize("order_bits", [33, 63])
@pytest.mark.parametrize("command", [["comm"], ["txgen"],
                                     ["sweep", "--kind", "ber"]])
def test_psk_order_beyond_the_float64_phase_exits_2(cfg_file, tmp_path,
                                                     capsys, command,
                                                     order_bits):
    # orders 33..63 used to run, and from 50 bits a noiseless channel
    # decoded with errors: a 40-PRT known-mode comm run, seed 1, gave
    # psk_ber 4.1e-4 at 50, 9.5e-3 at 52 and 9.1e-2 at 63
    cfg = json.loads(cfg_file.read_text())
    cfg["run"]["order_bits"] = order_bits
    cfg["sweep"]["modulations"] = [order_bits]
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   *command) == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["message"].startswith("run.order_bits must be in [0, 32]")


@pytest.mark.parametrize("order_bits", [0, 5])
def test_comm_modulation_flag_takes_every_order_the_config_takes(
        cfg_file, tmp_path, order_bits):
    # --modulation used to stop with argparse's usage error outside 1..4,
    # while "order_bits" 0 and 5 in the config ran
    outs = []
    for how in ("flag", "config"):
        cfg = json.loads(cfg_file.read_text())
        args = ["comm", "--modulation", str(order_bits)]
        if how == "config":
            cfg["run"]["order_bits"] = order_bits
            args = ["comm"]
        p = tmp_path / f"{how}.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / how
        assert run_cli("--config", str(p), "--out", str(out), *args) == 0
        outs.append((out / "demod.csv").read_bytes())
    assert outs[0] == outs[1]


def test_comm_modulation_flag_beyond_the_float64_phase_exits_2(
        cfg_file, tmp_path, capsys):
    # the flag's range is config.check_order_bits', with its message
    capsys.readouterr()
    assert run_cli("--config", str(cfg_file), "--out", str(tmp_path / "o"),
                   "comm", "--modulation", "33") == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["message"].startswith("run.order_bits must be in [0, 32]")


def test_empty_sections_give_library_defaults():
    # build_inputs passes on only the keys a config gives, so an empty
    # section means the library's defaults
    inp = cli.build_inputs(cli.load_config())
    assert inp.cfg == RadarConfig() and inp.array == rrx.ArrayModel()
    assert inp.sweep == bench.SweepSpec() and inp.kind == "ber"
    assert inp.run == {"seed": 0, "order_bits": 3} and inp.targets is None
    # a rippled front end takes SweepSpec's ripple scale, whose defaults
    # are FrontEndProfile.rippled's
    params = inspect.signature(imp.FrontEndProfile.rippled).parameters
    for name, param in params.items():
        if hasattr(inp.sweep, name):
            assert param.default == getattr(inp.sweep, name), name
    # noiseless, and without rho no clock error: +0.0, not the -0.0 that
    # from_clock(0.0) gives sample_time_offset
    assert inp.spec == imp.ImpairmentSpec()
    assert not np.signbit([inp.spec.cfo, inp.spec.sample_time_offset]).any()
    # a rippled front end is drawn from comm's stream, which comm goes on
    # drawing from
    raw = cli.load_config(overrides={"impairment.front_end": "rippled",
                                     "run.seed": 4})
    inp = cli.build_inputs(raw)
    rng = np.random.default_rng(np.random.SeedSequence([4, 2]))
    ref = imp.FrontEndProfile.rippled(RadarConfig(), rng=rng)
    np.testing.assert_array_equal(inp.spec.front_end.gains, ref.gains)
    np.testing.assert_array_equal(inp.spec.front_end.channel, ref.channel)
    assert inp.rng.random() == rng.random()


def test_integral_float_counts_run_as_ints(cfg_file, tmp_path):
    # 20.0 is accepted for every integer key, radar and sweep included, and
    # gives the outputs of 20; only the echoed config and its hash differ
    outs = []
    for num in (int, float):
        cfg = json.loads(cfg_file.read_text())
        cfg["radar"].update(n_subbands=num(20), prts_per_cpi=num(20))
        cfg["array"] = {"n_rx": num(8)}
        cfg["sweep"].update(angle_grid_points=num(128), trials=num(2))
        cfg["run"]["seed"] = num(4)
        p = tmp_path / f"{num.__name__}.json"
        p.write_text(json.dumps(cfg))
        files = {}
        for command in ("radar", "sweep"):
            out = tmp_path / num.__name__ / command
            assert run_cli("--config", str(p), "--out", str(out), command,
                           *(["--kind", "radar"] if command == "sweep"
                             else [])) == 0
            for f in out.iterdir():
                if f.name != "effective_config.json":
                    files[command, f.name] = re.sub(
                        rb"config_hash=\w+", b"", f.read_bytes())
        outs.append(files)
    assert outs[0] == outs[1]


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_CLI_DOCS = _README[_README.index("## CLI"):]


def _kind_text(kind) -> str:
    if typing.get_origin(kind) is tuple:
        return f"[{_kind_text(typing.get_args(kind)[0])}]"
    return "target" if kind is rrx.Target else kind.__name__


def test_readme_key_list_matches_schema():
    block = re.search(r"```text\n(.*?)```", _CLI_DOCS, re.S).group(1)
    listed = {}
    for sec, body in re.findall(r"^(\w+):(.*(?:\n +.*)*)", block, re.M):
        listed[sec] = dict(entry.split() for entry in body.split(","))
    expected = {sec: {key: _kind_text(kind) for key, kind in kinds.items()}
                for sec, kinds in cli.SCHEMA.items()}
    expected["target"] = {key: _kind_text(kind) for key, kind in
                          typing.get_type_hints(rrx.Target).items()}
    assert listed == expected


def test_readme_example_config_loads(tmp_path):
    example = re.search(r"```json\n(.*?)```", _CLI_DOCS, re.S).group(1)
    p = tmp_path / "example.json"
    p.write_text(example)
    raw = cli.load_config(p)
    inp = cli.build_inputs(raw)
    assert inp.cfg == RadarConfig()
    assert inp.spec.noise_var == 0.01
    assert inp.targets is None and inp.sweep.n_targets == 50
    assert inp.array.n_rx == 12
    assert inp.kind == "ber"
    assert inp.sweep.snr_grid_db == (-10.0, 0.0, 10.0)
    assert inp.sweep.modulations == (3, 4) and inp.sweep.seed == 1
    assert isinstance(inp.sweep.modulations[0], int)
    assert inp.raw == raw == cli.load_config(p)   # left as it was loaded


def test_sweep_command_and_determinism(cfg_file, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run_cli("--config", str(cfg_file), "--seed", "5", "--out",
                       str(out), "sweep", "--kind", "ber") == 0
        outs.append((out / "ber_sweep.csv").read_bytes())
    assert outs[0] == outs[1]
    assert b"fhcs_ber" in outs[0]


@pytest.mark.parametrize("kind, report", [
    (kind, report) for kind, (_, report) in cli.STUDIES.items()])
def test_sweep_writes_one_report_per_study(cfg_file, tmp_path, kind,
                                           report):
    # ber and radar also wrote a plot-data CSV that repeated the report's
    # columns, with each radar RMSE standing in for its own interval
    out = tmp_path / kind
    assert run_cli("--config", str(cfg_file), "--out", str(out), "sweep",
                   "--kind", kind) == 0
    assert {p.name for p in out.iterdir()} == {"effective_config.json",
                                               report}
    args = cli.make_parser().parse_args(["sweep", "--kind", kind])
    assert vars(args)["sweep.kind"] == kind


def test_unknown_sweep_kind_in_a_config_exits_2(cfg_file, tmp_path, capsys):
    cfg = json.loads(cfg_file.read_text())
    cfg["sweep"]["kind"] = "bogus"
    p = tmp_path / "kind.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(out),
                   "sweep") == cli.EXIT_CONFIG == 2
    assert "'bogus'" in json.loads(capsys.readouterr().err)["message"]
    # the kind is checked with every other input, before the output
    # directory is made
    assert not out.exists()
    with pytest.raises(SystemExit):
        cli.make_parser().parse_args(["sweep", "--kind", "bogus"])


def test_unknown_config_keys_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"radar": {"nope": 1}}))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "x"),
                   "txgen") == cli.EXIT_CONFIG
    p.write_text(json.dumps({"bogus_section": {}}))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "x"),
                   "txgen") == cli.EXIT_CONFIG
    # --out sets the output directory; run.out was never read
    p.write_text(json.dumps({"run": {"out": "elsewhere"}}))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "x"),
                   "txgen") == cli.EXIT_CONFIG


def test_missing_config_file(tmp_path):
    assert run_cli("--config", str(tmp_path / "missing.json"),
                   "txgen") == cli.EXIT_IO


def test_seed_flag_overrides_the_sweep_seed(cfg_file, tmp_path):
    # with sweep.seed in the config, --seed 5 and --seed 9 wrote the same
    # method_comparison.csv rows; only the config_hash line differed. The
    # study's seed is now run.seed alone, so --seed N gives the rows of a
    # config whose run.seed is N, and sweep.seed is an unknown key
    def rows(seed, *flag):
        cfg = json.loads(cfg_file.read_text())
        cfg["sweep"]["kind"] = "methods"
        cfg["run"]["seed"] = seed
        p = tmp_path / "methods.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / f"{seed}{''.join(flag)}"
        assert run_cli("--config", str(p), *flag, "--out", str(out),
                       "sweep") == 0
        text = (out / "method_comparison.csv").read_text()
        return [line for line in text.splitlines()
                if not line.startswith("# config_hash")]

    assert rows(3, "--seed", "5") == rows(5)
    assert rows(3, "--seed", "9") == rows(9) != rows(5)
    with pytest.raises(ConfigError, match=r"\[sweep\]: \['seed'\]"):
        cli.build_inputs(cli.load_config(overrides={"sweep.seed": 5}))


def test_no_key_is_in_two_sections():
    # scene and sweep both gave the random scene's count and spans,
    # impairment and sweep both the ripple scale, run and sweep the seed
    keys = [key for kinds in cli.SCHEMA.values() for key in kinds]
    assert len(keys) == len(set(keys)) == 42


@pytest.mark.parametrize("section, key, value", [
    ("scene", "n_targets", 3), ("scene", "range_span", [1000, 3000]),
    ("scene", "velocity_span", [-10, 10]), ("scene", "azimuth_span", [-1, 1]),
    ("impairment", "ripple_db", 1.0), ("impairment", "ripple_rad", 0.2),
    ("sweep", "seed", 3)])
def test_the_doubled_keys_are_unknown(tmp_path, capsys, section, key, value):
    # each gave a quantity that another section's key also gave
    p = tmp_path / "doubled.json"
    p.write_text(json.dumps({section: {key: value}}))
    capsys.readouterr()
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "radar") == cli.EXIT_CONFIG
    assert (json.loads(capsys.readouterr().err)["message"]
            == f"unknown keys in [{section}]: ['{key}']")
    assert not (tmp_path / "o").exists()


def test_seed_changes_payload(cfg_file, tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    run_cli("--config", str(cfg_file), "--seed", "1", "--out", str(out1),
            "txgen")
    run_cli("--config", str(cfg_file), "--seed", "2", "--out", str(out2),
            "txgen")
    assert (out1 / "plan.txt").read_text() != (out2 / "plan.txt").read_text()


# ---------------------------------------------------------------------------
# Property: edits drawn from cli.SCHEMA (ROADMAP item 14)
# ---------------------------------------------------------------------------

_BASE = {
    "radar": {"prts_per_cpi": 20},
    "impairment": {"rho": 1e-6, "sto_initial": 7.5e-9, "snr_db": 25.0,
                   "front_end": "rippled"},
    "scene": {"targets": [{"range_m": 1500.0, "velocity": 30.0,
                           "azimuth_deg": 1.0}]},
    "array": {},
    "sweep": {"kind": "ber", "snr_grid_db": [0.0], "modulations": [3],
              "hop_durations": [1e-6], "min_symbols": 1500, "trials": 1,
              "n_targets": 3, "radar_snr_grid_db": [-24.0],
              "angle_grid_points": 256, "chunk_prt": 400},
    "run": {"seed": 3, "n_prt": 20, "order_bits": 3, "mode": "estimated"},
}
_DEFAULTS = {"radar": RadarConfig(), "array": rrx.ArrayModel(),
             "sweep": bench.SweepSpec()}
_KEYS = [(sec, key) for sec, kinds in cli.SCHEMA.items() for key in kinds]
_STRINGS = ["", "flat", "rippled", "known", "estimated", "averaged", "ber",
            "radar", "methods", "no-such-file"]
_SCALES = [-1.0, 1e-9, 1e-3, 0.1, 0.5, 0.9, 1.1, 2.0, 10.0, 1e3, 1e9]
# the most complex samples one array of a run may hold: a larger config is
# not run (radar at the default CPI holds 1.6e7)
_MAX_SAMPLES = 4e6


def _default(sec, key):
    if key in _BASE[sec]:
        return _BASE[sec][key]
    return getattr(_DEFAULTS.get(sec), key, None)


def _values(kind, default):
    """Values of a config key's kind, around its default."""
    if typing.get_origin(kind) is tuple:
        elem = typing.get_args(kind)[0]
        return st.lists(_values(elem, default[0] if default else None),
                        max_size=3)
    if kind is rrx.Target:
        return st.fixed_dictionaries(
            {"range_m": _values(float, 1500.0),
             "velocity": _values(float, 30.0),
             "azimuth_deg": _values(float, 1.0)},
            optional={"coeff": st.sampled_from(["0.6-0.8j", "1", "x"])})
    if kind is str:
        return st.sampled_from(_STRINGS)
    if kind is int:
        return st.one_of(st.sampled_from([-1, 0, 1, 2, 3, 7, 33, 2 ** 40]),
                         st.integers(0, 2 * (default or 1) + 2))
    scale = default or 1.0
    return st.one_of(
        st.sampled_from([0.0, 1e-300, 1e300, -1e300, math.inf]),
        st.sampled_from(_SCALES).map(lambda f: f * scale))


@st.composite
def _edits(draw):
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=2,
                         unique=True))
    return {(sec, key): draw(_values(cli.SCHEMA[sec][key],
                                     _default(sec, key)))
            for sec, key in keys}


def _runs_within_the_guard(command, inp) -> bool:
    """Whether each array ``command`` makes on ``inp`` stays within
    ``_MAX_SAMPLES`` complex samples, and its loops stay short."""
    cfg, sweep = inp.cfg, inp.sweep
    grid = cfg.prts_per_cpi * cfg.hops_per_pulse * cfg.n_subbands
    if grid > _MAX_SAMPLES or sweep.n_targets > 200:
        return False
    if command == "radar":
        return (cfg.samples_per_prt * cfg.prts_per_cpi * inp.array.n_rx
                <= _MAX_SAMPLES
                and sweep.angle_grid_points <= 1e5)
    if command in ("txgen", "comm"):
        n_prt = inp.run.get("n_prt", cfg.prts_per_cpi)
        return (n_prt * cfg.samples_per_prt <= _MAX_SAMPLES
                and n_prt * cfg.hops_per_pulse * cfg.n_subbands
                <= _MAX_SAMPLES)
    if inp.kind == "radar":
        return (len(sweep.radar_snr_grid_db) * sweep.trials <= 4
                and sweep.angle_grid_points <= 1e5
                and cfg.samples_per_prt * cfg.prts_per_cpi * inp.array.n_rx
                <= _MAX_SAMPLES)
    n_prt = 2000 if inp.kind == "methods" else sweep.chunk_prt
    points = (1 if inp.kind == "methods" else len(sweep.snr_grid_db)
              * len(sweep.modulations) * len(sweep.hop_durations))
    try:
        spans = [bench.config_for_hop_duration(cfg, hop).samples_per_prt
                 for hop in sweep.hop_durations]
    except ConfigError:
        spans = []              # the sweep refuses it
    return (points <= 4 and sweep.min_symbols <= 20 * sweep.chunk_prt
            and n_prt * max(spans + [cfg.samples_per_prt]) <= _MAX_SAMPLES
            and n_prt * cfg.hops_per_pulse * cfg.n_subbands <= _MAX_SAMPLES)


def _names(message, sec, key) -> bool:
    """Whether a refusal names ``sec.key``: in full, or, for a check across
    fields of one section that leads with another of them
    (``radar.n_tx = 2 exceeds n_subbands = 1``), by the key alone."""
    return (f"{sec}.{key}" in message
            or message.startswith(f"{sec}.")
            and re.search(rf"\b{key}\b", message) is not None)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edits=_edits())
def test_schema_edits_exit_by_name_and_never_crash(edits):
    # one or two keys set to values of their kind: each command exits 0,
    # 2, 3 or 4, never 5; an exit 2 names the section.key of an edited key
    # and leaves no output directory. A command whose arrays would pass
    # _MAX_SAMPLES is not run
    config = json.loads(json.dumps(_BASE))
    for (sec, key), value in edits.items():
        config[sec][key] = value
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(bench, "usable_cpus", lambda: 1):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        try:
            inp = cli.build_inputs(cli.load_config(path))
        except ConfigError:
            inp = None                  # every command refuses it
        for command in ("txgen", "comm", "radar", "sweep"):
            if inp is not None and not _runs_within_the_guard(command, inp):
                continue
            out = Path(tmp) / command
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--config", str(path), "--out", str(out),
                                 command])
            assert code in (0, 2, 3, 4), (command, err.getvalue())
            if code == cli.EXIT_CONFIG:
                message = json.loads(err.getvalue())["message"]
                assert any(_names(message, sec, key) for sec, key in edits), (
                    command, message)
                assert not out.exists(), command
