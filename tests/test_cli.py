import json

import numpy as np
import pytest

from fhmimo import cli
from fhmimo import impairments as imp
from fhmimo import radarrx as rrx
from fhmimo.config import RadarConfig
from fhmimo.iqfile import IqFrame, IqFormatError, read_iq, write_iq


def run_cli(*args):
    return cli.main(list(args))


@pytest.fixture
def cfg_file(tmp_path):
    cfg = {
        "radar": {"prts_per_cpi": 20},
        "impairment": {"rho": 1e-6, "sto_initial": 7.5e-9, "snr_db": 25,
                       "front_end": "rippled"},
        "scene": {"n_targets": 3},
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
    # comes back complex64 and writable
    data = rng.standard_normal((3, 640)) + 1j * rng.standard_normal((3, 640))
    data[0, :4] = [complex(-0.0, 1), complex(1, -0.0), complex(1, np.inf),
                   complex(-np.inf, np.nan)]
    frame = IqFrame(data, 40e6, 320)
    write_iq(tmp_path / "x.iq", frame)
    back = read_iq(tmp_path / "x.iq")
    assert back.sample_rate == 40e6
    assert back.samples_per_prt == 320
    assert back.data.dtype == np.complex64 and back.data.flags.writeable
    assert back.data.tobytes() == data.astype(np.complex64).tobytes()


def test_iq_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.iq"
    p.write_bytes(b"NOTIQ\nx=1\ndata\n")
    with pytest.raises(IqFormatError):
        read_iq(p)
    head = b"FHIQ1\nsample_rate=1\nchannels=%d\nsamples=%d\n" \
           b"samples_per_prt=5\ndata\n"
    # short payload, one trailing byte, a header claiming 1e12 samples
    # (checked before allocating) and negative counts whose product fits
    for bad in (head % (2, 10) + b"\x00\x00",
                head % (2, 10) + bytes(161),
                head % (1, 10 ** 12) + bytes(80),
                head % (-2, -10) + bytes(160)):
        p.write_bytes(bad)
        with pytest.raises(IqFormatError):
            read_iq(p)


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
        assert summary["cfo_hat"] == 0.0
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
    merged = IqFrame(frame.data.sum(axis=0), frame.sample_rate,
                     frame.samples_per_prt)
    write_iq(out_tx / "rx.iq", merged)
    cfg["run"]["iq_file"] = str(out_tx / "rx.iq")
    p = tmp_path / "cfg4.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "cf"
    assert run_cli("--config", str(p), "--out", str(out), "comm") == 0
    lines = (out / "demod.csv").read_text().splitlines()
    assert lines[1].startswith("prt,hop,antenna")
    assert len(lines) == 2 + 20 * 6 + 2
    # a capture skips make_psk_grid; demodulate checks order_bits itself
    cfg["run"]["order_bits"] = -1
    p.write_text(json.dumps(cfg))
    assert run_cli("--config", str(p), "--out", str(out), "comm") == \
        cli.EXIT_CONFIG


def test_iq_frame_rejects_partial_prt():
    # 1000 samples is not a whole number of 1600-sample PRTs
    with pytest.raises(IqFormatError):
        IqFrame(np.ones(1000, dtype=complex), 40e6, 1600)
    with pytest.raises(IqFormatError):
        IqFrame(np.ones(1000, dtype=complex), 40e6, 0)


def test_comm_rejects_iq_file_with_partial_prt(cfg_file, tmp_path):
    # 1000 samples is not a whole number of 1600-sample PRTs; IqFrame
    # refuses such a frame, so the file is written by hand
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


def test_comm_rejects_iq_file_of_another_config(cfg_file, tmp_path):
    # 800-sample PRTs at 20 MHz: not the configured 1600 at 40 MHz
    path = tmp_path / "other.iq"
    write_iq(path, IqFrame(np.ones(3200, dtype=complex), 20e6, 800))
    cfg = json.loads(cfg_file.read_text())
    cfg["run"]["iq_file"] = str(path)
    p = tmp_path / "cfg6.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == cli.EXIT_CONFIG == 2


def test_radar_command(cfg_file, tmp_path):
    out = tmp_path / "radar"
    assert run_cli("--config", str(cfg_file), "--out", str(out), "radar",
                   "--snr", "-20") == 0
    det_lines = (out / "detections.csv").read_text().splitlines()
    assert det_lines[1].startswith("doppler_bin,range_bin")
    assert (out / "rdm.bin").stat().st_size > 1000
    assert (out / "scene.csv").exists()


def _with_noise(cfg_file, tmp_path, noise, drop=()):
    """Config file whose impairment section sets only ``noise`` (a dict
    with ``noise_var`` or ``snr_db``) next to the fixture's other keys,
    less those named in ``drop``."""
    cfg = json.loads(cfg_file.read_text())
    for key in ("snr_db", *drop):
        cfg["impairment"].pop(key)
    cfg["impairment"].update(noise)
    p = tmp_path / "noise.json"
    p.write_text(json.dumps(cfg))   # NaN is written as the literal NaN
    return p


@pytest.mark.parametrize("command, noise", [
    ("radar", {"noise_var": -1.0}),
    ("radar", {"noise_var": float("nan")}),
    ("radar", {"snr_db": float("nan")}),
    ("comm", {"noise_var": float("nan")}),
    ("comm", {"snr_db": float("nan")})])
def test_invalid_noise_variance_rejected(cfg_file, tmp_path, command, noise):
    # a negative or NaN noise variance is a config error, not "no noise"
    # (a negative one already fails ImpairmentSpec.validate for comm)
    p = _with_noise(cfg_file, tmp_path, noise)
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   command) == cli.EXIT_CONFIG == 2


@pytest.mark.parametrize("keys, drop", [
    ({"cfo": float("nan")}, ("rho",)),
    ({"sto_initial": float("inf")}, ("rho",)),
    ({"sample_time_offset": float("nan")}, ("rho",)),
    ({"rho": float("nan")}, ())],
    ids=["cfo-nan", "sto_initial-inf", "sample_time_offset-nan", "rho-nan"])
def test_non_finite_clock_errors_rejected(cfg_file, tmp_path, keys, drop):
    # a NaN or infinite CFO, STO or clock stability used to give an all-NaN
    # frame and exit 0; without rho, cfo and sample_time_offset are known
    # keys, so the exit code is the value check's
    p = _with_noise(cfg_file, tmp_path, {"snr_db": 25, **keys}, drop)
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, section, values", [
    ("radar", "array", {"n_rx": "abc"}),
    ("comm", "run", {"n_prt": "x"}),
    ("comm", "run", {"n_prt": -5}),
    ("comm", "impairment", {"ripple_db": "x"}),
    ("radar", "scene", {"targets": [{"range_m": 100.0}]}),
    ("radar", "scene", {"targets": [{"velocity": 10.0}]}),
    ("radar", "scene", {"targets": [5]}),
    ("radar", "array", {"n_rx": -3}),
    ("radar", "array", {"n_rx": 0}),
    ("radar", "array", {"rx_spacing": "nan"}),
    ("radar", "scene", {"range_span": [5000, 100]}),
    ("radar", "scene", {"n_targets": -2}),
    ("radar", "sweep", {"angle_grid_points": 0}),
    ("radar", "sweep", {"p_fa": 2.0}),
    ("txgen", "run", {"order_bits": -1}),
    ("comm", "run", {"order_bits": -1}),
    ("comm", "run", {"mode": "bogus"}),
    ("comm", "impairment", {"rho": 1.0}),
    ("txgen", "run", {"n_prt": 20.5}),
    ("radar", "array", {"n_rx": 2.7}),
    ("comm", "run", {"order_bits": 64}),
    ("comm", "run", {"order_bits": 70}),
    ("radar", "scene", {"range_span": [1000]}),
    ("radar", "scene", {"velocity_span": [-5, 0, 5]}),
    ("radar", "sweep", {"angle_fov_deg": float("nan")})],
    ids=["n_rx-text", "n_prt-text", "n_prt-negative", "ripple_db-text",
         "target-in-blind-zone", "target-without-range",
         "target-not-object", "n_rx-negative", "n_rx-zero", "rx_spacing-nan",
         "range_span-empty", "n_targets-negative", "angle_grid_points-zero",
         "p_fa-above-one", "order_bits-negative-txgen",
         "order_bits-negative-comm", "mode-unknown", "rho-one",
         "n_prt-fraction", "n_rx-fraction", "order_bits-64", "order_bits-70",
         "range_span-one-entry", "velocity_span-three-entries",
         "angle_fov_deg-nan"])
def test_malformed_config_values_are_config_errors(cfg_file, tmp_path,
                                                    command, section,
                                                    values):
    # each used to exit 5 ("internal") on an uncaught error, or 0 with
    # meaningless output (n_rx 0, rx_spacing NaN, n_targets < 0, p_fa > 1,
    # a count truncated to an int, order_bits 64 overflowing int64 symbol
    # arithmetic, a NaN angle grid)
    cfg = json.loads(cfg_file.read_text())
    cfg.setdefault(section, {}).update(values)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   command) == cli.EXIT_CONFIG


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_comm_with_63_bit_symbols_runs_cleanly(cfg_file, tmp_path):
    # the widest symbol the int64 arithmetic holds; an integral float count
    # is still accepted
    cfg = json.loads(cfg_file.read_text())
    cfg["run"].update(order_bits=63, n_prt=20.0)
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("--config", str(p), "--out", str(tmp_path / "o"),
                   "comm") == 0


def test_empty_sections_give_library_defaults():
    # build_array, build_scene and build_impairments pass on only the keys
    # a config gives, so an empty section means the library's defaults
    cfg = RadarConfig(prts_per_cpi=20)
    raw = cli.load_config()
    assert cli.build_array(raw, cfg, 0) == rrx.ArrayModel(n_tx=cfg.n_tx)
    assert cli.build_scene(raw, cfg, 5) == rrx.TargetScene.random(cfg, rng=5)
    raw["impairment"]["front_end"] = "rippled"
    fe = cli.build_impairments(raw, cfg, 7).front_end
    ref = imp.FrontEndProfile.rippled(cfg, rng=7)
    np.testing.assert_array_equal(fe.gains, ref.gains)
    np.testing.assert_array_equal(fe.channel, ref.channel)


def test_sweep_command_and_determinism(cfg_file, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run_cli("--config", str(cfg_file), "--seed", "5", "--out",
                       str(out), "sweep", "--kind", "ber") == 0
        outs.append((out / "ber_sweep.csv").read_bytes())
    assert outs[0] == outs[1]
    assert b"fhcs_ber" in outs[0]


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


def test_seed_changes_payload(cfg_file, tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    run_cli("--config", str(cfg_file), "--seed", "1", "--out", str(out1),
            "txgen")
    run_cli("--config", str(cfg_file), "--seed", "2", "--out", str(out2),
            "txgen")
    assert (out1 / "plan.txt").read_text() != (out2 / "plan.txt").read_text()
