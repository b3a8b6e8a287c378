"""Command-line front end: config parsing, subcommand dispatch, file I/O.

One JSON config file with sections mirroring the library modules (radar,
impairment, scene, array, sweep, run); command-line flags override file
keys; the effective configuration is echoed into the output directory so
every artifact can be reproduced from it. A single --seed drives all
randomness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, commrx, radarrx
from .config import ConfigError, RadarConfig
from .impairments import FrontEndProfile, ImpairmentSpec, apply
from .iqfile import (IqFormatError, config_hash, read_iq, write_csv,
                     write_iq, write_rdm)
from .waveform import PayloadLengthError, make_psk_grid, plan_hops, synthesize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PAYLOAD = 4
EXIT_INTERNAL = 5

_SECTIONS = ("radar", "impairment", "scene", "array", "sweep", "run")


def _check_keys(section: str, given: dict, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")


def _num(value, key: str, kind=float):
    """``kind(value)`` for config key ``key``; a value that does not convert
    is a :class:`ConfigError`, not an internal error."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a {kind.__name__}, got {value!r}"
                          ) from None


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Parse and validate the JSON run configuration."""
    raw = {}
    if path is not None:
        with open(path) as f:
            raw = json.load(f)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys("<root>", raw, _SECTIONS)
    for sec in _SECTIONS:
        raw.setdefault(sec, {})
    for key, val in (overrides or {}).items():
        sec, name = key.split(".", 1)
        raw[sec][name] = val

    fields = {f.name for f in dataclasses.fields(RadarConfig)}
    _check_keys("radar", raw["radar"], fields)
    _check_keys("impairment", raw["impairment"],
                {"rho", "cfo", "sto_initial", "sample_time_offset",
                 "noise_var", "snr_db", "front_end", "ripple_db",
                 "ripple_rad"})
    _check_keys("scene", raw["scene"],
                {"targets", "n_targets", "range_span", "velocity_span",
                 "azimuth_span"})
    _check_keys("array", raw["array"],
                {"n_rx", "tx_spacing", "rx_spacing", "random_errors"})
    sweep_fields = {f.name for f in dataclasses.fields(bench.SweepSpec)}
    _check_keys("sweep", raw["sweep"], sweep_fields | {"kind"})
    _check_keys("run", raw["run"],
                {"seed", "order_bits", "n_prt", "mode", "payload_file",
                 "iq_file"})
    return raw


def _given(sec: dict, kinds: dict) -> dict:
    """The keys of ``kinds`` that ``sec`` gives, each converted to its kind,
    so a library default applies to every key the config leaves out."""
    return {key: _num(sec[key], key, kind) for key, kind in kinds.items()
            if key in sec}


def _run(raw: dict) -> dict:
    """The run section with ``seed``, ``order_bits`` and ``n_prt`` converted;
    without ``n_prt``, ``run.get("n_prt")`` is None and :func:`plan_hops`
    plans one CPI."""
    run = {"seed": 0, "order_bits": 3, **raw["run"]}
    return {**run, **_given(run, {"seed": int, "order_bits": int,
                                  "n_prt": int})}


def _noise_var(sec: dict, default: float) -> float:
    """Per-sample noise variance: ``snr_db`` if given overrides
    ``noise_var``, which falls back to ``default``."""
    noise_var = _num(sec.get("noise_var", default), "noise_var")
    if "snr_db" in sec:
        noise_var = 10.0 ** (-_num(sec["snr_db"], "snr_db") / 10.0)
    return noise_var


def build_impairments(raw: dict, cfg: RadarConfig, rng) -> ImpairmentSpec:
    sec = raw["impairment"]
    noise_var = _noise_var(sec, 0.0)
    ripple = _given(sec, {"ripple_db": float, "ripple_rad": float})
    fe_kind = sec.get("front_end", "flat")
    if fe_kind == "rippled":
        fe = FrontEndProfile.rippled(cfg, rng, **ripple)
    elif fe_kind == "flat":
        fe = None
    else:
        raise ConfigError(f"unknown front_end kind {fe_kind!r}")
    clock = _given(sec, {"rho": float, "cfo": float, "sto_initial": float,
                         "sample_time_offset": float})
    if "rho" in clock:
        # the CFO and the sample-clock mismatch derive from rho
        rho = clock.pop("rho")
        _check_keys("impairment", clock, {"sto_initial"})
        return ImpairmentSpec.from_clock(rho, cfg, noise_var=noise_var,
                                         front_end=fe, **clock)
    spec = ImpairmentSpec(noise_var=noise_var, front_end=fe, **clock)
    spec.validate(cfg)
    return spec


def build_scene(raw: dict, cfg: RadarConfig, rng) -> radarrx.TargetScene:
    sec = raw["scene"]
    if sec.get("targets"):
        if not all(isinstance(t, dict) for t in sec["targets"]):
            raise ConfigError("scene targets must be JSON objects")
        kinds = {"range_m": float, "velocity": float, "azimuth_deg": float,
                 "coeff": complex}
        scene = radarrx.TargetScene(
            [radarrx.Target(**_given(t, kinds)) for t in sec["targets"]])
    else:
        scene = radarrx.TargetScene.random(
            cfg, rng=rng, **_given(sec, {
                "n_targets": int, "range_span": tuple,
                "velocity_span": tuple, "azimuth_span": tuple}))
    scene.validate(cfg)
    return scene


def build_array(raw: dict, cfg: RadarConfig, rng) -> radarrx.ArrayModel:
    sec = raw["array"]
    array = radarrx.ArrayModel(n_tx=cfg.n_tx, **_given(sec, {
        "n_rx": int, "tx_spacing": float, "rx_spacing": float}))
    return (array.with_random_errors(rng) if sec.get("random_errors")
            else array)


def _echo_config(raw: dict, out_dir: Path) -> str:
    blob = json.dumps(raw, sort_keys=True, indent=2, default=str)
    (out_dir / "effective_config.json").write_text(blob + "\n")
    return config_hash(raw)


def _read_payload_bits(path) -> np.ndarray:
    text = Path(path).read_text()
    bits = [c for c in text if c in "01"]
    if not bits:
        raise PayloadLengthError(f"no payload bits found in {path}")
    return np.array([int(c) for c in bits], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_txgen(raw: dict, cfg: RadarConfig, out_dir: Path) -> None:
    """Write transmit IQ frames and the ground-truth plan/PSK records."""
    run = _run(raw)
    rng = np.random.default_rng(np.random.SeedSequence([run["seed"], 1]))
    payload = (_read_payload_bits(run["payload_file"])
               if run.get("payload_file") else None)
    plan = plan_hops(cfg, fhcs_bits=payload, n_prt=run.get("n_prt"), rng=rng)
    psk = make_psk_grid(cfg, plan, run["order_bits"], rng=rng)
    frame = synthesize(plan, psk, cfg)
    cfg_hash = _echo_config(raw, out_dir)
    write_iq(out_dir / "tx.iq", frame)
    (out_dir / "plan.txt").write_text(
        f"# config_hash={cfg_hash}\n" + "\n".join(plan.to_records(psk)) + "\n")
    print(f"wrote {out_dir / 'tx.iq'} ({frame.n_channels} ch x "
          f"{frame.n_samples} samples) and plan.txt")


def cmd_comm(raw: dict, cfg: RadarConfig, out_dir: Path) -> None:
    """End-to-end communication pipeline; reports BER when truth is local."""
    run = _run(raw)
    rng = np.random.default_rng(np.random.SeedSequence([run["seed"], 2]))
    spec = build_impairments(raw, cfg, rng)
    cfg_hash = _echo_config(raw, out_dir)

    plan = psk = None
    if run.get("iq_file"):
        rx = read_iq(run["iq_file"])
    else:
        plan = plan_hops(cfg, n_prt=run.get("n_prt"), rng=rng)
        psk = make_psk_grid(cfg, plan, run["order_bits"], rng=rng)
        frame = synthesize(plan, psk, cfg)
        rx = apply(frame, plan, psk, spec, cfg, rng=rng)
    # only the known mode reads the spec
    report = commrx.demodulate(rx, cfg, run["order_bits"], spec=spec,
                               **_given(run, {"mode": str}))
    report.to_csv(out_dir / "demod.csv", cfg_hash)
    summary = report.summary()
    if plan is not None:
        counts = commrx.score_report(report, plan, psk, cfg)
        summary.update(psk_ber=counts.psk_ber, psk_ser=counts.psk_ser,
                       fhcs_ber=counts.fhcs_ber,
                       psk_bits=counts.psk_bits,
                       fhcs_bits=counts.fhcs_bits)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out_dir / 'demod.csv'}; "
          + (f"psk_ber={summary['psk_ber']:.3g} "
             f"fhcs_ber={summary['fhcs_ber']:.3g}" if plan is not None
             else "no local truth"))


def cmd_radar(raw: dict, cfg: RadarConfig, out_dir: Path) -> None:
    """Synthesize a scene, run the radar chain, export detections + RDM."""
    run = _run(raw)
    seq = np.random.SeedSequence([run["seed"], 3])
    scene_rng, noise_rng, plan_rng, arr_rng = (
        np.random.default_rng(s) for s in seq.spawn(4))
    scene = build_scene(raw, cfg, scene_rng)
    array = build_array(raw, cfg, arr_rng)
    sweep = build_sweep_spec(raw, run["seed"])
    plan = plan_hops(cfg, rng=plan_rng)
    psk = make_psk_grid(cfg, plan, run["order_bits"], rng=plan_rng)
    rx = radarrx.synthesize_echo(plan, psk, scene, array, cfg,
                                 noise_var=_noise_var(raw["impairment"], 1.0),
                                 rng=noise_rng)
    grid = radarrx.angle_grid(sweep.angle_fov_deg, sweep.angle_grid_points)
    rdm, dets = radarrx.process_cpi(rx, plan, psk, cfg, array,
                                    p_fa=sweep.p_fa, grid=grid)
    cfg_hash = _echo_config(raw, out_dir)
    dets.to_csv(out_dir / "detections.csv", cfg_hash)
    write_rdm(out_dir / "rdm.bin", rdm)
    truth_rows = [(t.range_m, t.velocity, t.azimuth_deg)
                  for t in scene.targets]
    write_csv(out_dir / "scene.csv", ["range_m", "velocity", "azimuth_deg"],
              truth_rows, cfg_hash)
    print(f"wrote {len(dets)} detections for {len(scene.targets)} targets")


def build_sweep_spec(raw: dict, seed: int) -> bench.SweepSpec:
    """The sweep section as a :class:`bench.SweepSpec`; ``seed`` (the run
    seed) applies unless the section gives its own."""
    sec = {k: v for k, v in raw["sweep"].items() if k != "kind"}
    return bench.SweepSpec(**{"seed": seed, **sec})


def cmd_sweep(raw: dict, cfg: RadarConfig, out_dir: Path) -> None:
    """Run the configured Monte-Carlo study and export report files."""
    sweep = build_sweep_spec(raw, _run(raw)["seed"])
    kind = raw["sweep"].get("kind", "ber")
    cfg_hash = _echo_config(raw, out_dir)
    if kind == "ber":
        rep = bench.run_ber_sweep(cfg, sweep)
        rep.to_csv(out_dir / "ber_sweep.csv", cfg_hash)
        rep.to_plotdata(out_dir / "ber_plotdata.csv", "snr_db",
                        ["psk_ber", "fhcs_ber"],
                        ["hop_duration", "order_bits"], cfg_hash)
    elif kind == "radar":
        rep = bench.run_radar_sweep(cfg, sweep)
        rep.to_csv(out_dir / "radar_sweep.csv", cfg_hash)
        rep.to_plotdata(out_dir / "radar_plotdata.csv", "snr_db",
                        ["rmse_range", "rmse_velocity", "rmse_angle"],
                        ["waveform"], cfg_hash)
    elif kind == "methods":
        rep = bench.run_method_comparison(cfg, sweep)
        rep.to_csv(out_dir / "method_comparison.csv", cfg_hash)
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    print(f"wrote {kind} report to {out_dir}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fhmimo",
        description="Frequency-hopping MIMO dual-function "
                    "radar-communications simulator")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--out", default="out", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("txgen", help="generate transmit IQ + plan files")
    c = sub.add_parser("comm", help="run the communication receive chain")
    c.add_argument("--modulation", type=int, choices=(1, 2, 3, 4),
                   help="PSK bits per symbol")
    c.add_argument("--mode",
                   choices=("estimated", "averaged", "flat", "known"))
    r = sub.add_parser("radar", help="run the radar receive chain")
    r.add_argument("--snr", type=float, help="per-sample SNR in dB")
    s = sub.add_parser("sweep", help="run a Monte-Carlo study")
    s.add_argument("--kind", choices=("ber", "radar", "methods"))
    s.add_argument("--snr", type=float, nargs="+", help="SNR grid override")
    s.add_argument("--modulation", type=int, nargs="+",
                   help="PSK orders (bits) override")
    s.add_argument("--trials", type=int)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    if getattr(args, "modulation", None) is not None:
        if args.command == "comm":
            overrides["run.order_bits"] = args.modulation
        else:
            overrides["sweep.modulations"] = list(args.modulation)
    if getattr(args, "mode", None):
        overrides["run.mode"] = args.mode
    if getattr(args, "snr", None) is not None:
        if args.command == "radar":
            overrides["impairment.snr_db"] = args.snr
        else:
            overrides["sweep.snr_grid_db"] = list(args.snr)
            overrides["sweep.radar_snr_grid_db"] = list(args.snr)
    if getattr(args, "kind", None):
        overrides["sweep.kind"] = args.kind
    if getattr(args, "trials", None) is not None:
        overrides["sweep.trials"] = args.trials

    try:
        raw = load_config(args.config, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = {"txgen": cmd_txgen, "comm": cmd_comm,
                   "radar": cmd_radar, "sweep": cmd_sweep}[args.command]
        handler(raw, RadarConfig(**raw["radar"]), out_dir)
        return EXIT_OK
    except (ConfigError, json.JSONDecodeError, TypeError) as exc:
        _fail("config", exc)
        return EXIT_CONFIG
    except PayloadLengthError as exc:
        _fail("payload", exc)
        return EXIT_PAYLOAD
    except (IqFormatError, OSError) as exc:
        _fail("io", exc)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        _fail("internal", exc)
        return EXIT_INTERNAL


def _fail(category: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": category, "message": str(exc)})
                     + "\n")


if __name__ == "__main__":
    sys.exit(main())
