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
import shutil
import sys
import typing
from pathlib import Path

import numpy as np

from . import bench, commrx, radarrx
from .config import (ConfigError, RadarConfig, check_order_bits,
                     noise_var_for_snr, prefixed)
from .impairments import FrontEndProfile, ImpairmentSpec, apply
from .iqfile import (IqFormatError, config_hash, read_iq, write_csv,
                     write_iq, write_rdm)
from .waveform import PayloadLengthError, make_psk_grid, plan_hops, synthesize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PAYLOAD = 4
EXIT_INTERNAL = 5


# The keys each section may give and the kind each converts to, read by both
# the key check and the conversion; no key is in two sections. The radar,
# array and sweep kinds are their dataclasses' field annotations, but the
# sweep's seed is run.seed; a scene target is a radarrx.Target.
SCHEMA = {
    "radar": typing.get_type_hints(RadarConfig),
    "impairment": {"rho": float, "sto_initial": float, "snr_db": float,
                   "front_end": str},
    "scene": {"targets": tuple[radarrx.Target, ...]},
    "array": typing.get_type_hints(radarrx.ArrayModel),
    "sweep": {"kind": str, **typing.get_type_hints(bench.SweepSpec)},
    "run": {"seed": int, "order_bits": int, "n_prt": int, "mode": str,
            "payload_file": str, "iq_file": str},
}
del SCHEMA["sweep"]["seed"]


def _check_keys(where: str, given, allowed) -> None:
    if not isinstance(given, dict):
        raise ConfigError(f"[{where}] must be a JSON object, got {given!r}")
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in [{where}]: {sorted(unknown)}")


def _convert(value, kind, key: str):
    """``value`` of config key ``key`` as ``kind``, else a ConfigError that
    names the key. Numbers are finite JSON numbers, not booleans or strings
    (but a complex may be a string, JSON having no complex literal); a tuple
    kind is a list; a dict kind, or a dataclass kind, a JSON object of its
    keys."""
    if isinstance(kind, dict):
        _check_keys(key, value, kind)
        return {k: _convert(v, kind[k], f"{key}.{k}")
                for k, v in value.items()}
    if dataclasses.is_dataclass(kind):
        given = _convert(value, typing.get_type_hints(kind), key)
        missing = [f.name for f in dataclasses.fields(kind)
                   if f.default is dataclasses.MISSING and f.name not in given]
        if missing:
            raise ConfigError(f"{key} needs {missing}")
        return kind(**given)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        return tuple(_convert(v, typing.get_args(kind)[0], f"{key}[{i}]")
                     for i, v in enumerate(value))
    if kind is str:
        if isinstance(value, str):
            return value
    elif type(value) in (int, float) or (kind, type(value)) == (complex, str):
        try:
            out = kind(value)
        except (ValueError, OverflowError):         # int(inf) overflows
            pass
        else:                   # 2.5 is no int, NaN and inf no number
            if out == value if kind is int else np.isfinite(out):
                return out
    what = kind.__name__
    if kind in (float, complex):
        what = f"a finite {what}"
    raise ConfigError(f"{key}: expected {what}, got {value!r}")


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Parse the JSON run configuration and check its keys;
    :func:`build_inputs` converts its values. A file that is not UTF-8
    JSON, or that nests deeper than the decoder can recurse, is a
    :class:`ConfigError` that names it."""
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except (ValueError, RecursionError) as exc:  # not UTF-8 JSON
            raise ConfigError(f"{path}: {exc}") from None
    _check_keys("<root>", raw, SCHEMA)
    for sec, kinds in SCHEMA.items():
        _check_keys(sec, raw.setdefault(sec, {}), kinds)
    for key, val in (overrides or {}).items():
        sec, name = key.split(".", 1)
        raw[sec][name] = val
    return raw


@dataclasses.dataclass(frozen=True)
class Inputs:
    """What a command runs on, built once from every config section."""

    raw: dict                   # the loaded config, echoed with the outputs
    cfg: RadarConfig
    run: dict                   # with the CLI's seed and PSK order defaults
    sweep: bench.SweepSpec
    kind: str                   # the sweep study, a key of STUDIES
    array: radarrx.ArrayModel
    spec: ImpairmentSpec
    targets: tuple | None       # the given scene; without it radar draws one
    rng: np.random.Generator    # comm's stream, which drew ``spec``


def build_inputs(raw: dict) -> Inputs:
    """Convert and check every section of ``raw``, so every command refuses
    the same configs; only radar draws a random scene, as the draw needs the
    radar's listening window. ``spec`` is drawn from
    comm's stream, ``SeedSequence([seed, 2])``, which comm carries on with."""
    sec = {name: _convert(raw[name], kinds, name)
           for name, kinds in SCHEMA.items()}
    with prefixed("radar."):
        cfg = RadarConfig(**sec["radar"])
    run = {"seed": 0, "order_bits": 3, **sec["run"]}
    if run["seed"] < 0:             # SeedSequence takes no negative entropy
        raise ConfigError(f"run.seed must be >= 0, got {run['seed']}")
    if run.get("n_prt", 1) < 1:
        raise ConfigError(f"run.n_prt must be >= 1, got {run['n_prt']}")
    if run.get("mode", "estimated") not in commrx.MODES:
        raise ConfigError(f"run.mode must be one of {commrx.MODES}, not "
                          f"{run['mode']!r}")
    with prefixed("run."):
        check_order_bits(run["order_bits"])
    kind = sec["sweep"].pop("kind", "ber")
    if kind not in STUDIES:
        raise ConfigError(f"sweep.kind must be one of {tuple(STUDIES)}, "
                          f"not {kind!r}")
    sweep = bench.SweepSpec(seed=run["seed"], **sec["sweep"])
    with prefixed("array."):
        array = radarrx.ArrayModel(**sec["array"])
    rng = np.random.default_rng(np.random.SeedSequence([run["seed"], 2]))
    spec = build_impairments(sec["impairment"], cfg, sweep, rng)
    targets = sec["scene"].get("targets")
    if targets is not None:
        with prefixed("scene."):
            radarrx.check_scene(targets, cfg)
    return Inputs(raw, cfg, run, sweep, kind, array, spec, targets, rng)


def build_impairments(sec: dict, cfg: RadarConfig, sweep: bench.SweepSpec,
                      rng) -> ImpairmentSpec:
    """The converted impairment section as an :class:`ImpairmentSpec`:
    noiseless without ``snr_db``; with ``rho`` the CFO and the clock
    mismatch follow from it, without it both are 0. A rippled front end
    takes the sweep's ripple scale."""
    fe_kind = sec.get("front_end", "flat")
    if fe_kind not in ("flat", "rippled"):
        raise ConfigError(f"impairment.front_end must be 'flat' or "
                          f"'rippled', not {fe_kind!r}")
    fe = (FrontEndProfile.rippled(cfg, rng, sweep.ripple_db, sweep.ripple_rad)
          if fe_kind == "rippled" else None)
    kw = {k: sec[k] for k in ("sto_initial",) if k in sec}
    noise_var = 0.0
    if "snr_db" in sec:
        with prefixed("impairment."):
            noise_var = noise_var_for_snr(sec["snr_db"])
    if "rho" in sec:
        with prefixed(f"impairment.rho {sec['rho']:g}: "):
            return ImpairmentSpec.from_clock(sec["rho"], cfg,
                                             noise_var=noise_var,
                                             front_end=fe, **kw)
    return ImpairmentSpec(noise_var=noise_var, front_end=fe, **kw)


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

def cmd_txgen(inp: Inputs, out_dir: Path) -> None:
    """Write transmit IQ frames and the ground-truth plan/PSK records."""
    run, cfg = inp.run, inp.cfg
    rng = np.random.default_rng(np.random.SeedSequence([run["seed"], 1]))
    payload = (_read_payload_bits(run["payload_file"])
               if run.get("payload_file") else None)
    plan = plan_hops(cfg, fhcs_bits=payload, n_prt=run.get("n_prt"), rng=rng)
    psk = make_psk_grid(cfg, plan, run["order_bits"], rng=rng)
    frame = synthesize(plan, psk, cfg)
    cfg_hash = _echo_config(inp.raw, out_dir)
    write_iq(out_dir / "tx.iq", frame)
    plan.to_csv(out_dir / "plan.txt", psk, cfg_hash)
    print(f"wrote {out_dir / 'tx.iq'} ({frame.n_channels} ch x "
          f"{frame.n_samples} samples) and plan.txt")


def cmd_comm(inp: Inputs, out_dir: Path) -> None:
    """End-to-end communication pipeline; reports BER when truth is local."""
    run, cfg, spec, rng = inp.run, inp.cfg, inp.spec, inp.rng
    plan = psk = None
    if run.get("iq_file"):
        rx = read_iq(run["iq_file"])
    else:
        plan = plan_hops(cfg, n_prt=run.get("n_prt"), rng=rng)
        psk = make_psk_grid(cfg, plan, run["order_bits"], rng=rng)
        rx = apply(synthesize(plan, psk, cfg), plan, psk, spec, cfg, rng=rng)
    cfg_hash = _echo_config(inp.raw, out_dir)
    # only the known mode reads the spec
    report = commrx.demodulate(rx, cfg, run["order_bits"], spec=spec,
                               **{k: run[k] for k in ("mode",) if k in run})
    report.to_csv(out_dir / "demod.csv", cfg_hash)
    summary = report.summary()
    if plan is not None:
        counts = commrx.score_report(report, plan, psk, cfg)
        rates = {"psk_ber": counts.psk_ber, "psk_ser": counts.psk_ser,
                 "fhcs_ber": counts.fhcs_ber}
        # a rate over an empty count is NaN, written as null
        summary.update({k: None if np.isnan(v) else v
                        for k, v in rates.items()},
                       psk_bits=counts.psk_bits, fhcs_bits=counts.fhcs_bits)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out_dir / 'demod.csv'}; "
          + (f"psk_ber={counts.psk_ber:.3g} "
             f"fhcs_ber={counts.fhcs_ber:.3g}" if plan is not None
             else "no local truth"))


def cmd_radar(inp: Inputs, out_dir: Path) -> None:
    """Synthesize a scene, run the radar chain, export detections + RDM."""
    run, cfg, sweep = inp.run, inp.cfg, inp.sweep
    seq = np.random.SeedSequence([run["seed"], 3])
    scene_rng, noise_rng, plan_rng = (
        np.random.default_rng(s) for s in seq.spawn(3))
    scene = inp.targets         # the whole scene, even an empty one
    if scene is None:           # else drawn as the radar sweep draws its own
        scene = sweep.random_scene(cfg, scene_rng)
    plan = plan_hops(cfg, rng=plan_rng)
    psk = make_psk_grid(cfg, plan, run["order_bits"], rng=plan_rng)
    # the echo defaults to 0 dB, where the comm link defaults to noiseless
    noise_var = (inp.spec.noise_var if "snr_db" in inp.raw["impairment"]
                 else 1.0)
    rdm, dets = bench.radar_cpi(cfg, sweep, plan, psk, scene, inp.array,
                                noise_var, noise_rng)
    cfg_hash = _echo_config(inp.raw, out_dir)
    dets.to_csv(out_dir / "detections.csv", cfg_hash)
    write_rdm(out_dir / "rdm.bin", rdm)
    truth_rows = [(t.range_m, t.velocity, t.azimuth_deg) for t in scene]
    write_csv(out_dir / "scene.csv", ["range_m", "velocity", "azimuth_deg"],
              truth_rows, cfg_hash)
    print(f"wrote {len(dets)} detections for {len(scene)} targets")


# Each sweep kind's study and the report file it writes; ``sweep --kind``
# takes its keys
STUDIES = {"ber": (bench.run_ber_sweep, "ber_sweep.csv"),
           "radar": (bench.run_radar_sweep, "radar_sweep.csv"),
           "methods": (bench.run_method_comparison, "method_comparison.csv")}


def cmd_sweep(inp: Inputs, out_dir: Path) -> None:
    """Run the configured Monte-Carlo study and write its report."""
    study, report = STUDIES[inp.kind]
    cfg_hash = _echo_config(inp.raw, out_dir)
    rep = study(inp.cfg, inp.sweep)
    write_csv(out_dir / report, rep.columns, rep.rows, cfg_hash)
    print(f"wrote {inp.kind} report to {out_dir / report}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fhmimo",
        description="Frequency-hopping MIMO dual-function "
                    "radar-communications simulator")
    p.add_argument("--config", help="JSON config file")
    # a flag whose dest is "section.key" overrides that config key
    p.add_argument("--seed", type=int, dest="run.seed", metavar="SEED",
                   help="master seed (overrides config)")
    p.add_argument("--out", default="out", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("txgen", help="generate transmit IQ + plan files")
    c = sub.add_parser("comm", help="run the communication receive chain")
    c.add_argument("--modulation", type=int, dest="run.order_bits",
                   metavar="MODULATION", help="PSK bits per symbol")
    c.add_argument("--mode", dest="run.mode", choices=commrx.MODES)
    r = sub.add_parser("radar", help="run the radar receive chain")
    r.add_argument("--snr", type=float, dest="impairment.snr_db",
                   metavar="SNR", help="per-sample SNR in dB")
    s = sub.add_parser("sweep", help="run a Monte-Carlo study")
    s.add_argument("--kind", choices=STUDIES, dest="sweep.kind")
    s.add_argument("--snr", type=float, nargs="+", dest="sweep.snr_grid_db",
                   metavar="SNR", help="SNR grid override")
    s.add_argument("--modulation", type=int, nargs="+",
                   dest="sweep.modulations", metavar="MODULATION",
                   help="PSK orders (bits) override")
    s.add_argument("--trials", type=int, dest="sweep.trials", metavar="TRIALS")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    overrides = {key: val for key, val in vars(args).items()
                 if "." in key and val is not None}
    if "sweep.snr_grid_db" in overrides:    # --snr sets both SNR grids
        overrides["sweep.radar_snr_grid_db"] = overrides["sweep.snr_grid_db"]

    out_dir = Path(args.out)
    # the outermost directory this run makes, removed if the run fails
    made = next((d for d in reversed([out_dir, *out_dir.parents])
                 if not d.exists()), None)
    try:
        inputs = build_inputs(load_config(args.config, overrides))
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = {"txgen": cmd_txgen, "comm": cmd_comm,
                   "radar": cmd_radar, "sweep": cmd_sweep}[args.command]
        handler(inputs, out_dir)
        return EXIT_OK
    except ConfigError as exc:
        code = _fail("config", exc, EXIT_CONFIG)
    except PayloadLengthError as exc:
        code = _fail("payload", exc, EXIT_PAYLOAD)
    except (IqFormatError, OSError) as exc:
        code = _fail("io", exc, EXIT_IO)
    except Exception as exc:  # pragma: no cover - defensive
        code = _fail("internal", exc, EXIT_INTERNAL)
    if made is not None and made.is_dir():
        shutil.rmtree(made)
    return code


def _fail(category: str, exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps({"error": category, "message": str(exc)})
                     + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
