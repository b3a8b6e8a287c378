"""Check that two source trees give byte-identical seeded outputs.

    python tools/identity.py [--all-equal] PARENT_TREE CHANGE_TREE

Each tree runs the same matrix in its own interpreter, with the tree's
``src`` as ``PYTHONPATH``:

* the CLI on small configs: ``txgen``, ``comm`` in all four modes,
  both also without PSK (``order_bits`` 0), ``radar`` on a
  2 x 12 array with a random scene of the default count and spans and
  with a given two-target scene
  (one complex ``coeff``), and on the M = 3, K = 7, H = 4 config with 5
  receive antennas, and ``sweep --kind ber|radar|methods``; on an empty
  impairment section (no clock error, no SNR), ``comm --mode
  known|estimated`` and ``radar`` without ``--snr``; ``txgen`` and
  ``sweep --kind methods`` on a config that also gives ``array``,
  ``scene`` (a target list) and ``impairment``, sections neither uses;
  every file each run writes and its exit code are kept;
* each tree's own ``demos/*.py``, run as scripts: every file each writes,
  its stdout and its exit code are kept (each demo runs in under a second
  and repeats its output exactly);
* ``commrx.demodulate`` in all four modes, in process, on seeded frames of
  the default config and of an M = 3, K = 7, H = 4 config: first PRT 0, 5
  and 13, partial last pilot cycles, -20 to 20 dB (erased slots included),
  noiseless frames (``noise_var`` 0), 1- and 40-PRT frames and frames
  without a usable pilot pair, each frame with 8PSK and without PSK (order
  0). Every ``DemodReport`` field, every ``score_report`` count and the
  FHIQ bytes ``write_iq`` writes of each frame are hashed, so the zero
  tail it pads a pulse-only frame with is compared too. A report nested in
  another is hashed one field a key (``.../sync/cfo``,
  ``.../score_report/psk_bits``), so a field that one tree drops or adds
  differs by its own name. The noiseless rows let a change to the
  channel's noise draw show that everything but the noise still matches:
  its noisy rows differ by name, its noiseless ones must not. Each FHIQ
  file is read back with ``read_iq`` (complex64, as the ``comm-rx``
  benchmark reads its frames) and demodulated in all four modes, and those
  reports are hashed too. In each mode the frame is also demodulated as a
  fresh frame over the same samples (``dataclasses.replace``, a new memo
  key): within each tree, every report of the frame itself (its slot grid
  computed once and reused by the later modes, its blind estimate
  computed by the first blind mode) must equal the fresh frame's field by
  field, and so must every report of another such frame demodulated in
  the reverse mode order, ``known`` first, whose memo fills in the other
  order;
* the radar front ends, in process, on three seeded CPIs: the default
  config with 12 receive antennas and the default random scene (50
  targets) at -8 dB, the M = 3, K = 7, H = 4 config with 5 receive
  antennas and its default scene at -16 dB, and the default CPI and scene
  without noise (``noise_var`` 0). Each CPI hashes the echo array
  ``synthesize_echo`` builds, its ``matched_filter`` profiles and the
  profiles of ``echo_profiles``, the pipeline every CLI and benchmark CPI
  runs, so the plain reference is compared as well as the pipeline.

Every output that differs between the two trees is named. A change that
alters seeded outputs on purpose (a named seed-contract change) lists
them in ``seed_contract.txt`` next to this file, one a line as this tool
prints it, or as an ``fnmatch`` pattern (``demodulate */sync/cfo``; ``*``
also matches ``/``). The exit status is 1 when an output no line matches
differs, a line matches no differing output, or a memoized report
differs from a fresh frame's; 0 otherwise. ``--all-equal`` ignores the
list, so every output must match: that is the check that two copies of
one tree repeat each other. A change runs this against its parent
commit, e.g. a ``git archive`` of it unpacked elsewhere. It needs two
trees, so the test suite does not run it.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DEMOD_JSON = "demod.json"
RADAR_JSON = "radar.json"
# The files of hashes compared key by key, with each key's output prefix
KEYED = {DEMOD_JSON: "demodulate", RADAR_JSON: "radar"}
MEMO_JSON = "memo.json"      # outputs unlike a fresh frame's; not compared
CONTRACT = Path(__file__).with_name("seed_contract.txt")

BASE = {"radar": {"n_subbands": 20, "n_tx": 2, "hops_per_pulse": 5,
                  "prts_per_cpi": 32},
        "impairment": {"rho": 1.5e-6, "sto_initial": 7.5e-9, "snr_db": 2,
                       "front_end": "rippled"},
        "run": {"seed": 3, "n_prt": 90, "order_bits": 3}}
SMALL = {"n_subbands": 7, "n_tx": 3, "hops_per_pulse": 4, "bandwidth": 7e6,
         "sample_rate": 14e6, "prt_duration": 8e-6, "prts_per_cpi": 32}
SWEEP = {"snr_grid_db": [-8, 6], "modulations": [2, 3],
         "hop_durations": [1e-6], "min_symbols": 400, "chunk_prt": 120,
         "trials": 2, "n_targets": 3, "radar_snr_grid_db": [-16],
         "angle_grid_points": 64}
MODES = ("estimated", "averaged", "flat", "known")


def _cli_runs():
    """(name, config, argv) of every CLI run."""
    small = {**BASE, "radar": SMALL}
    no_psk = {**BASE, "run": {**BASE["run"], "order_bits": 0}}
    runs = [("txgen", BASE, ["txgen"]), ("txgen-j0", no_psk, ["txgen"])]
    runs += [(f"comm-{m}", BASE, ["comm", "--mode", m]) for m in MODES]
    runs += [(f"comm-j0-{m}", no_psk, ["comm", "--mode", m]) for m in MODES]
    runs += [(f"comm-small-{m}", small, ["comm", "--mode", m])
             for m in MODES]
    # the random scenes take SweepSpec's default count and spans
    runs.append(("radar", BASE, ["radar", "--snr", "-16"]))
    targets = [{"range_m": 1500.0, "velocity": 30.0, "azimuth_deg": 1.0},
               {"range_m": 2600.0, "velocity": -80.0, "azimuth_deg": -2.0,
                "coeff": "0.6-0.8j"}]
    runs.append(("radar-targets", {**BASE, "scene": {"targets": targets}},
                 ["radar", "--snr", "-16"]))
    runs.append(("radar-small", {**small, "array": {"n_rx": 5}},
                 ["radar", "--snr", "-16"]))
    # the defaults: no clock error, noiseless comm, a 0 dB radar echo
    clean = {**BASE, "impairment": {}}
    runs += [(f"comm-clean-{m}", clean, ["comm", "--mode", m])
             for m in ("known", "estimated")]
    runs.append(("radar-0db", clean, ["radar"]))
    # commands that use none of array, scene and impairment, given all three
    full = {**BASE, "array": {"n_rx": 5}, "scene": {"targets": targets},
            "sweep": {**SWEEP, "kind": "methods"}}
    runs += [("txgen-full", full, ["txgen"]),
             ("sweep-methods-full", full, ["sweep"])]
    for kind in ("ber", "radar", "methods"):
        modes = ("estimated", "averaged") if kind == "ber" else ("known",)
        for m in modes:
            sweep = {**SWEEP, "kind": kind, "comm_mode": m}
            runs.append((f"sweep-{kind}-{m}", {**BASE, "sweep": sweep},
                         ["sweep"]))
    return runs


def _frames():
    """(name, cfg kwargs, n_prt, first_prt, snr_db, order_bits) of every
    demod frame; an SNR of None is a noiseless frame, and an order-0 frame
    (named ``-j0``) carries no PSK."""
    out = []
    for tag, kw in (("default", {}), ("small", SMALL)):
        for n_prt, first_prt, snrs in ((1, 0, (20,)),
                                       (40, 0, (-20, 20, None)),
                                       (45, 5, (-8, 4, None)),
                                       (333, 13, (-4, 10, None)),
                                       (160, 0, (0,))):
            out += [(f"{tag}-n{n_prt}-p{first_prt}-"
                     + ("noiseless" if snr is None else f"{snr}dB")
                     + ("-j0" if j == 0 else ""), kw, n_prt, first_prt, snr, j)
                    for snr in snrs for j in (3, 0)]
    return out


def _radar_cases():
    """(name, cfg kwargs, n_rx, snr_db) of every in-process radar CPI; an
    SNR of None is a noiseless echo."""
    return [("default-8dB", {}, 12, -8), ("small-5rx-16dB", SMALL, 5, -16),
            ("default-noiseless", {}, 12, None)]


def _digests(key: str, value) -> dict:
    """``{key: hash}`` of a value's exact bytes (an array by dtype, shape
    and data, anything else by ``repr``); a dataclass gives one entry per
    field, ``key/field``, nested dataclasses in turn."""
    if dataclasses.is_dataclass(value):
        return {k: d for f in dataclasses.fields(value)
                for k, d in _digests(f"{key}/{f.name}",
                                     getattr(value, f.name)).items()}
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return {key: h.hexdigest()}


def collect(out: Path) -> None:
    """Run the matrix with the ``fhmimo`` on the path; write under ``out``."""
    from fhmimo import cli, commrx, impairments as imp, radarrx as rrx
    from fhmimo import waveform as wf
    from fhmimo.bench import SweepSpec
    from fhmimo.config import RadarConfig, noise_var_for_snr
    from fhmimo.iqfile import read_iq, write_iq

    codes = {}
    for name, config, argv in _cli_runs():
        run_dir = out / "cli" / name
        run_dir.mkdir(parents=True)
        cfg_path = out / "cli" / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        codes[name] = cli.main(["--config", str(cfg_path.relative_to(out)),
                                "--out", str(run_dir.relative_to(out))]
                               + argv)
    (out / "cli" / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True))

    digests, unlike_fresh = {}, []
    for name, kw, n_prt, first_prt, snr_db, order_bits in _frames():
        cfg = RadarConfig(**kw)
        rng = np.random.default_rng(
            [n_prt, first_prt, 0 if snr_db is None else snr_db + 100])
        spec = imp.ImpairmentSpec.from_clock(
            1.5e-6, cfg, sto_initial=0.4 / cfg.sample_rate,
            noise_var=0.0 if snr_db is None else noise_var_for_snr(snr_db),
            front_end=imp.FrontEndProfile.rippled(cfg, rng=rng))
        plan = wf.plan_hops(cfg, n_prt=n_prt, rng=rng, first_prt=first_prt)
        psk = wf.make_psk_grid(cfg, plan, order_bits, rng=rng)
        rx = imp.apply(wf.synthesize(plan, psk, cfg), plan, psk, spec, cfg,
                       rng=rng)
        fhiq = out / "frame.fhiq"
        write_iq(fhiq, rx)
        digests[f"{name}/write_iq"] = hashlib.sha256(
            fhiq.read_bytes()).hexdigest()
        back = read_iq(fhiq)
        fhiq.unlink()
        reverse = dataclasses.replace(rx)
        reversed_reps = {mode: commrx.demodulate(reverse, cfg, order_bits,
                                                 mode=mode, spec=spec)
                         for mode in reversed(MODES)}
        for mode in MODES:
            rep, fresh, read_back = (
                commrx.demodulate(frame, cfg, order_bits, mode=mode,
                                  spec=spec)
                for frame in (rx, dataclasses.replace(rx), back))
            key = f"{name}/{mode}"
            own, other = _digests(key, rep), _digests(key, fresh)
            for order, memoized in (("", own), (" (reverse order)",
                                    _digests(key, reversed_reps[mode]))):
                unlike_fresh += sorted(
                    k + order for k in memoized.keys() | other.keys()
                    if memoized.get(k) != other.get(k))
            digests |= own | _digests(f"{name}/read_iq/{mode}", read_back)
            digests |= _digests(f"{key}/score_report",
                                commrx.score_report(rep, plan, psk, cfg))
    (out / DEMOD_JSON).write_text(json.dumps(digests, indent=1))
    (out / MEMO_JSON).write_text(json.dumps(unlike_fresh))

    radar = {}
    for name, kw, n_rx, snr_db in _radar_cases():
        cfg = RadarConfig(**kw)
        rng = np.random.default_rng(
            [n_rx, 0 if snr_db is None else snr_db + 100])
        plan = wf.plan_hops(cfg, n_prt=cfg.prts_per_cpi, rng=rng)
        psk = wf.make_psk_grid(cfg, plan, 3, rng=rng)
        args = (plan, psk, SweepSpec().random_scene(cfg, rng),
                rrx.ArrayModel(n_rx=n_rx), cfg)
        noise = {"noise_var": 0.0 if snr_db is None
                 else noise_var_for_snr(snr_db),
                 "rng": int(rng.integers(1 << 32))}
        echo = rrx.synthesize_echo(*args, **noise)
        radar |= _digests(f"{name}/synthesize_echo", echo)
        radar |= _digests(f"{name}/matched_filter",
                          rrx.matched_filter(echo, plan, psk, cfg))
        del echo
        radar |= _digests(f"{name}/echo_profiles",
                          rrx.echo_profiles(*args, **noise))
    (out / RADAR_JSON).write_text(json.dumps(radar, indent=1))


def _run_tree(tree: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--collect"], cwd=out, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: the matrix failed\n{proc.stderr}")
    demos, codes = out / "demos", {}
    demos.mkdir()
    for demo in sorted((tree / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], cwd=demos,
                              env=env, capture_output=True)
        (demos / f"{demo.stem}.stdout").write_bytes(proc.stdout)
        codes[demo.stem] = proc.returncode
    (demos / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True))


def _outputs(out: Path) -> set[Path]:
    """The compared files of a result dir, relative to it."""
    return {p.relative_to(out) for p in out.rglob("*")
            if p.is_file() and p.name != MEMO_JSON}


def compare(a: Path, b: Path) -> list[str]:
    """Names of the outputs that differ between the result dirs a and b."""
    files_a, files_b = (_outputs(d) for d in (a, b))
    diffs = [f"{p}: only in one tree" for p in sorted(files_a ^ files_b)]
    for p in sorted(files_a & files_b):
        if p.name in KEYED:
            da = json.loads((a / p).read_text())
            db = json.loads((b / p).read_text())
            diffs += [f"{KEYED[p.name]} {k}" for k in sorted(set(da) | set(db))
                      if da.get(k) != db.get(k)]
        elif (a / p).read_bytes() != (b / p).read_bytes():
            diffs.append(str(p))
    return diffs


def read_contract(path: Path) -> set[str]:
    """The output names and patterns a contract list gives: every line that
    is neither blank nor a ``#`` comment."""
    lines = (line.strip() for line in path.read_text().splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def judge(diffs: list[str], listed: set[str],
          unlike_fresh: list[str] = ()) -> tuple[list[str], int]:
    """Report lines and the failure count: an output that differs and that
    no listed name or ``fnmatch`` pattern matches fails, and so does a
    listed line that matches no differing output and a memoized demodulate
    output unlike a fresh frame's."""
    lines = [f"CHANGED (listed) {d}"
             if any(fnmatch.fnmatchcase(d, p) for p in listed)
             else f"DIFFERS {d}" for d in diffs]
    lines += [f"UNCHANGED (listed) {p}" for p in sorted(listed)
              if not any(fnmatch.fnmatchcase(d, p) for d in diffs)]
    lines += [f"UNLIKE A FRESH FRAME {d}" for d in unlike_fresh]
    return lines, sum(not line.startswith("CHANGED") for line in lines)


def main(argv) -> int:
    if argv == ["--collect"]:
        collect(Path.cwd())
        return 0
    all_equal = argv[:1] == ["--all-equal"]
    if all_equal:
        argv = argv[1:]
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    listed = set() if all_equal else read_contract(CONTRACT)
    trees = [Path(t).resolve() for t in argv]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / name for name in ("parent", "change")]
        for tree, out in zip(trees, outs):
            out.mkdir()
            _run_tree(tree, out)
        diffs = compare(*outs)
        unlike_fresh = [f"{tree}: demodulate {name}"
                       for tree, out in zip(trees, outs)
                       for name in json.loads((out / MEMO_JSON).read_text())]
        n_files = len(_outputs(outs[0]))
        n_keyed = {kind: len(json.loads((outs[0] / name).read_text()))
                   for name, kind in KEYED.items()}
    lines, n_failed = judge(diffs, listed, unlike_fresh)
    for line in lines:
        print(line)
    print(f"{len(diffs)} differences ({len(listed)} listed) over {n_files} "
          f"files, {n_keyed['demodulate']} demodulate and "
          f"{n_keyed['radar']} radar outputs; {n_failed} failed")
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
