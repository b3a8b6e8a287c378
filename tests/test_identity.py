"""The verdict of ``tools/identity.py``, which needs two source trees to run
whole; here only its contract-list logic is exercised."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", _PATH)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def test_only_the_listed_outputs_may_differ_and_all_must():
    lines, n_failed = identity.judge(["cli/radar/rdm.bin", "demodulate x"],
                                     {"demodulate x", "cli/txgen/tx.iq"})
    assert lines == ["DIFFERS cli/radar/rdm.bin",
                     "CHANGED (listed) demodulate x",
                     "UNCHANGED (listed) cli/txgen/tx.iq"]
    assert n_failed == 2
    assert identity.judge(["demodulate x"], {"demodulate x"})[1] == 0
    assert identity.judge([], set()) == ([], 0)


def test_a_memoized_report_unlike_a_fresh_frames_fails():
    lines, n_failed = identity.judge(
        ["demodulate x"], {"demodulate x"}, ["/b: demodulate y/known/slots"])
    assert lines == ["CHANGED (listed) demodulate x",
                     "UNLIKE A FRESH FRAME /b: demodulate y/known/slots"]
    assert n_failed == 1


def test_contract_list_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "contract.txt"
    p.write_text("# a comment\n\n  cli/comm-known/demod.csv  \n"
                 "demodulate small-n1-p0-20dB/known/psk_symbol\n")
    assert identity.read_contract(p) == {
        "cli/comm-known/demod.csv",
        "demodulate small-n1-p0-20dB/known/psk_symbol"}
    # the checked-in list parses
    assert isinstance(identity.read_contract(identity.CONTRACT), set)


def test_a_contract_line_may_be_a_pattern_and_must_match():
    diffs = ["demodulate a-n40/estimated/sync/raw_pair_cfo",
             "demodulate a-n40/read_iq/flat/sync/raw_pair_cfo",
             "demos/demo_comm_chain.stdout", "cli/radar/rdm.bin"]
    lines, n_failed = identity.judge(
        diffs, {"demodulate */sync/raw_pair_cfo",
                "demos/demo_comm_chain.stdout",
                "demodulate */score_report/fhcs_codeword_errors"})
    assert lines == [
        "CHANGED (listed) demodulate a-n40/estimated/sync/raw_pair_cfo",
        "CHANGED (listed) demodulate a-n40/read_iq/flat/sync/raw_pair_cfo",
        "CHANGED (listed) demos/demo_comm_chain.stdout",
        "DIFFERS cli/radar/rdm.bin",
        "UNCHANGED (listed) demodulate */score_report/fhcs_codeword_errors"]
    assert n_failed == 2
    # a pattern is matched whole and case-sensitively
    assert identity.judge(["demodulate x/sync/cfo"], {"*/SYNC/*"})[1] == 2
    assert identity.judge(["demodulate x/sync/cfo"], {"sync/cfo"})[1] == 2


def test_a_nested_report_is_hashed_one_field_a_key():
    @dataclasses.dataclass
    class Inner:
        cfo: float
        pairs: np.ndarray

    @dataclasses.dataclass
    class Outer:
        bits: int
        sync: Inner | None

    full = identity._digests("f/known", Outer(3, Inner(1.5, np.zeros(2))))
    assert sorted(full) == ["f/known/bits", "f/known/sync/cfo",
                            "f/known/sync/pairs"]
    # a field one tree drops is a key of its own, and the others keep
    # their hashes
    @dataclasses.dataclass
    class Smaller:
        cfo: float

    less = identity._digests("f/known", Outer(3, Smaller(1.5)))
    assert sorted(less) == ["f/known/bits", "f/known/sync/cfo"]
    assert all(less[k] == full[k] for k in less)
    # an array is hashed by dtype and shape as well as bytes; None is a value
    assert identity._digests("k", np.zeros(4)) != identity._digests(
        "k", np.zeros(2, complex))
    assert list(identity._digests("f/x", Outer(0, None))) == ["f/x/bits",
                                                              "f/x/sync"]
