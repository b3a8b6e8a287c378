"""The verdict of ``tools/identity.py``, which needs two source trees to run
whole; here only its contract-list logic is exercised."""

import importlib.util
from pathlib import Path

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
