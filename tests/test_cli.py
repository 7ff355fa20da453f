"""End-to-end command line checks: byte-exact tables and exit codes."""

import hashlib
import json

import pytest

from postliemi.cli import main
from postliemi.coordinates import (
    constants_from_derivations,
    derivation_labels,
    print_constants,
)
from postliemi.suites import SUITES, SuiteResult


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_eval_worked_product(capsys):
    rc, out, err = run(
        capsys, ["eval", "btr([P1],[z{k0:1}xD(1,0)])", "--d", "2", "--alpha", "1/2"]
    )
    assert rc == 0
    assert out == "z{k1:1,(1,0):1}xD(1,0) - z{k0:1}xD(0,0)\n"
    assert err == ""


def test_eval_json(capsys):
    rc, out, _ = run(capsys, ["eval", "diamond([P1],[P2])", "--json"])
    assert rc == 0
    assert json.loads(out) == {"op": "diamond", "result": "0"}


def test_eval_accepts_an_explicit_zero_operand(capsys):
    rc, out, _ = run(capsys, ["eval", "btr(0,[P2])"])
    assert rc == 0
    assert out == "0\n"


def test_eval_rejects_unknown_op(capsys):
    rc, _, err = run(capsys, ["eval", "frobnicate([P1],[P2])"])
    assert rc == 2
    assert "unknown operation" in err


def test_eval_rejects_malformed_element(capsys):
    rc, _, err = run(capsys, ["eval", "btr([P1],[z{k0:]"])
    assert rc == 2
    assert err.startswith("error:")


def test_verify_list_names_every_suite(capsys):
    rc, out, _ = run(capsys, ["verify", "--list"])
    assert rc == 0
    listed = [line.split()[0] for line in out.strip().splitlines()]
    assert listed == list(SUITES)


def test_verify_single_suite_passes(capsys):
    rc, out, _ = run(capsys, ["verify", "flat-diamond", "--samples", "4"])
    assert rc == 0
    assert out.startswith("[PASS] flat-diamond:")


def test_verify_json_shape(capsys):
    rc, out, _ = run(capsys, ["verify", "coordinates", "--json"])
    assert rc == 0
    records = json.loads(out)
    assert records[0]["suite"] == "coordinates"
    assert records[0]["passed"] is True
    assert records[0]["violations"] == []


def test_verify_json_records_carry_the_suite_time(capsys):
    rc, out, _ = run(capsys, ["verify", "bianchi", "flat-diamond", "--samples", "1", "--json"])
    assert rc == 0
    records = json.loads(out)
    assert [r["suite"] for r in records] == ["bianchi", "flat-diamond"]
    for r in records:
        assert isinstance(r["seconds"], float) and r["seconds"] >= 0


def test_verify_rejects_unknown_suite(capsys):
    rc, _, err = run(capsys, ["verify", "no-such-suite"])
    assert rc == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_verify_rejects_samples_below_one(capsys, samples):
    rc, out, err = run(capsys, ["verify", "bianchi", "--samples", samples])
    assert rc == 2
    assert out == ""
    assert err == f"error: --samples must be at least 1, got {samples}\n"


def test_verify_accepts_one_sample(capsys):
    rc, out, _ = run(capsys, ["verify", "bianchi", "--samples", "1"])
    assert rc == 0
    assert out == "[PASS] bianchi: 3 checks\n"


def test_a_suite_without_checks_fails():
    r = SuiteResult("empty")
    assert not r.passed
    assert r.line() == "[FAIL] empty: 0 checks"


def test_dual_coproduct_of_a_letter(capsys):
    rc, out, _ = run(capsys, ["dual-coproduct", "[z{k0:1}xD(0,0)]", "--alpha", "1/2"])
    assert rc == 0
    assert out == "1 1 (x) [z{k0:1}xD(0,0)]\n1 [z{k0:1}xD(0,0)] (x) 1\n"


# sha256 of the whole stdout, recorded when each term came from a scan of the
# words over an un-grafting closure
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["[z{k0:3,k1:1,(1,0):1}xD(1,0)]", "--alpha", "1/2"],
            "ff3b71958de8c2d49e92b0de826afecc0015dfd09e62854cf5e01fa09bd6e460",
        ),
        (
            ["[z{k0:2,(1,0,0,0,0,0,0,0):1}xD(1,0,0,0,0,0,0,0)]", "--d", "8", "--alpha", "3/4"],
            "a0cea80f46b8c87b798e147d5dea1328c281b41444d7622e8ef520a47b6a1f09",
        ),
        (
            ["[z{k0:2,k1:1,(1,0,0):1}xD(1,0,0)]", "--d", "3", "--alpha", "1/2"],
            "09a563b14192d1165f57f7fd76d0979f0f4abf6300ff20036e4486c2ce3286de",
        ),
        (
            ["[z{k0:2,(1,0):2}xD(2,0)][P1]", "--alpha", "3/4", "--json"],
            "dc478dd4a1ea4294f4de628690e9929fa1ea4ac5117553c8d0c32691a8abbc09",
        ),
    ],
    ids=["d2-1/2", "d8-3/4", "d3-1/2", "word-json"],
)
def test_dual_coproducts_are_pinned(capsys, argv, digest):
    rc, out, _ = run(capsys, ["dual-coproduct"] + argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dual_coproduct_of_a_two_direction_letter_at_d8(capsys):
    letter = "[z{k0:2,(1,0,0,0,0,0,0,0):1,(0,1,0,0,0,0,0,0):1}xD(1,1,0,0,0,0,0,0)]"
    rc, out, _ = run(capsys, ["dual-coproduct", letter, "--d", "8", "--alpha", "3/4"])
    assert rc == 0
    assert len(out.splitlines()) == 270


def test_dual_coproduct_refuses_tight_truncation(capsys):
    rc, _, err = run(
        capsys,
        [
            "dual-coproduct",
            "[z{k0:2}xD(1,0)][z{k0:1}xD(0,0)]",
            "--alpha",
            "3/4",
            "--max-word-len",
            "1",
        ],
    )
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("flag", ["--max-word-len", "--max-letter-degree"])
def test_dual_coproduct_accepts_a_zero_bound_on_the_unit_word(capsys, flag):
    rc, out, _ = run(capsys, ["dual-coproduct", "1", flag, "0"])
    assert rc == 0
    assert out == "1 1 (x) 1\n"


def test_dual_coproduct_bound_too_tight_for_the_word_is_the_library_refusal(capsys):
    rc, out, err = run(capsys, ["dual-coproduct", "[P1]", "--max-word-len", "0"])
    assert rc == 2
    assert out == ""
    assert err == "error: word length bound 0 is below the required 1\n"


def test_dual_coproduct_accepts_a_covering_bound(capsys):
    argv = ["dual-coproduct", "[z{k0:1}xD(0,0)]", "--alpha", "1/2"]
    rc, exact, _ = run(capsys, argv)
    assert rc == 0
    # the bounds equal the figures of the result: one letter, of degree 1/2
    rc, out, _ = run(capsys, argv + ["--max-word-len", "1", "--max-letter-degree", "1/2"])
    assert rc == 0
    assert out == exact


def test_dual_coproduct_refuses_a_degree_bound_below_the_letter(capsys):
    argv = ["dual-coproduct", "[z{k0:1}xD(0,0)]", "--alpha", "1/2", "--max-letter-degree", "1/4"]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err == "error: letter degree bound 1/4 is below the required 1/2\n"


def test_gamma_table(capsys, tmp_path):
    char = tmp_path / "boundary.chr"
    char.write_text("z{k0:2}xD(1,0) = 1/2\nz{k0:2}xD(0,1) = -2\n")
    rc, out, _ = run(
        capsys, ["gamma", "--char", str(char), "--cutoff", "3/2", "--alpha", "3/4"]
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 -> 1"
    assert "z{k0:2} -> - 2 z{(0,1):1} + 1/2 z{(1,0):1} + z{k0:2}" in lines
    # every other monomial in the window is fixed by this character
    moved = [ln for ln in lines if not ln.endswith(" -> " + ln.split(" -> ")[0])]
    assert moved == ["z{k0:2} -> - 2 z{(0,1):1} + 1/2 z{(1,0):1} + z{k0:2}"]


def test_gamma_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, ["gamma", "--char", str(tmp_path / "nope.chr")])
    assert rc == 2
    assert err.startswith("error:")


def test_coaction_table(capsys):
    rc, out, _ = run(capsys, ["coaction", "--cutoff", "3/4", "--alpha", "3/4"])
    assert rc == 0
    assert out == (
        "target 1\n"
        "  1 1 (x) 1\n"
        "target z{k0:1}\n"
        "  1 1 (x) z{k0:1}\n"
        "target z{k1:1}\n"
        "  1 1 (x) z{k1:1}\n"
    )


def _pinned_table(d, cutoff, digest):
    # the id names d and the digest, and the cutoff where it is not 2
    name = f"{d}-{digest}" if cutoff == "2" else f"{d}-{cutoff}-{digest}"
    return pytest.param(d, cutoff, digest, id=name)


# sha256 of the whole stdout: the coaction tables at d=8 and d=3 are pinned
# byte for byte, and so are the windows at cutoffs 3 (d=2) and 11/4 (d=3),
# the first where words of two letters reach a target, and the d=2 window at
# cutoff 7/2, the largest that CI runs
@pytest.mark.parametrize(
    "d, cutoff, digest",
    [
        _pinned_table("8", "2", "258c71bfa79435b547b6655e1d4cf1468af8cf869dad30f8fa191e17b8da5e13"),
        _pinned_table("3", "2", "f5913608de37abf14e1fd9f8c70a272e8231867e1176308e6caf23314800d548"),
        _pinned_table("2", "3", "5663a528ebcf1ec4d1f4a8c11ee8a73950a76c3f508c459121ef46edd6f2005e"),
        _pinned_table("3", "11/4", "28f57851e8d9e3ef19f7a4f71e6d6ae81163b27b60e63741a42fb8faf87d8ef3"),
        _pinned_table("2", "7/2", "1f2c8324ff1204758418835ce516b157fcc66749bc67c94ab70066ca9bd6c0a7"),
    ],
)
def test_coaction_tables_are_pinned(capsys, d, cutoff, digest):
    rc, out, _ = run(capsys, ["coaction", "--d", d, "--cutoff", cutoff])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_coords_builtin_truncation_is_clean(capsys):
    rc, out, _ = run(capsys, ["check-coords"])
    assert rc == 0
    assert out == "torsion: clean\ncovtorsion: clean\nflat: clean\n"


def test_check_coords_flags_a_bent_table(capsys, tmp_path):
    sc = constants_from_derivations(derivation_labels(2, 2))
    bent = sc.with_entry("g", "P1", "P2", "P1", 1)
    table = tmp_path / "bent.tbl"
    table.write_text(print_constants(bent))
    rc, out, _ = run(capsys, ["check-coords", "--table", str(table)])
    assert rc == 1
    assert "nonzero residuals" in out


@pytest.mark.parametrize(
    "argv", [["check-coords", "--max-norm", "4"], ["check-coords", "--d", "3", "--max-norm", "2"]]
)
def test_check_coords_larger_truncations_are_clean(capsys, argv):
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == "torsion: clean\ncovtorsion: clean\nflat: clean\n"


TWO_RESIDUAL_TABLE = "g P1 P2 P2 = 1\ng P2 P1 P2 = 1\n"


def test_check_coords_json_keeps_residual_order(capsys, tmp_path):
    table = tmp_path / "mutual.tbl"
    table.write_text(TWO_RESIDUAL_TABLE)
    rc, out, _ = run(capsys, ["check-coords", "--table", str(table), "--json"])
    assert rc == 1
    assert json.loads(out) == [
        {"check": "torsion", "residuals": []},
        {"check": "covtorsion", "residuals": []},
        {
            "check": "flat",
            "residuals": [
                {"indices": ["P1", "P2", "P1", "P2"], "value": "1"},
                {"indices": ["P2", "P1", "P1", "P2"], "value": "-1"},
            ],
        },
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["check-coords", "--table", "TABLE", "--max-violations", "-1"],
            "--max-violations must be at least 0, got -1",
        ),
        (["check-coords", "--max-norm", "-2"], "--max-norm must be at least 0, got -2"),
        (["check-coords", "--d", "0"], "--d must be at least 1, got 0"),
        (["verify", "coordinates", "--max-violations", "-1"], "--max-violations must be at least 0, got -1"),
        (["coaction", "--d", "0"], "--d must be at least 1, got 0"),
        (["coaction", "--cutoff", "-1"], "--cutoff must be at least 0, got -1"),
        (["coaction", "--cutoff=-1/4"], "--cutoff must be at least 0, got -1/4"),
        (["gamma", "--char", "TABLE", "--d", "0"], "--d must be at least 1, got 0"),
        (["gamma", "--char", "TABLE", "--cutoff", "-1"], "--cutoff must be at least 0, got -1"),
        (["eval", "diamond([P1],[P2])", "--d", "0"], "--d must be at least 1, got 0"),
        (["dual-coproduct", "[P1]", "--d", "-3"], "--d must be at least 1, got -3"),
        (["dual-coproduct", "[P1]", "--max-word-len", "-1"], "--max-word-len must be at least 0, got -1"),
        (
            ["dual-coproduct", "[P1]", "--max-letter-degree=-1/2"],
            "--max-letter-degree must be at least 0, got -1/2",
        ),
        (["eval", "btr( , )"], "the first operand of btr is empty; write 0 for zero"),
        (["eval", "btr(,[P2])"], "the first operand of btr is empty; write 0 for zero"),
        (["eval", "bracket([P1],)"], "the second operand of bracket is empty; write 0 for zero"),
        (["psi", "P1", "+"], "sign with no term after it (at offset 0 in '+')"),
        (["psi", "P1", "-"], "sign with no term after it (at offset 0 in '-')"),
        (["psi", "P1", "z{k0:1} -"], "sign with no term after it (at offset 8 in 'z{k0:1} -')"),
        (
            ["psi", "P1", "z{k0:1} + + z{k1:1}"],
            "two signs before one term (at offset 10 in 'z{k0:1} + + z{k1:1}')",
        ),
        (["eval", "btr(P1 +,P2)"], "sign with no term after it (at offset 3 in 'P1 +')"),
        (["eval", "btr(1/0 P1,P2)"], "bad rational '1/0' (at offset 0 in '1/0 P1')"),
        (
            ["eval", "btr(z{k0:1}xD(-1,0),P1)"],
            "expected a tuple of naturals like (1,0), got '(-1,0)' (at offset 1 in 'D(-1,0)')",
        ),
        (["psi", "P0", "z{k0:1}"], "expected P<i> with i >= 1 (at offset 1 in 'P0')"),
    ],
)
def test_nonsense_numbers_exit_2(capsys, tmp_path, argv, message):
    table = tmp_path / "mutual.tbl"
    table.write_text(TWO_RESIDUAL_TABLE)
    rc, out, err = run(capsys, [str(table) if a == "TABLE" else a for a in argv])
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_zero_cutoff_is_the_unit_monomial_alone(capsys):
    rc, out, _ = run(capsys, ["coaction", "--cutoff", "0"])
    assert rc == 0
    assert out == "target 1\n  1 1 (x) 1\n"


def test_check_coords_rejects_a_malformed_table(capsys, tmp_path):
    table = tmp_path / "broken.tbl"
    table.write_text("this is not a table\n")
    rc, _, err = run(capsys, ["check-coords", "--table", str(table)])
    assert rc == 2
    assert err.startswith("error:")


def test_psi_word_action(capsys):
    rc, out, _ = run(capsys, ["psi", "P1 D(1,0)", "z{(1,0):2}", "--alpha", "1/2"])
    assert rc == 0
    assert out == "4 z{(2,0):1}\n"


def test_rhobar_letter_action(capsys):
    rc, out, _ = run(
        capsys, ["rhobar", "btr", "[z{k0:1}xD(0,0)]", "z{k0:1}", "--alpha", "1/2"]
    )
    assert rc == 0
    assert out == "z{k0:1,k1:1}\n"


@pytest.mark.parametrize(
    "structure, expect",
    [("jz", "z{k0:1,k1:1,(1,0):1}\n"), ("btr", "2 z{k0:1,k1:1,(1,0):1}\n")],
    ids=["jz", "btr"],
)
def test_rhobar_of_a_shift_and_a_tilt(capsys, structure, expect):
    # jz composes the derivations with the shift applied last; a tilts-first
    # order would print the btr value for jz
    rc, out, err = run(capsys, ["rhobar", structure, "[P1][z{k0:1}xD(1,0)]", "z{k0:1,(1,0):1}"])
    assert (rc, out, err) == (0, expect, "")


@pytest.mark.parametrize("word", ["[P1][P1]", "[P1] [P1]", "[P1]\t[ P1 ]"])
def test_rhobar_reads_a_word_with_spaces_between_letters(capsys, word):
    rc, out, err = run(capsys, ["rhobar", "btr", word, "z{k0:2}", "--alpha", "1/2"])
    assert (rc, err) == (0, "")
    assert out == "4 z{k0:1,k1:1,(2,0):1} + 4 z{k0:1,k2:1,(1,0):2} + 2 z{k1:2,(1,0):2}\n"


def test_rhobar_refuses_text_between_letters(capsys):
    rc, out, err = run(capsys, ["rhobar", "btr", "[P1] x [P1]", "z{k0:2}"])
    assert (rc, out) == (2, "")
    assert err == "error: expected '[' after a letter, got 'x' (at offset 5 in '[P1] x [P1]')\n"


def test_out_writes_a_file_instead_of_stdout(capsys, tmp_path):
    dest = tmp_path / "result.txt"
    rc, out, _ = run(
        capsys, ["eval", "bracket([P1],[P2])", "--out", str(dest)]
    )
    assert rc == 0
    assert out == ""
    assert dest.read_text() == "0\n"


@pytest.mark.parametrize("argv", [["psi", "P1", "z{k0:"], ["rhobar", "btr", "[Q9]", "1"]])
def test_parse_failures_exit_2(capsys, argv):
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error:")
