import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cellseed
from cellseed.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: the child process imports the package from where this process found it
PACKAGE_PATH = os.pathsep.join(
    p for p in (str(Path(cellseed.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")) if p
)


def run_proc(*argv, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "cellseed.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )


ROOT = Path(__file__).resolve().parents[1]
B3_ARGS = ("B3", "--J", "3", "--word", "3,2,1,3,2,3")
A5_ARGS = ("A5", "--J", "1,3", "--word", "1,2,3,4,5,2,3,4,1,2,3")


class TestCartan:
    def test_b3_entry(self, capsys):
        code, out, _ = run(capsys, "cartan", "B3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["entries"][2][1] == -2

    def test_a2(self, capsys):
        code, out, _ = run(capsys, "cartan", "A2", "--json")
        assert json.loads(out)["entries"] == [[2, -1], [-1, 2]]

    @pytest.mark.parametrize("text", ["b\t3", "b3", " B 3 "])
    def test_json_type_is_canonical(self, capsys, text):
        code, out, _ = run(capsys, "cartan", text, "--json")
        assert code == 0
        assert json.loads(out)["type"] == "B3"

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "cartan", "Z9")
        assert code == 2
        assert "error" in err

    def test_rank_past_int_digit_limit(self, capsys):
        code, out, err = run(capsys, "seed", "A" + "9" * 5000, "--J", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: rank of 'A9999")


class TestWords:
    def test_w0_parabolic(self, capsys):
        code, out, _ = run(capsys, "w0", "B3", "--subset", "{1,2}", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["length"] == 3 and data["word"] == [1, 2, 1]

    def test_w0_full(self, capsys):
        code, out, _ = run(capsys, "w0", "A5", "--json")
        assert json.loads(out)["length"] == 15

    @pytest.mark.parametrize("subset", ["", "{}"])
    def test_w0_empty_subset(self, capsys, subset):
        # both spellings of the empty subset give the identity, not w0
        code, out, _ = run(capsys, "w0", "B3", "--subset", subset, "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["subset"], data["word"], data["length"]) == ([], [], 0)
        code, out, _ = run(capsys, "w0", "B3", "--subset", subset)
        assert (code, out) == (0, "  (length 0)\n")

    def test_cellword(self, capsys):
        code, out, _ = run(capsys, "cellword", "A5", "--J", "{1,3}", "--json")
        data = json.loads(out)
        assert data["length"] == 11 and data["K"] == [2, 4, 5]


class TestSeed:
    def test_b3_matrix(self, capsys):
        code, out, _ = run(capsys, "seed", *B3_ARGS, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["matrix"]["rows"] == [1, 2, 4, 3, 5, 6]
        assert data["matrix"]["entries"] == [
            [0, -2, 1], [1, 0, -1], [-1, 2, 0], [0, 1, 0], [0, -1, 1], [0, 0, -1],
        ]

    def test_a5_frozen_set(self, capsys):
        code, out, _ = run(capsys, "seed", *A5_ARGS, "--json")
        data = json.loads(out)
        frozen = [k + 1 for k, f in enumerate(data["frozen"]) if f]
        assert frozen == [5, 8, 9, 10, 11]

    def test_default_word(self, capsys):
        code, out, _ = run(capsys, "seed", "A2", "--J", "1,2")
        assert code == 0
        assert "(frozen)" in out

    def test_empty_word_is_the_identity_cell(self, capsys):
        code, out, _ = run(capsys, "seed", "A3", "--J", "1", "--word", "", "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["word"], data["labels"], data["matrix"]["entries"]) == ([], [], [])
        code, out, _ = run(capsys, "seed", "A3", "--J", "1", "--word", "")
        assert code == 0 and out.splitlines()[0] == "seed A3  J={1}  word "
        assert ": D{" not in out

    def test_non_reduced_diagnostic(self, capsys):
        code, _, err = run(capsys, "seed", "A5", "--J", "1", "--word", "1,1")
        assert code == 2
        assert "prefix 1,1" in err

    def test_fixture_source(self, capsys):
        code, out, _ = run(capsys, "seed", "--fixture", "a5", "--json")
        data = json.loads(out)
        assert data["matrix"]["rows"] == [1, 2, 3, 4, 6, 7, 5, 8, 9, 10, 11]

    def test_two_sources_rejected(self, capsys):
        code, _, err = run(capsys, "seed", "B3", "--J", "3", "--fixture", "a5")
        assert code == 2

    @pytest.mark.parametrize("word,letter", [("0,1", 0), ("-1", -1), ("1,7", 7)])
    def test_letter_out_of_range(self, capsys, word, letter):
        code, out, err = run(capsys, "seed", "A3", "--J", "1", "--word", word)
        assert code == 2
        assert out == ""
        assert err == f"error: letter {letter} out of range for A3\n"


class TestLift:
    def test_b3_position_2(self, capsys):
        code, out, _ = run(capsys, "lift", *B3_ARGS, "--k", "2")
        assert code == 0
        assert "Δ{w2,(3,2)}·Δ{w3}^2 / Δ{w2}" in out

    def test_a5_position_10(self, capsys):
        code, out, _ = run(capsys, "lift", *A5_ARGS, "--k", "10")
        assert "Δ{w2,(3,4,5,2,3,4,1,2)}·Δ{w3} / Δ{w2}" in out

    def test_bare_delta_for_j(self, capsys):
        code, out, _ = run(capsys, "lift", *A5_ARGS, "--k", "3", "--json")
        data = json.loads(out)
        assert data["lift"]["unit"] == {} and data["lift"]["den"] == {}

    def test_position_out_of_range(self, capsys):
        code, _, err = run(capsys, "lift", *A5_ARGS, "--k", "12")
        assert code == 2

    def test_empty_word_has_no_position(self, capsys):
        code, out, err = run(capsys, "lift", "A3", "--J", "1", "--word", "", "--k", "1")
        assert (code, out) == (2, "")
        assert "position 1 out of range" in err

    def test_mutated_position_rejected(self, tmp_path, capsys):
        code, out, _ = run(capsys, "mutate", "--fixture", "b3", "--seq", "1", "--json")
        assert code == 0
        f = tmp_path / "mutated.json"
        f.write_text(out)
        for command in (("lift", "--k", "1"), ("flagseed",)):
            code, out, err = run(capsys, *command, "--seed-file", str(f))
            assert code == 2
            assert err.startswith("error: position 1 holds a mutated variable")


class TestFlagSeed:
    def test_b3(self, capsys):
        code, out, _ = run(capsys, "flagseed", *B3_ARGS, "--json")
        data = json.loads(out)
        assert data["extension_rows"] == {"3": [-1, 0, 0]}
        assert len(data["degrees"]) + len(data["unit_frozen"]) == 7

    def test_b3_text_lists_unit(self, capsys):
        code, out, _ = run(capsys, "flagseed", *B3_ARGS)
        assert "Δ{w3}" in out and out.count("frozen") == 4

    def test_a5_first_column(self, capsys):
        code, out, _ = run(capsys, "flagseed", "--fixture", "a5", "--json")
        data = json.loads(out)
        assert data["extension_rows"]["1"][0] == -1
        assert data["extension_rows"]["3"][0] == 0

    def test_bhat_literal(self, capsys):
        code, out, _ = run(capsys, "flagseed", *B3_ARGS, "--json", "--bhat-literal")
        assert json.loads(out)["extension_rows"] == {"3": [1, 0, 0]}


class TestLiftRel:
    def test_a5_fixture_k1(self, capsys):
        code, out, _ = run(capsys, "liftrel", "--fixture", "a5", "--k", "1", "--json")
        data = json.loads(out)
        assert data["bhat_column"] == [-1, 0]
        assert data["mu"] == {} and data["nu"] == {"1": 1}

    def test_b3_k1_projection(self, capsys):
        code, out, _ = run(capsys, "liftrel", *B3_ARGS, "--k", "1")
        assert "D{w2,(3,2)} + D{w3,(3,2,1,3)}" in out


class TestMutate:
    def test_involution(self, capsys):
        code, out1, _ = run(capsys, "seed", *B3_ARGS, "--json")
        code, out2, _ = run(capsys, "mutate", *B3_ARGS, "--seq", "1,1", "--json")
        assert json.loads(out1)["matrix"] == json.loads(out2)["matrix"]

    def test_single_step_entry(self, capsys):
        code, out, _ = run(capsys, "mutate", *B3_ARGS, "--seq", "1", "--json")
        data = json.loads(out)
        rows, cols = data["matrix"]["rows"], data["matrix"]["cols"]
        entry = data["matrix"]["entries"][rows.index(4)][cols.index(2)]
        assert entry == 0

    def test_missing_action(self, capsys):
        code, _, err = run(capsys, "mutate", *B3_ARGS)
        assert code == 2

    def test_bad_sequence(self, capsys):
        code, out, err = run(capsys, "mutate", "--fixture", "b3", "--seq", "1,x")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse mutation sequence")

    def test_interactive_quit(self):
        proc = run_proc("mutate", *B3_ARGS, "--interactive", stdin="q\n")
        assert proc.returncode == 0

    def test_interactive_mutate_then_quit(self):
        proc = run_proc("mutate", *B3_ARGS, "--interactive", stdin="1\nbogus\nq\n")
        assert proc.returncode == 0
        assert "cannot mutate" in proc.stdout


class TestVerify:
    def test_gls_fixture(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "minor-identities")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_lifted_relations_fixture(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "lifted-relations-A5")
        assert code == 0

    def test_corrupted_identity_fails(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("# deliberately wrong\nD{1|2} = D{1|2} + 1\n")
        code, out, _ = run(
            capsys, "verify", "--file", str(f), "--n", "6",
            "--cell-word", "1,2,3,4,5,2,3,4,1,2,3",
        )
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("line", ["D{0|1} = 0", "D{0|6} = 0"])
    def test_zero_index_rejected(self, tmp_path, capsys, line):
        # index 0 used to read the last row: a vacuous PASS or a bogus FAIL
        f = tmp_path / "zero.txt"
        f.write_text(line + "\n")
        code, out, err = run(
            capsys, "verify", "--file", str(f), "--n", "6",
            "--cell-word", "1,2,3,4,5,2,3,4,1,2,3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "line",
        [
            "D{1,|2} = 0",
            "D{1 2|2,3} = 0",
            "9" * 5000 + " D{1|2} = 0",
            "D{%s|2} = 0" % ("9" * 5000),
            "D{1|2}^99999999 = 0",
        ],
        ids=["empty-index", "inner-space", "long-coefficient", "long-index", "huge-power"],
    )
    def test_bad_integers_and_huge_powers_rejected(self, tmp_path, capsys, line):
        f = tmp_path / "bad.txt"
        f.write_text(line + "\n")
        code, out, err = run(
            capsys, "verify", "--file", str(f), "--n", "6",
            "--cell-word", "1,2,3,4,5,2,3,4,1,2,3",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("size", ["0", "-2"])
    @pytest.mark.parametrize("line", ["1 = 1", "D{1|1} = 1"])
    def test_matrix_size_below_one_rejected(self, tmp_path, capsys, size, line):
        # an empty sample used to PASS any constant identity
        f = tmp_path / "const.txt"
        f.write_text(line + "\n")
        code, out, err = run(capsys, "verify", "--file", str(f), "--n", size, "--cell-word", "")
        assert code == 2
        assert out == ""
        assert f"matrix size must be at least 1, got {size}" in err

    @pytest.mark.parametrize(
        "line", ["D{2|1}*D{9|9} = 0", "0 D{9|9} = 0"], ids=["zero-factor", "zero-coefficient"]
    )
    def test_out_of_bounds_after_zero_rejected(self, tmp_path, capsys, line):
        # a zero product used to stop evaluation before the bounds check: a vacuous PASS
        f = tmp_path / "far.txt"
        f.write_text(line + "\n")
        code, out, err = run(
            capsys, "verify", "--file", str(f), "--n", "6",
            "--cell-word", "1,2,3,4,5,2,3,4,1,2,3",
        )
        assert (code, out) == (2, "")
        assert err == "error: D{9|9} out of bounds for size 6\n"

    @pytest.mark.parametrize(
        "extra", [("--n", "4"), ("--cell-word", "1,2"), ("--n", "4", "--cell-word", "1,2")]
    )
    def test_fixture_rejects_file_options(self, capsys, extra):
        code, out, err = run(capsys, "verify", "--fixture", "minor-identities", *extra)
        assert (code, out) == (2, "")
        assert err == "error: --n and --cell-word go only with an expression file\n"

    def test_file_requires_context(self, tmp_path, capsys):
        f = tmp_path / "ok.txt"
        f.write_text("D{1|2} = D{1|2}\n")
        code, _, err = run(capsys, "verify", "--file", str(f))
        assert code == 2

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "verify", "--fixture", "nope")
        assert code == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_rejected(self, capsys, samples):
        code, out, err = run(
            capsys, "verify", "--fixture", "minor-identities", "--samples", samples
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: need at least one sample")

    def test_deterministic_output(self):
        args = ("verify", "--fixture", "minor-identities", "--rng-seed", "5", "--json")
        a, b = run_proc(*args), run_proc(*args)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_seed_changes_samples_not_result(self, capsys):
        c1, out1, _ = run(capsys, "verify", "--fixture", "minor-identities", "--rng-seed", "1", "--json")
        c2, out2, _ = run(capsys, "verify", "--fixture", "minor-identities", "--rng-seed", "2", "--json")
        assert c1 == c2 == 0
        assert json.loads(out1)["pass"] and json.loads(out2)["pass"]


def test_json_and_text_carry_same_matrix(capsys):
    code, text_out, _ = run(capsys, "seed", *B3_ARGS)
    code, json_out, _ = run(capsys, "seed", *B3_ARGS, "--json")
    data = json.loads(json_out)
    for row in data["matrix"]["entries"]:
        assert " ".join(f"{x:>2}" for x in row) in text_out.replace("( ", " ").replace(" )", " ")


def _readme_commands():
    with open(ROOT / "perfbench" / "reference.json") as fh:
        entries = json.load(fh)["cli-readme"]
    return [(cmd, ref) for cmd, ref in sorted(entries.items()) if "--interactive" not in cmd]


@pytest.mark.parametrize("command,reference", _readme_commands())
def test_readme_golden(command, reference, capsys, monkeypatch):
    """Each recorded README command prints exactly the recorded output."""
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *command.split(" "))
    assert (code, out) == (reference["exit"], reference["stdout"])


def _b3_seed_dict():
    from cellseed.fixtures import load_seed
    from cellseed.seedcore import seed_to_dict

    return seed_to_dict(load_seed("b3"))


def _set(path, value):
    def edit(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value

    return edit


def _drop(key):
    return lambda obj: obj.pop(key)


def _after_mutation(k, edit):
    """The b3 seed as ``mutate --fixture b3 --seq k`` writes it, then ``edit``."""
    from cellseed.fixtures import load_seed
    from cellseed.seedcore import mutate_seed, seed_to_dict

    def apply(obj):
        obj.update(seed_to_dict(mutate_seed(load_seed("b3"), k)))
        edit(obj)

    return apply


class TestSeedFile:
    """A seed file is checked against its word before anything is lifted."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (_set(["word"], [3, 3, 2, 1, 3, 2]), "word 3,3,2,1,3,2 is not reduced"),
            (_set(["labels", 1], {"i": 3, "word": [3, 3]}),
             "label D{w3,(3,3)} at position 2 does not match the word 3,2,1,3,2,3"),
            (_set(["frozen", 0], True), "frozen flags must mark the positions"),
            (_set(["matrix", "rows", 0], 2), "matrix rows must be a permutation"),
            (_set(["matrix", "cols", 2], 5), "matrix columns must be the mutable positions"),
            (_set(["labels", 5], {"path": [6]}), "frozen position 6 carries a mutation label"),
            (_set(["matrix", "entries", 0, 1], -1), "not skew-symmetrizable"),
            (_drop("word"), "malformed seed data"),
            (_drop("type"), "error: malformed seed data: missing key 'type'"),
            (_set(["word", 2], True), "word must hold only integers"),
            (_set(["J", 0], True), "J must hold only integers"),
            (_set(["history"], "abc"), "history must hold only integers"),
            (_set(["frozen"], ["", "", "no", "", "no", "no"]), "frozen must hold only booleans"),
            (_set(["frozen"], [0, 0, 1, 0, 1, 1]), "frozen must hold only booleans"),
            (_set(["history"], [6]), "history entry 6 is not a mutable position"),
            (_set(["history"], [7]), "history entry 7 is not a mutable position"),
            (_after_mutation(1, _set(["labels", 0], {"path": [2, 2, 2]})),
             "label (2,2,2) at position 1 does not match the word 3,2,1,3,2,3 and history [1]"),
            (_set(["labels", 0], {"path": []}),
             "label () at position 1 does not match the word 3,2,1,3,2,3 and history []"),
        ],
        ids=["reduced", "label", "frozen", "rows", "cols", "mutation-label", "skew", "missing-key",
             "missing-type", "bool-letter", "bool-J", "string-history", "string-frozen", "int-frozen",
             "frozen-history", "history-past-end", "path-vs-history", "empty-path"],
    )
    def test_invariant_violation_rejected(self, tmp_path, capsys, edit, message):
        obj = _b3_seed_dict()
        edit(obj)
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(obj))
        code, out, err = run(capsys, "lift", "--seed-file", str(f), "--k", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_not_json_rejected(self, capsys):
        code, out, err = run(
            capsys, "seed", "--seed-file", str(ROOT / "perfbench" / "identities.txt")
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed is not JSON")

    @pytest.mark.parametrize(
        "data,message",
        [(b"\xff\xfe{", "is not UTF-8 text"), (b"[" * 1400, "seed JSON is nested too deeply")],
        ids=["not-utf8", "too-deep"],
    )
    def test_unreadable_file_rejected(self, tmp_path, capsys, data, message):
        f = tmp_path / "bad.json"
        f.write_bytes(data)
        code, out, err = run(capsys, "seed", "--seed-file", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_mutated_file_accepted(self, tmp_path, capsys):
        obj = _b3_seed_dict()
        _after_mutation(1, lambda _: None)(obj)
        f = tmp_path / "b3-1.json"
        f.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "mutate", "--seed-file", str(f), "--seq", "2")
        assert code == 0
        assert "1: (1)  (mutable)" in out and "2: (1,2)  (mutable)" in out

    def test_valid_file_accepted(self, tmp_path, capsys):
        f = tmp_path / "b3.json"
        f.write_text(json.dumps(_b3_seed_dict()))
        code, out, _ = run(capsys, "lift", "--seed-file", str(f), "--k", "2")
        assert code == 0
        assert "Δ{w2,(3,2)}·Δ{w3}^2 / Δ{w2}" in out


@pytest.mark.parametrize(
    "argv",
    [["cartan", "B3", "--rng-seed", "1"], ["seed", "B3", "--J", "3", "--bhat-literal"]],
    ids=["rng-seed-on-cartan", "bhat-literal-on-seed"],
)
def test_option_outside_its_commands_rejected(capsys, argv):
    """--rng-seed belongs to verify, --bhat-literal to liftrel and flagseed."""
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


class TestMinorIndices:
    def test_non_utf8_expression_file_rejected(self, tmp_path, capsys):
        f = tmp_path / "latin1.txt"
        f.write_bytes("D{1|1} = D{1|1}  # é\n".encode("latin-1"))
        code, out, err = run(capsys, "verify", "--file", str(f), "--n", "3", "--cell-word", "1,2,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "is not UTF-8 text" in err

    def test_repeated_index_rejected(self, tmp_path, capsys):
        # used to evaluate the repeated-row minor as 0: a vacuous PASS
        f = tmp_path / "repeat.txt"
        f.write_text("D{1,1|1,2} = 0\n")
        code, out, err = run(capsys, "verify", "--file", str(f), "--n", "3", "--cell-word", "1,2,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: minor indices must strictly increase")


# The argv property draws a command, an optional type, option-value pairs and
# switches, each from valid and invalid values.
_COMMANDS = ["cartan", "w0", "cellword", "seed", "lift", "liftrel", "flagseed", "mutate", "verify", "bogus"]
_TYPES = ["A5", "B3", "E6", "G2", "Z9", "A0", "x"]
_OPTIONS = [
    "--J", "--word", "--k", "--seq", "--fixture", "--seed-file", "--samples",
    "--n", "--cell-word", "--file", "--subset", "--rng-seed",
]
_SWITCHES = ["--json", "--bhat-literal", "--interactive", "-h"]
_VALUES = [
    "1", "2", "3", "0", "-1", "6", "x", "", "1,3", "{1,3}", "3,2,1,3,2,3", "1,1", "1,x", "7,1",
    "a5", "b3", "nope", "minor-identities", "lifted-relations-A5",
    str(ROOT / "src" / "cellseed" / "data" / "b3.json"),
    str(ROOT / "perfbench" / "identities.txt"),
    str(ROOT / "no-such-file.json"),
]


def test_any_argv_exits_cleanly(monkeypatch):
    """Any argv ends with exit code 0, 1 or 2, never with a traceback."""
    import contextlib
    import io

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(_COMMANDS),
        st.lists(st.sampled_from(_TYPES), max_size=1),
        st.lists(st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)), max_size=4),
        st.lists(st.sampled_from(_SWITCHES), max_size=2),
    )
    def check(command, types, pairs, switches):
        argv = [command, *types, *(tok for pair in pairs for tok in pair), *switches]
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\nq\n"))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)

    check()


# The file fuzz breaks one field of a shipped seed, or strings grammar tokens
# into identity lines.  Types stay at rank 9 or below and a term's degree is
# capped by the parser, so every case is cheap to run.
_SEED_DATA = ROOT / "src" / "cellseed" / "data"
_WRONG = [True, False, None, 0, -1, 7, 2.5, "x", "", "A9", "E8", [], {}, [1, "2"], {"i": 1}]
_TOKENS = [
    "D{", "}", "|", ",", "0", "1", "2", "3", "6", "9", "12", "+", "-", "*", "^", "=", "==",
    " ", "#", "D{1|2}", "D{2|1}", "D{1,2|3,4}", "D{1,3|5,6}", "D{9|9}", "x", "\n",
]


def _paths(obj, head=()):
    """Every key path into a JSON value, the empty path included."""
    yield head
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, head + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _broken_seed_text(rng):
    """A shipped seed with one field of a wrong type, a boolean, missing,
    permuted (a list) or nested in up to 3 000 lists."""
    obj = json.loads((_SEED_DATA / rng.choice(["a5.json", "b3.json"])).read_text())
    kind = rng.choice(["type", "bool", "missing", "permute", "nest"])
    *head, last = rng.choice([p for p in _paths(obj) if p])
    parent = _at(obj, head)
    if kind == "type":
        parent[last] = rng.choice(_WRONG)
    elif kind == "bool":
        parent[last] = rng.choice([True, False])
    elif kind == "missing":
        del parent[last]
    elif kind == "permute":
        lists = [p for p in _paths(obj) if isinstance(_at(obj, p), list)]
        rng.shuffle(_at(obj, rng.choice(lists)))
    else:
        depth = rng.choice([1, 2, 40, 900, 3000])
        marker = "@@nest@@"
        value, parent[last] = parent[last], marker
        return json.dumps(obj).replace(
            json.dumps(marker), "[" * depth + json.dumps(value) + "]" * depth
        )
    return json.dumps(obj)


def _seed_argv(rng, path):
    command = rng.choice([
        ["seed"], ["flagseed"], ["lift", "--k", str(rng.randint(1, 11))],
        ["liftrel", "--k", str(rng.randint(1, 11))], ["mutate", "--seq", "1,2,1"],
    ])
    return command + ["--seed-file", str(path)] + rng.choice([[], ["--json"]])


def _identity_text(rng, n):
    """One to three identity lines on minors of an n x n matrix; a third are
    token soup, and the rest may carry one stray token."""
    if rng.random() < 1 / 3:
        return "".join(rng.choice(_TOKENS) for _ in range(rng.randint(1, 30)))

    def minor():
        size = rng.randint(1, min(3, n))
        rows, cols = (sorted(rng.sample(range(1, n + 1), size)) for _ in "rc")
        return "D{%s|%s}" % (",".join(map(str, rows)), ",".join(map(str, cols)))

    def term():
        factors = [minor() + rng.choice(["", "", "^2", "^0"]) for _ in range(rng.randint(0, 3))]
        coef = rng.choice(["", "", "0 ", "2 "]) if factors else str(rng.randint(0, 3))
        return coef + "*".join(factors)

    def side():
        return "".join(rng.choice([" + ", " - "]) + term() for _ in range(rng.randint(1, 3)))[3:]

    lines = [f"{side()} = {side()}" for _ in range(rng.randint(1, 3))]
    text = "\n".join(lines + rng.choice([[], ["# comment"]]))
    if rng.random() < 0.5:
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice(_TOKENS) + text[cut:]
    return text


def _verify_argv(rng, path, n):
    top = n if rng.random() < 0.2 else max(1, n - 1)  # letter n is out of range
    word = ",".join(str(rng.randint(1, top)) for _ in range(rng.randint(0, 8)))
    return ["verify", "--file", str(path), "--n", str(n), "--cell-word", word, "--samples", "3"]


def test_any_file_exits_cleanly(tmp_path, capsys):
    """Broken seed files and random identity files exit 0, 1 or 2; exit 1
    only beside a FAIL line, and stderr holds only ``error:`` lines."""
    rng = random.Random(2024)
    path = tmp_path / "case"
    bad = []
    for case in range(400):
        if case % 2:
            n = rng.randint(1, 9)
            path.write_text(_identity_text(rng, n))
            argv = _verify_argv(rng, path, n)
        else:
            path.write_text(_broken_seed_text(rng))
            argv = _seed_argv(rng, path)
        try:
            code = main(argv)
        except Exception as exc:  # reported with its input below
            code = repr(exc)
        out, err = capsys.readouterr()
        clean = (
            code in (0, 1, 2)
            and (code != 1 or out.splitlines()[-1:] == ["FAIL"])
            and all(line.startswith("error:") for line in err.splitlines())
        )
        if not clean:
            bad.append((argv[0], path.read_text()[:200], code, err[:200]))
    assert bad == []
