import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cellseed
from cellseed.cli import main
from cellseed.rootsys import MAX_TABLE_ENTRIES


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


@pytest.mark.parametrize(
    "argv",
    [
        ("w0", "A30"),  # 1 KiB, written by the last flush
        ("flagseed", "A14", "--J", "1,7"),  # 17 KiB, past the 8 KiB buffer
        ("mutate", "--fixture", "b3", "--interactive"),  # the prompt flushes
    ],
    ids=["small", "large", "interactive"],
)
def test_closed_stdout_stops_quietly(argv):
    """A reader that has gone, as in ``cellseed ... | head``, ends a command
    with exit code 141 and nothing on stderr: no ``error:`` line and no
    traceback from the interpreter's final flush."""
    # stdout is buffered here, as it is for a user, whatever this process runs with
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cellseed.cli", *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": PACKAGE_PATH},
    )
    proc.stdout.close()  # before the child can write: every write meets EPIPE
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


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


def _run_small(capsys, *argv):
    """``run``, asserting that it allocates no table near MAX_TABLE_ENTRIES."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20  # a table at the budget takes 128 MiB
    return result


class TestTableBudget:
    """Dense integer tables are refused above MAX_TABLE_ENTRIES, before allocation."""

    @pytest.mark.parametrize("text", ["A 99999999999", "A4097", "B4097", "D4097"])
    def test_cartan_rank_above_budget(self, capsys, text):
        # 4096 x 4096 is exactly the budget
        assert MAX_TABLE_ENTRIES == 4096 * 4096
        code, out, err = _run_small(capsys, "cartan", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: rank ") and "past the budget of 16777216" in err

    def test_seed_just_above_budget(self, capsys):
        # w0 of A91 has 4186 letters, 4095 of them mutable: 17 141 670 entries;
        # A90 gives 4095 x 4005 = 16 400 475, within the budget
        code, out, err = _run_small(capsys, "seed", "A91", "--J", ",".join(map(str, range(1, 92))))
        assert (code, out) == (2, "")
        assert err == "error: a 4186x4095 exchange matrix is past the budget of 16777216 table entries\n"

    def test_verify_sample_above_budget(self, tmp_path, capsys):
        # each kept 4097 x 4097 sample would take about 64 MiB
        f = tmp_path / "one.txt"
        f.write_text("D{1|2} = D{1|2}\n")
        code, out, err = _run_small(
            capsys, "verify", "--file", str(f), "--n", "4097", "--cell-word", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: a 4097x4097 sample matrix is past the budget of 16777216 table entries\n"

    def test_sample_size_at_budget(self):
        from cellseed import MinorSpec, Word, oracle

        built = oracle._sample.cache_info().misses
        # D{2|2} has no t-coefficient for letter 1, so no sample is built
        assert oracle.sampled_multidegree(MinorSpec((2,), (2,)), [1], 4096, Word((1,))) == {1: 0}
        assert oracle._sample.cache_info().misses == built
        with pytest.raises(cellseed.CellSeedError, match="a 4097x4097 sample matrix"):
            oracle.sampled_multidegree(MinorSpec((2,), (2,)), [1], 4097, Word((1,)))


class TestDenseTableOnlyWherePrinted:
    """A seed keeps its exchange columns sparse.  The dense table, and with it
    the budget, comes in only where a command prints the matrix."""

    J91 = ",".join(map(str, range(1, 92)))
    PAST = "error: a 4186x4095 exchange matrix is past the budget of 16777216 table entries\n"

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_mutate_prints_the_matrix(self, capsys, fmt):
        code, out, err = _run_small(capsys, "mutate", "A91", "--J", self.J91, "--seq", "1", *fmt)
        assert (code, out, err) == (2, "", self.PAST)

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_flagseed_prints_the_matrix(self, capsys, fmt):
        # the flag seed is built before the table is refused
        code, out, err = run(capsys, "flagseed", "A91", "--J", self.J91, *fmt)
        assert (code, out, err) == (2, "", self.PAST)

    def test_lift_past_the_budget(self, capsys):
        # w_K,0 w0 of A130 with J={1,65} has 4354 letters, 4224 of them mutable
        code, out, err = run(capsys, "lift", "A130", "--J", "1,65", "--k", "5")
        assert (code, err) == (0, "")
        assert out == "~D{w5,(1,2,3,4,5)} = Δ{w5,(1,2,3,4,5)}·Δ{w1} / Δ{w5}   (degree w1)\n"

    def test_liftrel_past_the_budget(self, capsys):
        code, out, err = run(capsys, "liftrel", "A130", "--J", "1,65", "--k", "5", "--json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["k"], data["bhat_column"], data["degree"]) == (5, [0, 0], {"1": 1})
        assert [t["degree"] for t in data["terms"]] == [{"1": 1}, {"1": 1}]


class TestPrefixBudget:
    """Seed labels and flag-seed lifts hold a prefix of the word for each
    position, and ``prefix_weights`` a weight, so both are refused above
    MAX_TABLE_ENTRIES before they are built."""

    # w_K,0 w0 of A151 with J={1,75} has 5849 letters, whose prefixes hold
    # 17 108 325; A150 with J={1,75} has 5774 letters and 16 672 425
    PAST = (
        "error: a 5849-letter word's prefix table of 17108325 letters is past the budget "
        "of 16777216 table entries\n"
    )

    @pytest.mark.parametrize(
        "argv", [("lift", "--k", "5"), ("liftrel", "--k", "5"), ("flagseed",)], ids=lambda a: a[0]
    )
    def test_long_word_is_refused(self, capsys, argv):
        code, out, err = _run_small(capsys, argv[0], "A151", "--J", "1,75", *argv[1:])
        assert (code, out, err) == (2, "", self.PAST)

    def test_prefix_weight_table(self):
        from cellseed.rootsys import LieType, Word, prefix_weights

        tracemalloc.start()
        try:
            with pytest.raises(
                cellseed.CellSeedError,
                match="^a 4097x4096 prefix weight table is past the budget of 16777216 table entries$",
            ):
                prefix_weights(LieType("A", 4096), Word((1,) * 4097))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 4096 images alone would take 128 MiB


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

    @pytest.mark.parametrize("command", ["seed", "lift", "liftrel", "flagseed", "mutate"])
    @pytest.mark.parametrize("source", ["fixture", "seed-file"])
    @pytest.mark.parametrize(
        "extra", [("--J", "1"), ("--word", "1,2,3"), ("--J", "1", "--word", "1,2,3")]
    )
    def test_type_options_only_with_a_type(self, tmp_path, capsys, command, source, extra):
        # --J and --word used to be dropped in silence beside another source
        if source == "fixture":
            src = ("--fixture", "b3")
        else:
            f = tmp_path / "b3.json"
            f.write_text(json.dumps(_b3_seed_dict()))
            src = ("--seed-file", str(f))
        args = (command, *src) + {"lift": ("--k", "1"), "liftrel": ("--k", "1"),
                                  "mutate": ("--seq", "1")}.get(command, ())
        assert run(capsys, *args)[0] == 0
        code, out, err = run(capsys, *args, *extra)
        assert (code, out) == (2, "")
        assert err == "error: --J and --word go only with an explicit type\n"

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

    @pytest.mark.parametrize("seq", ["1,", "1,,2", ","])
    def test_empty_sequence_item(self, capsys, seq):
        code, out, err = run(capsys, "mutate", "--fixture", "b3", "--seq", seq)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse mutation sequence {seq!r}\n"

    def test_empty_sequence_is_no_step(self, capsys):
        code, out, _ = run(capsys, "mutate", "--fixture", "b3", "--seq", "")
        assert code == 0
        assert out == run(capsys, "seed", "--fixture", "b3")[1]

    def test_interactive_quit(self):
        proc = run_proc("mutate", *B3_ARGS, "--interactive", stdin="q\n")
        assert proc.returncode == 0

    def test_interactive_mutate_then_quit(self):
        proc = run_proc("mutate", *B3_ARGS, "--interactive", stdin="1\nbogus\nq\n")
        assert proc.returncode == 0
        assert "cannot mutate" in proc.stdout

    @pytest.mark.parametrize(
        "argv,message",
        [
            ((*B3_ARGS, "--seq", "1", "--interactive"), "give --seq or --interactive, not both"),
            (
                ("--fixture", "b3", "--interactive", "--json"),
                "--interactive prints text only; it does not go with --json",
            ),
        ],
        ids=["seq-and-interactive", "interactive-and-json"],
    )
    def test_conflicting_options_rejected(self, capsys, argv, message):
        # each used to drop the second option without a word
        code, out, err = run(capsys, "mutate", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_each_option_alone_still_works(self, capsys):
        code, out, _ = run(capsys, "mutate", *B3_ARGS, "--seq", "1", "--json")
        assert code == 0 and json.loads(out)["history"] == [1]
        proc = run_proc("mutate", "--fixture", "b3", "--interactive", stdin="1\nq\n")
        assert proc.returncode == 0
        assert proc.stdout.count("seed B3  J={3}") == 2


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

    def test_failure_builds_no_sample_matrix(self, tmp_path, capsys, monkeypatch):
        # a FAIL line holds the sample index and both values; the n x n sample
        # itself is rebuilt only on request, as cell_sample(n, word, rng_seed + index)
        f = tmp_path / "bad.txt"
        f.write_text("D{1|2} = 2 D{1|2}\n")
        argv = ("verify", "--file", str(f), "--n", "1024", "--cell-word", "1", "--samples", "1")
        want = run(capsys, *argv)
        assert want[0] == 1 and "FAIL at sample 0" in want[1]

        def refuse(*args):
            raise AssertionError("a failing verify built its sample matrix")

        monkeypatch.setattr("cellseed.oracle.cell_sample", refuse)
        assert run(capsys, *argv) == want

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

    @pytest.mark.parametrize(
        "text,extra",
        [
            ("", ("--n", "6", "--cell-word", "1,2,3")),
            ("# only a comment\n\n   # another\n", ("--n", "6", "--cell-word", "1,2,3")),
            ("", ("--n", "0", "--cell-word", "1,2,3")),
            ("", ("--n", "3", "--cell-word", "7,7")),
        ],
        ids=["empty", "comments-only", "size-0", "letters-out-of-range"],
    )
    def test_file_without_identities_rejected(self, tmp_path, capsys, text, extra):
        # checking nothing used to print PASS and exit 0
        f = tmp_path / "none.txt"
        f.write_text(text)
        code, out, err = run(capsys, "verify", "--file", str(f), *extra)
        assert (code, out) == (2, "")
        assert err == f"error: {f} holds no identities\n"

    @pytest.mark.parametrize(
        "n,word,message",
        [
            ("3", "1,1", "word 1,1 is not reduced: length drops at letter 2 (prefix 1,1)"),
            ("4", "1,2,1,2", "word 1,2,1,2 is not reduced: length drops at letter 4 (prefix 1,2,1,2)"),
            ("6", "3,2,1,3,2,3,1", "word 3,2,1,3,2,3,1 is not reduced: length drops at letter 7 "
             "(prefix 3,2,1,3,2,3,1)"),
            # an out-of-range letter is named first, as before
            ("3", "1,1,7", "letter 7 out of range for size 3"),
            ("3", "7,7", "letter 7 out of range for size 3"),
        ],
        ids=["repeat", "braid", "long-prefix", "out-of-range", "out-of-range-repeat"],
    )
    def test_non_reduced_cell_word_rejected(self, tmp_path, capsys, n, word, message):
        # "1,1" used to sample x_1(t)x_1(s), print FAIL and exit 1
        f = tmp_path / "one.txt"
        f.write_text("D{1|2} = 0\n")
        code, out, err = run(capsys, "verify", "--file", str(f), "--n", n, "--cell-word", word)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_reducedness_needs_no_cartan_table(self, tmp_path, capsys):
        # n = 4096 is the largest size verify accepts; the check reads root supports only
        from cellseed.cli import _verify_identities, build_parser
        from cellseed.rootsys import root_supports
        from cellseed.seedcore import NonReducedWordError

        f = tmp_path / "one.txt"
        f.write_text("D{1|2} = 0\n")
        argv = ["verify", "--file", str(f), "--n", "4096", "--cell-word"]
        root_supports.cache_clear()
        tracemalloc.start()
        try:
            n, word, _ = _verify_identities(build_parser().parse_args(argv + ["4095,4094,4095"]))
            with pytest.raises(NonReducedWordError, match="length drops at letter 4"):
                _verify_identities(build_parser().parse_args(argv + ["4095,4094,4095,4094"]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (n, word.letters) == (4096, (4095, 4094, 4095))
        assert peak < 16 << 20  # a dense 4095 x 4095 Cartan matrix takes about 257 MiB
        # letters past n = 4096 are refused by the type budget, with exit 2
        argv[4] = "5000"
        with pytest.raises(cellseed.CellSeedError, match="past the budget of 16777216"):
            _verify_identities(build_parser().parse_args(argv + ["4999,4998,4999"]))
        code, out, err = run(capsys, *argv, "4999,4998,4999")
        assert (code, out) == (2, "") and "past the budget of 16777216" in err

    def test_refusal_agrees_with_rootsys(self, tmp_path):
        from cellseed.cli import _verify_identities, build_parser
        from cellseed.rootsys import LieType, Word, reduced_violation
        from cellseed.seedcore import NonReducedWordError

        f = tmp_path / "one.txt"
        f.write_text("D{1|2} = 0\n")
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 7)
            word = Word([rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))])
            argv = ["verify", "--file", str(f), "--n", str(n), "--cell-word", str(word)]
            try:
                _verify_identities(build_parser().parse_args(argv))
                got = None
            except NonReducedWordError as exc:
                got = exc.position
            assert got == reduced_violation(LieType("A", n - 1), word), argv

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


def _rows_in_position_order(obj):
    """The same matrix, entry for entry, with its rows listed 1..6."""
    m = obj["matrix"]
    order = sorted(range(len(m["rows"])), key=m["rows"].__getitem__)
    m["rows"] = [m["rows"][r] for r in order]
    m["entries"] = [m["entries"][r] for r in order]


def _cols_reversed(obj):
    """The same matrix, entry for entry, with its columns listed 4,2,1."""
    m = obj["matrix"]
    m["cols"] = m["cols"][::-1]
    m["entries"] = [row[::-1] for row in m["entries"]]


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
            # equal to the derived labels as numbers (3.0 == 3, True == 1), so
            # only the type check can refuse them
            (_set(["labels", 0], {"i": 3.0, "word": [3.0]}), "label i must hold only integers"),
            (_set(["labels", 0], {"i": 3, "word": [3.0]}), "label word must hold only integers"),
            (_set(["labels", 2], {"i": True, "word": [3, 2, True]}),
             "label i must hold only integers"),
            (_set(["labels", 2], {"i": 1, "word": [3, 2, True]}),
             "label word must hold only integers"),
            (_after_mutation(1, _set(["labels", 0], {"path": [True]})),
             "label path must hold only integers"),
            # text output draws its rule after len(cols) rows
            (_rows_in_position_order, "matrix rows must be a permutation of the positions"),
            (_cols_reversed, "matrix columns must be the mutable positions"),
        ],
        ids=["reduced", "label", "frozen", "rows", "cols", "mutation-label", "skew", "missing-key",
             "missing-type", "bool-letter", "bool-J", "string-history", "string-frozen", "int-frozen",
             "frozen-history", "history-past-end", "path-vs-history", "empty-path", "float-label-i",
             "float-label-word", "bool-label-i", "bool-label-word", "bool-label-path",
             "rows-in-position-order", "cols-reversed"],
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
        "lie_type,js,changed",
        [("G2", (1, 2), 3), ("B3", (3,), 2), ("F4", (1,), 6)],
        ids=["G2-J1,2", "B3-J3", "F4-J1"],
    )
    def test_skew_symmetric_principal_part_rejected(self, tmp_path, capsys, lie_type, js, changed):
        # skew-symmetric, so an all-ones D would accept it; the type's D does not
        from cellseed import LieType, ParabolicConfig, cell_word, initial_seed
        from cellseed.seedcore import seed_to_dict

        lt = LieType.parse(lie_type)
        cfg = ParabolicConfig.from_j(lt, js)
        obj = seed_to_dict(initial_seed(lt, cfg, cell_word(lt, cfg)))
        pp = obj["matrix"]["entries"]  # the principal part is the first len(cols) rows
        edited = 0
        for a in range(len(obj["matrix"]["cols"])):
            for b in range(a + 1, len(obj["matrix"]["cols"])):
                edited += pp[b][a] != -pp[a][b]
                pp[b][a] = -pp[a][b]
        assert edited == changed
        f = tmp_path / "skew.json"
        f.write_text(json.dumps(obj))
        code, out, err = run(capsys, "seed", "--seed-file", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not skew-symmetrizable" in err


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
# into identity lines.  Types stay at rank 9 or below, apart from one refused
# by the table budget, and a term's degree is capped by the parser, so every
# case is cheap to run.
_SEED_DATA = ROOT / "src" / "cellseed" / "data"
_WRONG = [True, False, None, 0, -1, 7, 2.5, "x", "", "A9", "E8", "A 99999999999", [], {}, [1, "2"],
          {"i": 1}]
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


def _reduced_word(rng, n):
    """A random reduced word of S_n with up to 8 letters: each drawn letter is
    kept when the word stays reduced."""
    from cellseed.rootsys import LieType, Word, reduced_violation

    letters = ()
    for _ in range(rng.randint(0, 8) if n > 1 else 0):
        longer = letters + (rng.randint(1, n - 1),)
        if reduced_violation(LieType("A", n - 1), Word(longer)) is None:
            letters = longer
    return ",".join(map(str, letters))


def test_reduced_cell_words_exit_cleanly(tmp_path, capsys, monkeypatch):
    """``test_any_file_exits_cleanly`` for identity files on reduced cell
    words, so that most cases get past the word checks to the parser."""
    import cellseed.cli

    calls = []
    verify = cellseed.cli.verify_identity
    monkeypatch.setattr(cellseed.cli, "verify_identity", lambda *a: calls.append(1) or verify(*a))
    rng = random.Random(2025)
    path = tmp_path / "case"
    bad, reached = [], 0
    for _ in range(200):
        n = rng.randint(1, 9)
        path.write_text(_identity_text(rng, n))
        argv = ["verify", "--file", str(path), "--n", str(n),
                "--cell-word", _reduced_word(rng, n), "--samples", "3"]
        calls.clear()
        try:
            code = main(argv)
        except Exception as exc:  # reported with its input below
            code = repr(exc)
        out, err = capsys.readouterr()
        reached += bool(calls)
        clean = (
            code in (0, 1, 2)
            and (code != 1 or out.splitlines()[-1:] == ["FAIL"])
            and all(line.startswith("error:") for line in err.splitlines())
        )
        if not clean:
            bad.append((argv[-3], path.read_text()[:200], code, err[:200]))
    assert bad == []
    assert reached >= 100, reached


#: in a fresh process, run one command and write the package modules and
#: the exact-arithmetic modules it loaded to stderr
LOADED_PROBE = (
    "import sys\n"
    "from cellseed.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(m for m in sys.modules if m.startswith('cellseed.')"
    " or m in ('fractions', 'decimal')), file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)
NO_LIFT_OR_ORACLE = {"cellseed.lift", "cellseed.oracle", "cellseed.exprlang"}
#: only the oracle computes with ``Fraction``
NO_FRACTION = {"fractions", "decimal"}


#: README commands, and the layers each must not load
LAYERS_UNUSED = [
    (("cartan", "B3"), NO_LIFT_OR_ORACLE | NO_FRACTION),
    (("w0", "B3", "--subset", "{1,2}"), NO_LIFT_OR_ORACLE | NO_FRACTION),
    (("cellword", "A5", "--J", "{1,3}"), NO_LIFT_OR_ORACLE | NO_FRACTION),
    (("seed", *B3_ARGS), NO_LIFT_OR_ORACLE | NO_FRACTION),
    (("mutate", *B3_ARGS, "--seq", "1,2,1"), NO_LIFT_OR_ORACLE | NO_FRACTION),
    (("mutate", "--fixture", "b3", "--interactive"), NO_LIFT_OR_ORACLE | NO_FRACTION),
    (("lift", *A5_ARGS, "--k", "10"), {"cellseed.oracle", "cellseed.exprlang"} | NO_FRACTION),
    (("liftrel", "--fixture", "a5", "--k", "1"),
     {"cellseed.oracle", "cellseed.exprlang"} | NO_FRACTION),
    (("flagseed", *B3_ARGS), {"cellseed.oracle", "cellseed.exprlang"} | NO_FRACTION),
    (("verify", "--fixture", "minor-identities"), {"cellseed.lift"}),
    (("verify", "--file", "perfbench/identities.txt", "--n", "6", "--cell-word", A5_ARGS[-1]),
     {"cellseed.lift"}),
]


@pytest.mark.parametrize(
    "argv,unloaded", LAYERS_UNUSED, ids=[" ".join(argv) for argv, _ in LAYERS_UNUSED]
)
def test_command_loads_only_the_layers_it_runs(argv, unloaded):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *argv],
        input="1\nq\n",
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert {"cellseed.rootsys", "cellseed.seedcore"} <= loaded
    assert loaded & unloaded == set()


@pytest.mark.parametrize(
    "name,argv",
    [
        ("verify_identity", ("verify", "--fixture", "minor-identities")),
        ("render_flag_seed", ("flagseed", *B3_ARGS)),
        ("flag_seed_to_dict", ("flagseed", *B3_ARGS, "--json")),
        ("lift_monomial_to_dict", ("lift", *A5_ARGS, "--k", "10", "--json")),
        ("lift_monomial_to_dict", ("liftrel", "--fixture", "a5", "--k", "1", "--json")),
        ("render_seed", ("seed", *B3_ARGS)),
        ("seed_to_dict", ("seed", *B3_ARGS, "--json")),
    ],
)
def test_commands_call_the_cli_binding(name, argv, monkeypatch):
    """A name replaced on ``cellseed.cli``, as the benchmark's tracer does, is
    the one its command calls, though cli imports the lift and oracle layers
    only when a command first needs them."""
    import importlib.util

    spec = importlib.util.find_spec("cellseed.cli")
    cli = importlib.util.module_from_spec(spec)  # a fresh import: nothing bound on use yet
    spec.loader.exec_module(cli)
    calls = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert cli.main(list(argv)) == 0
    assert calls
