"""The four benchmark workloads.

Each workload builds its inputs in ``__init__`` (the timed set-up), lists the
ops of one pass, runs one op, and renders an op's result as the canonical
text that is checked against ``reference.json``.  Ops call the package
through module attributes (``self.lift.build_flag_seed``) so that the traced
run's wrappers, installed on those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: (family, rank, J) of every cell: A5..A14 with J={1,n//2}, B3..B10 with
#: J={n}, E6..E8 with J={1}.  Capped at A14: one pass of lift-ladder takes
#: about 13 s at the commit that defined the benchmark, A25 alone over 130 s.
LADDER = (
    [("A", n, (1, n // 2)) for n in range(5, 15)]
    + [("B", n, (n,)) for n in range(3, 11)]
    + [("E", n, (1,)) for n in (6, 7, 8)]
)
ORACLE_CELLS = [c for c in LADDER if c[0] == "A" and c[1] <= 10]

WALK_STEPS = 20
#: walk seeds per cell with a recorded reference; the workload seed picks
#: among them, so any workload seed can be checked exactly
WALK_POOL = 64
VERIFY_SAMPLES = 20
DEGREE_SAMPLES = 3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def raised_text(exc: BaseException) -> str:
    return f"raises {type(exc).__name__}: {exc}"


def cell_name(family: str, rank: int) -> str:
    return f"{family}{rank}"


def import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cellseed  # noqa: F401  (package import is part of set-up)
    from cellseed import cli, exprlang, fixtures, lift, oracle, rootsys, seedcore

    return cli, exprlang, fixtures, lift, oracle, rootsys, seedcore


class Workload:
    """Common checking logic; subclasses define the ops."""

    name = ""

    def __init__(self, reference: dict | None):
        (self.cli, self.exprlang, self.fixtures, self.lift, self.oracle,
         self.rootsys, self.seedcore) = import_package()
        self.reference = reference

    def key(self, op) -> str:
        return op[0]

    def expected(self, op):
        return self.reference[self.key(op)]

    def outcome(self, op, result, exc):
        """What is compared with the reference entry of ``op``: an output
        digest, or the exception in plain text so known raises read as such."""
        if exc is not None:
            return raised_text(exc)
        return digest(self.output(op, result))

    def check(self, op, result, exc, expected) -> bool:
        return self.outcome(op, result, exc) == expected

    @staticmethod
    def corrupt(expected):
        """A reference entry that no correct output can match (self-check)."""
        return expected[:-1] + ("0" if expected[-1] != "0" else "1")

    def peak_rss_kib(self) -> int | None:
        """Peak RSS of the processes doing the work, if not this process."""
        return None


def _relation_dict(lift, rel, proj) -> dict:
    return {
        "k": rel.k,
        "text": str(rel),
        "mu": str(rel.mu),
        "nu": str(rel.nu),
        "degree": str(rel.degree),
        "terms": [lift.lift_monomial_to_dict(t) for t in rel.terms],
        "projection": str(proj),
    }


class LiftLadder(Workload):
    """One op solves one cell: cell word, seed, flag seed, every lifted relation."""

    name = "lift-ladder"

    def __init__(self, reference):
        super().__init__(reference)
        rs = self.rootsys
        self.cells = {}
        for fam, rank, js in LADDER:
            lt = rs.LieType(fam, rank)
            self.cells[cell_name(fam, rank)] = (lt, rs.ParabolicConfig.from_j(lt, js))

    def universe(self):
        return [(name,) for name in self.cells]

    def pass_ops(self, rng):
        return self.universe()

    def run(self, op):
        lt, cfg = self.cells[op[0]]
        word = self.rootsys.cell_word(lt, cfg)
        seed = self.seedcore.initial_seed(lt, cfg, word)
        fs = self.lift.build_flag_seed(seed)
        rels = []
        for k in seed.mutable_positions():
            rel = self.lift.lift_relation(fs, k)
            rels.append((rel, self.lift.project(rel)))
        return fs, rels

    def output(self, op, result):
        fs, rels = result
        return json.dumps(
            {
                "flag_seed": self.lift.flag_seed_to_dict(fs),
                "relations": [_relation_dict(self.lift, r, p) for r, p in rels],
            },
            sort_keys=True,
        )


def walk_sequence(cell: str, mutable, w: int) -> tuple[int, ...]:
    """Walk ``w`` of a cell: 20 mutable positions, no position twice in a row."""
    rng = random.Random(f"walk:{cell}:{w}")
    seq: list[int] = []
    for _ in range(WALK_STEPS):
        choices = [k for k in mutable if not seq or k != seq[-1]]
        seq.append(rng.choice(choices))
    return tuple(seq)


class MutationWalk(Workload):
    """One op is a 20-step walk on a prebuilt Seed or FlagSeed."""

    name = "mutation-walk"

    def __init__(self, reference):
        super().__init__(reference)
        rs, sc, lf = self.rootsys, self.seedcore, self.lift
        self.seeds, self.flags, self.walks = {}, {}, {}
        for fam, rank, js in LADDER:
            name = cell_name(fam, rank)
            lt = rs.LieType(fam, rank)
            cfg = rs.ParabolicConfig.from_j(lt, js)
            s = sc.initial_seed(lt, cfg, rs.cell_word(lt, cfg))
            self.seeds[name] = s
            self.flags[name] = lf.build_flag_seed(s)
            mutable = s.mutable_positions()
            self.walks[name] = [walk_sequence(name, mutable, w) for w in range(WALK_POOL)]

    def key(self, op):
        cell, kind, w = op
        return f"{cell}/{kind}/{w}"

    def universe(self):
        return [(c, kind, w) for c in self.seeds for kind in ("seed", "flag")
                for w in range(WALK_POOL)]

    def pass_ops(self, rng):
        return [(c, kind, rng.randrange(WALK_POOL)) for c in self.seeds
                for kind in ("seed", "flag")]

    def run(self, op):
        cell, kind, w = op
        seq = self.walks[cell][w]
        if kind == "seed":
            s = self.seeds[cell]
            for k in seq:
                s = self.seedcore.mutate_seed(s, k)
            return s
        fs = self.flags[cell]
        for k in seq:
            fs = self.lift.mutate_flag_seed(fs, k)
        return fs

    def output(self, op, result):
        if op[1] == "seed":
            return json.dumps(self.seedcore.seed_to_dict(result), sort_keys=True)
        return json.dumps(self.lift.flag_seed_to_dict(result), sort_keys=True)


class OracleExact(Workload):
    """Ops: parse + verify one lifted-relation identity, or sampled degrees of one variable."""

    name = "oracle-exact"

    def __init__(self, reference):
        super().__init__(reference)
        rs, sc, orc = self.rootsys, self.seedcore, self.oracle
        self.cells = {}
        for fam, rank, js in ORACLE_CELLS:
            name = cell_name(fam, rank)
            lt = rs.LieType(fam, rank)
            cfg = rs.ParabolicConfig.from_j(lt, js)
            s = sc.initial_seed(lt, cfg, rs.cell_word(lt, cfg))
            texts = {}
            for ident, lhs, rhs in self.fixtures.lifted_relation_identities(s):
                text = f"{lhs} = {rhs}"
                plhs, prhs = self.exprlang.parse_identity(text)
                if (str(plhs), str(prhs)) != (str(lhs), str(rhs)):
                    raise RuntimeError(f"{name} {ident}: identity text does not round-trip")
                texts[ident] = text
            specs = {
                k: orc.weyl_minor_spec(s.label(k).prefix, s.label(k).fund, rank)
                for k in range(1, s.size + 1)
            }
            self.cells[name] = (rank + 1, s.word, cfg.j_set, texts, specs)

    def key(self, op):
        kind, cell, item, _base = op
        return f"{cell}/{kind}/{item}"

    def universe(self):
        return [(kind, cell, item, 0) for cell, (_n, _w, _js, texts, specs) in self.cells.items()
                for kind, items in (("verify", texts), ("degree", specs)) for item in items]

    def pass_ops(self, rng):
        # All identities of a cell share one sampling base per pass, which is
        # what a sample or minor cache would reuse.  Each degree op draws its
        # own: its cost depends strongly on the sample, and one base per cell
        # would make the cost of a pass depend on the seed.
        ops = []
        for cell, (_n, _w, _js, texts, specs) in self.cells.items():
            base = rng.randrange(1 << 30)
            ops += [("verify", cell, ident, base) for ident in texts]
            ops += [("degree", cell, k, rng.randrange(1 << 30)) for k in specs]
        return ops

    def run(self, op):
        kind, cell, item, base = op
        n, word, js, texts, specs = self.cells[cell]
        if kind == "verify":
            lhs, rhs = self.exprlang.parse_identity(texts[item])
            report = self.oracle.verify_identity(lhs, rhs, n, word, VERIFY_SAMPLES, base)
            return lhs, rhs, report
        spec = specs[item]
        return tuple(
            self.oracle.sampled_multidegree(spec, js, n, word, DEGREE_SAMPLES, base, side)
            for side in ("left", "right")
        )

    def output(self, op, result):
        if op[0] == "verify":
            lhs, rhs, report = result
            return f"{lhs} = {rhs}\n{report}"
        left, right = result
        return json.dumps({"left": left, "right": right}, sort_keys=True)


IDENTITY_FILE = "perfbench/identities.txt"
A5_CELL_WORD = "1,2,3,4,5,2,3,4,1,2,3"
B3_ARGS = ["B3", "--J", "3", "--word", "3,2,1,3,2,3"]
#: every command of the README's command-line section, without the program
README_COMMANDS = [
    ["cartan", "B3"],
    ["w0", "B3", "--subset", "{1,2}"],
    ["cellword", "A5", "--J", "{1,3}"],
    ["seed", *B3_ARGS],
    ["lift", "A5", "--J", "1,3", "--word", A5_CELL_WORD, "--k", "10"],
    ["liftrel", "--fixture", "a5", "--k", "1"],
    ["flagseed", *B3_ARGS],
    ["flagseed", *B3_ARGS, "--bhat-literal"],
    ["mutate", *B3_ARGS, "--seq", "1,2,1"],
    ["verify", "--fixture", "minor-identities"],
    ["verify", "--fixture", "lifted-relations-A5", "--samples", "20"],
    ["verify", "--file", IDENTITY_FILE, "--n", "6", "--cell-word", A5_CELL_WORD],
]
#: scripted stdin for ``mutate --fixture b3 --interactive``: two mutations,
#: a non-number, a frozen position, one more mutation, quit
INTERACTIVE = (["mutate", "--fixture", "b3", "--interactive"], "1\n2\nx\n3\n4\nq\n")


class CliReadme(Workload):
    """One op runs one README command as a fresh ``python -m cellseed.cli`` process."""

    name = "cli-readme"

    def __init__(self, reference):
        super().__init__(reference)
        self.commands = {}
        for argv in README_COMMANDS:
            for variant in (argv, argv + ["--json"]):
                self.commands[" ".join(variant)] = (variant, None)
        argv, script = INTERACTIVE
        self.commands[" ".join(argv)] = (argv, script)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        #: the traced run drives ``cli.main`` in this process instead
        self.in_process = False
        self.max_child_rss = 0

    def universe(self):
        return [(name,) for name in self.commands]

    def pass_ops(self, rng):
        return self.universe()

    def run(self, op):
        argv, script = self.commands[op[0]]
        if self.in_process:
            return self._run_in_process(argv, script)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cellseed.cli", *argv],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.PIPE if script is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            if script is not None:
                proc.stdin.write(script.encode())
                proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
        finally:
            # wait4 gives this child's own peak RSS; Popen.wait would not
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss = max(self.max_child_rss, usage.ru_maxrss)
        return out, proc.returncode

    def _run_in_process(self, argv, script):
        buf = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(script or "")
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(argv))
        finally:
            sys.stdin = saved
        return buf.getvalue().encode(), code

    def outcome(self, op, result, exc):
        if exc is not None:
            return {"raises": raised_text(exc)}
        out, code = result
        return {"exit": code, "stdout": out.decode(errors="replace")}

    def check(self, op, result, exc, expected):
        return self.outcome(op, result, exc) == expected

    @staticmethod
    def corrupt(expected):
        return dict(expected, stdout=expected["stdout"] + "\n")

    def peak_rss_kib(self):
        return self.max_child_rss if not self.in_process else None


WORKLOADS = {w.name: w for w in (LiftLadder, MutationWalk, OracleExact, CliReadme)}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def make(name: str) -> Workload:
    return WORKLOADS[name](load_reference()[name])
