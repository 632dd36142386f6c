"""Spans and counters for the traced run, installed from outside the package.

The tracer replaces functions at the module bindings through which the
package's layers call one another (``cellseed.lift.is_reduced``,
``cellseed.seedcore.reduced_violation``, ``cellseed.oracle.cell_sample``,
``ExchangeMatrix.mutate``, ...).  The package source is untouched, and the
timing runs never install it.

Every wrapped call is a span: name, start, end, parent span and op id, kept in
memory and written out when the run ends.  A span's self time is its duration
minus the time its child spans cover; a layer's self time is the sum over the
spans named after it.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
from array import array
from collections import deque
from pathlib import Path

LAYERS = ("rootsys", "seedcore", "lift", "oracle", "exprlang", "cli")

# Hooks run outside the span's clock.  A pre-hook may add to counters and
# returns the call's argument key for the distinct ratio (or None).

def _reduced(t, args):
    t.counters["rootsys.reduced_letters"] += len(args[1])
    return (args[0], args[1].letters)


def _violation(t, args):
    t.counters["rootsys.reduced_letters"] += len(args[1])


def _strip(t, args):
    return (args[0], args[1].letters, args[2])


def _sample(t, args):
    return (args[0], args[1].letters, args[2])


def _sample_done(t, args, mat):
    t.remember_sample(mat, (args[0], args[1].letters, args[2]))


def _minor(t, args):
    spec, mat = args[0], args[1]
    t.counters["oracle.det_order_sum"] += len(spec.rows)
    return (spec.rows, spec.cols, t.sample_key(mat))


def _edagger(t, args):
    t.counters["oracle.det_order_sum"] += len(args[0].rows)


def _mutate(t, args):
    rows, cols = args[0].shape
    t.counters["seedcore.mutate.entries"] += rows * cols


#: (owner, attribute, span name, pre-hook, post-hook).  A function owned by a
#: layer module is wrapped at every cellseed module binding of it, so calls
#: inside its own module are seen too; one listed under ``cellseed.cli`` only
#: at the cli binding; a method on its class.
SPANS = [
    ("cellseed.rootsys", "cell_word", "rootsys.cell_word", None, None),
    ("cellseed.rootsys", "is_reduced", "rootsys.is_reduced", _reduced, None),
    ("cellseed.rootsys", "reduced_violation", "rootsys.reduced_violation", _violation, None),
    ("cellseed.rootsys", "reflect", "rootsys.reflect", None, None),
    ("cellseed.rootsys", "apply_word", "rootsys.apply_word", None, None),
    ("cellseed.seedcore", "initial_seed", "seedcore.initial_seed", None, None),
    ("cellseed.seedcore", "mutate_seed", "seedcore.mutate_seed", None, None),
    ("cellseed.seedcore", "exchange_binomial", "seedcore.exchange_binomial", None, None),
    ("cellseed.seedcore.ExchangeMatrix", "mutate", "seedcore.mutate", _mutate, None),
    ("cellseed.lift", "build_flag_seed", "lift.build_flag_seed", None, None),
    ("cellseed.lift", "lift_relation", "lift.lift_relation", None, None),
    ("cellseed.lift", "strip_word", "lift.strip_word", _strip, None),
    ("cellseed.lift", "lift_minor", "lift.lift_minor", None, None),
    ("cellseed.lift", "mutate_flag_seed", "lift.mutate_flag_seed", None, None),
    ("cellseed.lift", "bhat_column", "lift.bhat_column", None, None),
    ("cellseed.lift", "project", "lift.project", None, None),
    ("cellseed.oracle", "cell_sample", "oracle.cell_sample", _sample, _sample_done),
    ("cellseed.oracle", "eval_minor", "oracle.eval_minor", _minor, None),
    ("cellseed.oracle", "verify_identity", "oracle.verify_identity", None, None),
    ("cellseed.oracle", "sampled_multidegree", "oracle.sampled_multidegree", None, None),
    ("cellseed.oracle", "edagger_degree", "oracle.edagger_degree", _edagger, None),
    ("cellseed.oracle", "restricted_to_expr", "oracle.restricted_to_expr", None, None),
    ("cellseed.exprlang", "parse_identity", "exprlang.parse_identity", None, None),
    ("cellseed.cli", "main", "cli.main", None, None),
    ("cellseed.cli", "_emit", "cli.render", None, None),
    ("cellseed.cli", "render_seed", "cli.render", None, None),
    ("cellseed.cli", "render_flag_seed", "cli.render", None, None),
    ("cellseed.cli", "seed_to_dict", "cli.render", None, None),
    ("cellseed.cli", "flag_seed_to_dict", "cli.render", None, None),
    ("cellseed.cli", "lift_monomial_to_dict", "cli.render", None, None),
]

#: sample matrices kept alive so their ids stay theirs while eval_minor may see them
SAMPLE_MEMORY = 256


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(path)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self._stack: list[list] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self._keys: list[set] = []
        self.distinct: list[int] = []
        self.counters = dict.fromkeys(
            ("rootsys.reduced_letters", "oracle.det_order_sum", "seedcore.mutate.entries"), 0
        )
        self._samples: dict[int, tuple] = {}
        self._pinned: deque = deque()
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
            self._keys.append(set())
            self.distinct.append(0)
        return self._ids[name]

    def remember_sample(self, mat, key) -> None:
        self._pinned.append(mat)
        self._samples[id(mat)] = key
        if len(self._pinned) > SAMPLE_MEMORY:
            del self._samples[id(self._pinned.popleft())]

    def sample_key(self, mat):
        key = self._samples.get(id(mat))
        return key if key is not None else mat

    def end_pass(self) -> None:
        """Distinct keys count per pass, so the ratio does not depend on the pass count."""
        for nid, keys in enumerate(self._keys):
            self.distinct[nid] += len(keys)
            keys.clear()

    def _wrap(self, fn, nid, pre, post):
        stack = self._stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        self_s, calls, keys = self.self_s, self.calls, self._keys[nid]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                key = pre(tracer, args)
                if key is not None:
                    keys.add(key)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                self_s[nid] += (t1 - t0) - frame[0]
                calls[nid] += 1
                if stack:
                    stack[-1][0] += t1 - t0
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "cellseed" or name.startswith("cellseed.")]
        for owner_path, attr, span, pre, post in SPANS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, self._name_id(span), pre, post)
            if isinstance(owner, type) or owner_path == "cellseed.cli":
                targets = [owner]
            else:
                targets = modules
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, name, wrapper)
                        self._undo.append((target, name, fn))

    def uninstall(self) -> None:
        for target, name, fn in reversed(self._undo):
            setattr(target, name, fn)
        self._undo.clear()

    def _sum(self, values, prefix: str) -> float:
        return sum(v for name, v in zip(self.names, values)
                   if name == prefix or name.startswith(prefix + "."))

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op self times and counts over the traced phase."""
        ms = lambda span: 1000.0 * self._sum(self.self_s, span) / ops
        count = lambda span: self._sum(self.calls, span) / ops

        def ratio(span):
            calls = self._sum(self.calls, span)
            return self._sum(self.distinct, span) / calls if calls else 0.0

        out = {f"{layer}.self_ms": ms(layer) for layer in LAYERS}
        for span in ("rootsys.is_reduced", "rootsys.reflect", "seedcore.mutate",
                     "lift.strip_word", "lift.lift_minor", "lift.bhat_column",
                     "oracle.cell_sample", "oracle.eval_minor", "oracle.edagger_degree",
                     "exprlang.parse_identity"):
            out[f"{span}.calls"] = count(span)
        for span in ("rootsys.cell_word", "seedcore.initial_seed", "seedcore.mutate",
                     "lift.build_flag_seed", "lift.lift_relation", "lift.mutate_flag_seed",
                     "oracle.verify_identity", "oracle.edagger_degree",
                     "exprlang.parse_identity", "cli.main", "cli.render"):
            out[f"{span}.self_ms"] = ms(span)
        for span in ("rootsys.is_reduced", "lift.strip_word", "oracle.cell_sample",
                     "oracle.eval_minor"):
            out[f"{span}.distinct_ratio"] = ratio(span)
        for name, value in self.counters.items():
            out[name] = value / ops
        return out

    def self_shares(self) -> tuple[dict[str, float], dict[str, float]]:
        """Share of all traced self time, per layer and per span name."""
        total = sum(self.self_s) or 1.0
        layers = {layer: self._sum(self.self_s, layer) / total for layer in LAYERS}
        spans = {name: t / total for name, t in sorted(
            zip(self.names, self.self_s), key=lambda it: -it[1]) if t}
        return layers, spans

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - t0) * 1e6:.1f}\t{(self.span_end[i] - t0) * 1e6:.1f}\t"
                    f"{self.span_parent[i]}\t{self.span_op[i]}\n"
                )


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cellseed.cli; print((time.perf_counter() - t) * 1000)"
)


def cli_import_ms(src: Path, repeats: int = 5) -> float:
    """Median time to import ``cellseed.cli`` in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src)],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        times.append(float(out))
    return statistics.median(times)
