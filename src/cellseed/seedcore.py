"""Initial cluster seeds of Schubert cells and exchange-matrix mutation.

Positions are 1-based indices into the generating word.  Rows of the
exchange matrix carry all positions, mutable first, then frozen, each block
in position order; columns are the mutable positions.  Each column is kept
as its few nonzero entries, filled from p(k), s(k) and the letters next to
i_k, and a mutation rewrites only the columns it changes; the dense table is
built only where it is printed.  A seed is its word,
matrix and mutation history; its labels and frozen flags derive from the
word and the history, and a seed file is checked against that derivation.
"""

from __future__ import annotations

import json
from functools import cached_property

from .rootsys import (
    CellSeedError,
    LieType,
    ParabolicConfig,
    Record,
    Word,
    reduced_violation,
    require_prefix_table,
    require_table,
    root_supports,
    symmetrizers,
)


class NonReducedWordError(CellSeedError):
    def __init__(self, word: Word, position: int):
        self.word = word
        self.position = position
        super().__init__(
            f"word {word} is not reduced: length drops at letter {position} "
            f"(prefix {word.prefix(position)})"
        )


def require_reduced(lie_type: LieType, word: Word) -> None:
    pos = reduced_violation(lie_type, word)
    if pos is not None:
        raise NonReducedWordError(word, pos)


class SeedIndexData(Record):
    """Predecessor/successor positions of a word.

    ``p[k-1]`` is the largest j < k with the same letter (None if absent),
    ``s[k-1]`` the smallest j > k (None if the letter never reoccurs).
    """

    p: tuple[int | None, ...]
    s: tuple[int | None, ...]

    def __init__(self, p, s):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)

    def frozen_positions(self) -> tuple[int, ...]:
        return tuple(k for k, sk in enumerate(self.s, start=1) if sk is None)

    def mutable_positions(self) -> tuple[int, ...]:
        return tuple(k for k, sk in enumerate(self.s, start=1) if sk is not None)


def successor_maps(word: Word) -> SeedIndexData:
    letters = word.letters
    m = len(letters)
    p: list[int | None] = [None] * m
    s: list[int | None] = [None] * m
    last: dict[int, int] = {}
    for k in range(1, m + 1):
        i = letters[k - 1]
        if i in last:
            p[k - 1] = last[i]
            s[last[i] - 1] = k
        last[i] = k
    return SeedIndexData(tuple(p), tuple(s))


class ExchangeMatrix(Record, uncompared=("entries",)):
    """Extended exchange matrix with labeled rows and columns, each column kept as
    its nonzero (row, entry) pairs in row order.  ``entries``, the dense rows, are
    those given or a view built on first read; equality reads the columns."""

    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, row_labels, col_labels, entries=None, columns=None):
        object.__setattr__(self, "row_labels", row_labels)
        object.__setattr__(self, "col_labels", col_labels)
        if columns is None:
            if len(entries) != len(row_labels):
                raise CellSeedError("row count does not match row labels")
            for row in entries:
                if len(row) != len(col_labels):
                    raise CellSeedError("column count does not match column labels")
            object.__setattr__(self, "entries", entries)
            rows = sorted(zip(row_labels, entries))
            cols = range(len(col_labels))
            columns = tuple(tuple((j, row[c]) for j, row in rows if row[c]) for c in cols)
        object.__setattr__(self, "columns", columns)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        rows, cols = self.shape
        require_table(rows * cols, f"a {rows}x{cols} exchange matrix")
        dense = {j: [0] * cols for j in self.row_labels}
        for c, column in enumerate(self.columns):
            for j, b in column:
                dense[j][c] = b
        return tuple(tuple(dense[j]) for j in self.row_labels)

    def entry(self, j: int, k: int) -> int:
        """Entry b_{jk} addressed by position labels."""
        return dict(self.column(k)).get(j, 0)

    def _index(self, k: int) -> int:
        if k not in self.col_labels:
            raise CellSeedError(f"position {k} is not mutable")
        return self.col_labels.index(k)

    def column(self, k: int) -> tuple[tuple[int, int], ...]:
        """The nonzero entries (j, b_jk) of column k, in position order."""
        return self.columns[self._index(k)]

    def binomial_supports(self, k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(position, |b_jk|) in position order, over b_jk > 0 (M_k) and b_jk < 0 (L_k)."""
        col = self.column(k)
        return [(j, b) for j, b in col if b > 0], [(j, -b) for j, b in col if b < 0]

    def principal_part(self) -> tuple[tuple[int, ...], ...]:
        rows = dict(zip(self.row_labels, self.entries))
        return tuple(rows[j] for j in self.col_labels)

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation at the mutable position k.  Column k is negated and only
        the columns j with b_kj != 0 are rewritten; every other column is kept."""
        ck = self._index(k)
        kcol = self.columns[ck]
        cols = list(self.columns)
        for c, bkj in [(c, b) for c, col in enumerate(cols) for j, b in col if j == k]:
            new = dict(cols[c])
            new[k] = -bkj
            for i, bik in kcol:
                if i != k:
                    new[i] = new.get(i, 0) + (abs(bik) * bkj + bik * abs(bkj)) // 2
            cols[c] = tuple(sorted(p for p in new.items() if p[1]))
        cols[ck] = tuple((i, -b) for i, b in kcol)
        return ExchangeMatrix(self.row_labels, self.col_labels, columns=tuple(cols))

    def render(self) -> str:
        """Block layout with row labels, mutable rows above a separator."""
        rows = list(zip(self.row_labels, self.entries))
        return "\n".join(render_rows(self.col_labels, rows, len(self.col_labels)))


def render_rows(cols: tuple[int, ...], rows: list, rule_at: int) -> list[str]:
    """A header of ``cols``, then a line "label ( entries )" per (label, entries)
    of ``rows``, a rule line before row ``rule_at``, all right-aligned to one width."""
    width = max([len(str(x)) for x in cols] + [len(str(x)) for _, row in rows for x in row] + [1])
    lines = ["    " + " ".join(f"{c:>{width}}" for c in cols)]
    for r, (label, row) in enumerate(rows):
        if r == rule_at:
            lines.append("  " + "-" * (2 + (width + 1) * len(cols)))
        body = " ".join(f"{x:>{width}}" for x in row)
        lines.append(f"{label:>2} ( {body} )")
    return lines


def initial_matrix(lie_type: LieType, word: Word) -> ExchangeMatrix:
    """Initial exchange matrix of the cell seed for a reduced word.

    b_{jk} is +1 at j = p(k), -1 at j = s(k), the Cartan entry a_{i_j i_k}
    when j < k < s(j) < s(k), its negative when k < j < s(k) < s(j), else 0.
    A letter i_j = i_k meets neither chain, so column k is filled only at
    p(k), s(k) and the positions whose letter is adjacent to i_k, read from
    the root support of alpha_{i_k}.
    """
    require_reduced(lie_type, word)
    data = successor_maps(word)
    supports = root_supports(lie_type)
    letters = word.letters
    INF = len(letters) + 1  # stands in for +infinity in the strict chains below
    s = [INF if v is None else v for v in data.s]
    at: dict[int, list[int]] = {}
    for j, i in enumerate(letters, start=1):
        at.setdefault(i, []).append(j)

    mutable = data.mutable_positions()
    columns = []
    for k in mutable:
        i, pk, sk = letters[k - 1], data.p[k - 1], s[k - 1]
        col = [(sk, -1)] if pk is None else [(pk, 1), (sk, -1)]
        for l, a in supports[i - 1]:  # a = a[l+1][i]; l+1 = i meets neither chain
            for j in at.get(l + 1, ()):
                if j < k < s[j - 1] < sk:
                    col.append((j, a))
                elif k < j < sk < s[j - 1]:
                    col.append((j, -a))
        columns.append(tuple(sorted(col)))
    return ExchangeMatrix(mutable + data.frozen_positions(), mutable, columns=tuple(columns))


class MinorLabel(Record):
    """Initial variable at a position: fundamental index and prefix word."""

    fund: int
    prefix: Word

    def __init__(self, fund, prefix):
        object.__setattr__(self, "fund", fund)
        object.__setattr__(self, "prefix", prefix)

    def __str__(self) -> str:
        return f"D{{w{self.fund},({self.prefix})}}"


class MutationLabel(Record):
    """Variable produced by mutation, tagged with the mutation path."""

    path: tuple[int, ...]

    def __init__(self, path):
        object.__setattr__(self, "path", path)

    def __str__(self) -> str:
        return "(" + ",".join(str(k) for k in self.path) + ")"


Label = MinorLabel | MutationLabel


class Seed(Record):
    """A cell seed: its reduced word, exchange matrix and mutation history.

    Position k carries the prefix minor D{w_{i_k}, w_{<=k}}, or the path
    ``history[:t]`` when t is the last mutation at k; it is frozen exactly
    when its letter never reoccurs.
    """

    lie_type: LieType
    cfg: ParabolicConfig
    word: Word
    matrix: ExchangeMatrix
    history: tuple[int, ...]

    def __init__(self, lie_type, cfg, word, matrix, history=()):
        object.__setattr__(self, "lie_type", lie_type)
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "history", history)

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        word = self.word
        require_prefix_table(word)
        labels: list[Label] = [MinorLabel(i, word.prefix(k)) for k, i in enumerate(word, start=1)]
        for t, k in enumerate(self.history, start=1):
            labels[k - 1] = MutationLabel(self.history[:t])
        return tuple(labels)

    @cached_property
    def frozen_mask(self) -> tuple[bool, ...]:
        return tuple(sk is None for sk in successor_maps(self.word).s)

    @property
    def size(self) -> int:
        return len(self.word)

    def mutable_positions(self) -> tuple[int, ...]:
        return self.matrix.col_labels

    def label(self, k: int) -> Label:
        return self.labels[k - 1]


def initial_seed(lie_type: LieType, cfg: ParabolicConfig, word: Word) -> Seed:
    """Initial seed of the cell generated by ``word``."""
    if cfg.rank != lie_type.rank:
        raise CellSeedError("configuration rank does not match the type")
    return Seed(lie_type, cfg, word, initial_matrix(lie_type, word))


def exchange_binomial(seed: Seed, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponent vectors (m_expo, l_expo) of the exchange monomials M_k
    (entries b_{ik} > 0) and L_k (entries b_{ik} < 0)."""
    expos = ([0] * seed.size, [0] * seed.size)
    for expo, support in zip(expos, seed.matrix.binomial_supports(k)):
        for j, e in support:
            expo[j - 1] = e
    return tuple(expos[0]), tuple(expos[1])


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Mutate at k: matrix per the exchange rule, k appended to the history."""
    return Seed(
        seed.lie_type, seed.cfg, seed.word, seed.matrix.mutate(k), seed.history + (k,)
    )


# ---------------------------------------------------------------------------
# JSON serialization


def _label_to_json(label: Label) -> dict:
    if isinstance(label, MinorLabel):
        return {"i": label.fund, "word": list(label.prefix.letters)}
    return {"path": list(label.path)}


def _label_from_json(obj: dict) -> Label:
    if "path" in obj:
        return MutationLabel(_only(obj["path"], "label path"))
    (i,) = _only([obj["i"]], "label i")
    return MinorLabel(i, Word(_only(obj["word"], "label word")))


def seed_to_dict(seed: Seed) -> dict:
    entries = seed.matrix.entries  # past the table budget, this raises before labels are built
    return {
        "type": str(seed.lie_type),
        "J": list(seed.cfg.j_set),
        "word": list(seed.word.letters),
        "labels": [_label_to_json(l) for l in seed.labels],
        "frozen": list(seed.frozen_mask),
        "matrix": {
            "rows": list(seed.matrix.row_labels),
            "cols": list(seed.matrix.col_labels),
            "entries": [list(row) for row in entries],
        },
        "history": list(seed.history),
    }


def _check_seed(seed: Seed, labels: tuple[Label, ...], frozen: tuple[bool, ...]) -> None:
    """Tie a seed to its word; read labels and frozen flags must equal the derived
    ones.  The word is checked only here and in ``initial_seed``."""
    word, matrix = seed.word, seed.matrix
    require_reduced(seed.lie_type, word)
    if len(labels) != len(word):
        raise CellSeedError(f"{len(labels)} labels for a word of length {len(word)}")
    if frozen != seed.frozen_mask:
        raise CellSeedError("frozen flags must mark the positions whose letter never reoccurs")
    data = successor_maps(word)  # render draws its rule after len(cols) rows
    if matrix.row_labels != data.mutable_positions() + data.frozen_positions():
        raise CellSeedError("matrix rows must be a permutation of the positions, mutable first")
    if matrix.col_labels != data.mutable_positions():
        raise CellSeedError("matrix columns must be the mutable positions, in position order")
    for k in seed.history:
        if k not in matrix.col_labels:
            raise CellSeedError(f"history entry {k} is not a mutable position")
    for k, (label, want) in enumerate(zip(labels, seed.labels), start=1):
        if isinstance(label, MutationLabel) and frozen[k - 1]:
            raise CellSeedError(f"frozen position {k} carries a mutation label")
        if label != want:
            raise CellSeedError(
                f"label {label} at position {k} does not match the word {word} "
                f"and history {list(seed.history)}"
            )
    d = symmetrizers(seed.lie_type)
    cols = matrix.col_labels
    dk = [d[word.letters[k - 1] - 1] for k in cols]
    pp = matrix.principal_part()
    for a, row in enumerate(pp):
        for b, x in enumerate(row):
            if dk[a] * x != -dk[b] * pp[b][a]:
                raise CellSeedError(
                    "principal part is not skew-symmetrizable by the Cartan "
                    f"symmetrizers at ({cols[a]},{cols[b]})"
                )


def _only(values, what: str, kind: type = int) -> tuple:
    """``values`` as a tuple of plain ints or bools; JSON ``true`` is not 1 here."""
    out = tuple(values)
    if not all(type(x) is kind for x in out):
        noun = "integers" if kind is int else "booleans"
        raise CellSeedError(f"{what} must hold only {noun}, got {values!r}")
    return out


def seed_from_dict(obj: dict) -> Seed:
    """Read a seed and check it against its word (see ``_check_seed``)."""
    try:
        lie_type = LieType.parse(obj["type"])
        matrix = ExchangeMatrix(
            _only(obj["matrix"]["rows"], "matrix rows"),
            _only(obj["matrix"]["cols"], "matrix columns"),
            tuple(_only(row, "matrix entries") for row in obj["matrix"]["entries"]),
        )
        seed = Seed(
            lie_type,
            ParabolicConfig.from_j(lie_type, _only(obj["J"], "J")),
            Word(_only(obj["word"], "word")),
            matrix,
            _only(obj.get("history", ()), "history"),
        )
        labels = tuple(_label_from_json(l) for l in obj["labels"])
        _check_seed(seed, labels, _only(obj["frozen"], "frozen", bool))
    except KeyError as exc:
        raise CellSeedError(f"malformed seed data: missing key {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise CellSeedError(f"malformed seed data: {exc!r}") from exc
    return seed


def seed_to_json(seed: Seed) -> str:
    return json.dumps(seed_to_dict(seed), indent=2)


def seed_from_json(text: str) -> Seed:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CellSeedError(f"seed is not JSON: {exc}") from exc
    except RecursionError as exc:
        raise CellSeedError("seed JSON is nested too deeply") from exc
    return seed_from_dict(obj)


def render_seed(seed: Seed) -> str:
    matrix = seed.matrix.render()  # past the table budget, this raises before labels are built
    lines = [f"seed {seed.lie_type}  J={{{','.join(map(str, seed.cfg.j_set))}}}  word {seed.word}"]
    for k in range(1, seed.size + 1):
        tag = "frozen" if seed.frozen_mask[k - 1] else "mutable"
        lines.append(f"  {k:>2}: {seed.labels[k - 1]}  ({tag})")
    lines.append(matrix)
    return "\n".join(lines)
