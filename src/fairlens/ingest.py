"""Dataset loading, encoding, and protected-group extraction.

A dataset is described by a declarative JSON spec (see configs/*.json and the
README for the grammar). Loading parses the CSV against the declared columns;
encoding produces a numeric design matrix:

  numeric      -> z-scored (population std)
  binary       -> {0, 1} (lexicographically smaller observed value -> 0)
  categorical  -> one-hot indicator block, category columns in sorted order
  ordinal      -> declared level rank, then z-scored
  label        -> {0, 1} with the declared positive value -> 1

Rows with any missing feature or label cell are dropped before encoding and
group extraction, and the dropped count is reported on the results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COLUMN_KINDS = ("numeric", "binary", "categorical", "ordinal")
COLUMN_ROLES = ("feature", "label", "ignore")
POSITIVE_MEANINGS = ("assistive", "punitive")


class IngestError(ValueError):
    """Raised for spec violations, malformed files, or degenerate columns."""


def is_path_component(name) -> bool:
    """True when name can be one directory name under the output directory.

    Dataset and protected-feature names become directories of the rendered
    figures, so an empty name, a dot segment or a path separator would
    write outside the output directory, and no file system takes a NUL.
    """
    return (isinstance(name, str) and name not in ("", ".", "..")
            and not any(c in name for c in "/\\\0"))


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    role: str = "feature"
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise IngestError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in COLUMN_ROLES:
            raise IngestError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.kind == "ordinal":
            if len(self.levels) < 2:
                raise IngestError(f"ordinal column {self.name!r} needs >= 2 levels")
            if len(set(self.levels)) != len(self.levels):
                raise IngestError(f"ordinal column {self.name!r} has duplicate levels")


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative description of one decision dataset."""

    name: str
    source_path: str  # as written in the spec; recorded in the bundle
    columns: tuple[ColumnSpec, ...]
    label_column: str
    positive_value: str
    positive_meaning: str
    protected_features: tuple[str, ...]
    reference_groups: dict = field(default_factory=dict)  # feature -> explicit label
    base_dir: str = ""  # a relative source_path is read relative to this

    def __post_init__(self):
        if not is_path_component(self.name):
            raise IngestError(f"dataset name {self.name!r} cannot be a "
                              f"directory name")
        if not isinstance(self.source_path, str):
            raise IngestError(f"dataset {self.name!r}: source_path must be a "
                              f"string, got {self.source_path!r}")
        by_name = {c.name: c for c in self.columns}
        if len(by_name) != len(self.columns):
            raise IngestError(f"dataset {self.name!r}: duplicate column names")
        if self.positive_meaning not in POSITIVE_MEANINGS:
            raise IngestError(
                f"dataset {self.name!r}: positive_meaning must be one of {POSITIVE_MEANINGS}"
            )
        label = by_name.get(self.label_column)
        if label is None:
            raise IngestError(f"label column {self.label_column!r} not declared")
        if label.role != "label":
            raise IngestError(f"column {self.label_column!r} must have role 'label'")
        if not self.protected_features:
            raise IngestError(f"dataset {self.name!r}: no protected features declared")
        if len(set(self.protected_features)) != len(self.protected_features):
            raise IngestError(f"dataset {self.name!r}: repeated protected "
                              f"feature names")
        for p in self.protected_features:
            if not is_path_component(p):
                raise IngestError(f"protected feature name {p!r} cannot be a "
                                  f"directory name")
            col = by_name.get(p)
            if col is None:
                raise IngestError(f"protected feature {p!r} not declared as a column")
            if col.kind not in ("categorical", "binary"):
                raise IngestError(f"protected feature {p!r} must be categorical or binary")
        for p in self.reference_groups:
            if p not in self.protected_features:
                raise IngestError(f"explicit reference group for unknown feature {p!r}")


def _list_field(value, what: str) -> tuple:
    """A spec field that must be a JSON list; tuple() would split a
    string into its characters."""
    if not isinstance(value, list):
        raise IngestError(f"{what} must be a JSON list, got {value!r}")
    return tuple(value)


def _str_map_field(value, what: str) -> dict[str, str]:
    """A spec field that must be a JSON object of strings; dict() would
    take a list of two-character strings as key/value pairs."""
    if not (isinstance(value, dict)
            and all(isinstance(v, str) for v in value.values())):
        raise IngestError(f"{what} must be a JSON object of strings, "
                          f"got {value!r}")
    return dict(value)


def load_dataset_spec(path: str | Path) -> DatasetSpec:
    """Read a dataset spec JSON file; source_path is read relative to it.

    source_path keeps the text of the spec, so the bundle records the same
    path wherever the spec and its data are checked out.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except RecursionError as exc:
        raise IngestError(f"dataset spec {path}: JSON nested too deeply") from exc
    try:
        columns = tuple(
            ColumnSpec(
                name=c["name"],
                kind=c["kind"],
                role=c.get("role", "feature"),
                levels=_list_field(c.get("levels", []),
                                   f"column {c['name']!r}: levels"),
            )
            for c in raw["columns"]
        )
        spec = DatasetSpec(
            name=raw["name"],
            source_path=raw["source_path"],
            columns=columns,
            label_column=raw["label_column"],
            positive_value=str(raw["positive_value"]),
            positive_meaning=raw["positive_meaning"],
            protected_features=_list_field(raw["protected_features"],
                                           "protected_features"),
            reference_groups=_str_map_field(raw.get("reference_groups", {}),
                                            "reference_groups"),
            base_dir=str(path.parent),
        )
    except KeyError as exc:
        raise IngestError(f"dataset spec {path}: missing field {exc}") from exc
    except TypeError as exc:  # say, a spec or column that is not an object
        raise IngestError(f"dataset spec {path}: a field has the wrong JSON "
                          f"type ({exc})") from exc
    return spec


def read_columns(path: str | Path, names: list[str], error: type[Exception]
                 ) -> list[tuple[list[str], np.ndarray]]:
    """The named columns of a CSV file, each coded as code_column codes it:
    (sorted distinct cells, each row's int64 index into them).

    The package's one CSV reader, for dataset and prediction files alike:
    RFC 4180, UTF-8, header row required; a leading UTF-8 byte-order mark,
    which spreadsheets write in "CSV UTF-8" exports, is dropped, so it is
    not part of the first header name. A record ends at "\\n", "\\r" or
    "\\r\\n" outside quotes, and a quoted cell reads as its unquoted text.
    Blank lines are skipped and not counted, so row i of every column is on
    row i + 2, counting the header as row 1. Cells missing from a short row
    are empty, and a repeated header name reads its last column. Raises
    error, naming path, for an empty file, bytes that are not UTF-8, a NUL
    byte or a bad field anywhere in the file (_split_fields; these name the
    line too) or a name absent from the header, in that order.

    numpy splits the file (_split_fields) and codes each column without a
    str per cell (_code_cells), then unquotes a quoted file's values.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    if not data:
        raise error(f"{path}: empty file, header row required")
    try:
        if not data.isascii():
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc.reason})") from None
    if b"\0" in data:
        raise error(f"{_where(path, data, data.find(0))}: NUL byte")
    quoted = b'"' in data
    data += bytes(_PAD)
    ends, last = _split_fields(path, data, quoted, error)
    starts = np.concatenate(([0], ends[:last[0]] + 1))
    header = [data[s:e].decode("utf-8")
              for s, e in zip(starts.tolist(), ends[:last[0] + 1].tolist())]
    if header == [""]:
        header = []  # a blank first line
    picks = _header_index(path, list(map(_unquote, header)), names, error)
    # record r >= 1 holds fields last[r - 1] + 1 .. last[r]; a blank line
    # is one empty field
    first, last = last[:-1] + 1, last[1:]
    kept = (first < last) | (ends[first] > ends[first - 1] + 1)
    first, last = first[kept], last[kept]
    # the 8 bytes from each offset of the file, as one big-endian word
    words = np.ndarray((len(data) - _PAD + 1,), dtype=">u8", buffer=data,
                       strides=(1,))
    columns = [_code_cells(data, words, *_cells(ends, first, last, i))
               for i in picks]
    if quoted:
        columns = [recode(list(map(_unquote, values)), codes)
                   for values, codes in columns]
    return columns


def _header_index(path, header: list[str], names: list[str],
                  error: type[Exception]) -> list[int]:
    """Each name's column: the last one of that name in the header."""
    for name in names:
        if name not in header:
            raise error(f"{path}: declared column {name!r} absent from header")
    where = {name: i for i, name in enumerate(header)}
    return [where[name] for name in names]


def _where(path, data: bytes, at: int) -> str:
    """path and the line of data[at], which is not a line break."""
    return f"{path}: line {len(data[:at + 1].splitlines())}"


def _unquote(cell: str) -> str:
    """A cell's text: a quoted cell without its quotes, '""' read as '"'."""
    return cell[1:-1].replace('""', '"') if cell[:1] == '"' else cell


# zero bytes after a file's own, so that an 8-byte word starts at every
# offset of the file
_PAD = 8
# the longest field in bytes, quotes included (csv.field_size_limit()'s)
_FIELD_LIMIT = 131072
# the bytes that may precede an opening '"' or follow a closing one (0: pad)
_QUOTE_NEIGHBOUR = np.zeros(256, dtype=bool)
_QUOTE_NEIGHBOUR[list(b'\0,\n\r"')] = True


def _split_fields(path, data: bytes, quoted: bool, error: type[Exception]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Where each field of NUL-free CSV bytes (followed by _PAD zero bytes)
    ends, and which field ends each record.

    ends[k] is the offset of the ",", "\\n" or "\\r" after field k, or the
    file's length for a last field with no line end, so field k spans
    [ends[k - 1] + 1, ends[k]). last[r] is the index of record r's final
    field. "\\r\\n" ends a record and then an empty one, which is dropped
    as a blank line. Offsets are int32 below 2 GiB, which halves every
    index array.

    If quoted, the '"' pair up in file order, and a separator after an odd
    number of them is inside a quoted field. An opening '"' must start a
    field or follow a closing one ('""'), and a closing '"' must end a
    field or precede an opening one. Raises error, naming path and line,
    for a '"' out of place, an unterminated quoted field or a field longer
    than _FIELD_LIMIT bytes.
    """
    size = len(data) - _PAD
    offset = np.int32 if len(data) < 2**31 else np.int64
    buf = np.frombuffer(data, dtype=np.uint8)  # buf[-1] is a pad byte
    seps = buf == ord(",")
    seps |= buf == ord("\n")
    seps |= buf == ord("\r")
    ends = np.flatnonzero(seps).astype(offset)
    del seps
    if quoted:
        quotes = np.flatnonzero(buf == ord('"'))
        opening, closing = quotes[::2], quotes[1::2]
        stray = np.concatenate((opening[~_QUOTE_NEIGHBOUR[buf[opening - 1]]],
                                closing[~_QUOTE_NEIGHBOUR[buf[closing + 1]]]))
        if stray.size:
            raise error(f"{_where(path, data, stray.min())}: '\"' does not "
                        f"open or close a whole field")
        if len(opening) > len(closing):
            raise error(f"{_where(path, data, opening[-1])}: unterminated "
                        f"quoted field")
        # a uint8 count of '"' wraps at 256 but keeps its parity
        ends = ends[np.cumsum(buf == ord('"'), dtype=np.uint8)[ends] % 2 == 0]
    closes = buf[ends] != ord(",")
    if data[size - 1] not in b"\n\r":
        ends = np.append(ends, offset(size))
        closes = np.append(closes, True)
    widths = np.diff(ends, prepend=offset(-1)) - 1
    over = np.flatnonzero(widths > _FIELD_LIMIT)
    if over.size:
        k = over[0]
        raise error(f"{_where(path, data, ends[k] - widths[k])}: field "
                    f"larger than field limit ({_FIELD_LIMIT})")
    return ends, np.flatnonzero(closes).astype(offset)


def _cells(ends: np.ndarray, first: np.ndarray, last: np.ndarray, i: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """Where cell i of each record starts, and its length: 0 for a cell
    missing from a short row."""
    k = first + i
    missing = k > last
    np.minimum(k, last, out=k)
    start = ends[k - 1]
    start += 1
    length = ends[k]
    length -= start
    length[missing] = 0
    return start, length


# KEEP[k] keeps the first k bytes of a big-endian word and zeroes the rest
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)],
                 dtype=np.uint64)


def _code_cells(data: bytes, words: np.ndarray, start: np.ndarray,
                length: np.ndarray) -> tuple[list[str], np.ndarray]:
    """code_column of the cells data[start:start + length], for bytes with
    no NUL, from each cell's bytes packed into 8-byte words.

    A cell is its big-endian words, zero-padded; with no NUL, two cells are
    equal exactly when their words are, and word order is byte order,
    which for UTF-8 is code-point order, that is str order. The rows are
    sorted one word at a time from the last (a stable sort per word, least
    significant first, _order_by_later_words), so no more than one word
    per row is held however wide the widest cell is. Codes are taken from
    the runs of equal cells, and only the distinct cells are decoded.
    """
    n = len(start)
    if n == 0:
        return [], np.zeros(0, dtype=np.int64)

    def word(rows, w):
        got = words[start[rows] + 8 * w].astype(np.uint64)
        keep = length[rows] - 8 * w
        got &= _KEEP[np.clip(keep, 0, 8, out=keep)]
        return got

    n_words = (length + 7) >> 3
    wide = n_words.max() > 1
    if wide:
        order = _order_by_later_words(word, n_words)
        first = word(order, 0)
        by_first = np.argsort(first, kind="stable")
        order, first = order[by_first], first[by_first]
        del by_first
    else:  # word 0 is the whole cell, so ties are equal cells
        first = word(slice(None), 0)
        order = np.argsort(first)
        first = first[order]
    del n_words

    # same[j]: the cells of order[j] and order[j + 1] are equal
    same = first[1:] == first[:-1]
    del first
    if wide:
        # pairs equal in word 0 differ in length or in a later word
        a, b = length[order[:-1]], length[order[1:]]
        same &= a == b
        pairs = np.flatnonzero(same & (a > 8))
        del a, b
        w = 1
        while pairs.size:
            a, b = order[pairs], order[pairs + 1]
            equal = word(a, w) == word(b, w)
            same[pairs[~equal]] = False
            pairs = pairs[equal & (length[a] > 8 * (w + 1))]
            w += 1

    head = np.concatenate(([True], ~same))
    ranks = np.cumsum(head)
    ranks -= 1
    codes = np.empty(n, dtype=np.int64)
    codes[order] = ranks
    heads = order[head]
    values = [data[s:s + m].decode("utf-8") for s, m in
              zip(start[heads].tolist(), length[heads].tolist())]
    return values, codes


def _order_by_later_words(word, n_words: np.ndarray) -> np.ndarray:
    """Rows in order of their words 1, 2, ... (LSD, the last word first);
    rows with no byte past word 0 come first, in row order.

    A pass sorts only the rows with a byte in its word: the others have a
    zero word there, so a stable sort would keep them, in their order,
    ahead of the rest.
    """
    by_words = np.argsort(-n_words, kind="stable")  # most words first
    # the first wide[w] rows of by_words have a byte in word w
    wide = np.searchsorted(-n_words[by_words], -np.arange(n_words.max() + 1))
    # a pass over fewer than two rows leaves them in place: skip those
    top = int(n_words[by_words[1]]) if len(by_words) > 1 else 0
    order = by_words[:wide[top]]
    for w in range(top - 1, 0, -1):
        order = np.concatenate((by_words[len(order):wide[w]], order))
        order = order[np.argsort(word(order, w), kind="stable")]
    return np.concatenate((by_words[len(order):], order))


def code_column(cells: list[str]) -> tuple[list[str], np.ndarray]:
    """A column's sorted distinct cells, and each row's int64 index into
    them, mapped through a dict by C-level calls, not a loop per row."""
    values = sorted(set(cells))
    index = {value: k for k, value in enumerate(values)}
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.int64,
                        count=len(cells))
    return values, codes


def recode(values: list, codes: np.ndarray) -> tuple[list, np.ndarray]:
    """code_column of values[codes] without an item per row, for values
    that may repeat: two raw cells can strip or decode to one label."""
    labels, label_codes = code_column(values)
    return labels, label_codes[codes]


def decode_values(values: list[str], codes: np.ndarray,
                  decode) -> tuple[list, tuple[int, str] | None]:
    """Each value decoded once (None where decode raised ValueError) and,
    if any failed, (first row whose value failed, its message); every
    value must occur in codes."""
    decoded, messages = [], {}
    for k, value in enumerate(values):
        try:
            decoded.append(decode(value))
        except ValueError as exc:
            decoded.append(None)
            messages[k] = str(exc)
    if not messages:
        return decoded, None
    i = int(np.isin(codes, list(messages)).argmax())
    return decoded, (i, messages[int(codes[i])])


def rank_groups(values: list[str], codes: np.ndarray
                ) -> tuple[tuple[str, ...], np.ndarray, tuple[int, ...]]:
    """The groups present in codes, largest first and ties by label (the
    rule of run and audit alike), each row's index into them, and sizes."""
    present, inverse, sizes = np.unique(codes, return_inverse=True,
                                        return_counts=True)
    # values are sorted, so a stable sort keeps equal sizes in label order
    rank = np.argsort(-sizes, kind="stable")
    labels = tuple(values[present[r]] for r in rank)
    return labels, np.argsort(rank)[inverse], tuple(sizes[rank].tolist())


@dataclass
class RawTable:
    """Parsed CSV contents: each declared column as its stripped cells,
    coded (sorted distinct cells, each row's int64 index into them)."""

    columns: dict[str, tuple[list[str], np.ndarray]]
    n_rows: int
    missing: dict[str, np.ndarray]  # column -> per-row mask of empty cells


def load_dataset(spec: DatasetSpec) -> RawTable:
    """Read the spec's declared columns with read_columns.

    Each distinct cell is stripped, and in a numeric feature or label
    column parsed, once.
    """
    path = (Path(spec.base_dir) / spec.source_path).resolve()
    if not path.exists():
        raise IngestError(f"dataset file not found: {path}")
    raw = read_columns(path, [c.name for c in spec.columns], IngestError)
    columns: dict[str, tuple[list[str], np.ndarray]] = {}
    missing: dict[str, np.ndarray] = {}
    for col, (values, codes) in zip(spec.columns, raw):
        values, codes = recode([value.strip() for value in values], codes)
        if col.kind == "numeric" and col.role != "ignore":
            # an empty cell is missing, not malformed; its row is dropped
            _, bad = decode_values(values, codes, lambda v: float(v or 0))
            if bad:
                raise IngestError(
                    f"{path}: non-parsable numeric cell at row {bad[0] + 2}, "
                    f"column {col.name!r}: {values[codes[bad[0]]]!r}")
        columns[col.name] = values, codes
        missing[col.name] = np.array([not v for v in values], dtype=bool)[codes]
    return RawTable(columns=columns, n_rows=len(raw[0][1]), missing=missing)


def complete_rows(table: RawTable, spec: DatasetSpec) -> tuple[np.ndarray, int]:
    """Indices of rows with no missing feature/label cell, and the dropped count.

    Encoding and group extraction both use this filter, so their rows always
    line up.
    """
    bad = np.zeros(table.n_rows, dtype=bool)
    for c in spec.columns:
        if c.role in ("feature", "label"):
            bad |= table.missing[c.name]
    kept = np.flatnonzero(~bad)
    return kept, int(bad.sum())


@dataclass
class EncodedDataset:
    """Numeric design matrix plus what fold_normalized needs to z-score it."""

    raw_design: np.ndarray        # N x F, before z-scoring scaled columns
    labels: np.ndarray            # N, int8 in {0,1}
    column_names: list[str]
    scaled_columns: np.ndarray    # indices of columns that get z-scored
    dropped_rows: int
    notes: list[str]


def _kept_column(table: RawTable, name: str,
                 kept: np.ndarray) -> tuple[list[str], np.ndarray]:
    """A column coded over the kept rows only."""
    values, codes = table.columns[name]
    present, codes = np.unique(codes[kept], return_inverse=True)
    return [values[k] for k in present], codes


def encode_features(table: RawTable, spec: DatasetSpec) -> EncodedDataset:
    """Encode the table to a design matrix and {0,1} label vector.

    Blocks are built from column codes, one lookup per distinct cell.
    Scaled columns stay raw here; fold_normalized() z-scores them on a
    fold's training rows.
    """
    kept, dropped = complete_rows(table, spec)
    if kept.size == 0 and table.n_rows > 0:
        raise IngestError("every row has missing cells; nothing to encode")
    blocks: list[np.ndarray] = []
    names: list[str] = []
    scaled: list[int] = []

    for col in spec.columns:
        if col.role != "feature":
            continue
        values, codes = _kept_column(table, col.name, kept)
        if col.kind in ("numeric", "ordinal"):
            # load_dataset checked every numeric cell, so only a level fails
            parse = float if col.kind == "numeric" else col.levels.index
            scalars, bad = decode_values(values, codes, parse)
            if bad:
                raise IngestError(
                    f"ordinal column {col.name!r}: value "
                    f"{values[codes[bad[0]]]!r} not in declared levels")
            scaled.append(len(names))
            names.append(col.name)
            blocks.append(np.array(scalars, dtype=np.float64)[codes][:, None])
        elif col.kind == "binary":
            if len(values) != 2:
                raise IngestError(
                    f"binary column {col.name!r} has {len(values)} observed values "
                    f"(need exactly 2): {values[:5]}"
                )
            names.append(col.name)
            blocks.append(codes.astype(np.float64)[:, None])
        elif col.kind == "categorical":
            if len(values) < 2:
                raise IngestError(
                    f"categorical column {col.name!r} has a single observed value"
                )
            hot = np.zeros((kept.size, len(values)), dtype=np.float64)
            hot[np.arange(kept.size), codes] = 1.0
            names.extend(f"{col.name}={v}" for v in values)
            blocks.append(hot)

    raw_design = np.hstack(blocks) if blocks else np.zeros((kept.size, 0))
    scaled_idx = np.array(scaled, dtype=np.int64)

    values, codes = _kept_column(table, spec.label_column, kept)
    if kept.size and spec.positive_value not in values:
        raise IngestError(
            f"declared positive value {spec.positive_value!r} never observed in "
            f"label column {spec.label_column!r} (saw {values[:5]})"
        )
    labels = np.array([v == spec.positive_value for v in values],
                      dtype=np.int8)[codes]

    notes = [f"column {names[j]!r} has zero variance; encoded as 0"
             for j in scaled if raw_design[:, j].std() == 0.0]
    return EncodedDataset(
        raw_design=raw_design,
        labels=labels,
        column_names=names,
        scaled_columns=scaled_idx,
        dropped_rows=dropped,
        notes=notes,
    )


def fold_normalized(enc: EncodedDataset, train_rows: np.ndarray) -> np.ndarray:
    """Design matrix z-scored with means and population stds fit on
    train_rows only; a column constant on them encodes as 0."""
    design = enc.raw_design.copy()
    for j in enc.scaled_columns:
        col = enc.raw_design[train_rows, j]
        mean = float(col.mean())
        std = float(col.std())
        design[:, j] = (design[:, j] - mean) / std if std != 0.0 else 0.0
    return design


@dataclass
class GroupIndex:
    """Group assignment for one protected feature over the complete rows."""

    feature: str
    labels: tuple[str, ...]      # canonical order: descending size, then name
    assignments: np.ndarray      # int index into labels, per row
    sizes: tuple[int, ...]
    reference: str


def extract_groups(table: RawTable, spec: DatasetSpec) -> dict[str, GroupIndex]:
    """Group assignments per protected feature, reference group resolved.

    The default reference is rank_groups' first group, the largest with
    ties broken by label; an explicit reference in the spec overrides it.
    """
    kept, _ = complete_rows(table, spec)
    out: dict[str, GroupIndex] = {}
    for feature in spec.protected_features:
        values, codes = table.columns[feature]
        labels, assignments, sizes = rank_groups(values, codes[kept])
        if len(labels) < 2:
            raise IngestError(
                f"protected feature {feature!r} has a single group; "
                "fairness comparison is degenerate"
            )
        reference = spec.reference_groups.get(feature)
        if reference is None:
            reference = labels[0]
        elif reference not in labels:
            raise IngestError(
                f"explicit reference group {reference!r} not observed in {feature!r}"
            )
        out[feature] = GroupIndex(
            feature=feature,
            labels=labels,
            assignments=assignments,
            sizes=sizes,
            reference=reference,
        )
    return out
