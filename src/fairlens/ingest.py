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

import csv
import json
from dataclasses import dataclass, field
from itertools import islice
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
    write outside the output directory.
    """
    return (isinstance(name, str) and name not in ("", ".", "..")
            and "/" not in name and "\\" not in name)


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


def load_dataset_spec(path: str | Path) -> DatasetSpec:
    """Read a dataset spec JSON file; source_path is read relative to it.

    source_path keeps the text of the spec, so the bundle records the same
    path wherever the spec and its data are checked out.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        columns = tuple(
            ColumnSpec(
                name=c["name"],
                kind=c["kind"],
                role=c.get("role", "feature"),
                levels=tuple(c.get("levels", ())),
            )
            for c in raw["columns"]
        )
        ref = raw.get("reference_groups", {})
        spec = DatasetSpec(
            name=raw["name"],
            source_path=raw["source_path"],
            columns=columns,
            label_column=raw["label_column"],
            positive_value=str(raw["positive_value"]),
            positive_meaning=raw["positive_meaning"],
            protected_features=tuple(raw["protected_features"]),
            reference_groups=dict(ref),
            base_dir=str(path.parent),
        )
    except KeyError as exc:
        raise IngestError(f"dataset spec {path}: missing field {exc}") from exc
    except TypeError as exc:  # say, a spec or column that is not an object
        raise IngestError(f"dataset spec {path}: a field has the wrong JSON "
                          f"type ({exc})") from exc
    return spec


def read_columns(path: str | Path, names: list[str],
                 error: type[Exception]) -> list[list[str]]:
    """The cells of the named columns of a CSV file, one list per name.

    The package's one CSV reader, for dataset and prediction files alike:
    RFC 4180, UTF-8, header row required. Blank lines are skipped and not
    counted, so cell i of every column is on row i + 2, counting the header
    as row 1. Cells missing from a short row are empty, and a repeated
    header name reads its last column. Equal cells share one str object,
    so a kept cell costs one list pointer. Raises error, naming path, for
    an empty file, a name absent from the header or bytes that are not
    UTF-8.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty file, header row required")
            for name in names:
                if name not in header:
                    raise error(f"{path}: declared column {name!r} absent "
                                f"from header")
            where = {name: i for i, name in enumerate(header)}
            picks = [where[name] for name in names]
            width = max(picks) + 1
            columns: list[list[str]] = [[] for _ in names]
            intern = {}.setdefault
            # a few thousand rows at a time, so each column is taken out by
            # C-level list and map calls rather than a Python loop per row
            for chunk in iter(lambda: list(islice(reader, 4096)), []):
                rows = [row if len(row) >= width
                        else row + [""] * (width - len(row))
                        for row in chunk if row]
                for column, i in zip(columns, picks):
                    cells = [row[i] for row in rows]
                    column.extend(map(intern, cells, cells))
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not valid UTF-8 ({exc.reason})") from None
    return columns


def code_column(cells: list[str]) -> tuple[list[str], np.ndarray]:
    """A column's sorted distinct cells, and each row's int64 index into
    them, mapped through a dict by C-level calls, not a loop per row."""
    values = sorted(set(cells))
    index = {value: k for k, value in enumerate(values)}
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.int64,
                        count=len(cells))
    return values, codes


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
    """Parsed CSV contents: stripped string cells per declared column."""

    columns: dict[str, list[str]]
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
    columns: dict[str, list[str]] = {}
    missing: dict[str, np.ndarray] = {}
    for col, cells in zip(spec.columns, raw):
        values, codes = code_column(cells)
        values = [value.strip() for value in values]
        if col.kind == "numeric" and col.role != "ignore":
            # an empty cell is missing, not malformed; its row is dropped
            _, bad = decode_values(values, codes, lambda v: float(v or 0))
            if bad:
                raise IngestError(
                    f"{path}: non-parsable numeric cell at row {bad[0] + 2}, "
                    f"column {col.name!r}: {values[codes[bad[0]]]!r}")
        columns[col.name] = list(map(values.__getitem__, codes.tolist()))
        missing[col.name] = np.array([not v for v in values], dtype=bool)[codes]
    return RawTable(columns=columns, n_rows=len(raw[0]), missing=missing)


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
    """code_column over the kept rows only."""
    values, codes = code_column(table.columns[name])
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
        values, codes = code_column(table.columns[feature])
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
