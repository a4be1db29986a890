"""Loading, encoding, and group-extraction contracts.

The z-score oracle: column [1, 2, 3] has population std sqrt(2/3), so the
encoded values are -1.224744871391589, 0, +1.224744871391589.
"""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from fairlens import ingest
from fairlens.ingest import (
    ColumnSpec,
    DatasetSpec,
    IngestError,
    complete_rows,
    encode_features,
    extract_groups,
    fold_normalized,
    load_dataset,
    load_dataset_spec,
    read_columns,
)

Z3 = 1.224744871391589  # 1 / sqrt(2/3)


def make_spec(**overrides):
    base = dict(
        name="toy",
        source_path="toy.csv",
        columns=(
            ColumnSpec("age", "numeric"),
            ColumnSpec("sex", "binary"),
            ColumnSpec("race", "categorical"),
            ColumnSpec("grade", "ordinal", levels=("low", "mid", "high")),
            ColumnSpec("y", "binary", role="label"),
        ),
        label_column="y",
        positive_value="1",
        positive_meaning="punitive",
        protected_features=("race", "sex"),
    )
    base.update(overrides)
    return DatasetSpec(**base)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")


TOY_CSV = """age,sex,race,grade,y,extra
1,M,A,low,1,zzz
2,F,B,mid,0,zzz
3,M,A,high,1,zzz
"""


def toy_table(tmp_path, csv_text=TOY_CSV):
    src = tmp_path / "toy.csv"
    write_csv(src, csv_text)
    spec = make_spec(source_path=str(src))
    return load_dataset(spec), spec


def row_cells(table, name, rows=slice(None)):
    """A column's stripped cell on each of rows, expanded from its codes."""
    values, codes = table.columns[name]
    return [values[k] for k in codes[rows].tolist()]


def test_numeric_zscore_population_std(tmp_path):
    table, spec = toy_table(tmp_path)
    enc = encode_features(table, spec)
    design = fold_normalized(enc, np.arange(3))
    age = design[:, enc.column_names.index("age")]
    assert np.allclose(age, [-Z3, 0.0, Z3], atol=1e-12)


def test_ordinal_ranks_then_zscore(tmp_path):
    table, spec = toy_table(tmp_path)
    enc = encode_features(table, spec)
    grade = fold_normalized(enc, np.arange(3))[:, enc.column_names.index("grade")]
    # ranks 0,1,2 z-score identically to ages 1,2,3
    assert np.allclose(grade, [-Z3, 0.0, Z3], atol=1e-12)


def test_binary_maps_sorted_values(tmp_path):
    table, spec = toy_table(tmp_path)
    enc = encode_features(table, spec)
    sex = enc.raw_design[:, enc.column_names.index("sex")]
    # sorted observed = [F, M] so F -> 0, M -> 1
    assert sex.tolist() == [1.0, 0.0, 1.0]


def test_onehot_block_sorted_categories(tmp_path):
    table, spec = toy_table(tmp_path)
    enc = encode_features(table, spec)
    ja = enc.column_names.index("race=A")
    jb = enc.column_names.index("race=B")
    assert enc.raw_design[:, ja].tolist() == [1.0, 0.0, 1.0]
    assert enc.raw_design[:, jb].tolist() == [0.0, 1.0, 0.0]
    block = enc.raw_design[:, [ja, jb]]
    assert np.array_equal(block.sum(axis=1), np.ones(3))


def test_label_polarity(tmp_path):
    table, spec = toy_table(tmp_path)
    enc = encode_features(table, spec)
    assert enc.labels.tolist() == [1, 0, 1]
    # flipping the declared positive flips the vector
    src = tmp_path / "toy.csv"
    spec0 = make_spec(source_path=str(src), positive_value="0")
    enc0 = encode_features(load_dataset(spec0), spec0)
    assert enc0.labels.tolist() == [0, 1, 0]


def test_protected_feature_stays_in_design(tmp_path):
    table, spec = toy_table(tmp_path)
    enc = encode_features(table, spec)
    assert "sex" in enc.column_names
    assert "race=A" in enc.column_names


def test_missing_rows_dropped_and_counted(tmp_path):
    csv_text = (
        "age,sex,race,grade,y,extra\n"
        "1,M,A,low,1,z\n"
        ",F,B,mid,0,z\n"    # missing age
        "3,F,B,high,1,z\n"
        "2,F,B,,0,z\n"      # missing grade
        "4,M,A,mid,0,z\n"
    )
    table, spec = toy_table(tmp_path, csv_text)
    kept, dropped = complete_rows(table, spec)
    assert kept.tolist() == [0, 2, 4]
    assert dropped == 2
    enc = encode_features(table, spec)
    assert enc.raw_design.shape[0] == 3
    assert enc.dropped_rows == 2
    groups = extract_groups(table, spec)
    assert groups["sex"].assignments.shape == (3,)


def test_missing_ignored_column_keeps_row(tmp_path):
    csv_text = "age,sex,race,grade,y,extra\n1,M,A,low,1,\n2,F,B,mid,0,\n3,M,A,high,1,\n"
    src = tmp_path / "toy.csv"
    write_csv(src, csv_text)
    spec = make_spec(
        source_path=str(src),
        columns=make_spec().columns + (ColumnSpec("extra", "categorical", role="ignore"),),
    )
    table = load_dataset(spec)
    kept, dropped = complete_rows(table, spec)
    assert dropped == 0 and kept.size == 3


def test_unparsable_numeric_is_an_error(tmp_path):
    csv_text = "age,sex,race,grade,y,extra\n1,M,A,low,1,z\noops,F,B,mid,0,z\n"
    src = tmp_path / "toy.csv"
    write_csv(src, csv_text)
    spec = make_spec(source_path=str(src))
    with pytest.raises(IngestError, match="non-parsable numeric"):
        load_dataset(spec)


def test_numeric_error_names_first_bad_row_after_stripping(tmp_path):
    # each distinct cell is parsed once; the error still names the first
    # row holding a bad one, and blank lines are not counted
    csv_text = ("age,sex,race,grade,y,extra\n"
                "1,M,A,low,1,z\n"
                "\n"
                " 2 ,F,B,mid,0,z\n"
                "x ,M,A,high,1,z\n"
                " x,F,B,mid,0,z\n")
    src = tmp_path / "toy.csv"
    write_csv(src, csv_text)
    spec = make_spec(source_path=str(src))
    with pytest.raises(IngestError) as exc:
        load_dataset(spec)
    assert str(exc.value) == (f"{src.resolve()}: non-parsable numeric cell "
                              f"at row 4, column 'age': 'x'")


def test_blank_lines_are_skipped_not_dropped(tmp_path):
    # a blank line is not a row: it is neither kept nor counted as dropped
    csv_text = TOY_CSV.replace("\n2,", "\n\n2,") + "\n"
    table, spec = toy_table(tmp_path, csv_text)
    assert table.n_rows == 3
    enc = encode_features(table, spec)
    assert enc.dropped_rows == 0
    assert enc.labels.tolist() == [1, 0, 1]


def test_short_rows_read_as_missing_cells(tmp_path):
    csv_text = ("age,sex,race,grade,y,extra\n"
                "1,M,A,low,1,z\n"
                "2,F,B,mid,0\n"     # only the ignored extra cell is absent
                "3,M,A\n"           # grade and y absent: row dropped
                "4,F,B,high,1,z\n")
    src = tmp_path / "toy.csv"
    write_csv(src, csv_text)
    spec = make_spec(
        source_path=str(src),
        columns=make_spec().columns + (ColumnSpec("extra", "categorical",
                                                  role="ignore"),))
    table = load_dataset(spec)
    assert row_cells(table, "grade") == ["low", "mid", "", "high"]
    assert table.missing["extra"].tolist() == [False, True, True, False]
    kept, dropped = complete_rows(table, spec)
    assert kept.tolist() == [0, 1, 3] and dropped == 1


def test_repeated_header_reads_last_column(tmp_path):
    csv_text = ("age,sex,race,grade,y,age\n"
                "junk,M,A,low,1,1\n"
                "junk,F,B,mid,0,2\n"
                ",M,A,high,1,3\n")
    table, spec = toy_table(tmp_path, csv_text)
    assert row_cells(table, "age") == ["1", "2", "3"]
    enc = encode_features(table, spec)
    assert enc.dropped_rows == 0
    age = enc.raw_design[:, enc.column_names.index("age")]
    assert age.tolist() == [1.0, 2.0, 3.0]


def test_non_utf8_dataset_is_an_ingest_error(tmp_path):
    src = tmp_path / "toy.csv"
    src.write_bytes(TOY_CSV.encode().replace(b"2,F,B", b"2,F,\xff"))
    spec = make_spec(source_path=str(src))
    with pytest.raises(IngestError, match="not valid UTF-8"):
        load_dataset(spec)


def test_missing_header_column_is_an_error(tmp_path):
    src = tmp_path / "toy.csv"
    write_csv(src, "age,sex,race,y\n1,M,A,1\n")
    spec = make_spec(source_path=str(src))
    with pytest.raises(IngestError, match="absent from header"):
        load_dataset(spec)


def test_positive_value_never_observed_is_an_error(tmp_path):
    src = tmp_path / "toy.csv"
    write_csv(src, TOY_CSV)
    spec = make_spec(source_path=str(src), positive_value="yes")
    with pytest.raises(IngestError, match="never observed"):
        encode_features(load_dataset(spec), spec)


def test_group_order_descending_size_then_name(tmp_path):
    csv_text = (
        "age,sex,race,grade,y,extra\n"
        "1,M,A,low,1,z\n"
        "2,F,B,mid,0,z\n"
        "3,M,A,high,1,z\n"
        "4,F,C,low,0,z\n"
        "5,M,B,mid,1,z\n"
    )
    table, spec = toy_table(tmp_path, csv_text)
    gi = extract_groups(table, spec)["race"]
    # A and B tie at 2 rows; lexicographic breaks the tie
    assert gi.labels == ("A", "B", "C")
    assert gi.sizes == (2, 2, 1)
    assert gi.reference == "A"
    assert gi.assignments.tolist() == [0, 1, 0, 2, 1]


def test_explicit_reference_override(tmp_path):
    src = tmp_path / "toy.csv"
    write_csv(src, TOY_CSV)
    spec = make_spec(source_path=str(src), reference_groups={"sex": "F"})
    gi = extract_groups(load_dataset(spec), spec)["sex"]
    assert gi.reference == "F"


def test_single_group_feature_is_an_error(tmp_path):
    csv_text = "age,sex,race,grade,y,extra\n1,M,A,low,1,z\n2,M,B,mid,0,z\n"
    table, spec = toy_table(tmp_path, csv_text)
    with pytest.raises(IngestError, match="single group"):
        extract_groups(table, spec)


def test_fold_normalization_uses_train_rows_only(tmp_path):
    table, spec = toy_table(tmp_path)
    enc = encode_features(table, spec)
    design = fold_normalized(enc, np.array([0, 1]))
    j = enc.column_names.index("age")
    # train ages are [1, 2]: mean 1.5, population std 0.5
    assert np.allclose(design[:, j], [-1.0, 1.0, 3.0], atol=1e-12)
    # binary column untouched by normalization
    js = enc.column_names.index("sex")
    assert np.array_equal(design[:, js], enc.raw_design[:, js])


def test_zero_variance_column_encodes_to_zero(tmp_path):
    csv_text = "age,sex,race,grade,y,extra\n5,M,A,low,1,z\n5,F,B,mid,0,z\n5,M,A,high,1,z\n"
    table, spec = toy_table(tmp_path, csv_text)
    enc = encode_features(table, spec)
    j = enc.column_names.index("age")
    assert np.array_equal(fold_normalized(enc, np.arange(3))[:, j], np.zeros(3))
    assert any("zero variance" in n for n in enc.notes)


def test_spec_json_roundtrip(tmp_path):
    write_csv(tmp_path / "toy.csv", TOY_CSV)
    spec_json = {
        "name": "toy",
        "source_path": "toy.csv",
        "columns": [
            {"name": "age", "kind": "numeric"},
            {"name": "sex", "kind": "binary"},
            {"name": "race", "kind": "categorical"},
            {"name": "grade", "kind": "ordinal", "levels": ["low", "mid", "high"]},
            {"name": "y", "kind": "binary", "role": "label"},
        ],
        "label_column": "y",
        "positive_value": "1",
        "positive_meaning": "punitive",
        "protected_features": ["race", "sex"],
    }
    p = tmp_path / "toy.dataset.json"
    p.write_text(json.dumps(spec_json), encoding="utf-8")
    spec = load_dataset_spec(p)
    table = load_dataset(spec)
    enc = encode_features(table, spec)
    assert enc.raw_design.shape == (3, 5)  # age, sex, race=A, race=B, grade


def test_spec_validation_errors():
    with pytest.raises(IngestError, match="must have role 'label'"):
        make_spec(label_column="age")
    with pytest.raises(IngestError, match="categorical or binary"):
        make_spec(protected_features=("age",))
    with pytest.raises(IngestError, match="positive_meaning"):
        make_spec(positive_meaning="good")
    with pytest.raises(IngestError, match="repeated protected feature"):
        make_spec(protected_features=("race", "sex", "race"))
    with pytest.raises(IngestError, match="source_path must be a string"):
        make_spec(source_path=5)
    # names become output directories, so none may leave --out
    for bad in ("", ".", "..", "../x", "a/b", "a\\b"):
        with pytest.raises(IngestError, match="directory name"):
            make_spec(name=bad)
        with pytest.raises(IngestError, match="directory name"):
            make_spec(columns=(ColumnSpec(bad, "categorical"),
                               ColumnSpec("y", "binary", role="label")),
                      protected_features=(bad,))


def test_spec_with_non_string_source_path_is_an_ingest_error(tmp_path):
    spec_json = {
        "name": "toy", "source_path": 5,
        "columns": [{"name": "race", "kind": "categorical"},
                    {"name": "y", "kind": "binary", "role": "label"}],
        "label_column": "y", "positive_value": "1",
        "positive_meaning": "punitive", "protected_features": ["race"],
    }
    p = tmp_path / "toy.dataset.json"
    p.write_text(json.dumps(spec_json), encoding="utf-8")
    with pytest.raises(IngestError, match="source_path must be a string"):
        load_dataset_spec(p)


@pytest.mark.parametrize("field, patch", [
    ("protected_features", {"protected_features": "race"}),
    ("levels", {"columns": [{"name": "race", "kind": "categorical"},
                            {"name": "grade", "kind": "ordinal",
                             "levels": "low,high"},
                            {"name": "y", "kind": "binary", "role": "label"}]}),
])
def test_spec_list_field_that_is_a_string_is_an_ingest_error(tmp_path, field,
                                                             patch):
    # tuple() of a string would split it into characters: "race" -> 'r', ...
    spec_json = {
        "name": "toy", "source_path": "toy.csv",
        "columns": [{"name": "race", "kind": "categorical"},
                    {"name": "y", "kind": "binary", "role": "label"}],
        "label_column": "y", "positive_value": "1",
        "positive_meaning": "punitive", "protected_features": ["race"],
        **patch,
    }
    p = tmp_path / "toy.dataset.json"
    p.write_text(json.dumps(spec_json), encoding="utf-8")
    with pytest.raises(IngestError, match=f"{field} must be a JSON list"):
        load_dataset_spec(p)


@pytest.mark.parametrize("refs", ["race", ["race"], ["ab"]],
                         ids=["string", "list", "list-of-pair-string"])
def test_spec_reference_groups_that_is_not_an_object_is_an_ingest_error(
        tmp_path, refs):
    # dict() of a list of two-character strings reads ["ab"] as {"a": "b"}
    spec_json = {
        "name": "toy", "source_path": "toy.csv",
        "columns": [{"name": "race", "kind": "categorical"},
                    {"name": "y", "kind": "binary", "role": "label"}],
        "label_column": "y", "positive_value": "1",
        "positive_meaning": "punitive", "protected_features": ["race"],
        "reference_groups": refs,
    }
    p = tmp_path / "toy.dataset.json"
    p.write_text(json.dumps(spec_json), encoding="utf-8")
    with pytest.raises(IngestError,
                       match="reference_groups must be a JSON object"):
        load_dataset_spec(p)


# ---------------------------------------------------------------------------
# oracle: the per-row encoding and group counting that code_column and
# rank_groups replaced, kept as the reference the coded path must match

def old_encode_features(table, spec):
    kept, dropped = complete_rows(table, spec)
    if kept.size == 0 and table.n_rows > 0:
        raise IngestError("every row has missing cells; nothing to encode")
    blocks, names, scaled = [], [], []
    for col in spec.columns:
        if col.role != "feature":
            continue
        cells = row_cells(table, col.name, kept)
        if col.kind == "numeric":
            vals = np.array([float(c) for c in cells], dtype=np.float64)
            scaled.append(len(names))
            names.append(col.name)
            blocks.append(vals[:, None])
        elif col.kind == "ordinal":
            rank = {lev: r for r, lev in enumerate(col.levels)}
            try:
                vals = np.array([rank[c] for c in cells], dtype=np.float64)
            except KeyError as exc:
                raise IngestError(
                    f"ordinal column {col.name!r}: value {exc} not in declared levels"
                ) from None
            scaled.append(len(names))
            names.append(col.name)
            blocks.append(vals[:, None])
        elif col.kind == "binary":
            observed = sorted(set(cells))
            if len(observed) != 2:
                raise IngestError(
                    f"binary column {col.name!r} has {len(observed)} observed values "
                    f"(need exactly 2): {observed[:5]}"
                )
            vals = np.array([observed.index(c) for c in cells], dtype=np.float64)
            names.append(col.name)
            blocks.append(vals[:, None])
        elif col.kind == "categorical":
            observed = sorted(set(cells))
            if len(observed) < 2:
                raise IngestError(
                    f"categorical column {col.name!r} has a single observed value"
                )
            pos = {v: k for k, v in enumerate(observed)}
            hot = np.zeros((len(cells), len(observed)), dtype=np.float64)
            hot[np.arange(len(cells)), [pos[c] for c in cells]] = 1.0
            names.extend(f"{col.name}={v}" for v in observed)
            blocks.append(hot)
    raw_design = np.hstack(blocks) if blocks else np.zeros((kept.size, 0))
    # the label column was looked up through the since removed spec.column
    label_cells = row_cells(table, spec.label_column, kept)
    observed_labels = sorted(set(label_cells))
    if kept.size and spec.positive_value not in observed_labels:
        raise IngestError(
            f"declared positive value {spec.positive_value!r} never observed in "
            f"label column {spec.label_column!r} (saw {observed_labels[:5]})"
        )
    labels = np.array([1 if c == spec.positive_value else 0 for c in label_cells],
                      dtype=np.int8)
    notes = [f"column {names[j]!r} has zero variance; encoded as 0"
             for j in scaled if raw_design[:, j].std() == 0.0]
    return raw_design, labels, names, scaled, dropped, notes


def old_extract_groups(table, spec):
    kept, _ = complete_rows(table, spec)
    out = {}
    for feature in spec.protected_features:
        cells = row_cells(table, feature, kept)
        counts = {}
        for c in cells:
            counts[c] = counts.get(c, 0) + 1
        if len(counts) < 2:
            raise IngestError(
                f"protected feature {feature!r} has a single group; "
                "fairness comparison is degenerate"
            )
        order = sorted(counts, key=lambda g: (-counts[g], g))
        index = {g: k for k, g in enumerate(order)}
        assignments = np.array([index[c] for c in cells], dtype=np.int64)
        explicit = spec.reference_groups.get(feature)
        if explicit is not None:
            if explicit not in counts:
                raise IngestError(
                    f"explicit reference group {explicit!r} not observed in {feature!r}"
                )
            reference = explicit
        else:
            reference = order[0]
        out[feature] = (tuple(order), assignments,
                        tuple(counts[g] for g in order), reference)
    return out


ORACLE_LEVELS = ("lo", "mid", "hi")


def oracle_table(tmp_path, seed):
    """A random dataset CSV with every column kind, loaded.

    The kept rows have groups of tied sizes in grp and up to 40 levels in
    cat. Dropped rows (empty num cell) follow in random places and carry
    values that occur on no kept row.
    """
    rng = np.random.default_rng(seed)
    sizes = np.repeat(rng.choice([2, 7, 15, 30], size=rng.integers(1, 5)), 2)
    kept = sizes.sum()
    columns = {
        "num": [str(v) for v in rng.integers(-3, 9, kept)],
        "ratio": [f" {v:.3f} " for v in rng.normal(size=kept)],
        "bin": ["no", "yes"] + rng.choice(["no", "yes"], kept - 2).tolist(),
        "cat": [f"c{v:02d}" for v in
                [0, 1, *rng.integers(0, rng.integers(2, 41), kept - 2)]],
        "ord": rng.choice(ORACLE_LEVELS, kept).tolist(),
        # labels in an order unrelated to the sizes
        "grp": np.repeat([f"g{k}" for k in rng.permutation(sizes.size)],
                         sizes).tolist(),
        "y": ["0", "1"] + rng.choice(["0", "1"], kept - 2).tolist(),
    }
    for _ in range(rng.integers(1, 20)):
        for name, cell in (("num", ""), ("ratio", "1"), ("bin", "maybe"),
                           ("cat", "only-dropped"), ("ord", "undeclared"),
                           ("grp", "g-dropped"), ("y", "1")):
            columns[name].append(cell)
    order = rng.permutation(len(columns["num"]))
    src = tmp_path / "oracle.csv"
    with open(src, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows(zip(*([cells[i] for i in order]
                               for cells in columns.values())))
    spec = DatasetSpec(
        name="oracle", source_path=str(src),
        columns=(ColumnSpec("num", "numeric"), ColumnSpec("ratio", "numeric"),
                 ColumnSpec("bin", "binary"), ColumnSpec("cat", "categorical"),
                 ColumnSpec("ord", "ordinal", levels=ORACLE_LEVELS),
                 ColumnSpec("grp", "categorical", role="ignore"),
                 ColumnSpec("y", "binary", role="label")),
        label_column="y", positive_value="1", positive_meaning="assistive",
        protected_features=("grp", "bin"))
    return load_dataset(spec), spec


@pytest.mark.parametrize("seed", range(12))
def test_coded_encoding_and_groups_match_per_row_oracle(tmp_path, seed):
    table, spec = oracle_table(tmp_path, seed)
    design, labels, names, scaled, dropped, notes = old_encode_features(
        table, spec)
    enc = encode_features(table, spec)
    assert enc.raw_design.shape == design.shape
    assert (enc.raw_design.view(np.int64) == design.view(np.int64)).all()
    assert enc.labels.dtype == labels.dtype
    assert (enc.labels == labels).all()
    assert enc.column_names == names
    assert enc.scaled_columns.tolist() == scaled
    assert enc.dropped_rows == dropped > 0
    assert enc.notes == notes
    old = old_extract_groups(table, spec)
    new = extract_groups(table, spec)
    for feature, (group_labels, assignments, sizes, reference) in old.items():
        gi = new[feature]
        assert gi.labels == group_labels
        assert gi.assignments.dtype == assignments.dtype
        assert (gi.assignments == assignments).all()
        assert gi.sizes == sizes
        assert gi.reference == reference
    assert len(set(new["grp"].sizes)) < len(new["grp"].sizes)  # sizes tie


@pytest.mark.parametrize("cells", [
    # two undeclared levels: the first kept row's, not the smaller, is named
    {"grade": ["qq", "mid", "zz", "aa"]},
    {"sex": ["F", "M", "M", "M"]},
    {"sex": ["X", "M", "F", "Q"]},
    {"y": ["1", "0", "0", "0"]},
])
def test_coded_encoding_errors_match_per_row_oracle(tmp_path, cells):
    # the first row is dropped for its empty age, and its cells occur on no
    # kept row
    columns = {"age": ["", "1", "2", "3"], "sex": ["X", "M", "F", "M"],
               "race": ["C", "A", "B", "A"], "grade": ["mid", "low", "mid", "high"],
               "y": ["1", "1", "0", "1"], "extra": ["z"] * 4, **cells}
    rows = [list(columns), *zip(*columns.values())]
    csv_text = "".join(",".join(row) + "\n" for row in rows)
    table, spec = toy_table(tmp_path, csv_text)
    with pytest.raises(IngestError) as old:
        old_encode_features(table, spec)
    with pytest.raises(IngestError) as new:
        encode_features(table, spec)
    assert str(new.value) == str(old.value)


# ---------------------------------------------------------------------------
# read_columns against csv.reader, the reader it replaced

def csv_reader_columns(path, names):
    """read_columns by csv.reader and code_column: blank records dropped,
    short rows padded with empty cells, a repeated name read from its last
    column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    picks = [max(i for i, h in enumerate(header) if h == name)
             for name in names]
    width = max(picks) + 1
    rows = [row + [""] * (width - len(row)) for row in rows]
    return [ingest.code_column([row[i] for row in rows]) for i in picks]


def assert_reads_as_csv_reader(path, names):
    by_numpy = read_columns(path, names, IngestError)
    by_csv = csv_reader_columns(path, names)
    assert len(by_numpy) == len(by_csv) == len(names)
    for (values, codes), (csv_values, csv_codes) in zip(by_numpy, by_csv):
        assert values == csv_values
        assert np.array_equal(codes, csv_codes) and codes.dtype == np.int64
    return by_numpy


def quote(cell):
    return '"' + cell.replace('"', '""') + '"'


# widths 0, 1, 7, 8, 9, 16 and 17 bytes; "€" (3 bytes) crosses the first
# 8-byte word boundary, and several cells share an 8- or 16-byte prefix
READER_CELLS = ["", "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefgh€",
                "abcdefg€", "0123456789abcdef", "0123456789abcdefg",
                "0123456789abcdefZ", "€", " a ", "Z", "😀x", "0.25"]
# cells that must be quoted: separators, line ends and quotes inside
QUOTED_CELLS = [",", "a,b", "\n", "a\r\nb", "\r", '"', '""', 'say "hi"',
                ',\n"\r', "€,😀"]


def reader_lines(quoted=False):
    """Rows of one to five cells under the header a,b,c,b (b repeated),
    with blank lines, and a BOM in the header; quoted puts every other
    cell in quotes."""
    rng = np.random.default_rng(7)
    lines = ["\ufeffa,b,c,b"]
    for i in range(80):
        if i % 11 == 3:
            lines.append("")
        picks = rng.integers(0, len(READER_CELLS), size=1 + i % 5)
        lines.append(",".join(quote(READER_CELLS[k]) if quoted and j % 2
                              else READER_CELLS[k]
                              for j, k in enumerate(picks)))
    return lines


def random_quoted_text(rng, newline, final_newline):
    """A CSV text under the header x,"y,1",x with cells of READER_CELLS,
    quoted at random, and of QUOTED_CELLS, quoted; with blank lines, short
    rows and empty quoted cells."""
    lines = ['x,"y,1",x']
    for _ in range(rng.integers(0, 12)):
        if rng.random() < 0.15:
            lines.append("")
        cells = []
        for _ in range(rng.integers(1, 5)):
            if rng.random() < 0.3:
                cells.append(quote(rng.choice(QUOTED_CELLS)))
            else:
                cell = rng.choice(READER_CELLS)
                cells.append(quote(cell) if rng.random() < 0.5 else cell)
        lines.append(",".join(cells))
    return newline.join(lines) + (newline if final_newline else "")


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_numpy_and_csv_readers_code_columns_alike(tmp_path, newline,
                                                  final_newline):
    path = tmp_path / "cells.csv"
    end = newline if final_newline else ""
    # the BOM is not part of the first header name, as with utf-8-sig
    names = ["a", "b", "c"]
    plain = reader_lines()
    path.write_text(newline.join(plain) + end, encoding="utf-8", newline="")
    by_plain = assert_reads_as_csv_reader(path, names)
    assert len(by_plain[0][1]) == sum(map(bool, plain[1:]))
    assert set(by_plain[1][0]) <= set(READER_CELLS)
    assert by_plain[1][0] != by_plain[2][0]  # b reads the last b column
    # a quoted and an unquoted spelling of one value get one code
    path.write_text(newline.join(reader_lines(quoted=True)) + end,
                    encoding="utf-8", newline="")
    by_quoted = assert_reads_as_csv_reader(path, names)
    for (values, codes), (plain_values, plain_codes) in zip(by_quoted,
                                                            by_plain):
        assert values == plain_values and np.array_equal(codes, plain_codes)
    rng = np.random.default_rng([len(newline), final_newline])
    for _ in range(150):
        path.write_text(random_quoted_text(rng, newline, final_newline),
                        encoding="utf-8", newline="")
        assert_reads_as_csv_reader(path, ["x", "y,1"])


def test_both_readers_name_the_same_bad_row(tmp_path):
    # a quoted cell is read as its unquoted twin; blank lines are not rows
    messages = []
    for quote in ("", '"'):
        src = tmp_path / f"toy{len(quote)}.csv"
        write_csv(src, ("age,sex,race,grade,y,extra\n"
                        f"1,M,A,low,1,{quote}z{quote}\n"
                        "\n\r\n"
                        "2,F,B,mid,0,z\r"
                        "x,M,A,high,1,z\n"))
        with pytest.raises(IngestError) as exc:
            load_dataset(make_spec(source_path=str(src)))
        messages.append(str(exc.value).replace(str(src.resolve()), "<path>"))
    assert messages[0] == messages[1] == (
        "<path>: non-parsable numeric cell at row 4, column 'age': 'x'")


@pytest.mark.parametrize("cell", ["a", '"a"'])
def test_blank_first_line_is_an_empty_header(tmp_path, cell):
    # the blank line is the header, with no column named ""
    path = tmp_path / "blank.csv"
    path.write_text(f"\n,{cell}\n1,2\n", encoding="utf-8")
    with pytest.raises(IngestError, match="column '' absent from header"):
        read_columns(path, [""], IngestError)


@pytest.mark.parametrize("first", ["age", '"age"'])
def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path, first):
    # a spreadsheet's "CSV UTF-8" export starts with EF BB BF
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + f"{first},sex\n41,F\n".encode())
    (ages, age_codes), (sexes, _) = read_columns(path, ["age", "sex"],
                                                 IngestError)
    assert (ages, age_codes.tolist(), sexes) == (["41"], [0], ["F"])
    # line numbers in errors still count the BOM's line as line 1
    path.write_bytes(b"\xef\xbb\xbf" + f"{first},sex\n41,F\n4\"1,F\n".encode())
    with pytest.raises(IngestError, match="bom.csv: line 3: '\"' does not"):
        read_columns(path, ["age"], IngestError)


def test_spec_names_the_first_column_after_a_byte_order_mark(tmp_path):
    src = tmp_path / "bom.csv"
    src.write_bytes(b"\xef\xbb\xbf" + TOY_CSV.encode())
    spec = make_spec(source_path=str(src))
    table = load_dataset(spec)
    assert row_cells(table, "age") == ["1", "2", "3"]
    plain, plain_spec = toy_table(tmp_path)
    assert np.array_equal(encode_features(table, spec).raw_design,
                          encode_features(plain, plain_spec).raw_design)


def test_numpy_reader_memory_does_not_grow_with_cell_width(tmp_path):
    # one 100 kB cell: the words of a cell are sorted one word at a time,
    # never all of a column's words at once
    lines = ["y_true,y_score,grp"] + [f"{i % 2},0.{i % 997:03d},g{i % 7}"
                                      for i in range(20_000)]
    lines[777] = "1,0.5,g0" + "w" * 100_000
    lines[778] = "0,0.5,g0wwwwww"  # its word 0 is the wide cell's
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        columns = read_columns(path, ["y_true", "y_score", "grp"],
                               IngestError)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * path.stat().st_size
    values, codes = columns[2]
    assert values == (["g0", "g0wwwwww", "g0" + "w" * 100_000]
                      + [f"g{k}" for k in range(1, 7)])
    assert codes[776:778].tolist() == [2, 1]
    assert np.bincount(codes)[1:3].tolist() == [1, 1]
