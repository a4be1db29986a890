"""Loading, encoding, and group-extraction contracts.

The z-score oracle: column [1, 2, 3] has population std sqrt(2/3), so the
encoded values are -1.224744871391589, 0, +1.224744871391589.
"""

import json

import numpy as np
import pytest

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
    assert table.columns["grade"] == ["low", "mid", "", "high"]
    assert table.missing["extra"].tolist() == [False, True, True, False]
    kept, dropped = complete_rows(table, spec)
    assert kept.tolist() == [0, 1, 3] and dropped == 1


def test_repeated_header_reads_last_column(tmp_path):
    csv_text = ("age,sex,race,grade,y,age\n"
                "junk,M,A,low,1,1\n"
                "junk,F,B,mid,0,2\n"
                ",M,A,high,1,3\n")
    table, spec = toy_table(tmp_path, csv_text)
    assert table.columns["age"] == ["1", "2", "3"]
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
