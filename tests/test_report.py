"""Figure rendering and result bundle serialization.

SVG assertions are structural (element counts, labels, ordering), never
pixel-level; serialization assertions are byte-level because reproducible
output is part of the contract.
"""

import json
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from test_cli import golden_audit_argv, tiny_run  # noqa: F401 (a fixture)

from fairlens import METRIC_NAMES
from fairlens.cli import RUN_CONFIG_SCHEMA, main
from fairlens.pipeline import cell_record
from fairlens.report import (BUNDLE_SCHEMA, _esc, bundle_json_text, export_bundle,
                             heat_color, load_bundle, render_clustermap_svg,
                             render_pca_scatter_svg,
                             render_robustness_heatmap_svg, render_all,
                             schema_error)

SVG_NS = "{http://www.w3.org/2000/svg}"


def random_tables(rng, kinds, groups, flag_one=False):
    """A random (values, flags) metric table per kind."""
    tables = {}
    for kind in kinds:
        vals = rng.uniform(0.0, 1.0, size=(len(groups), 13))
        # keep the complement identities so assembly passes them through
        for a, b in ((4, 5), (6, 3), (7, 9), (8, 10)):
            vals[:, b] = 1.0 - vals[:, a]
        flags = np.zeros((len(groups), 13), dtype=bool)
        if flag_one:
            flags[:, 0] = True
        tables[kind] = (vals, flags)
    return tables


def toy_record(rng, kinds=("logit", "mlp"), groups=("a", "b", "c", "d", "e"),
               flag_one=False):
    """A cell record of random tables, PCA on kinds[0] with reference
    group groups[0]."""
    tables = random_tables(rng, list(kinds), groups, flag_one=flag_one)
    rec, _ = cell_record(tables, 0, groups, groups[0], list(kinds))
    return rec


# -- color scale -------------------------------------------------------------

def test_heat_color_hits_every_anchor():
    assert heat_color(0.0) == "#0d0887"
    assert heat_color(0.25) == "#7e03a8"
    assert heat_color(0.50) == "#cc4778"
    assert heat_color(0.75) == "#f89540"
    assert heat_color(1.0) == "#f0f921"


def test_heat_color_interpolates_and_clips():
    mid = heat_color(0.125)
    lo = int("0d", 16)
    hi = int("7e", 16)
    r = int(mid[1:3], 16)
    assert min(lo, hi) <= r <= max(lo, hi)
    assert heat_color(-5.0) == heat_color(0.0)
    assert heat_color(7.0) == heat_color(1.0)


# -- clustermap --------------------------------------------------------------

@pytest.mark.parametrize("text", ["", "&amp;", "a<b>c", '"q"', "'s'",
                                  "&<>\"'", "Ünïcødé → ≥ 名前"])
def test_esc_matches_saxutils_escape(text):
    # the SVG text escape the golden output hashes were written with
    assert _esc(text) == escape(text, {'"': "&quot;"})


def test_clustermap_element_counts():
    rng = np.random.default_rng(0)
    rec = toy_record(rng)  # 10 x 13
    svg = render_clustermap_svg(rec, "toy")
    root = ET.fromstring(svg)
    cells = root.findall(f".//{SVG_NS}rect[@class='cell']")
    assert len(cells) == 130
    col_d = root.find(f".//{SVG_NS}g[@id='col-dendrogram']")
    row_d = root.find(f".//{SVG_NS}g[@id='row-dendrogram']")
    assert len(col_d.findall(f"{SVG_NS}path[@class='merge']")) == 12
    assert len(row_d.findall(f"{SVG_NS}path[@class='merge']")) == 9


def test_clustermap_column_labels_carry_variance():
    rng = np.random.default_rng(1)
    rec = toy_record(rng)
    svg = render_clustermap_svg(rec, "toy")
    for j, name in enumerate(METRIC_NAMES):
        assert f"{name} ({rec['column_variances'][j]:.3f})" in svg
    for r in rec["rows"]:
        assert r in svg


def test_clustermap_hatches_flagged_cells_only():
    rng = np.random.default_rng(2)
    plain = render_clustermap_svg(toy_record(rng), "toy")
    rng = np.random.default_rng(2)
    flagged = render_clustermap_svg(toy_record(rng, flag_one=True), "toy")
    assert plain.count("url(#hatch)") == 0
    assert flagged.count("url(#hatch)") == 10  # one flagged metric per row


def test_clustermap_rerender_is_byte_identical():
    rng = np.random.default_rng(3)
    rec = toy_record(rng)
    assert render_clustermap_svg(rec, "toy") == render_clustermap_svg(rec, "toy")


def test_clustermap_rejects_mismatched_linkage():
    rng = np.random.default_rng(4)
    rec = toy_record(rng)
    swapped = dict(rec, col_linkage=rec["row_linkage"],
                   row_linkage=rec["col_linkage"])
    with pytest.raises(ValueError, match="linkage sizes"):
        render_clustermap_svg(swapped, "toy")


# -- pca scatter -------------------------------------------------------------

def aligned_toy(rng, kinds=("logit", "mlp"), groups=("a", "b", "c", "d")):
    """The pca record of a toy cell: as many components as its group
    count allows, reference group "a"."""
    return toy_record(rng, kinds=kinds, groups=groups)["pca"]


def test_scatter_requires_two_components():
    rng = np.random.default_rng(5)
    pca = aligned_toy(rng, groups=("a", "b"))  # cap(2) = 1
    with pytest.raises(ValueError, match="2 components"):
        render_pca_scatter_svg(pca)


def test_scatter_marker_and_label_structure():
    rng = np.random.default_rng(6)
    pca = aligned_toy(rng, groups=("a", "b", "c"))  # cap(3) = 2
    svg = render_pca_scatter_svg(pca, title="toy")
    root = ET.fromstring(svg)
    pts = [e for e in root.iter() if e.get("class") == "pt"]
    # 2 models x 3 groups in the plot plus one legend marker per model;
    # group legend entries are plain color swatches
    assert len(pts) == 2 * 3 + 2
    assert len([e for e in root.iter() if e.get("class") == "crosshair"]) == 2
    assert f"component 1 ({pca['ratios'][0]:.2f} of variance)" in svg
    assert f"component 2 ({pca['ratios'][1]:.2f} of variance)" in svg
    assert "a (reference)" in svg


def test_scatter_reference_group_sits_on_crosshair():
    rng = np.random.default_rng(7)
    pca = aligned_toy(rng, groups=("a", "b", "c"))
    for kind in pca["coords"]:
        assert np.allclose(pca["coords"][kind][0], 0.0)


# -- robustness heatmap ------------------------------------------------------

def test_robustness_heatmap_structure():
    rob = {
        "conditions": [["d1", "race"], ["d1", "sex"], ["d2", "race"]],
        "mean": [[1.0, 0.5, -0.25], [0.5, 1.0, 0.0], [-0.25, 0.0, 1.0]],
        "std": [[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]],
        "n_seeds": 3,
    }
    svg = render_robustness_heatmap_svg(rob)
    root = ET.fromstring(svg)
    cells = [e for e in root.iter() if e.get("class") == "cell"]
    assert len(cells) == 9
    assert "d1/race" in svg and "d2/race" in svg
    # one per cell plus the subtitle explaining the mean/std notation
    assert svg.count("&#177;") == 10
    assert "1.00 &#177; 0.00" in svg
    assert "-0.25 &#177; 0.20" in svg


# -- bundle serialization ----------------------------------------------------

def tiny_bundle(rng):
    rec = toy_record(rng, groups=("a", "b", "c"))  # cap(3) = 2 components
    return {
        "schema_version": 1,
        "mode": "full",
        "metric_names": list(METRIC_NAMES),
        "run": {"seeds": [0], "n_folds": 3, "validation_fraction": 0.1,
                "search_draws": 2, "model_kinds": ["logit", "mlp"],
                "plot_models": None},
        "datasets": [{
            "name": "toy", "source_path": "toy.csv", "kept_rows": 30,
            "dropped_rows": 1, "label_column": "y",
            "positive_meaning": "punitive", "notes": [],
            "features": [{"name": "race", "reference": "a",
                          "groups": [{"label": "a", "size": 12},
                                     {"label": "b", "size": 10},
                                     {"label": "c", "size": 8}],
                          "results": [rec]}],
        }],
        "training": [{
            "dataset": "toy", "seed": 0, "kind": "logit", "params": {"C": 1.5},
            "mean_validation_auc": 0.7, "pooled_test_auc": 0.68,
            "fold_thresholds": [{"fold": 0, "t_max": 0.4, "achieved_ba": 0.6,
                                 "n_candidates": 9, "degenerate": False}],
        }],
        "robustness": None,
    }


def test_bundle_round_trips_bit_for_bit(tmp_path):
    rng = np.random.default_rng(8)
    bundle = tiny_bundle(rng)
    path = tmp_path / "bundle.json"
    export_bundle(bundle, path)
    loaded = load_bundle(path)
    assert bundle_json_text(loaded) == path.read_text(encoding="utf-8")
    r0 = bundle["datasets"][0]["features"][0]["results"][0]
    r1 = loaded["datasets"][0]["features"][0]["results"][0]
    assert np.array_equal(np.asarray(r0["values"]), np.asarray(r1["values"]))
    assert r0["rows"] == r1["rows"]


def test_bundle_floats_survive_17_digit_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    bundle = tiny_bundle(rng)
    path = tmp_path / "bundle.json"
    export_bundle(bundle, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    orig = bundle["datasets"][0]["features"][0]["results"][0]["values"]
    back = loaded["datasets"][0]["features"][0]["results"][0]["values"]
    assert orig == back  # exact equality, not approximate


def test_bundle_keys_are_sorted_and_text_is_stable(tmp_path):
    rng = np.random.default_rng(10)
    bundle = tiny_bundle(rng)
    text = bundle_json_text(bundle)
    assert text == bundle_json_text(bundle)
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert text.index('"datasets"') < text.index('"metric_names"')


def test_bundle_schema_is_a_valid_schema():
    # and so is the run config's: schema_error trusts both to be well formed
    jsonschema = pytest.importorskip("jsonschema")
    for schema in (BUNDLE_SCHEMA, RUN_CONFIG_SCHEMA):
        jsonschema.Draft202012Validator.check_schema(schema)


def test_schema_rejects_feature_without_results():
    rng = np.random.default_rng(11)
    bundle = tiny_bundle(rng)
    bundle["datasets"][0]["features"][0]["results"] = []
    with pytest.raises(ValueError, match="at datasets/0/features/0/results: "):
        bundle_json_text(bundle)


def test_schema_rejects_wrong_metric_count():
    rng = np.random.default_rng(12)
    bundle = tiny_bundle(rng)
    bundle["metric_names"] = bundle["metric_names"][:-1]
    with pytest.raises(ValueError, match="at metric_names: "):
        bundle_json_text(bundle)


# -- the schema checker -------------------------------------------------------

SCHEMA_KEYWORDS = {"type", "const", "enum", "items", "prefixItems",
                   "minItems", "maxItems", "required", "properties",
                   "additionalProperties"}


def subschemas(schema: dict):
    """schema and every schema nested in it."""
    yield schema
    nested = list(schema.get("prefixItems", []))
    nested += [schema[k] for k in ("items", "additionalProperties")
               if k in schema]
    nested += schema.get("properties", {}).values()
    for sub in nested:
        if isinstance(sub, dict):
            yield from subschemas(sub)


@pytest.mark.parametrize("schema", [BUNDLE_SCHEMA, RUN_CONFIG_SCHEMA],
                         ids=["bundle", "run-config"])
def test_schemas_use_only_the_keywords_schema_error_implements(schema):
    used = set().union(*(sub.keys() for sub in subschemas(schema)))
    assert used <= SCHEMA_KEYWORDS, sorted(used - SCHEMA_KEYWORDS)
    assert len(list(subschemas(schema))) > 5


@pytest.mark.parametrize("value, ok", [
    (1, True), (1.0, True), (-3, True), (True, False), (False, False),
    (3.5, False), (float("inf"), False), (float("nan"), False), ("1", False),
])
def test_schema_error_integer_follows_draft_2020_12(value, ok):
    assert (schema_error({"type": "integer"}, value) is None) == ok
    assert (schema_error({"const": 1}, value) is None) == (ok and value == 1)


def test_schema_error_names_the_first_failing_path():
    schema = {"type": "object", "required": ["a"], "properties": {
        "a": {"type": "array", "items": {"type": "number"}}},
        "additionalProperties": False}
    assert schema_error(schema, {"a": [1, 2.5]}) is None
    assert schema_error(schema, {"a": [1, "x", None]}) == (
        "a/1: 'x' is not of type number")
    assert schema_error(schema, {}) == "top level: missing keys ['a']"
    assert schema_error(schema, {"a": [], "z": 0, "b": 1}) == (
        "top level: unknown keys ['b', 'z']")
    assert schema_error({"enum": ["x"]}, True).startswith("top level: True ")


# Replacements and additions for the mutation corpus: every JSON type, the
# integers a boolean or a float could be mistaken for, and the strings of
# the bundle's enum.
MUTANTS = (None, True, False, 0, 1, -2, 1.0, 2.5, "x", "", "full", "audit",
           [], [1], [0, 1, 0.5, 2], ["a", "b"], {}, {"label": "a", "size": 1})


def mutations(bundle: dict, rng, count: int):
    """count copies of bundle, each with one entry replaced, deleted or
    added; the container mutated is drawn uniformly from all of them."""
    containers = []

    def walk(node, where):
        containers.append(where)
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, item in items:
            if isinstance(item, (dict, list)):
                walk(item, where + (key,))

    walk(bundle, ())
    text = json.dumps(bundle)
    for _ in range(count):
        copy = json.loads(text)
        node = copy
        for key in containers[rng.integers(len(containers))]:
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = rng.integers(3) if keys else 2
        mutant = MUTANTS[rng.integers(len(MUTANTS))]
        if op == 0:
            node[keys[rng.integers(len(keys))]] = mutant
        elif op == 1:
            del node[keys[rng.integers(len(keys))]]
        elif isinstance(node, dict):
            key = rng.choice(["extra", *BUNDLE_SCHEMA["properties"]])
            node[str(key)] = mutant
        else:  # a new entry, or a copy of one, at a random place
            if keys and rng.integers(2):
                mutant = node[keys[rng.integers(len(keys))]]
            node.insert(int(rng.integers(len(node) + 1)), mutant)
        yield copy


def test_schema_error_agrees_with_jsonschema(tmp_path, monkeypatch, tiny_run):
    jsonschema = pytest.importorskip("jsonschema")
    validators = {"bundle": jsonschema.Draft202012Validator(BUNDLE_SCHEMA),
                  "config": jsonschema.Draft202012Validator(RUN_CONFIG_SCHEMA)}
    monkeypatch.chdir(tmp_path)
    assert main(golden_audit_argv(tmp_path) + ["--out", "audit"]) == 0
    bundles = [json.loads((out / "bundle.json").read_text(encoding="utf-8"))
               for out in (tiny_run[1], tmp_path / "audit")]
    rng = np.random.default_rng(26)
    cases = [("bundle", b) for b in bundles]
    cases += [("bundle", m) for b in bundles for m in mutations(b, rng, 160)]
    cases += [("config", c) for c in (
        {}, {"datasets": "recidivism_standin.json"}, {"models": "nb"},
        {"plot_models": "nb"}, {"plot_models": ["nb", 1]}, {"seeds": "3"},
        {"folds": "x"}, {"folds": True}, {"draws": 2.5},
        {"validation_fraction": "abc"}, {"validation_fraction": False},
        {"out": 5}, {"seedz": 3}, [], {"folds": 3.0}, {"seeds": 1.0},
        {"seeds": [0, 1.0]}, {"seeds": [True]}, {"seeds": True},
        {"draws": float("inf")}, {"validation_fraction": float("inf")},
        {"validation_fraction": 1}, {"datasets": ["a.json"], "out": "o"})]
    refused = 0
    for name, value in cases:
        error = schema_error(validators[name].schema, value)
        where = {"/".join(map(str, e.absolute_path)) or "top level"
                 for e in validators[name].iter_errors(value)}
        assert (error is None) == (not where), (name, error, where)
        # a refusal names a path that jsonschema refuses too
        assert error is None or error.split(": ", 1)[0] in where, where
        refused += error is not None
    # the corpus holds both outcomes in number
    assert 100 < refused < len(cases) - 100


def test_non_finite_floats_are_refused():
    rng = np.random.default_rng(13)
    bundle = tiny_bundle(rng)
    bundle["training"][0]["pooled_test_auc"] = float("nan")
    with pytest.raises(ValueError, match="non-finite"):
        bundle_json_text(bundle)


def test_record_rehydration_matches_inputs(tmp_path):
    # the loaded record is what the renderers read: its trees, reference
    # and coordinates keep the shapes the cell was built with
    rng = np.random.default_rng(14)
    export_bundle(tiny_bundle(rng), tmp_path / "bundle.json")
    rec = load_bundle(tmp_path / "bundle.json")["datasets"][0]["features"][0][
        "results"][0]
    assert len(rec["col_linkage"]) + 1 == 13
    assert rec["pca"]["reference_group"] == "a"
    assert np.shape(rec["pca"]["coords"]["logit"]) == (3, 2)


# -- render_all --------------------------------------------------------------

def test_render_all_layout_and_rerender(tmp_path):
    rng = np.random.default_rng(15)
    bundle = tiny_bundle(rng)
    out = tmp_path / "out"
    written = render_all(bundle, out)
    rel = sorted(str(p.relative_to(out)) for p in written)
    assert rel == ["toy/race/seed0/clustermap.svg",
                   "toy/race/seed0/matrix.csv",
                   "toy/race/seed0/pca.svg"]
    first = {p: p.read_bytes() for p in written}
    for p, blob in {p: p.read_bytes() for p in render_all(bundle, out)}.items():
        assert first[p] == blob


def test_render_all_skips_scatter_below_two_components(tmp_path):
    rng = np.random.default_rng(16)
    bundle = tiny_bundle(rng)
    rec = bundle["datasets"][0]["features"][0]["results"][0]
    rec["pca"]["k"] = 1
    rec["pca"]["ratios"] = rec["pca"]["ratios"][:1]
    rec["pca"]["eigenvectors"] = rec["pca"]["eigenvectors"][:1]
    rec["pca"]["coords"] = {k: [row[:1] for row in v]
                            for k, v in rec["pca"]["coords"].items()}
    written = render_all(bundle, tmp_path / "out")
    names = {p.name for p in written}
    assert "pca.svg" not in names
    assert "clustermap.svg" in names


def test_render_all_writes_robustness_files(tmp_path):
    rng = np.random.default_rng(17)
    bundle = tiny_bundle(rng)
    bundle["robustness"] = {
        "conditions": [["toy", "race"], ["toy", "sex"]],
        "n_seeds": 2,
        "mean": [[1.0, 0.25], [0.25, 1.0]],
        "std": [[0.0, 0.05], [0.05, 0.0]],
    }
    written = render_all(bundle, tmp_path / "out")
    names = sorted(p.name for p in written if "robustness" in str(p))
    assert names == ["heatmap.svg", "means.csv", "stds.csv"]
    means = (tmp_path / "out" / "robustness" / "means.csv").read_text()
    assert means.splitlines()[0] == "condition,toy/race,toy/sex"
    assert "0.25" in means
