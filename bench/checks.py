"""Output checks that do not use fairlens code.

`check_audit_bundle` recomputes an audit bundle from the arrays the
benchmark generated: every threshold by a sort-plus-cumulative-count sweep
over the validation scores, and every (model, group) row at the reported
threshold. Values that are ratios of integer counts are compared exactly,
because fairlens and this module divide the same integers; AUC is compared
within 1e-12, since a rank sum may be accumulated in another order.

`check_run_bundle` checks properties every run bundle must have, whatever
the trained models did: complement pairs, BA, PPR against PPREV, column
distances against numpy's Pearson correlation, monotone UPGMA heights,
PCA variance ratios and winners that rank better than chance.

Each check raises CheckFailed with the first violation it finds.
"""

from __future__ import annotations

import numpy as np

METRICS = ("AUC", "A", "BA", "FPR", "TPR", "FNR", "TNR",
           "PPV", "NPV", "FDR", "FOR", "PPR", "PPREV")
COMPLEMENTS = (("TPR", "FNR"), ("TNR", "FPR"), ("PPV", "FDR"), ("NPV", "FOR"))
EDGE = 1e-6  # fairlens' near-boundary threshold candidates (README)
FLOAT_TOL = 1e-12


class CheckFailed(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _col(name: str) -> int:
    return METRICS.index(name)


def records(bundle: dict):
    """Yield (dataset, feature, record) for every cell of a bundle."""
    for ds in bundle["datasets"]:
        for feat in ds["features"]:
            for rec in feat["results"]:
                yield ds, feat, rec


def cell_count(bundle: dict | None) -> int:
    return 0 if bundle is None else sum(1 for _ in records(bundle))


# ---------------------------------------------------------------------------
# properties of every bundle

def check_complements(bundle: dict) -> None:
    for ds, feat, rec in records(bundle):
        for r, (row, flags) in enumerate(zip(rec["values"], rec["flags"])):
            for a, b in COMPLEMENTS:
                if flags[_col(a)] or flags[_col(b)]:
                    continue
                total = row[_col(a)] + row[_col(b)]
                _require(abs(total - 1.0) <= FLOAT_TOL,
                         f"{ds['name']}/{feat['name']} row {rec['rows'][r]}: "
                         f"{a}+{b} = {total!r}, not 1")


def check_balanced_accuracy(bundle: dict) -> None:
    for ds, feat, rec in records(bundle):
        for r, row in enumerate(rec["values"]):
            want = (row[_col("TPR")] + row[_col("TNR")]) / 2.0
            _require(row[_col("BA")] == want,
                     f"{ds['name']}/{feat['name']} row {rec['rows'][r]}: "
                     f"BA {row[_col('BA')]!r} != (TPR+TNR)/2 = {want!r}")


def check_ppr(bundle: dict) -> None:
    for ds, feat, rec in records(bundle):
        n = ds["kept_rows"]
        sizes = {g["label"]: g["size"] for g in feat["groups"]}
        for key, row in zip(rec["rows"], rec["values"]):
            group = key.split(":", 1)[1]
            want = row[_col("PPREV")] * sizes[group] / n
            _require(abs(row[_col("PPR")] - want) <= FLOAT_TOL,
                     f"{ds['name']}/{feat['name']} row {key}: PPR "
                     f"{row[_col('PPR')]!r} != PPREV*N_g/N = {want!r}")


def check_column_distances(bundle: dict) -> None:
    for ds, feat, rec in records(bundle):
        values = np.asarray(rec["values"], dtype=np.float64)
        dist = rec["col_distance"]
        degenerate = {tuple(p) for p in dist["degenerate_pairs"]}
        n = values.shape[1]
        constant = [bool(np.all(values[:, j] == values[0, j])) for j in range(n)]
        pos = 0
        for i in range(n):
            for j in range(i + 1, n):
                got = dist["condensed"][pos]
                pos += 1
                if constant[i] or constant[j]:
                    same = (constant[i] and constant[j]
                            and values[0, i] == values[0, j])
                    want = 0.0 if same else 1.0
                    _require((i, j) in degenerate and got == want,
                             f"{ds['name']}/{feat['name']}: constant column "
                             f"pair ({i}, {j}) has distance {got!r}")
                    continue
                rho = np.corrcoef(values[:, i], values[:, j])[0, 1]
                want = min(2.0, max(0.0, 1.0 - rho))
                _require((i, j) not in degenerate and abs(got - want) <= 1e-9,
                         f"{ds['name']}/{feat['name']}: column distance "
                         f"({METRICS[i]}, {METRICS[j]}) = {got!r}, "
                         f"1 - Pearson = {want!r}")
        _require(pos == len(dist["condensed"]),
                 f"{ds['name']}/{feat['name']}: condensed length "
                 f"{len(dist['condensed'])} for {n} columns")


def check_upgma_heights(bundle: dict) -> None:
    for ds, feat, rec in records(bundle):
        for key in ("col_linkage", "row_linkage"):
            heights = [m[2] for m in rec[key]]
            for a, b in zip(heights, heights[1:]):
                # average linkage is monotone; allow only rounding slack
                _require(b >= a - FLOAT_TOL,
                         f"{ds['name']}/{feat['name']} {key}: merge height "
                         f"falls from {a!r} to {b!r}")


def check_pca_ratios(bundle: dict) -> None:
    for ds, feat, rec in records(bundle):
        sets = [("full_pca_ratios", rec["full_pca_ratios"])]
        if rec["pca"] is not None:
            sets.append(("pca.ratios", rec["pca"]["ratios"]))
        for name, ratios in sets:
            if ratios is None:
                continue
            where = f"{ds['name']}/{feat['name']} {name}"
            _require(all(0.0 <= r <= 1.0 for r in ratios),
                     f"{where}: ratio outside [0, 1]: {ratios}")
            _require(all(b <= a for a, b in zip(ratios, ratios[1:])),
                     f"{where}: ratios not descending: {ratios}")
            _require(sum(ratios) <= 1.0 + FLOAT_TOL,
                     f"{where}: ratios sum to {sum(ratios)!r} > 1")


def check_winner_auc(bundle: dict) -> None:
    for entry in bundle["training"]:
        _require(entry["pooled_test_auc"] > 0.5,
                 f"{entry['dataset']} seed {entry['seed']} {entry['kind']}: "
                 f"pooled test AUC {entry['pooled_test_auc']!r} not above "
                 "chance")


RUN_CHECKS = (check_complements, check_balanced_accuracy, check_ppr,
              check_column_distances, check_upgma_heights, check_pca_ratios,
              check_winner_auc)


def check_run_bundle(bundle: dict) -> None:
    for check in RUN_CHECKS:
        check(bundle)


def check_same_hashes(hashes: list[str]) -> None:
    """Every round of a run wrote the same bundle.json bytes."""
    _require(len(set(hashes)) == 1,
             f"bundle.json differs between rounds: {sorted(set(hashes))}")


# ---------------------------------------------------------------------------
# independent recomputation of an audit bundle

def best_threshold(scores: np.ndarray, labels: np.ndarray):
    """Balanced-accuracy maximiser over midpoints of the distinct scores.

    Returns (threshold, balanced accuracy, candidate count). One sort per
    class and a binary search per candidate give the counts at every
    candidate: score >= t predicts positive. Ties go to the smallest
    threshold.
    """
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    distinct = np.unique(scores)
    candidates = np.unique(np.concatenate(
        ([EDGE], (distinct[:-1] + distinct[1:]) / 2.0, [1.0 - EDGE])))
    tp = pos.size - np.searchsorted(pos, candidates, side="left")
    tn = np.searchsorted(neg, candidates, side="left")
    ba = (tp / pos.size + tn / neg.size) / 2.0
    best = int(np.argmax(ba))
    return float(candidates[best]), float(ba[best]), int(candidates.size)


def rank_sum_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC from midranks of tied scores, in integer arithmetic."""
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    twice_midrank = 2 * first + counts + 1  # 2 x 1-based midrank of each tie
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    twice_u = int(twice_midrank[inverse][labels == 1].sum()) - n_pos * (n_pos + 1)
    return twice_u / (2 * n_pos * n_neg)


def metric_row(scores: np.ndarray, labels: np.ndarray, t: float,
               n_total: int) -> tuple[list[float], list[bool]]:
    """The 13 metrics and their imputation flags for one group."""
    pred = scores >= t
    pos = labels == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    tn = int(np.sum(~pred & ~pos))
    fn = int(np.sum(~pred & pos))
    n_g = tp + fp + tn + fn

    def rate(num, den):
        return (num / den, False) if den else (0.0, True)

    tpr, f_tpr = rate(tp, tp + fn)
    fnr, f_fnr = rate(fn, tp + fn)
    tnr, f_tnr = rate(tn, tn + fp)
    fpr, f_fpr = rate(fp, tn + fp)
    ppv, f_ppv = rate(tp, tp + fp)
    fdr, f_fdr = rate(fp, tp + fp)
    npv, f_npv = rate(tn, tn + fn)
    for_, f_for = rate(fn, tn + fn)
    single = tp + fn == 0 or tn + fp == 0
    auc = 0.5 if single else rank_sum_auc(scores, labels)
    values = [auc, (tp + tn) / n_g, (tpr + tnr) / 2.0, fpr, tpr, fnr, tnr,
              ppv, npv, fdr, for_, (tp + fp) / n_total, (tp + fp) / n_g]
    flags = [single, False, f_tpr or f_tnr, f_fpr, f_tpr, f_fnr, f_tnr,
             f_ppv, f_npv, f_fdr, f_for, False, False]
    return values, flags


def check_audit_bundle(bundle: dict, data) -> None:
    """Recompute an audit bundle from the generated inputs (inputs.AuditInputs)."""
    val = data.val
    keep = ~val
    y = data.y[keep]
    n_total = int(keep.sum())
    (ds,) = bundle["datasets"]
    _require(ds["kept_rows"] == n_total and ds["dropped_rows"] == int(val.sum()),
             f"kept/dropped rows {ds['kept_rows']}/{ds['dropped_rows']}, "
             f"want {n_total}/{int(val.sum())}")

    thresholds = {}
    training = {e["kind"]: e for e in bundle["training"]}
    _require(sorted(training) == sorted(data.scores),
             f"models {sorted(training)}, want {sorted(data.scores)}")
    for model, scores in data.scores.items():
        entry = training[model]
        (fold,) = entry["fold_thresholds"]
        t, ba, n_cand = best_threshold(scores[val], data.y[val])
        _require(fold["t_max"] == t and fold["achieved_ba"] == ba
                 and fold["n_candidates"] == n_cand,
                 f"{model}: threshold {fold['t_max']!r} (BA "
                 f"{fold['achieved_ba']!r}, {fold['n_candidates']} candidates);"
                 f" sweep gives {t!r} (BA {ba!r}, {n_cand} candidates)")
        thresholds[model] = t
        for key, want in (("pooled_test_auc", rank_sum_auc(scores[keep], y)),
                          ("mean_validation_auc",
                           rank_sum_auc(scores[val], data.y[val]))):
            _require(abs(entry[key] - want) <= FLOAT_TOL,
                     f"{model}: {key} {entry[key]!r}, rank sum gives {want!r}")

    models = sorted(data.scores)
    for feat in ds["features"]:
        cells = data.groups(feat["name"])[keep]
        labels, counts = np.unique(cells, return_counts=True)
        order = sorted(zip(labels.tolist(), counts.tolist()),
                       key=lambda lc: (-lc[1], lc[0]))
        want_groups = [{"label": l, "size": c} for l, c in order]
        _require(feat["groups"] == want_groups,
                 f"{feat['name']}: groups {feat['groups']}, want {want_groups}")
        (rec,) = feat["results"]
        want_rows = [f"{m}:{g}" for m in models for g, _ in order]
        _require(rec["rows"] == want_rows,
                 f"{feat['name']}: rows {rec['rows']}, want {want_rows}")
        r = 0
        for model in models:
            scores = data.scores[model][keep]
            for group, _ in order:
                mask = cells == group
                values, flags = metric_row(scores[mask], y[mask],
                                           thresholds[model], n_total)
                got_v, got_f = rec["values"][r], rec["flags"][r]
                where = f"{feat['name']} row {rec['rows'][r]}"
                _require(got_f == flags, f"{where}: flags {got_f}, want {flags}")
                _require(abs(got_v[0] - values[0]) <= FLOAT_TOL,
                         f"{where}: AUC {got_v[0]!r}, rank sum gives "
                         f"{values[0]!r}")
                for j in range(1, len(METRICS)):
                    _require(got_v[j] == values[j],
                             f"{where}: {METRICS[j]} {got_v[j]!r}, "
                             f"recomputed {values[j]!r}")
                r += 1
