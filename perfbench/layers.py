"""Per-layer metrics of the traced run, grouped by the end-to-end metric and
workload each group should move.  BENCHMARK.json lists the same names in the
same order; its format has no field for the prediction, so it lives here.

Span names are ``<module>.<function>`` and ``<module>.<Class>.<method>``.
A metric ``<span>.calls`` counts spans, ``<span>.self_s`` sums their self
time and ``<module>.self_s`` sums the self time of every span of a module.
The ``numpy.linalg`` spans are counted only while a forms span is innermost;
their time is in ``forms.linalg_s`` and not in ``forms.self_s``.
"""

GROUPS = [
    {"moves": "wall_s and value_ratio on sweep_d5", "bypass": "campaigns, checks",
     "metrics": ["forms.AbsBilinearForm.search_sup.calls",
                 "forms.AbsBilinearForm.search_sup.self_s",
                 "forms.linalg.svd_calls", "forms.linalg.eig_calls", "forms.linalg_s"]},
    {"moves": "wall_s and peak_rss_mb on sweep_d10", "bypass": "campaigns, checks",
     "metrics": ["forms.matrix_bytes", "tree.haar_analysis_matrix.self_s",
                 "weights.weighted_haar_matrix.self_s", "shifts.shift_matrix.self_s",
                 "shifts.ShiftSpec.constant.self_s", "shifts.norm_lower_search.self_s",
                 "embedding.key_sum_form.self_s", "embedding.term1_form.self_s"]},
    {"moves": "wall_s on campaigns", "bypass": "sweep_d5, sweep_d10",
     "metrics": ["bellman.run_triangle_campaign.self_s",
                 "bellman.run_barycenter_campaign.self_s",
                 *[f"bellman.{fn}.{kind}"
                   for fn in ("segments_in_domain_arr", "segments_caps_ok_arr",
                              "segments_max_uv_arr", "in_domain_arr", "sample_omega")
                   for kind in ("calls", "self_s")],
                 "bellman.campaign.accept_ratio"]},
    {"moves": "wall_s and item_p50_ms on checks", "bypass": "campaigns, sweep_d10",
     "metrics": [*[f"embedding.{fn}.self_s"
                   for fn in ("key_sum", "four_terms", "carleson_box_check",
                              "duality_product")],
                 *[f"{fn}.{kind}"
                   for fn in ("tree.level_averages", "weights.a2_characteristic",
                              "weights.interval_stats", "weights.gen_cascade",
                              "bellman.point_from_data", "bellman.in_domain")
                   for kind in ("calls", "self_s")]]},
    {"moves": "wall_s and item_p99_ms on checks",
     "bypass": "sweep_d5, sweep_d10, campaigns",
     "metrics": ["bellman.DpEstimator.estimate.calls",
                 "bellman.DpEstimator.estimate.self_s", "bellman.dp.memo_entries"]},
    {"moves": "wall_s on sweep_d5 and sweep_d10 (a small share)",
     "bypass": "campaigns, checks",
     "metrics": ["embedding.carleson_measure_of.self_s", "embedding.carleson_norm.self_s",
                 "cli.run_sweep.calls", "cli.fit_slope.self_s"]},
    {"moves": "where the time of each module goes, on every workload", "bypass": "",
     "metrics": [f"{m}.self_s" for m in
                 ("tree", "weights", "forms", "shifts", "embedding", "bellman", "cli")]},
    {"moves": "cost of tracing itself (traced pass minus untraced pass)", "bypass": "",
     "metrics": ["trace.wall_s", "trace.overhead_s", "trace.spans"]},
]

METRICS = [m for g in GROUPS for m in g["metrics"]]


def unit_of(metric):
    """(unit, better) of a per-layer metric, from its name."""
    if metric.endswith("_bytes"):
        return "B", "lower"
    if metric.endswith("_ratio"):
        return "ratio", "higher"
    if metric.endswith("_s"):
        return "s", "lower"
    return "count", "lower"


def values(per_name, per_module, extras):
    """Every per-layer metric from aggregated spans (see spans.aggregate)
    and the pass extras the workload and tracer supply."""
    linalg = {k: v for k, v in per_name.items() if k.startswith("numpy.linalg.")}
    special = {
        "forms.linalg.svd_calls": per_name.get("numpy.linalg.svd", [0, 0.0])[0],
        "forms.linalg.eig_calls": per_name.get("numpy.linalg.eig", [0, 0.0])[0],
        "forms.linalg_s": sum(v[1] for v in linalg.values()),
        "forms.matrix_bytes": extras.get("form_bytes", 0),
        "bellman.campaign.accept_ratio": extras.get("accept_ratio", 0.0),
        "bellman.dp.memo_entries": extras.get("memo_entries", 0),
        "trace.wall_s": extras["traced_wall_s"],
        "trace.overhead_s": extras["traced_wall_s"] - extras["untraced_wall_s"],
        "trace.spans": extras["spans"],
    }
    out = {}
    for metric in METRICS:
        if metric in special:
            value = special[metric]
        elif metric.endswith(".calls"):
            value = per_name.get(metric[: -len(".calls")], [0, 0.0])[0]
        elif metric.count(".") == 1:
            value = per_module.get(metric.split(".")[0], 0.0)
        else:
            value = per_name.get(metric[: -len(".self_s")], [0, 0.0])[1]
        out[metric] = value
    return out
