"""Self-time arithmetic and tracer wiring on hand-built spans."""

import json
import os
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import spans
from spans import Span

BENCH_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def tree(*rows):
    """Spans from (id, parent, name, start, end[, thread])."""
    return [Span(r[0], r[1], r[2], r[3], r[4], r[5] if len(r) > 5 else 1)
            for r in rows]


def test_nested_children_subtract_only_direct_children():
    got = spans.self_times(tree((0, None, "op", 0, 10),
                                (1, 0, "cli.main", 1, 9),
                                (2, 1, "tracker.kcf_update", 2, 5),
                                (3, 2, "dataset.crop_eye", 3, 4)))
    assert got == {0: 2, 1: 5, 2: 2, 3: 1}


def test_siblings_each_subtract_from_parent():
    got = spans.self_times(tree((0, None, "cli.main", 0, 10),
                                (1, 0, "tracker.kcf_init", 1, 3),
                                (2, 0, "tracker.kcf_update", 5, 8)))
    assert got[0] == 5


def test_overlapping_pool_children_count_once():
    got = spans.self_times(tree((0, None, "cli.cmd_train", 0, 10),
                                (1, 0, "features.featurize_clip", 1, 6, 2),
                                (2, 0, "features.featurize_clip", 4, 9, 3),
                                (3, 0, "features.featurize_clip", 5, 7, 2)))
    assert got[0] == pytest.approx(2.0)  # union [1, 9] covers 8 of 10
    assert got[1] == 5 and got[2] == 5


def test_child_outside_parent_is_clipped():
    assert spans.covered([(8, 12), (-3, 1)], 0, 10) == 3
    assert spans.covered([], 0, 10) == 0
    assert spans.covered([(2, 2), (5, 4)], 0, 10) == 0


DEFINED = {"cli.main", "tracker.kcf_update", "pipeline.track_eyes",
           "pipeline.temporal_nms",
           "mslstm.predict", "mslstm.forward"}


def test_layer_metrics_per_item_and_scale():
    rows = tree((0, None, "op", 0.0, 1.0),
                (1, 0, "cli.main", 0.0, 1.0),
                (2, 1, "pipeline.track_eyes", 0.1, 0.5),
                (3, 2, "tracker.kcf_update", 0.1, 0.2),
                (4, 2, "tracker.kcf_update", 0.2, 0.4),
                (5, 1, "mslstm.predict", 0.6, 0.8),
                (6, 5, "mslstm.forward", 0.6, 0.7))
    rows[2].counts = {"reloc": 1}
    rows[5].counts = rows[6].counts = {"sequences": 1}
    m = spans.layer_metrics(rows, items=2, defined=DEFINED, scale={0: 0.5})
    assert m["cli.self_ms_per_item"] == pytest.approx(0.4 * 0.5 * 1e3 / 2)
    assert m["tracker.self_ms_per_item"] == pytest.approx(0.3 * 0.5 * 1e3 / 2)
    assert m["pipeline.self_ms_per_item"] == pytest.approx(
        0.1 * 0.5 * 1e3 / 2)
    assert m["tracker.kcf_update_calls_per_item"] == 1
    assert m["tracker.kcf_update_p50_us"] == pytest.approx(
        0.15 * 0.5 * 1e6)
    assert m["pipeline.reloc_ratio"] == 0.5
    assert m["mslstm.sequences_per_item"] == 0.5  # forward inside predict
    assert m["trace.coverage"] == 1.0
    # functions the program does not define are absent, not zero
    assert "tracker.kcf_init_p50_us" not in m
    assert "features.self_ms_per_item" not in m
    assert "tracker.kcf_init_p50_us" in spans.absent(DEFINED)
    # defined but never called: zero by the 0-denominator convention
    assert m["pipeline.nms_keep_ratio"] == 0.0


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(BENCH_ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    produced = set(spans.METRIC_SOURCES) | {
        f"{layer}.self_ms_per_item" for layer in spans.LAYERS} | {
        "trace.coverage", "trace.overhead_ratio", "machine.cal_ms"}
    assert produced == declared


def make_module():
    mod = types.ModuleType("fake")

    def leaf(x):
        return x + 1

    def outer(x):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(mod.leaf, [x, x]))

    def _private(x):
        return x

    for fn in (leaf, outer, _private):
        fn.__module__ = "fake"
        setattr(mod, fn.__name__, fn)
    return mod


def test_tracer_wraps_public_functions_and_restores_them():
    mod = make_module()
    other = types.SimpleNamespace(leaf=mod.leaf)  # a "from fake import leaf"
    originals = dict(vars(mod))
    tracer = spans.Tracer({"mslstm": mod}, others=[other])
    assert tracer.install() == {
        "mslstm.leaf", "mslstm.outer"}
    assert other.leaf is mod.leaf and mod.leaf is not originals["leaf"]
    with tracer.span("op"):
        assert mod.outer(1) == 4
    tracer.uninstall()
    assert vars(mod) == originals and other.leaf is originals["leaf"]

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (op,), (outer,) = by_name["op"], by_name["mslstm.outer"]
    assert outer.parent == op.id
    # pool-thread spans hang under the span that submitted them
    assert [s.parent for s in by_name["mslstm.leaf"]] == [outer.id] * 2
    assert "mslstm._private" not in by_name


def test_sequence_counts_from_shapes():
    seq = np.zeros((9, 118))
    assert spans._counts("mslstm.predict", (None, seq), None) == {
        "sequences": 1}
    assert spans._counts("mslstm.loss_and_grads", (None, np.zeros(
        (32, 9, 118))), None) == {"sequences": 32}
