"""Input generation is a pure function of the seed."""

import os

import workloads
from workloads import InputSpec

SPEC = InputSpec(train=2, test=2, shards=2, streams=2)


def generate(tmp_path, name, seed):
    out = os.path.join(tmp_path, name)
    assert workloads.make_inputs(out, seed, SPEC) == 0
    return out


def test_same_seed_gives_identical_bytes(tmp_path):
    a = generate(tmp_path, "a", 7)
    b = generate(tmp_path, "b", 7)
    assert workloads.digest(a) == workloads.digest(b)
    files = {os.path.relpath(os.path.join(d, f), a)
             for d, _, fs in os.walk(a) for f in fs}
    assert {"truth.json", "data/manifest.tsv", "data/test_0.tsv",
            "data/test_1.tsv", "stream_0/annotations.csv"} <= files


def test_other_seed_differs(tmp_path):
    a = generate(tmp_path, "a", 7)
    c = generate(tmp_path, "c", 8)
    assert workloads.digest(a) != workloads.digest(c)


def test_shards_split_test_split_by_label(tmp_path):
    a = generate(tmp_path, "a", 7)
    for k in range(2):
        with open(os.path.join(a, "data", f"test_{k}.tsv")) as f:
            rows = [line.split("\t") for line in f]
        assert sorted(r[1] for r in rows) == ["blink", "nonblink"]
        assert {r[2] for r in rows} == {"test"}
