"""Every command that writes files commits them as one transaction.

One table, run in-process through ``cli.main``: a row per command that
writes result files, and a column per way its writing can fail.

- ``rename``: a path the command commits already exists as a directory,
  so renaming the finished file onto it fails. The row's last result is
  blocked, and for ``verify`` also ``predictions.csv``, the file it writes
  before the report.
- ``write``: the command's last write fails partway through its file, as
  a full disk does. A file from an earlier run sits at the row's first
  result path.

Every cell exits 1 with one ``error:`` line, leaves no ``*.tmp`` file and
commits none of the row's result files; in ``write``, the earlier file is
left byte for byte. ``synth`` and ``polish`` save their clips in place: the
manifest is their one committed file.
"""

import csv
import errno
import json
import os

import pytest

from blinkwild import cli, dataset


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 2+2/1+1 synthetic dataset, a model trained on it, the predictions
    ``verify`` writes with that model, and a 30-frame stream."""
    root = tmp_path_factory.mktemp("inputs")
    manifest = root / "data" / "manifest.tsv"
    assert run(["--seed", 5, "synth", "--out", root / "data",
                "--train-blink", 2, "--train-nonblink", 2,
                "--test-blink", 1, "--test-nonblink", 1]) == 0
    assert run(["--seed", 5, "train", "--manifest", manifest, "--model",
                root / "m.bin", "--steps", 2, "--batch-size", 4,
                "--hidden", 4]) == 0
    assert run(["verify", "--manifest", manifest, "--model", root / "m.bin",
                "--out", root / "v"]) == 0
    clip, _ = dataset.synth_stream(5, 30, blink_center=15)
    dataset.save_clip(str(root / "stream"), clip)
    return root


def _fill(f):
    f.write("partial")
    f.flush()
    raise OSError(errno.ENOSPC, "No space left on device")


class _FullDiskWriter:
    def __init__(self, f):
        self.f = f

    def writerows(self, rows):
        _fill(self.f)


def _csv_fails_on(name):
    """``csv.writer``, except that the writer of ``name`` (or of its
    temporary) fails partway through the file."""
    real = csv.writer

    def writer(f, *args, **kwargs):
        if os.path.basename(f.name).startswith(name):
            return _FullDiskWriter(f)
        return real(f, *args, **kwargs)

    return csv, "writer", writer


def _manifest_fills_disk(path, entries):
    with open(path, "w") as f:
        _fill(f)


# command -> (argv given the inputs and the output directory, the result
# files in the order the command commits them, and the (module, name,
# stand-in) that makes its last write fail partway)
ROWS = {
    "train": (lambda i, o: [
        "train", "--manifest", i / "data" / "manifest.tsv", "--model",
        o / "m.bin", "--steps", 2, "--batch-size", 4, "--hidden", 4],
        ["m.bin", "m_loss.csv"], lambda: _csv_fails_on("m_loss.csv")),
    "verify": (lambda i, o: [
        "verify", "--manifest", i / "data" / "manifest.tsv", "--model",
        i / "m.bin", "--out", o],
        ["predictions.csv", "report.json", "report.csv", "report_pr.csv"],
        lambda: _csv_fails_on("report_pr.csv")),
    "eval": (lambda i, o: [
        "eval", "--predictions", i / "v" / "predictions.csv", "--manifest",
        i / "data" / "manifest.tsv", "--out", o / "report"],
        ["report.json", "report.csv", "report_pr.csv"],
        lambda: _csv_fails_on("report_pr.csv")),
    "detect": (lambda i, o: [
        "detect", "--frames", i / "stream", "--model", i / "m.bin",
        "--out", o / "events.csv"],
        ["events.csv"], lambda: _csv_fails_on("events.csv")),
    "bench": (lambda i, o: [
        "bench", "--model", i / "m.bin", "--frames", 1, "--out",
        o / "bench.json"],
        ["bench.json"], lambda: (json, "dump", lambda obj, f, **kw: _fill(f))),
    "synth": (lambda i, o: [
        "synth", "--out", o, "--train-blink", 1, "--train-nonblink", 0,
        "--test-blink", 0, "--test-nonblink", 0],
        ["manifest.tsv"],
        lambda: (dataset, "write_manifest", _manifest_fills_disk)),
    "polish": (lambda i, o: [
        "polish", "--manifest", i / "data" / "manifest.tsv", "--out", o],
        ["manifest.tsv"],
        lambda: (dataset, "write_manifest", _manifest_fills_disk)),
}


def _run_failing(command, inputs, out, capsys):
    """Run ``command``'s row into ``out``; check the outcome every cell
    shares."""
    argv, results, _ = ROWS[command]
    assert run(argv(inputs, out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    left = [os.path.join(d, name) for d, _, names in os.walk(out.parent)
            for name in names if name.endswith(".tmp")]
    assert left == []
    return [out / name for name in results]


@pytest.mark.parametrize("command,blocked", [
    *((command, row[1][-1]) for command, row in ROWS.items()),
    ("verify", "predictions.csv")])
def test_failed_rename_commits_nothing(inputs, tmp_path, capsys, command,
                                       blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    results = _run_failing(command, inputs, out, capsys)
    assert not any(os.path.isfile(path) for path in results)
    assert os.path.isdir(out / blocked)


@pytest.mark.parametrize("command", ROWS)
def test_failed_write_keeps_the_earlier_file(inputs, tmp_path, capsys,
                                             monkeypatch, command):
    out = tmp_path / "out"
    earlier = out / ROWS[command][1][0]
    earlier.parent.mkdir(parents=True)
    earlier.write_bytes(b"an earlier run's file\n")
    monkeypatch.setattr(*ROWS[command][2]())
    first, *rest = _run_failing(command, inputs, out, capsys)
    assert first.read_bytes() == b"an earlier run's file\n"
    assert not any(os.path.exists(path) for path in rest)
