"""CLI parity corpus: every case runs ``icfsim`` command lines in-process in
an empty directory and compares, step by step, the exit code and the sha256
of stdout, of stderr and of every file the step wrote or changed against
``cli_corpus.json``.  A refactor that claims byte-identical output shows it
here; a change that moves a hash says why in CHANGES.md.

The hashes hold for the numpy and Python versions recorded beside them;
on other versions the test fails and names both.  To record the corpus
again, run ``PYTHONPATH=src python tests/test_cli_corpus.py``.
"""

import hashlib
import io
import json
import os
import platform
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from icfsim.cli import main

DATA = Path(__file__).with_name("cli_corpus.json")

_SMALL_MC = ["--samples", "4000", "--batches", "10", "--grid-points", "7"]
_SMALL_STACK = ["--frames", "24", "--frame-width", "96", "--frame-height", "3"]

# name: (input files written before the first step, the steps' argv)
CASES = {
    "analytic-defaults": ({}, [["analytic"]]),
    "analytic-order-2": ({}, [["analytic", "--order", "2", "--out", "o2.csv"]]),
    "analytic-order-4-thermal": ({}, [["analytic", "--order", "4", "--kind", "thermal",
                                       "--out", "o4"]]),
    "analytic-single-detector": ({}, [["analytic", "--scheme", "single-detector",
                                       "--offset", "1.0", "--grid-points", "91"]]),
    "analytic-custom-config": (
        {"run.json": {"kind": "custom", "moments": {"2": 2.5, "3": 8.0, "4": 40.0}}},
        [["analytic", "--config", "run.json", "--order", "4", "--out", "c.json"]]),
    "analytic-width-json-plot": ({}, [["analytic", "--kind", "thermal",
                                       "--coherence-width", "2.0", "--format", "json",
                                       "--plot", "a.svg", "--grid-points", "181"]]),
    "mc-defaults": ({}, [["mc"]]),
    "mc-thermal-order-4-plot": ({}, [["mc", "--kind", "thermal", "--order", "4",
                                      *_SMALL_MC, "--plot", "mc.svg", "--out", "mc.json"]]),
    "mc-coherence-width": ({}, [["mc", "--coherence-width", "3.0", "--seed", "7",
                                 *_SMALL_MC]]),
    "limits": ({}, [["limits"]]),
    "limits-json": ({}, [["limits", "--out", "t.json"]]),
    "limits-csv": ({}, [["limits", "--out", "t", "--format", "csv"]]),
    "verify-defaults": ({}, [["verify"]]),
    "verify-small": ({}, [["verify", "--trials", "10", "--seed", "3"]]),
    "synth-process-defaults": ({}, [["synth", *_SMALL_STACK], ["process", "stack"]]),
    "synth-thermal-12-bit-process-roi-plot": ({}, [
        ["synth", "--kind", "thermal", *_SMALL_STACK, "--bit-depth", "12",
         "--period-px", "24", "--out", "s12"],
        ["process", "s12", "--roi", "8,0,80,3", "--ref-col", "40", "--batches", "4",
         "--plot", "p.svg", "--out", "r"]]),
    "synth-float-csv-harmonic-process": ({}, [
        ["synth", *_SMALL_STACK, "--bit-depth", "0", "--format", "csv",
         "--phase-modulation", "harmonic", "--mod-amplitude", "2.0", "--no-poisson",
         "--noise-sigma", "0", "--out", "sf"],
        ["process", "sf/manifest.json", "--batches", "4", "--format", "json"]]),
    "synth-16-bit-csv-saturated": ({}, [
        ["synth", "--frames", "6", "--frame-width", "64", "--frame-height", "2",
         "--format", "csv", "--envelope-fwhm-px", "40", "--peak-level", "80000",
         "--out", "s16"],
        ["process", "s16", "--period-px", "60"]]),
    "synth-float-1e103-process": ({}, [
        ["synth", *_SMALL_STACK, "--bit-depth", "0", "--format", "csv", "--no-poisson",
         "--noise-sigma", "0", "--peak-level", "1e103", "--out", "big"],
        ["process", "big"]]),
    # exit 1: data errors
    "analytic-custom-without-moments": ({}, [["analytic", "--kind", "custom"]]),
    "analytic-scheme-order-mismatch": ({}, [["analytic", "--order", "4",
                                             "--scheme", "single-detector"]]),
    "analytic-out-directory": ({}, [["analytic", "--out", "res/"]]),
    "analytic-malformed-moments": ({"run.json": {"kind": "custom", "moments": [2.0, 6.0]}},
                                   [["analytic", "--config", "run.json"]]),
    "analytic-width-beyond-float-range": (
        {"run.json": '{"coherence_width": 1' + "0" * 400 + "}"},
        [["analytic", "--config", "run.json"]]),
    "analytic-moment-beyond-float-range": (
        {"run.json": '{"moments": {"2": 1' + "0" * 400 + "}}"},
        [["analytic", "--config", "run.json", "--kind", "custom"]]),
    "analytic-width-underflow": ({}, [["analytic", "--coherence-width", "1e-200"]]),
    "analytic-invalid-json": ({"run.json": '{"kind": '}, [["analytic", "--config", "run.json"]]),
    "mc-custom-not-samplable": ({"run.json": {"kind": "custom", "moments": {"2": 2.0}}},
                                [["mc", "--config", "run.json", *_SMALL_MC]]),
    "mc-samples-beyond-index-range": ({}, [["mc", "--samples", str(10 ** 23)]]),
    "limits-format-without-out": ({}, [["limits", "--format", "json"]]),
    "verify-seed-below-minimum": ({}, [["verify", "--seed", "-1"]]),
    "synth-pgm-bit-depth-0": ({}, [["synth", *_SMALL_STACK, "--bit-depth", "0"]]),
    "synth-drive-without-harmonic": ({}, [["synth", *_SMALL_STACK, "--mod-amplitude", "1"]]),
    "synth-period-too-short": ({}, [["synth", *_SMALL_STACK, "--period-px", "3"]]),
    "process-missing-stack": ({}, [["process", "missing"]]),
    "process-out-directory": ({}, [["process", "missing", "--out", "."]]),
    "process-config-roi-refused": ({"run.json": {"roi": "1,2"}},
                                   [["process", "missing", "--config", "run.json"]]),
    "process-unknown-format": ({"bad/manifest.json": {"format": "tiff", "frames": ["f"]}},
                               [["process", "bad"]]),
    "synth-float-1e307-process-overflow": ({}, [
        ["synth", *_SMALL_STACK, "--bit-depth", "0", "--format", "csv", "--no-poisson",
         "--noise-sigma", "0", "--peak-level", "1e307", "--out", "big"],
        ["process", "big"]]),
    # exit 2: usage errors, and help (exit 0)
    "usage-none": ({}, [[]]),
    "usage-unknown-command": ({}, [["bogus"]]),
    "usage-unknown-flag": ({}, [["mc", "--bogus"]]),
    "usage-order-choice": ({}, [["analytic", "--order", "5"]]),
    "usage-roi-flag": ({}, [["process", "stack", "--roi", "1,2"]]),
    "usage-config-unknown-key": ({"run.json": {"grid-pionts": 3}},
                                 [["analytic", "--config", "run.json"]]),
    "usage-config-not-an-object": ({"run.json": ["kind"]},
                                   [["analytic", "--config", "run.json"]]),
    "help": ({}, [["-h"]]),
    "help-mc": ({}, [["mc", "-h"]]),
}


def versions() -> dict:
    return {"numpy": np.__version__, "python": ".".join(platform.python_version_tuple()[:2])}


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def tree_hashes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): sha256(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_case(name: str) -> list[dict]:
    """The record of each of case ``name``'s steps, run in the current
    directory, which must be empty."""
    files, steps = CASES[name]
    root = Path.cwd()
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    records, before = [], tree_hashes(root)
    for argv in steps:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        after = tree_hashes(root)
        records.append({"argv": argv, "exit": code, "stdout": sha256(out.getvalue()),
                        "stderr": sha256(err.getvalue()),
                        "written": {k: v for k, v in after.items() if before.get(k) != v}})
        before = after
    return records


@pytest.fixture(scope="module")
def corpus():
    data = json.loads(DATA.read_text())
    if data["versions"] != versions():
        pytest.fail(f"the corpus was recorded with {data['versions']}, and this run has "
                    f"{versions()}; record it again on these versions (see the module "
                    f"docstring) and say in CHANGES.md which hashes moved")
    return data["cases"]


def test_every_case_is_recorded(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_case_matches_the_corpus(corpus, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to it
    assert run_case(name) == corpus[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases, cwd = {}, os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                cases[case] = run_case(case)
            finally:
                os.chdir(cwd)
    DATA.write_text(json.dumps({"versions": versions(), "cases": cases}, indent=1) + "\n")
