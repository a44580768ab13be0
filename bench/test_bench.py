"""Tests of the benchmark itself: metric names and units, layer coverage,
trace contents and failure counting.  Each run here is a one-block pool."""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import macaulay_modules, rebind  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Which layer metrics each workload must exercise, and which it must not
# touch: a zero where a count is expected means a name binding was missed.
NONZERO = {
    "ideal-verify": [
        "poly.exact_rank.q.self_s", "poly.exact_rank.q.calls", "poly.exact_rank.q.rows",
        "poly.exact_rank.q.cols", "poly.exact_rank.q.nnz", "poly.exact_rank.rank_over_rows",
        "poly.graded_piece_dim.self_s", "poly.parse_ideal.self_s", "poly.monomials_of_degree.hit_ratio",
        "binom.macaulay_rep.calls", "binom.shift_apply.calls", "cli.build_parser.self_s", "cli.main.self_s",
    ],
    "biform-report": [
        "poly.exact_rank.qi.self_s", "poly.exact_rank.qi.calls", "poly.exact_rank.rank_over_rows",
        "hermitian.biform_signature.self_s", "hermitian.biform_signature.calls",
        "hermitian.biform_signature.dim_sum", "hermitian.multiply_signed_norm.self_s",
        "hermitian.multiply_signed_norm.dim_out_sum", "hermitian.HermitianBiform.self_s",
        "hermitian.parse_biform.self_s", "poly.monomials_of_degree.hit_ratio",
        "binom.macaulay_rep.calls", "binom.shift_apply.calls", "cli.build_parser.self_s", "cli.main.self_s",
    ],
    "shift-scan": [
        "binom.macaulay_rep.calls", "binom.macaulay_rep.self_s", "binom.shift_apply.calls",
        "binom.shift_apply.self_s", "cli.build_parser.self_s", "cli.main.self_s",
    ],
}
HERMITIAN = [name for name in PER_LAYER if name.startswith("hermitian.")]
ZERO = {
    "ideal-verify": HERMITIAN + ["poly.exact_rank.qi.calls", "poly.exact_rank.qi.self_s"],
    "biform-report": ["poly.exact_rank.q.calls", "poly.graded_piece_dim.self_s", "poly.parse_ideal.self_s"],
    "shift-scan": HERMITIAN + ["poly.exact_rank.rows", "poly.graded_piece_dim.self_s"],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    return {name: run.run_workload(name, 7, 0.3, True, blocks=1, out_dir=out) for name in WORKLOADS}, out


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_run_emits_every_end_to_end_metric(name, tmp_path):
    result = run.run_workload(name, 7, 0.3, False, blocks=1, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0, result["reasons"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric(traced, name):
    result = traced[0][name]
    assert result["correct"] and result["failed"] == 0, result["reasons"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_metrics_land_on_their_workload(traced, name):
    values = {k: m["value"] for k, m in traced[0][name]["metrics"].items()}
    assert [k for k in NONZERO[name] if not values[k] > 0] == []
    assert [k for k in ZERO[name] if values[k] != 0] == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_account_for_the_traced_wall_time(traced, name):
    values = {k: m["value"] for k, m in traced[0][name]["metrics"].items()}
    accounted = values["trace.layer_self_s"] + values["trace.bookkeeping_s"]
    assert accounted <= values["trace.wall_s"] * (1 + 1e-9)
    assert 0 <= values["trace.harness_s"] < 0.05 * values["trace.wall_s"]


def test_trace_file_records_environment_sizes_and_spans(traced):
    with gzip.open(traced[1] / "trace-ideal-verify.json.gz", "rt") as fh:
        doc = json.load(fh)
    assert doc["seed"] == 7 and {"python", "platform", "nproc", "git_sha"} <= set(doc["env"])
    assert set(doc["overhead"]) == {"trace.jobs_per_s", "trace.untraced_jobs_per_s", "trace.overhead_frac"}
    job = doc["jobs"][0]
    assert {"n", "degrees", "d_max"} <= set(job["size"])
    assert {"rows", "cols", "nnz", "rank"} <= set(job["inner"][0])
    spans = doc["spans"]
    assert len({len(spans[k]) for k in ("name", "start_ns", "end_ns", "parent", "job")}) == 1
    assert all(s <= e for s, e in zip(spans["start_ns"], spans["end_ns"]))


def off_by_one_rank(mods):
    exact_rank = mods.poly.exact_rank

    def wrong(rows):
        return exact_rank(rows) + 1

    rebind(macaulay_modules(), exact_rank, wrong)


@pytest.mark.parametrize("name", ["ideal-verify", "biform-report"])
def test_wrong_rank_counts_as_failed_jobs(name, tmp_path):
    result = run.run_workload(name, 7, 0.3, False, blocks=1, out_dir=tmp_path, after_setup=off_by_one_rank)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert result["failed_frac"] == result["failed"] / result["attempted"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shift-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
