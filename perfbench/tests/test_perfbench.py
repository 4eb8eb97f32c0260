"""Tests of the benchmark's own code (not of qtcatalan)."""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
for path in (BENCH_DIR, SRC):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import trial  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_items_are_fixed_by_the_seed(workload):
    assert workloads.items(workload, 7) == workloads.items(workload, 7)
    fixed = {(route, vec) for route, vec in workloads.fixed_items(workload)}
    for seed in range(5):
        got = workloads.items(workload, seed)
        assert {(r, v) for r, v, seeded in got if not seeded} == fixed
        assert len(got) == len(fixed) + (4 if workload == "tableau_sweep" else 0)


def test_item_counts_match_the_workload_definitions():
    assert len(workloads.fixed_items("tesler_sweep")) == 223
    assert len(workloads.fixed_items("tableau_sweep")) == 41
    golden = workloads.load_golden()
    assert sum(golden["verify_checks"].values()) == 616
    for workload in workloads.WORKLOADS:
        for route, vec in workloads.fixed_items(workload):
            assert workloads.item_key(route, vec) in golden["items"]


def test_seeded_extras_keep_their_cost_classes():
    for seed in range(20):
        extras = [v for _, v, seeded in workloads.items("tableau_sweep", seed) if seeded]
        assert sorted(len(v) for v in extras) == [4, 4, 5, 5]
        signed = [v for v in extras if v[-1] == -1]
        plain = [v for v in extras if v[-1] != -1]
        assert sorted(map(len, signed)) == sorted(map(len, plain)) == [4, 5]
        for v in plain:
            assert min(v) >= 0 and any(v[i] < v[i + 1] for i in range(len(v) - 1))


def _results(item_list):
    return [trial.call(route, vec) for route, vec, _ in item_list]


def test_a_corrupted_golden_digest_counts_as_failed():
    item_list = [
        ("tesler", (0, 1, 1, 0), False),
        ("tesler", (3, 1, 0, 0), False),
        ("tableaux", (1, 1, 1, -1), True),
    ]
    results = _results(item_list)
    golden = workloads.load_golden()
    good = trial.check_pass("tesler_sweep", item_list, results, golden, check_seeded=True)
    assert (good["attempted"], good["failed"]) == (3, 0)

    key = workloads.item_key("tesler", (3, 1, 0, 0))
    corrupted = dict(golden, items=dict(golden["items"], **{key: "0" * 64}))
    bad = trial.check_pass("tesler_sweep", item_list, results, corrupted, check_seeded=True)
    assert (bad["attempted"], bad["failed"]) == (3, 1)
    assert key in bad["failures"][0]


def test_a_wrong_seeded_value_counts_as_failed():
    item_list = [("tableaux", (0, 1, 0, 1), True)]
    results = _results([("tableaux", (1, 0, 0, 0), True)])
    out = trial.check_pass("tableau_sweep", item_list, results, workloads.load_golden(), True)
    assert out["failed"] == 1


def test_pass_time_is_scaled_by_the_reference_kernel(monkeypatch):
    # a machine at half the reference speed: scaled times are half the raw ones
    monkeypatch.setattr(trial, "reference_kernel", lambda: 2 * trial.REFERENCE_S)
    item_list = [("tesler", (0, 1, 1), False), ("tableaux", (1, 1), False)]
    results, wall, scaled = trial.run_pass("tesler_sweep", item_list, jobs=1)
    assert len(results) == 2 and wall > 0
    assert scaled == pytest.approx(wall / 2)


class _FakeChildren:
    """Trial outputs without starting interpreters."""

    def __init__(self, failed):
        self.workload = "tesler_sweep"
        self.failed = failed

    def run(self, mode, jobs=1, check_seeded=False, spans_out=None):
        out = {"setup_s": 0.05, "setup_ref_s": 0.04, "package_file": str(SRC / "qtcatalan" / "__init__.py")}
        if mode == "timed":
            out.update(pass_s=2.5, pass_ref_s=2.0, attempted=10, failed=self.failed, peak_rss_mb=20.0, seeded={})
        return out


@pytest.mark.parametrize("failed, code", [(0, 0), (2, 1)])
def test_failures_give_a_nonzero_exit_and_fraction(monkeypatch, capsys, failed, code):
    monkeypatch.setattr(run, "Children", lambda workload, seed: _FakeChildren(failed))
    assert run.main(["--workload", "tesler_sweep", "--seed", "1", "--seconds", "0", "--trace", "0"]) == code
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is (failed == 0)
    trials = run.MIN_TRIALS
    assert (result["failed"], result["attempted"]) == (failed * trials, 10 * trials)
    assert f"failed_fraction {failed / 10:.6g} ratio" in "\n".join(lines)
    assert result["metrics"]["items_per_s"] == {"value": 5.0, "unit": "items/s"}
    assert result["metrics"]["setup_s"] == {"value": 0.04, "unit": "s"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tesler_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def _targets():
    from importlib import import_module

    for module, attr, _ in tracing.FUNCTION_TARGETS:
        owner = import_module(module)
        yield owner, attr, vars(owner)[attr]
    for module, cls, attr, _ in tracing.METHOD_TARGETS:
        owner = getattr(import_module(module), cls)
        yield owner, attr, vars(owner)[attr]


def test_tracing_restores_every_wrapped_name():
    from qtcatalan import f_tableaux, verification

    before = list(_targets())
    tracer = tracing.Tracer().install()
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
        f_tableaux((1, 0, 1))
        verification.run_verify(3, 1, jobs=1)
        with pytest.raises(Exception):
            f_tableaux((1, 2, 3, 4, 5, 6, 7, 8))
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert tracer.names and len(tracer) > 100


_TRACED_SCRIPT = textwrap.dedent(
    """
    import json, sys, time
    sys.path.insert(0, sys.argv[1])
    import tracing
    import qtcatalan
    from qtcatalan import verification
    tracer = tracing.Tracer().install()
    t = time.perf_counter_ns()
    qtcatalan.f_tesler((0, 2, 1, 1))
    qtcatalan.f_tableaux((1, 1, 0))
    verification.run_verify(3, 1, jobs=1)
    wall = time.perf_counter_ns() - t
    tracer.restore()
    tracer.write(sys.argv[2])
    print(json.dumps({"layers": tracing.layer_metrics(tracer), "wall_s": wall / 1e9}))
    """
)


def _traced_run(path):
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_SCRIPT, str(BENCH_DIR), str(path)],
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_traced_counts_repeat_and_self_times_fit_in_the_wall(tmp_path):
    first, second = (_traced_run(tmp_path / f"spans{i}.bin") for i in range(2))
    counts = [
        name for name in first["layers"]
        if name.endswith(("calls", "_products", "_terms", "checks", "spans"))
    ]
    assert "poly.mul_term_products" in counts and "tesler.calls" in counts
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    # one direct call; run_verify(3, 1) makes two per route check and one
    # per t=1 check, on each of its four vectors
    assert first["layers"]["tesler.calls"] == 1 + 4 * (2 + 1)
    self_times = [v for n, v in first["layers"].items() if n.endswith("_s")]
    assert 0 < sum(self_times) <= first["wall_s"]

    names, spans = tracing.read_spans(tmp_path / "spans0.bin")
    assert len(spans) == first["layers"]["trace.spans"]
    for i, (_, parent, start, end) in enumerate(spans):
        assert parent < i and start <= end
