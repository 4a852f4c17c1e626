"""Tests of the benchmark itself: inputs, oracles, failure counting, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import symchain  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from symchain import ZZ, koszul, minimize, serialize, sym2, weak_sym2  # noqa: E402


def zloc_documents(seed):
    return [serialize(case.complex()) for case in workloads.zloc_cases(seed)]


def test_same_seed_gives_byte_identical_inputs():
    assert zloc_documents(7) == zloc_documents(7)
    assert zloc_documents(7) != zloc_documents(8)
    assert workloads.linear_forms(7) == workloads.linear_forms(7)


def test_zloc_generator_knows_the_minimal_ranks():
    for case in workloads.zloc_cases(3)[::7]:
        M, _ = minimize(case.complex())
        assert {n: r for n, r in case.minimal_ranks.items() if r} == M.ranks


def test_zloc_quotas_cover_both_verdicts():
    verdicts = [workloads.predicted_verdicts(c.minimal_ranks) for c in workloads.zloc_cases(1)]
    assert len(verdicts) == 100
    for theorem in ("symm07", "symm07pp", "s2fpd02"):
        assert {v[theorem] for v in verdicts} == {True, False}


def test_linear_forms_are_a_change_of_variables():
    for seed in range(20):
        forms = workloads.linear_forms(seed)
        assert len(set(forms)) == 3
        assert workloads.det3(workloads.form_matrix(forms)) != 0


def test_slice_sizes_from_monomial_counts_match_the_complex():
    from symchain.linalg import slice_basis

    R = symchain.graded_poly(*workloads.GRADED_VARS)
    S = sym2(koszul(list(R.generators()))).complex
    dims = workloads.koszul_sym2_slice_dims(6)
    for n in S.degrees():
        for d in range(7):
            assert dims.get((n, d), 0) == len(slice_basis(3, S.gdeg(n), d))


def collect(items):
    records = []
    worker.run_job(items, lambda **r: records.append(r), hostspeed.Sampler())
    return records


def test_corrupted_answer_is_counted_as_failed():
    items = workloads.zloc_items(2)[:6]
    good = run.tally(run.WorkerRun(items_per_job=6, records=collect(items) + [{"done": True}]))
    assert (good.attempted, good.failed) == (6, 0)

    call = items[4].call

    def corrupted():
        report = call()
        report.holds = not report.holds
        return report

    items[4] = workloads.Item(items[4].name, corrupted, items[4].check)
    bad = run.tally(run.WorkerRun(items_per_job=6, records=collect(items) + [{"done": True}]))
    assert (bad.attempted, bad.failed) == (6, 1)


def test_a_call_is_scaled_by_the_samples_around_it():
    sampler = hostspeed.Sampler()
    sampler.ends = [1.0, 2.0, 3.0, 4.0]
    sampler.loops = [0.001, 0.002, 0.004, 0.008]
    assert sampler.loop_s(2.5, 2.6) == pytest.approx(0.003)  # no sample inside: the neighbours
    assert sampler.loop_s(1.5, 3.5) == pytest.approx(0.00375)
    assert sampler.loop_s(0.0, 0.5) == pytest.approx(0.001)
    assert hostspeed.scale(1.0, 2 * hostspeed.REF_S) == pytest.approx(0.5)


def test_sampler_samples_during_a_call_and_counts_its_own_time():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.loops) >= 5
    assert 0 < sampler.spent < 0.3


def test_exception_in_a_call_is_counted_as_failed():
    def boom():
        raise ValueError("boom")

    items = [workloads.Item("boom", boom, lambda result: True)]
    counts = run.tally(run.WorkerRun(items_per_job=1, records=collect(items) + [{"done": True}]))
    assert (counts.attempted, counts.failed) == (1, 1)


def test_integer_oracle_rejects_a_wrong_group():
    from symchain.homology import FpAbelianGroup, HomologyReport

    item = workloads.integer_items()[0]
    values = {3: FpAbelianGroup(0, (2, 2, 2)), 7: FpAbelianGroup(0, (2,))}
    assert item.check(HomologyReport("invariant_factors", ZZ, values))
    values[3] = FpAbelianGroup(0, (2, 2))
    assert not item.check(HomologyReport("invariant_factors", ZZ, values))


def test_cli_oracle_needs_exit_zero_and_equivalence():
    assert workloads.cli_report_ok((0, "theorem: symm07\nequivalent: true\n"))
    assert not workloads.cli_report_ok((1, "equivalent: true\n"))
    assert not workloads.cli_report_ok((0, "equivalent: false\n"))


def test_time_cap_kills_the_worker_and_fails_unfinished_items():
    script = (
        "import json, time\n"
        "print(json.dumps({'ready': True, 'items': 5, 'loops': [0.002], 'sampling_s': 0.0}), flush=True)\n"
        "print(json.dumps({'job_start': True}), flush=True)\n"
        "print(json.dumps({'item': 0, 'ok': True}), flush=True)\n"
        "time.sleep(60)\n"
    )
    result = run.supervise([sys.executable, "-c", script], cap_s=2.0)
    assert result.killed and result.setup_s is not None
    counts = run.tally(result)
    assert (counts.attempted, counts.failed) == (5, 4)


def sympy_matrix(M):
    from sympy import Matrix

    return Matrix(M.rows, M.cols, lambda i, j: int(M.entry(i, j).value))


def sympy_free_homology(X):
    """{n: (free rank, invariant factors > 1)} from sympy's invariant factors."""
    from sympy import ZZ as SZZ
    from sympy.matrices.normalforms import invariant_factors

    def factors(n):
        M = X.diff(n)
        if M.rows == 0 or M.cols == 0:
            return []
        return [abs(int(f)) for f in invariant_factors(sympy_matrix(M), domain=SZZ) if f != 0]

    out = {}
    for n in X.degrees():
        incoming = factors(n + 1)
        free = X.rank(n) - len(factors(n)) - len(incoming)
        torsion = tuple(f for f in incoming if f > 1)
        if free or torsion:
            out[n] = (free, torsion)
    return out


def sympy_presented_homology(P):
    """Homology of a complex of cokernels: cycles mod boundaries and relations."""
    from sympy import Matrix
    from sympy import ZZ as SZZ
    from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

    def block(M, rows, cols):
        return sympy_matrix(M) if M.rows and M.cols else Matrix.zeros(rows, cols)

    out = {}
    for n in P.degrees():
        g = P.rank_free_cover(n)
        below = P.rank_free_cover(n - 1)
        # cycles: v with d(v) in the span of the relations one degree down
        if below:
            rel = P.relation(n - 1)
            stacked = block(P.diff(n), below, g).row_join(-block(rel, below, rel.cols))
            smf, _, t = smith_normal_decomp(stacked, domain=SZZ)
            rank = sum(1 for i in range(min(smf.shape)) if smf[i, i] != 0)
            cycles = t[:g, rank:]
        else:
            cycles = Matrix.eye(g)
        if cycles.cols == 0:
            continue
        boundaries = block(P.diff(n + 1), g, P.rank_free_cover(n + 1)).row_join(
            block(P.relation(n), g, P.relation(n).cols)
        )
        coords = (cycles.T * cycles).inv() * cycles.T * boundaries
        assert cycles * coords == boundaries and all(c.is_integer for c in coords)
        found = [abs(int(f)) for f in invariant_factors(coords, domain=SZZ) if f != 0] if coords.cols else []
        free = cycles.cols - len(found)
        torsion = tuple(f for f in found if f > 1)
        if free or torsion:
            out[n] = (free, torsion)
    return out


def test_integer_invariants_agree_with_sympy():
    X = sym2(koszul([ZZ.scalar(v) for v in workloads.SYM2_ELEMENTS])).complex
    assert sympy_free_homology(X) == workloads.SYM2_INVARIANTS
    P = weak_sym2(koszul([ZZ.scalar(v) for v in workloads.WEAK_ELEMENTS]))
    assert sympy_presented_homology(P) == workloads.WEAK_INVARIANTS


def test_tracer_counts_calls_and_restores_the_library():
    original = symchain.linalg.qq_rank
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert symchain.linalg.qq_rank is not original
        R = symchain.graded_poly("x", "y")
        symchain.homology(koszul(list(R.generators())), bound=3)
    finally:
        tracer.uninstall()
    assert symchain.linalg.qq_rank is original
    totals = tracer.totals()
    assert totals["homology.homology.calls"] == 1
    assert totals["linalg.qq_rank.calls"] > 0
    assert totals["linalg.slice_matrix.cells"] > 0
    whole = next(s for s in tracer.spans if s.name == "homology.homology")
    children = [s for s in tracer.spans if s.parent == whole.span_id]
    assert {s.name for s in children} == {"linalg.slice_matrix", "linalg.qq_rank"}
    child_time = sum(s.end - s.start for s in children)
    assert 0 <= whole.self_s <= whole.end - whole.start - child_time + 1e-9


def test_missing_boundary_is_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.BOUNDARIES, "series", ("minimize", "no_such_function"))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["series.no_such_function"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.per_layer_units().items())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "item_p50_ms", "item_p90_ms", "peak_rss_mb"
    }


def test_traced_run_writes_spans_that_name_their_parent(tmp_path):
    items = workloads.zloc_items(4)[:3]
    path = tmp_path / "spans.jsonl"
    trace = worker.measure_traced(items, 0.0, lambda **r: None, hostspeed.Sampler(), str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    ids = {row[1] for row in rows}
    assert {row[0] for row in rows} == {0, 1, 2}
    assert all(row[2] is None or row[2] in ids for row in rows)
    assert trace["per_job"]["theorems.check_symm07.calls"] == 1
    assert trace["absent"] == []
