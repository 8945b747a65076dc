"""Tests of the benchmark itself: python3 -m pytest bench

Each check must reject a perturbed answer, and the quick mode of every
workload must run to its end with every case checked and passing.
"""

from __future__ import annotations

import json
import random

import pytest

import checks
import inputs
import run
from hostspeed import HostSpeed
from spans import METRICS as LAYER_METRICS, Tracer


def catalog_case(case_id: int):
    return next(c for c in inputs.catalog_cases(quick=False) if c.name == f"catalog-{case_id}")


def answer(case, torsion, methods=("oracle", "paper")) -> dict:
    return {"case": case.name, "group_orders": [case.k] * case.r,
            "methods": {m: {"free_rank": 0, "torsion": list(torsion)} for m in methods}}


def problems(case, doc, methods=("oracle", "paper")):
    order = checks.expected_order(case.k, case.r, case.phi, case.psi)
    return checks.check_answer(case, doc, methods, order)


@pytest.mark.parametrize("case_id", sorted(inputs.CATALOG))
def test_paper_table_satisfies_every_check(case_id):
    case = catalog_case(case_id)
    assert problems(case, answer(case, case.paper_table)) == []


def test_rank_mod():
    assert checks.rank_mod([[1, 2], [2, 4]], 5) == 1
    assert checks.rank_mod([[1, 2], [2, 4]], 3) == 1
    assert checks.rank_mod([[1, 0], [0, 3]], 3) == 1
    assert checks.rank_mod([[1, 0], [0, 1], [1, 1]], 2) == 2
    assert checks.rank_mod([[], []], 2) == 0


def test_sampled_systems_are_valid():
    for k, r, counts in inputs.CORPUS_SHAPES:
        for n in counts:
            images = inputs.sample_system(random.Random(n), k, r, n)
            assert len(images) == n and all(any(v) for v in images)
            assert all(sum(column) % k == 0 for column in zip(*images))
            assert checks.rank_mod(images, k) == r


# Perturbations of catalog case 1, H_1 = (Z/2)^4 + (Z/4)^2 with k = 2: each
# breaks exactly one property, so exactly one check must fire.
PERTURBED = [
    ("b_1 =", {"free_rank": 1}, {"free_rank": 1}),
    ("does not divide k^2", {"torsion": [2, 2, 2, 2, 16]}, {"torsion": [2, 2, 2, 2, 16]}),
    ("divisibility chain", {"torsion": [4, 4, 2, 2, 2, 2]}, {"torsion": [4, 4, 2, 2, 2, 2]}),
    ("|H_1| =", {"torsion": [2, 2, 2, 2, 2, 4, 4]}, {"torsion": [2, 2, 2, 2, 2, 4, 4]}),
    ("methods disagree", {"torsion": [4, 4, 4, 4]}, {}),
]


@pytest.mark.parametrize("marker, paper, oracle", PERTURBED)
def test_each_check_rejects_a_perturbed_answer(marker, paper, oracle):
    case = catalog_case(1)
    case.paper_table = None
    doc = answer(case, (2, 2, 2, 2, 4, 4))
    doc["methods"]["paper"].update(paper)
    doc["methods"]["oracle"].update(oracle)
    found = problems(case, doc)
    assert found and all(marker in p for p in found), found


def test_missing_method_and_wrong_group_are_rejected():
    case = catalog_case(1)
    doc = answer(case, case.paper_table)
    assert "methods" in problems(case, {**doc, "methods": {"paper": doc["methods"]["paper"]}})[0]
    assert "group_orders" in problems(case, {**doc, "group_orders": [2, 2]})[0]


def test_paper_table_is_checked_on_its_own():
    # (Z/4)^4 has the order of case 1's answer and passes every other check.
    case = catalog_case(1)
    found = problems(case, answer(case, (4, 4, 4, 4)))
    assert found and all("paper's table" in p for p in found), found


def test_corpus_is_seeded(tmp_path):
    def systems(seed, name):
        directory = tmp_path / name
        directory.mkdir()
        return [(c.phi, c.psi) for c in inputs.corpus_cases(directory, seed, quick=True)]

    assert systems(5, "a") == systems(5, "b")
    assert systems(5, "c") != systems(6, "d")


def test_failures_and_wrong_answers_are_counted(capsys):
    cases = inputs.catalog_cases(quick=True)
    tally = run.Tally("catalog", cases, HostSpeed())

    def wrong_main(argv):
        print(json.dumps(answer(cases[0], (4, 4, 4, 4))))
        return 0

    tally.run_pass(wrong_main, cases)
    tally.run_pass(lambda argv: 1, cases)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 1)


def test_a_missing_span_is_reported_not_raised(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    run.import_isoprod()
    import isoprod.intlattice

    monkeypatch.delattr(isoprod.intlattice, "_presparse_reduce")
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["isoprod.intlattice._presparse_reduce"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_mode(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--trace", str(trace), "--quick"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = LAYER_METRICS if trace else ("setup_s", "cases_per_s", "wall_s", "peak_rss_mb")
    assert set(result["metrics"]) == set(expected)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
