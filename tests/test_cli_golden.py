"""Golden output of the catalog commands.

The expected stdout was recorded before ``compute()`` replaced the four
separate orchestration paths (``run_case``, ``cross_check``, ``cmd_compute``,
``cmd_verify``), so these tests show that the fold changed no byte of
what the catalog commands print or of their exit codes.
"""

import pytest

from isoprod.cli import main

GOLDEN = {
    'compute 1 --method paper': (
        'case: case 1 (G = (Z/2)^3)\n'
        'paper:  Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/4 ⊕ Z/4\n'
    ),
    'compute 1 --method paper --json': (
        '{"case": "case 1 (G = (Z/2)^3)", "group_orders": [2, 2, 2], '
        '"methods": {"paper": {"free_rank": 0, "torsion": [2, 2, 2, 2, 4, 4]}}}\n'
    ),
    'compute 1 --method oracle': (
        'case: case 1 (G = (Z/2)^3)\n'
        'oracle: Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/4 ⊕ Z/4\n'
    ),
    'compute 1 --method oracle --json': (
        '{"case": "case 1 (G = (Z/2)^3)", "group_orders": [2, 2, 2], '
        '"methods": {"oracle": {"free_rank": 0, "torsion": [2, 2, 2, 2, 4, 4]}}}\n'
    ),
    'compute 1 --method both': (
        'case: case 1 (G = (Z/2)^3)\n'
        'paper:  Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/4 ⊕ Z/4\n'
        'oracle: Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/4 ⊕ Z/4\n'
    ),
    'compute 1 --method both --json': (
        '{"case": "case 1 (G = (Z/2)^3)", "group_orders": [2, 2, 2], '
        '"methods": {"oracle": {"free_rank": 0, "torsion": [2, 2, 2, 2, 4, 4]}, '
        '"paper": {"free_rank": 0, "torsion": [2, 2, 2, 2, 4, 4]}}}\n'
    ),
    'compute 2 --method paper': (
        'case: case 2 (G = (Z/2)^4)\n'
        'paper:  Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4\n'
    ),
    'compute 2 --method paper --json': (
        '{"case": "case 2 (G = (Z/2)^4)", "group_orders": [2, 2, 2, 2], '
        '"methods": {"paper": {"free_rank": 0, "torsion": [4, 4, 4, 4]}}}\n'
    ),
    'compute 2 --method oracle': (
        'case: case 2 (G = (Z/2)^4)\n'
        'oracle: Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4\n'
    ),
    'compute 2 --method oracle --json': (
        '{"case": "case 2 (G = (Z/2)^4)", "group_orders": [2, 2, 2, 2], '
        '"methods": {"oracle": {"free_rank": 0, "torsion": [4, 4, 4, 4]}}}\n'
    ),
    'compute 2 --method both': (
        'case: case 2 (G = (Z/2)^4)\n'
        'paper:  Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4\n'
        'oracle: Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4\n'
    ),
    'compute 2 --method both --json': (
        '{"case": "case 2 (G = (Z/2)^4)", "group_orders": [2, 2, 2, 2], '
        '"methods": {"oracle": {"free_rank": 0, "torsion": [4, 4, 4, 4]}, '
        '"paper": {"free_rank": 0, "torsion": [4, 4, 4, 4]}}}\n'
    ),
    'compute 3 --method paper': (
        'case: case 3 (G = (Z/3)^2)\n'
        'paper:  Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3\n'
    ),
    'compute 3 --method paper --json': (
        '{"case": "case 3 (G = (Z/3)^2)", "group_orders": [3, 3], '
        '"methods": {"paper": {"free_rank": 0, "torsion": [3, 3, 3, 3, 3]}}}\n'
    ),
    'compute 3 --method oracle': (
        'case: case 3 (G = (Z/3)^2)\n'
        'oracle: Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3\n'
    ),
    'compute 3 --method oracle --json': (
        '{"case": "case 3 (G = (Z/3)^2)", "group_orders": [3, 3], '
        '"methods": {"oracle": {"free_rank": 0, "torsion": [3, 3, 3, 3, 3]}}}\n'
    ),
    'compute 3 --method both': (
        'case: case 3 (G = (Z/3)^2)\n'
        'paper:  Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3\n'
        'oracle: Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3\n'
    ),
    'compute 3 --method both --json': (
        '{"case": "case 3 (G = (Z/3)^2)", "group_orders": [3, 3], '
        '"methods": {"oracle": {"free_rank": 0, "torsion": [3, 3, 3, 3, 3]}, '
        '"paper": {"free_rank": 0, "torsion": [3, 3, 3, 3, 3]}}}\n'
    ),
    'compute 4 --method paper': (
        'case: case 4 (G = (Z/5)^2)\n'
        'paper:  Z/5 ⊕ Z/5 ⊕ Z/5\n'
    ),
    'compute 4 --method paper --json': (
        '{"case": "case 4 (G = (Z/5)^2)", "group_orders": [5, 5], '
        '"methods": {"paper": {"free_rank": 0, "torsion": [5, 5, 5]}}}\n'
    ),
    'compute 4 --method oracle': (
        'case: case 4 (G = (Z/5)^2)\n'
        'oracle: Z/5 ⊕ Z/5 ⊕ Z/5\n'
    ),
    'compute 4 --method oracle --json': (
        '{"case": "case 4 (G = (Z/5)^2)", "group_orders": [5, 5], '
        '"methods": {"oracle": {"free_rank": 0, "torsion": [5, 5, 5]}}}\n'
    ),
    'compute 4 --method both': (
        'case: case 4 (G = (Z/5)^2)\n'
        'paper:  Z/5 ⊕ Z/5 ⊕ Z/5\n'
        'oracle: Z/5 ⊕ Z/5 ⊕ Z/5\n'
    ),
    'compute 4 --method both --json': (
        '{"case": "case 4 (G = (Z/5)^2)", "group_orders": [5, 5], '
        '"methods": {"oracle": {"free_rank": 0, "torsion": [5, 5, 5]}, '
        '"paper": {"free_rank": 0, "torsion": [5, 5, 5]}}}\n'
    ),
    'verify --all': (
        'case 1: MATCH  Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/4 ⊕ Z/4\n'
        'case 2: MATCH  Z/4 ⊕ Z/4 ⊕ Z/4 ⊕ Z/4\n'
        'case 3: MATCH  Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3 ⊕ Z/3\n'
        'case 4: MATCH  Z/5 ⊕ Z/5 ⊕ Z/5\n'
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_catalog_command_output(capsys, command):
    code = main(command.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, GOLDEN[command], "")


def test_every_catalog_command_is_pinned():
    ids, methods = "1234", ("paper", "oracle", "both")
    expected = {f"compute {i} --method {m}" for i in ids for m in methods}
    expected |= {f"{c} --json" for c in expected} | {"verify --all"}
    assert set(GOLDEN) == expected
