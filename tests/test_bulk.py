"""The benchmark's cli-bulk items at small sizes, checked against its numpy references.

``bench/bulk.py`` writes the input files and computes each reference
independently with numpy; every item runs in process through
``cli.main``, its stdout must pass ``bulk.verify``, and its exit code
and stderr must be the ones in ``STDERR``.
"""

import sys
from pathlib import Path

import pytest

from maxplus.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import bulk  # noqa: E402

SMALL = bulk.Sizes(
    bulk=2_000, push_target=100, combine_second=1_600, approx_atoms=200, approx_grid=100,
    approx_tests=3, lift_side=30, lift_base=16, lift_target=10,
)

# the exit code and stderr of each item on the seed-0 inputs at SMALL sizes
STDERR = {
    "cold": (0, "integral of the table against the measure: 7.57758857857943\n"),
    "integrate": (0, "integral of the table against the measure: 9.9251233281625\n"),
    "pushforward": (0, "pushforward onto 'Y': 100 atoms\n"),
    "combine": (0, "combination on 'X': 2000 atoms\n"),
    "approx": (0, "approximation landed inside epsilon 0.01: worst discrepancy 0.002230702523815964\n"),
    "lift": (0, "lift onto 'Q': 10 atoms, displacement 0.27586206896551724\n"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return bulk.make(0, str(tmp_path_factory.mktemp("bulk")), SMALL)


@pytest.mark.parametrize("item", bulk.ITEMS)
def test_bulk_item_matches_reference(inputs, item, capsys):
    code = main(inputs.argv[item])
    out, err = capsys.readouterr()
    assert bulk.verify(item, out, inputs.expected)
    assert (code, err) == STDERR[item]
