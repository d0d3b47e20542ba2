"""The benchmark's cli-bulk items at small sizes, checked against its numpy references.

``bench/bulk.py`` writes the input files and computes each reference
independently with numpy; every item runs in process through
``cli.main`` and its stdout must pass ``bulk.verify``.
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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return bulk.make(0, str(tmp_path_factory.mktemp("bulk")), SMALL)


@pytest.mark.parametrize("item", bulk.ITEMS)
def test_bulk_item_matches_reference(inputs, item, capsys):
    assert main(inputs.argv[item]) == 0
    assert bulk.verify(item, capsys.readouterr().out, inputs.expected)
