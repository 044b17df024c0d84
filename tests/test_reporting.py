"""The stack-wise ``r4_blocks.json`` writer against the row-dict one."""

import numpy as np
import pytest

import oracles
from wavekam import enumerate_clusters
from wavekam.blockop import BlockOperator
from wavekam.reporting import dump_blocks

LAT = enumerate_clusters(2, 2)


def _operators():
    rng = np.random.default_rng(17)
    blocks = {}
    for ell in [(0, 0), (1, -1), (-2, 2)]:
        for a, b in [(1, 1), (1, 2), (4, 2)]:
            blocks[(ell, a, b)] = (rng.standard_normal((4, 4))
                                   + 1j * rng.standard_normal((4, 4)))
    blocks[((0, 0), 1, 1)][0, 0] = complex(float("nan"), float("-inf"))
    blocks[((1, -1), 1, 2)][1, 1] = complex(-0.0, 1e-300)
    blocks[((-2, 2), 4, 2)][2, 3] = complex(float("inf"), 1e22)
    return [BlockOperator(LAT, 2, 2), BlockOperator(LAT, 2, 2, blocks),
            BlockOperator(LAT, 1, 3, {((3,), 2, 2): np.eye(4)})]


@pytest.mark.parametrize("name", ["", "r4-top-left", 'q"\u00e9'])
def test_dump_blocks_bytes_match_row_writer(tmp_path, name):
    for i, op in enumerate(_operators()):
        got, want = tmp_path / f"got{i}.json", tmp_path / f"want{i}.json"
        dump_blocks(got, op, name)
        oracles.dump_blocks_rows(want, op, name)
        assert got.read_bytes() == want.read_bytes()
