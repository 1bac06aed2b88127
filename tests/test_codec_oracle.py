"""The sparse grid codec against the dense one it replaced.

``cotrack.channel`` finds the nonzero cells first and takes ranges and codes
over those cells only; ``oracle_utils.dense_compress_values`` and
``dense_decompress_values`` are the first implementation, which works over
every cell. Payload bytes must be equal and decoded grids bit-identical.

One exception is allowed, and only on hand-made grids: with a single
channel, numpy reduces the column with a vectorized loop whose choice
between 0.0 and -0.0 on a tie depends on where the zeros sit, so a zero
channel bound can carry the other sign. Decoded grids stay bit-identical: a
single-channel nonzero cell is never zero, so a zero bound is either the
minimum of a positive range, to which a nonnegative step is added, or the
maximum of a negative one, whose sign the span does not see. With two or more channels the reduction runs over the cells
in order, which the codec reproduces exactly. Grids the pipeline makes hold
no -0.0, and their payloads are equal byte for byte.
"""

import struct
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cotrack import channel
from cotrack.channel import GRID_HEADER, compress_grid, compress_grid_pair, decompress_grid
from cotrack.presets import hidden_lane_scenario
from cotrack.scenario import ScenarioConfig, generate_scenario
from cotrack.sensing import (
    FeatureGrid,
    GridSpec,
    View,
    extract_feature_flow,
    rasterize_bev,
    sample_point_cloud,
)
from oracle_utils import dense_compress_values, dense_decompress_values


def dense(fn, *args):
    """``fn`` run with the dense codec in place of the sparse one."""
    with mock.patch.object(channel, "_compress_values", dense_compress_values), \
            mock.patch.object(channel, "_decompress_values", dense_decompress_values):
        return fn(*args)


def zero_bound_signs_cleared(data: bytes, spec: GridSpec, blocks: int) -> bytes:
    """``data`` with the sign bit cleared in every zero channel bound."""
    out = bytearray(data)
    offset = GRID_HEADER.size + 1
    for _ in range(blocks):
        table = np.frombuffer(data, "<u4", 2 * spec.channels, offset).copy()
        table[table == 0x80000000] = 0
        out[offset:offset + table.nbytes] = table.tobytes()
        offset += table.nbytes
        (n_runs,) = struct.unpack_from("<I", data, offset)
        runs = np.frombuffer(data, "<u4", n_runs, offset + 4)
        offset += 4 + runs.nbytes + int(runs[1::2].sum()) * spec.channels
    return bytes(out)


def assert_matches_dense(grid: FeatureGrid, flow: FeatureGrid):
    spec = grid.spec
    for encode, args, blocks in ((compress_grid, (grid,), 1), (compress_grid, (flow,), 1),
                                 (compress_grid_pair, (grid, flow), 2)):
        data = encode(*args)
        expected = dense(encode, *args)
        if data != expected:
            assert spec.channels == 1, "payloads differ beyond a zero bound's sign"
            assert (zero_bound_signs_cleared(data, spec, blocks)
                    == zero_bound_signs_cleared(expected, spec, blocks))
        out = decompress_grid(data, spec)
        ref = dense(decompress_grid, expected, spec)
        for a, b in zip(out if blocks == 2 else (out,), ref if blocks == 2 else (ref,)):
            assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))


@st.composite
def codec_grids(draw):
    """A grid and a flow of one odd-sized spec, down to 1 x 1 x 1.

    Zero cells make up none, some, most or all of each, and may hold -0.0;
    channels may be constant over the nonzero cells (0.0 included), and
    values are of either sign, up to near the float32 limit.
    """
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    spec = GridSpec(x0=-1.5, y0=2.0, cell_size=0.25, cols=shape[1], rows=shape[0],
                    channels=shape[2])
    magnitude = draw(st.sampled_from([1.0, 1e3, 1e-30, 3e38]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(2):
        values = draw(hnp.arrays(np.float64, shape,
                                 elements=st.floats(-1.0, 1.0, allow_nan=False))) * magnitude
        zero = rng.random(shape[:2]) < draw(st.sampled_from([0.0, 0.05, 0.5, 0.97, 1.0]))
        negative_zero = rng.random((int(zero.sum()), shape[2])) < draw(st.sampled_from([0.0, 0.5]))
        values[zero] = np.where(negative_zero, -0.0, 0.0)
        for ch in range(shape[2]):
            if draw(st.booleans()):
                values[~zero, ch] = draw(st.sampled_from([0.0, 2.5, -7.0]))
        out.append(values)
    return FeatureGrid(spec, out[0], 0.75, "infra"), FeatureGrid(spec, out[1], 0.75, "infra")


@given(pair=codec_grids())
def test_hand_made_grids_match_the_dense_codec(pair):
    assert_matches_dense(*pair)


def test_first_seed_of_each_preset_matches_the_dense_codec_byte_for_byte():
    for sc in (ScenarioConfig(), hidden_lane_scenario()):
        scn = generate_scenario(sc, 1)
        prev = None
        for t in scn.frame_times():
            cloud = sample_point_cloud(scn, t, View.INFRA)
            grid = rasterize_bev(cloud, sc.infra_grid, sc.density_cap)
            flow = (extract_feature_flow(prev, grid) if prev is not None
                    else replace(grid, values=np.zeros(grid.spec.shape)))
            prev = grid
            for values in (grid.values, flow.values):
                assert not np.signbit(values[values == 0.0]).any()
            assert_matches_dense(grid, flow)
