"""numpy kernels give each value the same bits whatever else shares the call.

A population is scored in one pass, and each row must score exactly as it
does alone: in the one-genome oracle chain, in a one-row ``act``, or in a
batch of any size. That holds only while every numpy transcendental the
library uses (exp, cos, sin, arcsin, arctan2, hypot, tanh), and every
product of the network engine, gives a value the same bits at any length,
offset, stride or shape of the array around it. SIMD kernels treat a
vector's head and tail apart from its body, and BLAS picks its
matrix-product kernel by the size of the product, so this is a property of
the numpy and BLAS build and the CPU they dispatch to; these tests check it
on the machine that runs them.
"""

import numpy as np
import pytest

from lidar_cfe import Conv1d, Dense, NetworkPolicy
from lidar_cfe.model import ROW_FLOOR, _row_products

from oracles import random_micro_net
from test_batch import bench_conv_net

N = 4099
LENGTHS = range(1, 41)
OFFSETS = range(0, N - max(LENGTHS), 7)  # 580 offsets, every alignment modulo 8


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def signed_magnitudes(rng):
    """Values from 1e-4 to about 300 in size, either sign, with some exact zeros."""
    values = rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-4.0, 2.5, N)
    values[::97] = 0.0
    return values


RNG = np.random.default_rng(20240607)
UNARY = {"exp": np.exp, "cos": np.cos, "sin": np.sin, "tanh": np.tanh, "arcsin": np.arcsin}
BINARY = {"arctan2": np.arctan2, "hypot": np.hypot}
KERNELS = {name: (fn, (signed_magnitudes(RNG),)) for name, fn in UNARY.items()}
KERNELS.update({name: (fn, (signed_magnitudes(RNG), signed_magnitudes(RNG))) for name, fn in BINARY.items()})
# arcsin takes [-1, 1]: the tanh of its draw keeps the zeros and the tiny values and reaches both ends.
KERNELS["arcsin"] = (np.arcsin, (np.tanh(KERNELS["arcsin"][1][0]),))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_every_slice_matches_the_whole_array(name):
    fn, args = KERNELS[name]
    whole = bits(fn(*args))
    differ = [
        (length, offset)
        for length in LENGTHS
        for offset in OFFSETS
        if not np.array_equal(bits(fn(*(a[offset : offset + length] for a in args))), whole[offset : offset + length])
    ]
    assert not differ, f"np.{name}: {len(differ)} slices differ, first (length, offset) {differ[:5]}"


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_single_floats_match_the_whole_array(name):
    # The one-genome oracle calls each kernel on Python floats.
    fn, args = KERNELS[name]
    whole = bits(fn(*args))
    for i in range(0, N, 13):
        assert bits(fn(*(float(a[i]) for a in args))) == whole[i], f"np.{name} at index {i}"


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("step", [2, 3])
def test_strided_views_match_the_whole_array(name, step):
    fn, args = KERNELS[name]
    whole = bits(fn(*args))
    views = [slice(start, None, step) for start in range(step)]
    views += [slice(offset, offset + step * length, step) for length in LENGTHS for offset in range(0, 300, 7)]
    for view in views:
        assert np.array_equal(bits(fn(*(a[view] for a in args))), whole[view]), view


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (3, 2), (7, 5), (100, 6), (400, 5)])
def test_two_dimensional_inputs_match_the_whole_array(name, rows, cols):
    fn, args = KERNELS[name]
    whole = fn(*args)
    block = slice(0, rows * cols)
    assert np.array_equal(bits(fn(*(a[block].reshape(rows, cols) for a in args))), bits(whole[block].reshape(rows, cols)))
    # A column block of a wider matrix, and its transpose: neither is contiguous.
    wide = slice(0, rows * (cols + 3))
    inner = (slice(None), slice(1, cols + 1))
    expected = bits(whole[wide].reshape(rows, cols + 3)[inner])
    assert np.array_equal(bits(fn(*(a[wide].reshape(rows, cols + 3)[inner] for a in args))), expected)
    assert np.array_equal(bits(fn(*(a[wide].reshape(rows, cols + 3)[inner].T for a in args)).T), expected)


# ---------------------------------------------------------------------------
# The network engine's products. Each layer multiplies ``per_state`` rows of
# every state by its weight matrix (model._row_products): gemm for wide
# products, one gemv per row for narrow ones. A state's rows must come out
# as they do when the state runs alone, padded to the row floor.


def blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # numpy releases before 1.25 report their build otherwise
        return f"numpy {np.__version__}"


def product_shapes(spec):
    """``(per_state, in, out)`` of each conv and dense product the engine runs for ``spec``."""
    shapes, length = [], spec.lidar_inputs
    for layer in spec.layers:
        if isinstance(layer, Conv1d):
            length = (length + 2 * layer.padding - layer.kernel) // layer.stride + 1
            shapes.append((length, layer.in_channels * layer.kernel, layer.out_channels))
        elif isinstance(layer, Dense):
            shapes.append((1, layer.in_size, layer.out_size))
    return shapes


BENCH_SHAPES = product_shapes(bench_conv_net().spec)
# Shapes at the edges of the rule. One output channel, or half of GEMM_MIN_OUTPUTS per state,
# runs as one gemv per row: run as one product, such shapes change a row's bits with the batch
# size on some BLAS builds. Exactly GEMM_MIN_OUTPUTS per state, over two or more columns, is a gemm.
# A 7 -> 3 dense layer is a gemv far below the edge.
EDGE_SHAPES = [(180, 5, 1), (180, 40, 1), (16, 40, 4), (1, 75, 64), (16, 40, 8), (64, 40, 2), (1, 75, 128), (1, 7, 3)]
MICRO_SHAPES = sorted({shape for seed in range(40) for shape in product_shapes(random_micro_net(np.random.default_rng(seed))[0])})
BENCH_BATCHES = [1, 2, 3, 7, 15, 16, 17, 31, 33, 64, 99, 100, 101, 250, 400, 1000, 2000]
MICRO_BATCHES = [1, 2, 5, 16, 17, 40, 101, 400]


def padded(rows, per_state):
    """The rows of a batch below the row floor, padded to ROW_FLOOR states with copies of its first state."""
    missing = ROW_FLOOR - len(rows) // per_state
    return np.concatenate([rows] + [rows[:per_state]] * missing) if missing > 0 else rows


def check_product_rows(shape, batches):
    per_state, size_in, size_out = shape
    rng = np.random.default_rng(list(shape))
    w = rng.normal(size=(size_out, size_in))
    n_states = max(batches) + 3
    states = rng.normal(size=(n_states, per_state, size_in))
    alone = np.stack([bits(_row_products(padded(s, per_state), w, per_state)[:per_state]) for s in states])
    views = [(n, slice(offset, offset + n)) for n in batches for offset in (0, 1)]
    views += [(len(range(start, n_states, step)), slice(start, None, step)) for step in (2, 3) for start in (0, 1)]
    for n, view in views:
        batch = states[view].reshape(-1, size_in)  # a strided view of states with one row each stays a view
        got = bits(_row_products(padded(batch, per_state), w, per_state)[: n * per_state]).reshape(n, per_state, size_out)
        differ = np.flatnonzero(~np.all(got == alone[view], axis=(1, 2)))
        assert not differ.size, (
            f"{blas_build()}: the {per_state}x{size_in} -> {size_out} product gives {differ.size} of {n} states "
            f"other bits in batch {view} than alone, first at state {differ[0]}: rows are not batch-invariant on this build"
        )


def check_padded_rows(shape):
    """A conv layer's product after ``NetworkPolicy._set_reference`` takes the windows a changed ray
    reaches: any number of rows, not a multiple of ``per_state``, padded with zero rows to at least
    ROW_FLOOR * per_state, the full pass's smallest product. Each row must get the bits it gets there."""
    per_state, size_in, size_out = shape
    rng = np.random.default_rng([*shape, 1])
    w = rng.normal(size=(size_out, size_in))
    floor = ROW_FLOOR * per_state
    rows = rng.normal(size=(4 * floor, size_in))
    full = np.concatenate([bits(_row_products(rows[start : start + floor], w, per_state)) for start in range(0, 4 * floor, floor)])
    counts = sorted({n for n in (1, 2, 3, 7, per_state - 1, per_state + 1, floor - 1, floor + 1, 2 * floor + 5) if n > 0})
    for n in counts:
        for offset in (0, 1, floor - 1):
            padded = np.concatenate([rows[offset : offset + n], np.zeros((max(floor - n, 0), size_in))])
            got = bits(_row_products(padded, w, per_state)[:n])
            differ = np.flatnonzero(~np.all(got == full[offset : offset + n], axis=1))
            assert not differ.size, (
                f"{blas_build()}: the {per_state}x{size_in} -> {size_out} product gives {differ.size} of {n} rows "
                f"padded to {len(padded)} other bits than in the full pass, first at row {differ[0]} (offset {offset})"
            )


@pytest.mark.parametrize("shape", BENCH_SHAPES + EDGE_SHAPES + MICRO_SHAPES, ids=str)
def test_a_product_of_fewer_rows_than_the_floor_gives_each_row_its_floor_bits(shape):
    # No caller pads: a batch of few states, or the few windows a changed ray reaches, go in as they are.
    per_state, size_in, size_out = shape
    rng = np.random.default_rng([*shape, 2])
    w = rng.normal(size=(size_out, size_in))
    floor = ROW_FLOOR * per_state
    rows = rng.normal(size=(floor, size_in))
    full = bits(_row_products(rows, w, per_state))
    counts = sorted({n for n in (1, 2, 3, 7, per_state - 1, per_state + 1, floor - 1) if 0 < n < floor})
    differ = [n for n in counts if not np.array_equal(bits(_row_products(rows[:n], w, per_state)), full[:n])]
    assert not differ, (
        f"{blas_build()}: the {per_state}x{size_in} -> {size_out} product of {differ} rows gives them "
        f"other bits than the product of {floor} rows: short products are not padded to the row floor"
    )


@pytest.mark.parametrize("shape", BENCH_SHAPES + EDGE_SHAPES, ids=str)
def test_bench_and_edge_products_give_each_state_its_bits_alone(shape):
    check_product_rows(shape, BENCH_BATCHES)
    check_padded_rows(shape)


@pytest.mark.parametrize("shape", MICRO_SHAPES, ids=str)
def test_micro_net_products_give_each_state_its_bits_alone(shape):
    check_product_rows(shape, MICRO_BATCHES)
    check_padded_rows(shape)


@pytest.mark.parametrize("make", [bench_conv_net, lambda: NetworkPolicy(*random_micro_net(np.random.default_rng(3), n_outputs=3))])
def test_zero_states_give_zero_actions(make):
    model = make()
    assert model.act_batch(np.empty((0, model.input_size))).shape == (0, model.output_size)
