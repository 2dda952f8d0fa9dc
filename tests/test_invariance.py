"""numpy kernels give each value the same bits whatever else shares the call.

A population is scored in one pass, and each row must score exactly as it
does alone: in the one-genome oracle chain, in a one-row ``act``, or in a
batch of any size. That holds only while every numpy transcendental the
library uses (exp, cos, sin, arctan2, hypot, tanh), and the stacked
matrix-vector product of the dense layers, gives a value the same bits at
any length, offset, stride or shape of the array around it. SIMD kernels
treat a vector's head and tail apart from its body, so this is a property
of the numpy build and the CPU it dispatches to; these tests check it on
the machine that runs them.
"""

import numpy as np
import pytest

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
UNARY = {"exp": np.exp, "cos": np.cos, "sin": np.sin, "tanh": np.tanh}
BINARY = {"arctan2": np.arctan2, "hypot": np.hypot}
KERNELS = {name: (fn, (signed_magnitudes(RNG),)) for name, fn in UNARY.items()}
KERNELS.update({name: (fn, (signed_magnitudes(RNG), signed_magnitudes(RNG))) for name, fn in BINARY.items()})


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


@pytest.mark.parametrize("out_size, in_size", [(128, 723), (2, 128), (64, 363), (3, 7)])
def test_stacked_matvec_rows_match_one_row_products(out_size, in_size):
    # The dense layers' (w @ x[:, :, None])[:, :, 0] against w @ row, one state at a time.
    rng = np.random.default_rng(in_size)
    w = rng.normal(size=(out_size, in_size))
    x = rng.normal(size=(401, in_size))
    single = bits([w @ row for row in x])
    for rows in (1, 7, 100, 400):
        for offset in (0, 1):
            batch = x[offset : offset + rows]
            assert np.array_equal(bits((w @ batch[:, :, np.newaxis])[:, :, 0]), single[offset : offset + rows]), (rows, offset)
    assert np.array_equal(bits((w @ x[::2, :, np.newaxis])[:, :, 0]), single[::2])
