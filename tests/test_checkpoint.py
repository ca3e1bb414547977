"""Binary checkpoint format: round trips, determinism, namespaces, errors."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcmr.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    merge_namespaces,
    save_checkpoint,
    split_namespace,
)


def sample_arrays(seed=0):
    r = np.random.default_rng(seed)
    return {
        "a.w": r.normal(size=(3, 4)),
        "a.b": np.zeros(4),
        "scalar": np.array(2.5),
        "deep.nest.k": r.normal(size=(2, 2, 2)),
    }


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    arrays = sample_arrays()
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.float64
        assert np.array_equal(loaded[name], arrays[name])


def test_save_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, sample_arrays())
    save_checkpoint(p2, sample_arrays())
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_arrays())
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_arrays())
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(1,) * 65, (2**16,) * 4])
def test_shape_numpy_cannot_hold_rejected(tmp_path, dims):
    # 65 dimensions exceed NumPy's limit; 2**64 values wrap to 0 in int64
    path = tmp_path / "model.ckpt"
    path.write_bytes(MAGIC + struct.pack(f"<II1sBI{len(dims)}I", 1, 1, b"w", 0, len(dims), *dims) + bytes(8))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_namespace_split_and_merge():
    retr = {"w": np.ones(2), "b": np.zeros(2)}
    loc = {"w": np.full(2, 3.0)}
    merged = merge_namespaces(retriever=retr, localizer=loc)
    assert set(merged) == {"retriever.w", "retriever.b", "localizer.w"}
    back = split_namespace(merged, "retriever")
    assert set(back) == {"w", "b"}
    assert np.array_equal(back["w"], retr["w"])
    assert split_namespace(merged, "missing") == {}


@pytest.fixture(scope="module")
def real_blob(tmp_path_factory):
    """A tiny retriever's checkpoint: many short records, so headers are a
    large share of its bytes."""
    from vcmr.retriever import RetrieverConfig, RetrieverModel

    model = RetrieverModel(2, 2, 2, RetrieverConfig(hidden=2, intermediate=2, heads=1, max_positions=2))
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, merge_namespaces(retriever={n: t.data for n, t in model.params.items()}))
    return path.read_bytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupted_checkpoint_raises_only_checkpoint_error(real_blob, tmp_path_factory, data):
    raw = bytearray(real_blob)
    for _ in range(data.draw(st.integers(0, 3), label="flips")):
        pos = data.draw(st.integers(0, len(raw) - 1), label="byte")
        raw[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="kept bytes")]
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
