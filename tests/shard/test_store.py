"""StackStore / StackStoreWriter: layout, validation, failure modes."""

import json

import numpy as np
import pytest

from repro.exceptions import MatrixShapeError, MatrixValueError
from repro.shard import (
    DATA_NAME,
    MANIFEST_NAME,
    STORE_SCHEMA,
    StackStore,
    create_store,
    open_store,
    write_store,
)

from .conftest import random_stack


class TestRoundtrip:
    def test_write_store_roundtrip(self, tmp_path):
        stack = random_stack(7, 3, 4, seed=1)
        store = write_store(tmp_path / "s", stack)
        assert store.shape == (7, 3, 4)
        assert len(store) == 7
        assert np.array_equal(np.asarray(store.memmap()), stack)

    def test_streaming_writer_mixed_chunks(self, tmp_path):
        stack = random_stack(9, 2, 3, seed=2)
        with create_store(tmp_path / "s", n_tasks=2, n_machines=3) as writer:
            assert writer.append(stack[0]) == 1  # single (T, M) member
            assert writer.append(stack[1:5]) == 5  # (k, T, M) chunk
            assert writer.append(stack[5:]) == 9
        store = open_store(tmp_path / "s")
        assert np.array_equal(np.asarray(store.memmap()), stack)

    def test_read_chunk_is_owned_float64(self, tmp_path):
        stack = random_stack(6, 2, 2, seed=3)
        store = write_store(tmp_path / "s", stack)
        chunk = store.read(2, 5)
        assert chunk.dtype == np.float64
        assert chunk.flags["C_CONTIGUOUS"] and chunk.flags["OWNDATA"]
        assert np.array_equal(chunk, stack[2:5])
        # Mutating the chunk must not touch the store.
        chunk[:] = 0.0
        assert np.array_equal(store.read(2, 5), stack[2:5])

    def test_getitem_member_and_negative_index(self, tmp_path):
        stack = random_stack(5, 3, 2, seed=4)
        store = write_store(tmp_path / "s", stack)
        assert np.array_equal(store[3], stack[3])
        assert np.array_equal(store[-1], stack[-1])

    def test_float32_store_serves_float64(self, tmp_path):
        stack = random_stack(4, 2, 2, seed=5)
        store = write_store(tmp_path / "s", stack, dtype="float32")
        assert store.dtype == np.dtype("float32")
        assert store.memmap().dtype == np.dtype("float32")
        chunk = store.read(0, 4)
        assert chunk.dtype == np.float64
        assert np.array_equal(chunk, stack.astype(np.float32).astype(np.float64))
        assert store.nbytes == stack.astype(np.float32).nbytes

    def test_geometry_properties(self, tmp_path):
        store = write_store(tmp_path / "s", np.ones((3, 4, 5)))
        assert store.member_nbytes == 4 * 5 * 8
        assert store.nbytes == 3 * 4 * 5 * 8
        assert "StackStore" in repr(store) and "(3, 4, 5)" in repr(store)


class TestWriterErrors:
    def test_refuses_overwrite(self, tmp_path):
        write_store(tmp_path / "s", np.ones((2, 2, 2)))
        with pytest.raises(MatrixValueError, match="already holds"):
            create_store(tmp_path / "s", n_tasks=2, n_machines=2)

    def test_empty_store_cannot_finalize(self, tmp_path):
        writer = create_store(tmp_path / "s", n_tasks=2, n_machines=2)
        with pytest.raises(MatrixShapeError, match="empty"):
            writer.close()

    def test_append_after_close_raises(self, tmp_path):
        writer = create_store(tmp_path / "s", n_tasks=2, n_machines=2)
        writer.append(np.ones((2, 2)))
        writer.close()
        with pytest.raises(MatrixValueError, match="closed"):
            writer.append(np.ones((2, 2)))

    def test_close_is_idempotent(self, tmp_path):
        writer = create_store(tmp_path / "s", n_tasks=2, n_machines=2)
        writer.append(np.ones((2, 2)))
        assert len(writer.close()) == 1
        assert len(writer.close()) == 1

    def test_shape_mismatch_rejected(self, tmp_path):
        writer = create_store(tmp_path / "s", n_tasks=2, n_machines=3)
        with pytest.raises(MatrixShapeError, match="T=2, M=3"):
            writer.append(np.ones((3, 2)))
        with pytest.raises(MatrixShapeError):
            writer.append(np.ones((4,)))

    @pytest.mark.filterwarnings("error")
    def test_complex_members_rejected(self, tmp_path):
        # Casting would keep 1.0 and drop the imaginary parts.
        with pytest.raises(MatrixValueError, match="members must be real-valued"):
            write_store(tmp_path / "s", np.ones((2, 3, 3)) * (1 + 1j))
        assert not (tmp_path / "s" / MANIFEST_NAME).exists()
        with pytest.raises(MatrixValueError, match="members must be real-valued"):
            with create_store(tmp_path / "t", n_tasks=2, n_machines=2) as writer:
                writer.append([[1.0, 2.0j], [3.0, 4.0]])
        assert writer.n_members == 0

    def test_bad_dtype_rejected(self, tmp_path):
        with pytest.raises(MatrixValueError, match="dtype"):
            create_store(tmp_path / "s", n_tasks=2, n_machines=2, dtype="int32")

    def test_bad_dims_rejected(self, tmp_path):
        with pytest.raises(MatrixValueError, match="n_tasks"):
            create_store(tmp_path / "s", n_tasks=0, n_machines=2)
        with pytest.raises(MatrixValueError, match="n_machines"):
            create_store(tmp_path / "s2", n_tasks=2, n_machines=True)

    def test_aborted_writer_leaves_no_manifest(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with create_store(tmp_path / "s", n_tasks=2, n_machines=2) as w:
                w.append(np.ones((50, 2, 2)))
                raise RuntimeError("boom")
        assert not (tmp_path / "s" / MANIFEST_NAME).exists()
        with pytest.raises(MatrixValueError, match="not a stack store"):
            open_store(tmp_path / "s")


class TestReaderValidation:
    @pytest.fixture
    def store_dir(self, tmp_path):
        write_store(tmp_path / "s", random_stack(4, 2, 3, seed=6))
        return tmp_path / "s"

    def _manifest(self, store_dir):
        return json.loads((store_dir / MANIFEST_NAME).read_text())

    def _rewrite(self, store_dir, manifest):
        (store_dir / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MatrixValueError, match="not a stack store"):
            StackStore(tmp_path)

    def test_invalid_json_manifest(self, store_dir):
        (store_dir / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(MatrixValueError, match="not valid JSON"):
            StackStore(store_dir)

    def test_wrong_schema(self, store_dir):
        manifest = self._manifest(store_dir)
        manifest["schema"] = "repro-stack/99"
        self._rewrite(store_dir, manifest)
        with pytest.raises(MatrixValueError, match=STORE_SCHEMA.split("/")[0]):
            StackStore(store_dir)

    def test_malformed_manifest_fields(self, store_dir):
        manifest = self._manifest(store_dir)
        del manifest["n_members"]
        self._rewrite(store_dir, manifest)
        with pytest.raises(MatrixValueError, match="malformed"):
            StackStore(store_dir)

    def test_unsupported_dtype(self, store_dir):
        manifest = self._manifest(store_dir)
        manifest["dtype"] = "int64"
        self._rewrite(store_dir, manifest)
        with pytest.raises(MatrixValueError, match="dtype"):
            StackStore(store_dir)

    def test_nonpositive_dims(self, store_dir):
        manifest = self._manifest(store_dir)
        manifest["n_members"] = 0
        self._rewrite(store_dir, manifest)
        with pytest.raises(MatrixValueError, match="positive"):
            StackStore(store_dir)

    def test_missing_data_file(self, store_dir):
        (store_dir / DATA_NAME).unlink()
        with pytest.raises(MatrixValueError, match="missing data file"):
            StackStore(store_dir)

    def test_truncated_data_file(self, store_dir):
        data = (store_dir / DATA_NAME).read_bytes()
        (store_dir / DATA_NAME).write_bytes(data[:-8])
        with pytest.raises(MatrixValueError, match="truncated or corrupt"):
            StackStore(store_dir)

    def test_oversized_data_file(self, store_dir):
        with open(store_dir / DATA_NAME, "ab") as fh:
            fh.write(b"\0" * 16)
        with pytest.raises(MatrixValueError, match="truncated or corrupt"):
            StackStore(store_dir)

    def test_read_bounds(self, store_dir):
        store = StackStore(store_dir)
        for start, stop in ((-1, 2), (0, 5), (2, 2), (3, 1)):
            with pytest.raises(MatrixShapeError, match="out of bounds"):
                store.read(start, stop)

    def test_getitem_rejects_slices(self, store_dir):
        store = StackStore(store_dir)
        with pytest.raises(MatrixValueError, match="single member ints"):
            store[0:2]
