import json
import re
import struct

import numpy as np
import pytest

from blockops import tensor as T
from blockops.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    restore_parameters,
    save_checkpoint,
)
from blockops.nn import Smfr, SmfrConfig


def sample_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "layer.w": T.parameter(rng.normal(size=(3, 4))),
        "layer.b": T.parameter(np.zeros(4)),
    }


def write_raw(path, header, body=b""):
    """A checkpoint file holding ``header`` as its JSON header, then ``body``."""
    data = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(data)) + data + body)


class TestRoundTrip:
    def test_values_and_config_survive(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        params = sample_params()
        config = {"experiment": "doubleadd", "seed": 3}
        save_checkpoint(path, params, config)
        tensors, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert set(tensors) == set(params)
        for name in params:
            assert np.array_equal(tensors[name], params[name].data)
            assert tensors[name].dtype == np.float64

    def test_model_parameters_round_trip_bit_exact(self, tmp_path):
        cfg = SmfrConfig(block_size=4, input_blocks=2, output_blocks=1,
                         stack_width=2, stack_depth=1, fnn_hidden=[6])
        model = Smfr(cfg, np.random.default_rng(1))
        path = str(tmp_path / "smfr.ckpt")
        save_checkpoint(path, model.parameters(), {"kind": "smfr"})
        tensors, _ = load_checkpoint(path)

        clone = Smfr(cfg, np.random.default_rng(99))
        restore_parameters(clone.parameters(), tensors)
        x = np.random.default_rng(2).normal(size=(3, 2, 4))
        a, _ = model.forward(T.tensor(x))
        b, _ = clone.forward(T.tensor(x))
        assert np.array_equal(a.data, b.data)

    def test_write_is_atomic(self, tmp_path):
        # the destination name only ever holds a complete file
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), sample_params(), {})
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []


class TestCorruption:
    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), sample_params(), {})
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_truncated_file_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), sample_params(), {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_cut_inside_header_length_names_the_path(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), sample_params(), {})
        path.write_bytes(path.read_bytes()[:len(MAGIC) + 3])
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("header", [{"config": {}}, {"tensors": []}, []],
                             ids=["no_tensors", "no_config", "not_an_object"])
    def test_header_without_its_fields_names_the_path(self, tmp_path, header):
        path = tmp_path / "model.ckpt"
        write_raw(path, header)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    def test_entry_size_disagreeing_with_shape_names_the_path(self, tmp_path):
        path = tmp_path / "model.ckpt"
        entry = {"name": "w", "shape": [2, 3], "dtype": "<f8", "offset": 0, "nbytes": 40}
        write_raw(path, {"config": {}, "tensors": [entry]}, bytes(48))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    def test_magic_constant_starts_files(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), sample_params(), {})
        assert path.read_bytes()[:8] == MAGIC


class TestRestore:
    def test_missing_tensor_is_an_error(self, tmp_path):
        params = sample_params()
        tensors = {"layer.w": params["layer.w"].data.copy()}
        with pytest.raises(CheckpointError):
            restore_parameters(params, tensors)

    def test_extra_tensor_is_an_error(self):
        params = sample_params()
        tensors = {name: p.data.copy() for name, p in params.items()}
        tensors["stray"] = np.zeros(2)
        with pytest.raises(CheckpointError):
            restore_parameters(params, tensors)

    def test_shape_mismatch_is_an_error(self):
        params = sample_params()
        tensors = {name: p.data.copy() for name, p in params.items()}
        tensors["layer.w"] = np.zeros((4, 3))
        with pytest.raises(CheckpointError):
            restore_parameters(params, tensors)
