import io
import re
import zipfile

import numpy as np
import pytest

from blockops import tensor as T
from blockops.checkpoint import (
    CONFIG_MEMBER as CONFIG,
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


def npy_bytes(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr)
    return buf.getvalue()


def write_archive(path, members):
    """A zip holding each ``name -> bytes`` as ``name.npy``, and a valid
    config echo."""
    members = {CONFIG: npy_bytes(np.array("{}")), **members}
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(f"{name}.npy", data)


def foreign_bytes(path):
    # the start of a checkpoint in the format before the npz archives
    path.write_bytes(b"BLKOPS01" + bytes(64))


def flipped_tensor_byte(path):
    params = sample_params()
    save_checkpoint(str(path), params, {})
    raw = bytearray(path.read_bytes())
    at = raw.index(params["layer.w"].data.tobytes()) + 3
    raw[at] ^= 0x01
    path.write_bytes(bytes(raw))


def unknown_descr(path):
    member = npy_bytes(np.zeros(3)).replace(b"'<f8'", b"'<q8'", 1)
    write_archive(path, {"layer.w": member})


def object_array(path):
    with open(path, "wb") as fh:
        np.savez(fh, **{"layer.w": np.array([{}, None], dtype=object),
                        CONFIG: np.array("{}")})


def too_short_for_shape(path):
    write_archive(path, {"layer.w": npy_bytes(np.zeros((2, 3)))[:-8]})


def foreign_member(path):
    write_archive(path, {})
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("layer.w", bytes(16))


def bare_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def missing_config(path):
    with open(path, "wb") as fh:
        np.savez(fh, **{"layer.w": np.zeros(3)})


def config_not_an_object(path):
    # valid JSON, but a number where the config echo's object belongs
    with open(path, "wb") as fh:
        np.savez(fh, **{"layer.w": np.zeros(3), CONFIG: np.array("3")})


class TestCorruption:
    def test_truncated_file_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), sample_params(), {})
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("write", [
        foreign_bytes, flipped_tensor_byte, unknown_descr, object_array,
        too_short_for_shape, foreign_member, bare_npy, missing_config, config_not_an_object,
    ], ids=lambda f: f.__name__)
    def test_unreadable_file_names_the_path(self, tmp_path, write):
        path = tmp_path / "model.ckpt"
        write(path)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    def test_missing_file_is_not_a_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))


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
