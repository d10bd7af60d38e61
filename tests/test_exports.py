"""Every public name a blockops module exports resolves, so deleting code
cannot leave a stale export behind."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import blockops


MODULES = ["blockops"] + [info.name for info in
                          pkgutil.walk_packages(blockops.__path__, prefix="blockops.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # importing a package runs its __init__'s imports, which name what it exports
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_the_walk_sees_every_subpackage():
    assert {"blockops.harness", "blockops.tasks", "blockops.cli"} <= set(MODULES)


def test_import_loads_no_network_stack():
    # urllib.request alone pulls in http, ssl and email; only an MNIST download needs it
    network = ["urllib.request", "http.client", "ssl", "email.parser"]
    code = ("import sys, blockops, blockops.cli; "
            f"print([m for m in {network!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
