"""Guard: importing repro loads no library that only a rare feature needs.

``scipy`` (``affinity_clusters`` and the Section VI zero pattern checks
in ``repro.structure``), ``http.server`` (``start_metrics_server``) and
``concurrent.futures.process`` with ``multiprocessing`` (the
process-pool scheduler) are imported inside the functions that use
them, so a fresh process pays for them only on first use.  No code
needs numba or networkx, so an installed one stays unloaded too.  Each
check runs in a new interpreter, because other test modules import
scipy at module level.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

DEFERRED = (
    "scipy",
    "networkx",
    "http.server",
    "concurrent.futures.process",
    "multiprocessing",
)

ENTRY_POINTS = ["repro", "repro.batch", "repro.shard", "repro.serve", "repro.cli"]


def _run(code: str, *path: str) -> dict:
    """Run ``code`` in a fresh interpreter, with ``path`` after the
    source tree on ``PYTHONPATH``; return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *path]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


_LOADED = (
    "import json, sys; "
    f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_skips_deferred_libraries(module):
    assert _run(f"import {module}; {_LOADED}") == []


def test_an_installed_numba_is_not_imported(tmp_path):
    # No backend depends on numba: an importable one stays unloaded.
    (tmp_path / "numba").mkdir()
    (tmp_path / "numba" / "__init__.py").write_text("")
    code = (
        "import importlib.util, json, sys, repro; print(json.dumps(["
        "importlib.util.find_spec('numba') is not None, "
        "'numba' in sys.modules, repro.list_backends()]))"
    )
    assert _run(code, str(tmp_path)) == [True, False, ["numpy"]]


def test_section_vi_runs_without_networkx(tmp_path):
    # A networkx that cannot be imported sits ahead of site-packages.
    (tmp_path / "networkx").mkdir()
    (tmp_path / "networkx" / "__init__.py").write_text(
        "raise ImportError('networkx is not available')\n"
    )
    code = """
import importlib.util, inspect, json
import numpy as np
import repro
import repro.structure as structure

eq10 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
calls = {
    name: (lambda fn=getattr(structure, name): fn(eq10))
    for name in structure.__all__
    if inspect.isfunction(getattr(structure, name))
}
calls["suggest_repairs(add)"] = lambda: structure.suggest_repairs(eq10, strategy="add")
calls["characterize"] = lambda: repro.characterize(eq10)
calls["standardize(limit)"] = lambda: repro.standardize(eq10, zeros="limit")
out = {"networkx spec": importlib.util.find_spec("networkx") is not None}
for name, call in calls.items():
    try:
        call()
        out[name] = "ok"
    except Exception as exc:
        out[name] = repr(exc)
print(json.dumps(out))
"""
    out = _run(code, str(tmp_path))
    assert out.pop("networkx spec") is True
    assert len(out) == 14
    assert out == dict.fromkeys(out, "ok")


def test_characterize_skips_deferred_libraries():
    code = (
        "import numpy as np, repro; "
        "repro.characterize(np.arange(1.0, 13.0).reshape(4, 3)); "
        + _LOADED
    )
    assert _run(code) == []


def test_first_use_loads_each_library():
    code = """
import json, sys, urllib.request
import numpy as np
import repro
from repro.measures import affinity_clusters
from repro._parallel import parallel_map
from repro.obs import start_metrics_server

out = {}
out["pooled"] = parallel_map(abs, [-1, -2, -3], n_jobs=2)
out["concurrent.futures.process"] = "concurrent.futures.process" in sys.modules
out["multiprocessing"] = "multiprocessing" in sys.modules
out["normalizable"] = repro.is_normalizable(np.array([[1.0, 0.0], [1.0, 1.0]]))
out["networkx"] = "networkx" in sys.modules
block = np.array([[9.0, 9.0, 0.1], [9.0, 9.0, 0.1], [0.1, 0.1, 9.0]])
out["clusters"] = affinity_clusters(block).n_clusters
out["scipy"] = "scipy" in sys.modules
server = start_metrics_server(port=0)
try:
    host, port = server.server_address[:2]
    with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=30) as r:
        out["status"] = r.status
finally:
    server.shutdown()
    server.server_close()
out["http.server"] = "http.server" in sys.modules
print(json.dumps(out))
"""
    assert _run(code) == {
        "pooled": [1, 2, 3],
        "concurrent.futures.process": True,
        "multiprocessing": True,
        "normalizable": False,
        "networkx": False,
        "clusters": 2,
        "scipy": True,
        "status": 200,
        "http.server": True,
    }
