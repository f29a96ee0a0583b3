"""``perfbench/tracer.py`` wraps respkit functions by name; a run of it
fails if one of them is renamed or moved."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_tracer_records_the_layers_of_check(tmp_path):
    spans = tmp_path / "spans.json"
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-B", "perfbench/tracer.py", str(spans), "check",
         "corpus/evacuation.resp"],
        cwd=REPO, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stderr
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))}
    assert {"build.build_model", "model.validate"} <= names
