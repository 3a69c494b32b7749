import json
import os
import subprocess
import sys
from pathlib import Path

import gapcert

# numpy is the only dependency pyproject.toml declares.  The probe lists
# what `import gapcert` adds to the modules loaded at interpreter start-up,
# by top-level name; start-up itself may load site packages from .pth files.
_PROBE = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import gapcert, gapcert.cli
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules} - before)))
"""


def test_importing_gapcert_loads_only_the_stdlib_and_numpy():
    src = str(Path(gapcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    added = set(json.loads(out))
    assert {"gapcert", "numpy"} <= added
    assert added - set(sys.stdlib_module_names) <= {"gapcert", "numpy"}
