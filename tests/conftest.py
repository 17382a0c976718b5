import os
import subprocess
import sys

import pytest

import addext

CHILD_AS_LIMIT = 2 << 30  # bytes of address space for a capped CLI run

_CHILD = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from addext.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.fixture
def run_cli_capped():
    """Run ``addext.cli.main(argv)`` in a child interpreter whose address
    space the child itself caps at CHILD_AS_LIMIT bytes (RLIMIT_AS), so an
    over-large allocation fails in the child alone. Returns (exit code,
    stderr)."""
    def run(argv, limit=CHILD_AS_LIMIT, timeout=120):
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(addext.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [pkg_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", _CHILD.format(limit=limit), *argv],
                              env=env, capture_output=True, text=True, timeout=timeout)
        return proc.returncode, proc.stderr
    return run
