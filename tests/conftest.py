import os
import subprocess
import sys

import pytest

import chunksc


@pytest.fixture(scope="session")
def run_limited():
    """run(argv, cwd, headroom, timeout=60): `python -m chunksc.cli *argv`
    in `cwd`, with its address space (RLIMIT_AS) limited to `headroom` bytes
    above what a process that has imported chunksc.cli maps. The limit is set
    in that subprocess only (`preexec_fn`), and `timeout` bounds the run.
    Returns the CompletedProcess, its output as text. Linux only: the mapped
    size is read from /proc/self/status."""
    resource = pytest.importorskip("resource")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the mapped size from")
    src = os.path.dirname(os.path.dirname(chunksc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import chunksc.cli; print(open('/proc/self/status').read())"
    status = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True).stdout
    peak_kb = next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmPeak:"))

    def run(argv, cwd, headroom, timeout=60):
        limit = 1024 * peak_kb + headroom

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        return subprocess.run([sys.executable, "-m", "chunksc.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=timeout,
                              preexec_fn=limit_address_space)

    return run
