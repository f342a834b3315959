import re
import resource
from pathlib import Path

import pytest


@pytest.fixture
def address_space_gib():
    """Caps this process's address space at 1 GiB above its size for one
    test, so an array per tree node fails to allocate instead of taking the
    machine's memory (Linux; elsewhere the test runs uncapped)."""
    status = Path("/proc/self/status")
    if not status.exists():
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = int(re.search(r"VmSize:\s*(\d+) kB", status.read_text())[1]) * 1024
    cap = size + 2**30 if soft == resource.RLIM_INFINITY else min(soft, size + 2**30)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
