"""A fixed memory layout for every benchmark process.

``perfbench/run.py`` calls :func:`exec_with_fixed_layout` before its
other imports, so the process it replaces does as little as possible.
This module imports only what that call needs.
"""

from __future__ import annotations

import ctypes
import os
import sys
from typing import Sequence

#: Set for a process re-executed by :func:`exec_with_fixed_layout`, so
#: it never re-executes twice.
MARKER = "PERFBENCH_FIXED_LAYOUT"
#: ``personality(2)`` flag that turns address-space randomization off.
ADDR_NO_RANDOMIZE = 0x0040000
FIXED = "fixed: address-space randomization off, PYTHONHASHSEED=0"


def exec_with_fixed_layout(command: Sequence[str]) -> str:
    """Re-execute ``command`` in this process with a fixed memory layout.

    Address-space randomization is turned off (``personality(2)``'s
    ``ADDR_NO_RANDOMIZE``) and ``PYTHONHASHSEED`` is fixed, so every run
    lays out its memory and hashes its strings the same way.  With both
    random, two processes of the same run took up to 10% longer than one
    another per unit under the same host conditions; with both fixed they
    agreed within about 2%.  Child processes inherit both.

    Returns, without re-executing, a note on the layout in effect when
    this process already runs with the fixed layout, or when it cannot
    get it (the kernel refuses, or a re-executed process still lacks it).
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        persona = libc.personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        libc, persona = None, -1
    if persona != -1 and persona & ADDR_NO_RANDOMIZE and os.environ.get("PYTHONHASHSEED") == "0":
        return FIXED
    if os.environ.get(MARKER) == "1":
        return "random: a re-executed process still had a random layout"
    if libc is None or persona == -1 or libc.personality(persona | ADDR_NO_RANDOMIZE) == -1:
        return "random: the kernel refused to turn address-space randomization off"
    environ = dict(os.environ, PYTHONHASHSEED="0")
    environ[MARKER] = "1"
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(command[0], list(command), environ)
    raise AssertionError("unreachable: execve returned")
