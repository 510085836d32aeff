"""Host-speed calibration: a fixed workload that uses no ``repro`` code.

The shared 2-vCPU hosts this benchmark runs on change speed in phases
of minutes, by 20-40% on the same code, and every part of a unit moves
with them: interpreter start, imports and the simulator's loops alike
(a unit's CPU seconds equal its wall seconds).  A run times this script
between its units, in a fresh interpreter like the units', and scales
its time metrics by the median of those timings (see run.py), so two
runs in different host phases report the same program speed.

It starts an interpreter, imports what the program's start-up imports
from outside the repository, then runs a loop of slotted-object,
tuple and dict work like the simulator's, and prints ``ready``.  It
must never change: its timing is the unit the time metrics are in.

    python repobench/calibrate.py
"""
import argparse  # noqa: F401 — start-up imports, like the program's
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import hashlib  # noqa: F401
import json  # noqa: F401
import sqlite3  # noqa: F401

import numpy  # noqa: F401


class Op:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, i):
        self.a = i
        self.b = (i, i + 1)
        self.c = None
        self.d = i & 7


def work(steps, live=100_000):
    ops = [Op(i) for i in range(live)]
    table = {}
    acc = 0
    for i in range(steps):
        op = ops[(i * 7919) % live]
        op.c = table.get(op.d)
        table[i & 4095] = op.a + op.b[1]
        acc += op.d
        if i % 5 == 0:
            ops[(i * 104729) % live] = Op(i)
    return acc


if __name__ == "__main__":
    work(300_000)
    print("ready", flush=True)
