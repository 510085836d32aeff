"""Child processes of a benchmark run: environment, timing and reaping.

Every unit runs in a session of its own.  The benchmark is the child
subreaper of everything it starts, so a worker shard or resource tracker
that outlives its parent is re-parented to the benchmark; after each unit
the benchmark kills whatever is left in that session and reaps every
child before the next unit starts.  Nothing from one unit competes with
the next for the host's cores.
"""
from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

_PR_SET_CHILD_SUBREAPER = 36

#: numeric libraries start no thread pools in a child
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def child_env(root, work, pythonpath=()) -> dict:
    """Environment of every child: the checkout's sources on the path,
    one BLAS thread, and temp and cache dirs inside the work dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [*map(str, pythonpath), os.path.join(root, "src")]
    )
    for name in _ONE_THREAD:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["REPRO_CACHE_DIR"] = os.path.join(work, "default-cache")
    env.pop("REPOBENCH_TRACE_DIR", None)
    return env


@dataclass
class Unit:
    """What one child process tree cost and how it ended."""

    returncode: int
    wall_s: float
    #: user + system CPU seconds of every process of the tree
    cpu_s: float
    peak_rss_mb: float
    start: float
    end: float


def _session_members(sid: int):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields after the command: state ppid pgrp session ...
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _kill_members(sid: int, killed: set) -> None:
    for pid in _session_members(sid):
        try:
            os.kill(pid, signal.SIGKILL)
            killed.add(pid)
        except ProcessLookupError:
            pass


def reap_session(sid: int) -> tuple:
    """Kill what is left of session ``sid`` and reap every child, until
    the benchmark has none left, so that no zombie of this session is
    reaped (and counted) with a later one.  Returns (processes killed,
    largest RSS among the reaped, in KiB, their CPU seconds)."""
    killed = set()
    _kill_members(sid, killed)
    peak = 0
    cpu = 0.0
    deadline = time.monotonic() + 30.0
    while True:
        try:
            pid, _, usage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed), peak, cpu
        if pid:
            peak = max(peak, usage.ru_maxrss)
            cpu += _cpu(usage)
            continue
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes of session {sid} survive SIGKILL")
        _kill_members(sid, killed)  # in case one forked meanwhile
        time.sleep(0.01)


def _kill_session(sid: int) -> None:
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_unit(argv, env, cwd, log_path, timeout_s) -> Unit:
    """Run one unit to completion in its own session, time it from spawn
    to exit, and reap its whole process tree.  A unit still running after
    ``timeout_s`` is killed (its rows are then missing)."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        watchdog = threading.Timer(timeout_s, _kill_session, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    killed, orphan_rss, orphan_cpu = reap_session(proc.pid)
    if killed:
        print(f"[repobench] killed {killed} leftover process(es) of "
              f"{' '.join(argv[:4])}", file=sys.stderr)
    return Unit(
        returncode=proc.returncode,
        wall_s=end - start,
        cpu_s=_cpu(usage) + orphan_cpu,
        peak_rss_mb=max(usage.ru_maxrss, orphan_rss) / 1024.0,
        start=start,
        end=end,
    )


def time_until_ready(argv, env, cwd) -> float:
    """Seconds from spawning ``argv`` until it prints ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            start_new_session=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    proc.wait()
    reap_session(proc.pid)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {' '.join(argv)}")
    return elapsed


def _first_event(events_path, kind):
    """Timestamp of the first ``kind`` event in a campaign's events.jsonl,
    or None."""
    try:
        with open(events_path) as handle:
            for line in handle:
                try:
                    event = json.loads(line)
                except ValueError:  # a line still being written
                    return None
                if event.get("event") == kind:
                    return event["ts"]
    except FileNotFoundError:
        pass
    return None


def time_until_first_lease(argv, env, cwd, events_path,
                           timeout_s=60.0) -> float:
    """Seconds from spawning a sweep invocation until its worker shard
    leases the first job, by the ``leased`` event's own timestamp (the
    job queue stamps events with ``time.time()``).  The invocation is
    then killed and its processes reaped."""
    start = time.time()
    proc = subprocess.Popen(argv, cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    leased = None
    deadline = time.monotonic() + timeout_s
    try:
        while leased is None and proc.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.005)
            leased = _first_event(events_path, "leased")
    finally:
        _kill_session(proc.pid)
        proc.wait()
        reap_session(proc.pid)
    if leased is None:
        leased = _first_event(events_path, "leased")
    if leased is None:
        raise RuntimeError(f"set-up probe leased no job: {' '.join(argv)}")
    return leased - start
