"""Driving the real binaries: one-shot CLI runs and the --serve daemon.

Every process runs with OCAMLRUNPARAM=v=0x400, so the OCaml runtime
prints its allocation statistics on stderr at exit; `alloc_words` and
`peak_heap_mb` are read from there.  A run whose statistics are
missing is a failed run, never a zero.
"""

import json
import os
import subprocess
import sys
import time

TIMEOUT_S = 150

# With two or more CPUs the harness keeps the first and every process
# under test runs on the last, so client and server do not compete.
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_harness():
    if len(_CPUS) >= 2:
        os.sched_setaffinity(0, {_CPUS[0]})


def _pin_child():
    if len(_CPUS) >= 2:
        os.sched_setaffinity(0, {_CPUS[-1]})


class idle_spinner:
    """While active, a busy loop at SCHED_IDLE priority on the CPU of the
    processes under test.  It runs only when that CPU would otherwise
    idle, and a waking daemon preempts it at once, so the virtual CPU
    never halts between requests: a request's latency then excludes the
    hypervisor's time to wake a halted CPU, the largest source of
    run-to-run spread in the stream latencies."""

    def __enter__(self):
        self.proc = None
        if len(_CPUS) >= 2 and hasattr(os, "SCHED_IDLE"):
            code = ("import os\n"
                    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
                    "while True: pass\n")
            self.proc = subprocess.Popen([sys.executable, "-c", code],
                                         preexec_fn=_pin_child)
        return self

    def __exit__(self, *exc):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
        return False


class RunFailed(Exception):
    pass


def exit_stats(stderr_text):
    """`(allocated_words, top_heap_words)` from the runtime's exit
    report, or None when it is missing."""
    found = {}
    for line in stderr_text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("allocated_words", "top_heap_words"):
            try:
                found[key] = int(value)
            except ValueError:
                return None
    if len(found) != 2:
        return None
    return found["allocated_words"], found["top_heap_words"]


def env_with_stats():
    env = dict(os.environ)
    env["OCAMLRUNPARAM"] = "v=0x400"
    return env


def run_cli(args, cwd):
    """Spawn the CLI, read stdout to EOF, wait for exit.  Returns
    `(seconds, returncode, stdout_bytes, stats)`; `stats` is None when
    the exit report is missing."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, cwd=cwd, env=env_with_stats(),
                            preexec_fn=_pin_child,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"timed out after {TIMEOUT_S} s: {' '.join(args)}")
    seconds = time.perf_counter() - t0
    return seconds, proc.returncode, out, exit_stats(err.decode("utf-8", "replace"))


class Daemon:
    """A `shex_validate --serve` process under one closed-loop client:
    each request is written only after the previous response line has
    been read.  The client polls the response pipe instead of sleeping
    on it, so the time to wake the client is not part of a request's
    latency."""

    def __init__(self, binary, cwd, stderr_path):
        self.stderr_path = stderr_path
        self._err = open(stderr_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([binary, "--serve"], cwd=cwd,
                                     env=env_with_stats(),
                                     preexec_fn=_pin_child,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._err)
        self._out = self.proc.stdout.fileno()
        os.set_blocking(self._out, False)
        self._buf = bytearray()

    def _readline(self):
        """The next response line, or b"" at end of file."""
        deadline = None
        while True:
            i = self._buf.find(b"\n")
            if i >= 0:
                line = bytes(self._buf[:i + 1])
                del self._buf[:i + 1]
                return line
            try:
                chunk = os.read(self._out, 1 << 16)
            except BlockingIOError:
                now = time.perf_counter()
                if deadline is None:
                    deadline = now + TIMEOUT_S
                elif now > deadline:
                    raise RunFailed(f"no response within {TIMEOUT_S} s")
                continue
            if not chunk:
                return b""
            self._buf += chunk

    def request(self, obj):
        """Send one command; returns `(seconds, response)` where the
        response is the decoded JSON object, or the raw text of an
        `error:` line.  Raises RunFailed when the daemon is gone."""
        line = (json.dumps(obj, separators=(",", ":")) + "\n").encode()
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
            resp = self._readline()
        except (BrokenPipeError, OSError) as e:
            raise RunFailed(f"daemon pipe closed: {e}")
        seconds = time.perf_counter() - t0
        if not resp:
            raise RunFailed("daemon exited mid-stream")
        text = resp.decode("utf-8", "replace").rstrip("\n")
        if text.startswith("error:"):
            return seconds, text
        try:
            return seconds, json.loads(text)
        except ValueError:
            raise RunFailed(f"unparseable response: {text[:200]!r}")

    def shutdown(self):
        """Ask the daemon to exit and wait for it.  Returns
        `(returncode, stats)`."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(b'{"cmd":"shutdown"}\n')
                self.proc.stdin.flush()
                self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._err.close()
        with open(self.stderr_path, encoding="utf-8", errors="replace") as f:
            return self.proc.returncode, exit_stats(f.read())

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout, self._err):
            try:
                f.close()
            except OSError:
                pass
