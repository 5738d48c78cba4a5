"""``python -m repro serve`` subprocesses: spawn, scrape, kill, reap.

Every process started here is registered with the owning
:class:`ServerGroup`, whose ``kill_all()`` (run from the pipeline's
``finally``) kills and waits for whatever is still alive — so no exit
path, including Ctrl-C and an assertion failure, leaves a server behind.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time

from repro.errors import ReproError
from repro.serve import ReplicaClient

SRC_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

_LISTENING = re.compile(r"listening on (http://\S+)")

#: Longest a server may take from exec to its "listening on" line.
SPAWN_TIMEOUT_S = 60.0


class Server:
    """One live ``repro serve`` process and a client for it."""

    def __init__(self, label, proc):
        self.label = label
        self.proc = proc
        self.url = self.client = None  # set once it has printed its URL

    def alive(self):
        return self.proc.poll() is None


class ServerGroup:
    """The server subprocesses of one run."""

    def __init__(self, log_dir, traced):
        self.log_dir = log_dir
        self.traced = traced
        self.servers = []
        self._spawned = 0

    def spawn_all(self, specs):
        """Start one server per ``(label, store_dir, extra_args)`` and wait
        until each prints its URL.  Processes start concurrently (the
        replicas of a cluster boot together); returns them in order."""
        started = []
        for label, store_dir, extra_args in specs:
            self._spawned += 1
            command = [sys.executable, "-u", "-m", "repro", "serve",
                       "--store", store_dir, "--port", "0", "--wal",
                       "--verify", "full"] + list(extra_args)
            if self.traced:
                # The flag only switches obs on in the server; spans are
                # scraped from GET /trace (a SIGKILLed server never
                # writes the file).
                command += ["--trace-out", os.path.join(
                    self.log_dir, "trace-%d.json" % self._spawned)]
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC_DIR + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
            log_path = os.path.join(
                self.log_dir, "server-%d.log" % self._spawned)
            with open(log_path, "ab") as log:
                proc = subprocess.Popen(command, stdout=log,
                                        stderr=subprocess.STDOUT, env=env)
            server = Server(label, proc)
            self.servers.append(server)
            started.append((server, log_path))
        for server, log_path in started:
            server.url = _wait_for_url(server.proc, log_path)
            server.client = ReplicaClient(server.url, timeout_s=30.0)
        return [server for server, _log_path in started]

    def kill_all(self):
        """SIGKILL every live server and wait for it.

        The only way servers are stopped: every acknowledged append is
        already fsync'd, so a server has nothing to flush, and a crash
        is what the recover stage is there to time."""
        servers, self.servers = self.servers, []
        for server in servers:
            if server.alive():
                server.proc.send_signal(signal.SIGKILL)
        for server in servers:
            server.proc.wait()


def _read(path):
    with open(path, errors="replace") as handle:
        return handle.read()


def _wait_for_url(proc, log_path):
    deadline = time.monotonic() + SPAWN_TIMEOUT_S
    while time.monotonic() < deadline:
        match = _LISTENING.search(_read(log_path))
        if match:
            return match.group(1)
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    raise RuntimeError("server did not start (exit %r): %s"
                       % (proc.poll(), _read(log_path)[-2000:]))


def scrape(servers, path):
    """``GET path`` from every server concurrently; ``{label: body}``.
    A server that cannot answer is simply missing from the result."""
    out = {}

    def fetch(server):
        try:
            out[server.label] = server.client.get_json(path)
        except ReproError:
            pass

    threads = [threading.Thread(target=fetch, args=(s,)) for s in servers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out
