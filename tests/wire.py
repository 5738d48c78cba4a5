"""The cluster in one process: S x R replicas a router reaches with no
socket.

Each replica is a real :class:`~repro.serve.CubeServer` over its own
copy of its shard's built store.  :meth:`Wire.attach` points a router's
clients at them: ``ReplicaClient._connect`` returns a
:class:`_Connection`, whose ``request`` writes the raw request bytes
into the replica's real request handler through a socket double and
whose ``getresponse`` parses the handler's bytes back with
``http.client``.  Route tables, error mapping, idempotence keys,
keep-alive and the one re-send on a reused connection all run as they
do over TCP; there are no ports and no threads of the harness's own.

Faults come from outside, keyed by (replica, request ordinal):
``refuse`` (the handler never sees the request), ``drop`` (the handler
ran and the reply is lost: a timeout) and ``cut`` (the reply stops one
byte short: ``IncompleteRead``); a callable in their place runs just
before the handler sees the request (something landing mid-call).
:meth:`Wire.isolate` refuses every request until :meth:`Wire.heal`;
:meth:`Wire.kill` closes the store without compacting, reopens the
directory (WAL replay) under a fresh server (no retained snapshot) and
hangs up its kept-alive connections.
``ordinals`` counts the requests each replica was sent (a request on a
connection a restart hung up is not one: it never left), and ``log`` is
the delivery log: the batch ids each replica's handler applied, in
order.
"""

import io
import json
import os
import shutil
import socket
import threading
from functools import partial
from http.client import HTTPResponse
from types import SimpleNamespace

from repro.serve import CubeRouter, CubeServer, CubeStore
from repro.serve.server import _CubeRequestHandler

FAULTS = ("refuse", "drop", "cut")


def build_shards(relation, root, n_shards):
    """One built store per shard under ``root``; returns their paths."""
    paths = []
    for shard in range(n_shards):
        path = os.path.join(root, "build-%d" % shard)
        CubeStore.build(relation, path, backend="local",
                        shard=(shard, n_shards)).close()
        paths.append(path)
    return paths


class _Socket:
    """Bytes in (``makefile``) and bytes out (``sendall``)."""

    def __init__(self, data):
        self.data, self.sent = data, bytearray()

    def makefile(self, *args, **kwargs):
        return io.BytesIO(self.data)

    def sendall(self, data):
        self.sent += data


class _Connection:
    """One kept-alive connection to one replica, as ``HTTPConnection``
    looks to :class:`~repro.serve.cluster.ReplicaClient`."""

    def __init__(self, wire, key):
        self.wire, self.key = wire, key
        self.epoch = wire.epochs[key]

    def request(self, method, path, body=None, headers=None):
        if self.epoch != self.wire.epochs[self.key]:
            # The restart hung this connection up: the replica never
            # sees the request, so it takes no ordinal.
            raise ConnectionResetError("the replica restarted")
        fault = self.wire._next_fault(self.key)
        if callable(fault):
            fault = fault()
        if fault == "refuse" or self.key in self.wire.isolated:
            raise ConnectionRefusedError("%r is unreachable" % (self.key,))
        head = ["%s %s HTTP/1.1" % (method, path)] + [
            "%s: %s" % item for item in (headers or {}).items()]
        if body is not None:
            head.append("Content-Length: %d" % len(body))
        head = ("\r\n".join(head) + "\r\n\r\n").encode()
        sock = _Socket(head + (body or b""))
        server = SimpleNamespace(app=self.wire.servers[self.key])
        _CubeRequestHandler(sock, ("wire", 0), server)
        if path == "/append":
            self.wire._logged(self.key, bytes(sock.sent))
        self._reply = method, bytes(sock.sent), fault

    def getresponse(self):
        method, sent, fault = self._reply
        if fault == "drop":
            raise socket.timeout("timed out")
        response = HTTPResponse(_Socket(sent[:-1] if fault == "cut" else sent),
                                method=method)
        response.begin()
        return response

    def close(self):
        pass


class Wire:
    """``len(builds)`` shards x ``replicas`` replicas in this process."""

    def __init__(self, builds, root, replicas=2, compact_after=None):
        self.compact_after = compact_after
        self.urls, self.directories, self.servers = [], {}, {}
        self.epochs, self.isolated, self.faults = {}, set(), {}
        self.ordinals, self.log, self._lock = {}, {}, threading.Lock()
        self.routers = []
        for shard, build in enumerate(builds):
            self.urls.append([])
            for replica in range(replicas):
                key = (shard, replica)
                self.directories[key] = os.path.join(
                    root, "shard-%d-r%d" % key)
                shutil.copytree(build, self.directories[key])
                self.urls[-1].append("http://shard%d-replica%d" % key)
                self.epochs[key], self.ordinals[key], self.log[key] = 0, 0, []
                self._serve(key)
        self.keys = sorted(self.servers)

    def _serve(self, key):
        self.servers[key] = CubeServer(CubeStore.open(
            self.directories[key], compact_after=self.compact_after))

    def attach(self, router):
        """Wire ``router``'s clients to the replicas (:meth:`close`
        closes it); returns it."""
        where = {url: (shard, replica)
                 for shard, urls in enumerate(self.urls)
                 for replica, url in enumerate(urls)}
        for replicas in router.shards:
            for client in replicas:
                client._connect = partial(_Connection, self, where[client.url])
        self.routers.append(router)
        return router

    def router(self, health_interval_s=0.0, **kwargs):
        router = self.attach(CubeRouter(self.urls, **kwargs))
        if health_interval_s:
            # Started only once the clients are wired: the loop's first
            # sweep would otherwise dial the replicas' made-up hosts.
            router.health_interval_s = float(health_interval_s)
            router._health_thread = threading.Thread(
                target=router._health_loop, daemon=True)
            router._health_thread.start()
        return router

    def fail(self, key, fault, ordinal=None):
        """``fault`` on the replica's ``ordinal``-th request (default:
        its next one)."""
        with self._lock:
            ordinal = self.ordinals[key] + 1 if ordinal is None else ordinal
            self.faults[(key, ordinal)] = fault

    def _next_fault(self, key):
        with self._lock:
            self.ordinals[key] += 1
            return self.faults.pop((key, self.ordinals[key]), None)

    def _logged(self, key, reply):
        head, _, body = reply.partition(b"\r\n\r\n")
        if head.startswith(b"HTTP/1.1 200"):
            ack = json.loads(body)
            if ack["applied"]:
                with self._lock:
                    self.log[key].append(ack["batch_id"])

    def isolate(self, key):
        self.isolated.add(key)

    def heal(self, key=None):
        """Heal one replica, or (``None``) every replica and fault."""
        if key is None:
            self.isolated.clear()
            self.faults.clear()
        else:
            self.isolated.discard(key)

    def kill(self, key):
        """Restart the replica from its directory, as after a crash."""
        server = self.servers[key]
        server.close()
        server.store.close()
        self.epochs[key] += 1
        self._serve(key)

    def close(self):
        for router in self.routers:
            router.close()
        for server in self.servers.values():
            server.close()
            server.store.close()
