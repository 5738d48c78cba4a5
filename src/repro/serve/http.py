"""The one JSON-over-HTTP handler stack of the serving tier.

:class:`~repro.serve.server.CubeServer` and
:class:`~repro.serve.cluster.CubeRouter` expose the same surface shape
(a client cannot tell one box from the cluster), so they share one
stdlib ``http.server`` stack: :class:`JsonRequestHandler` joins the
caller's distributed trace, bounds the request *before any work*
(path length, ``Content-Length``), dispatches through the subclass's
route table, and maps every error to structured JSON — ``400`` for
malformed requests, ``404`` for unknown paths, ``413`` for oversized
ones, the subclass's own kinds
(:attr:`JsonRequestHandler.error_kinds`) in between — never an HTML
traceback.  The query-string parsers, the one JSON answer writer
(:func:`json_body`, straight from the answer's cell runs; a router asks
replicas for the runs themselves, :data:`CELLRUN_TYPE`) and the
``POST /append`` body decoder live here too, once.
"""

import json
import socket
import threading
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import numpy as _np

from .. import obs
from ..core.thresholds import AndThreshold, CountThreshold, SumThreshold
from ..data.relation import Relation
from ..errors import ReproError

#: Largest request body an endpoint will accept (query GETs and bounded
#: ``POST /append`` deltas; anything bigger is abuse).
MAX_REQUEST_BYTES = 1 << 20

#: Longest request path (with query string) an endpoint will parse.
MAX_PATH_BYTES = 8192

#: Longest an endpoint's accept loop waits before it sees a shutdown:
#: what closing one costs (``serve_forever``'s default is 0.5 s).
SHUTDOWN_POLL_S = 0.05

#: Content type of an answer as cell runs: one run per cuboid, framed by
#: :func:`~repro.core.columnar.encode_runs` (each run's header names its
#: cuboid).
CELLRUN_TYPE = "application/x-cellrun"


class _JsonHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    app = None  # the CubeServer / CubeRouter the handlers answer from

    def __init__(self, *args):
        super().__init__(*args)
        self.connections = set()  # accepted, not yet shut down

    def process_request(self, request, client_address):
        self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self.connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        # Kept-alive connections end with the endpoint, as with its
        # process: a reply in flight still leaves, then the handler
        # reads EOF and hangs up.
        for request in list(self.connections):
            with suppress(OSError):
                request.shutdown(socket.SHUT_RD)


class HttpEndpoint:
    """A running HTTP endpoint: address, URL and shutdown.

    Serves ``app`` through the ``handler`` class on a background
    thread; ``port`` 0 picks a free port, ``.url`` is ready at once.
    """

    def __init__(self, app, handler, host, port, thread_name):
        self._httpd = _JsonHTTPServer((host, port), handler)
        self._httpd.app = app
        self._thread = serve_in_background(self._httpd, thread_name)
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def url(self):
        return "http://%s:%d" % (self.host, self.port)

    def join(self):
        """Block until the endpoint is shut down (CLI serve mode)."""
        self._thread.join()

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()

    def __repr__(self):
        return "HttpEndpoint(%s)" % self.url


def serve_in_background(httpd, name=None):
    """Run ``httpd.serve_forever`` on a daemon thread, polling for a
    shutdown every :data:`SHUTDOWN_POLL_S`; returns the thread."""
    thread = threading.Thread(target=httpd.serve_forever,
                              args=(SHUTDOWN_POLL_S,), name=name, daemon=True)
    thread.start()
    return thread


def parse_threshold(params):
    conditions = []
    minsup = int(params.get("minsup", ["1"])[0])
    min_sum = params.get("min_sum")
    if minsup > 1 or min_sum is None:
        conditions.append(CountThreshold(max(1, minsup)))
    if min_sum is not None:
        conditions.append(SumThreshold(float(min_sum[0])))
    return conditions[0] if len(conditions) == 1 else AndThreshold(*conditions)


def parse_cuboid(params):
    raw = params.get("cuboid", [""])[0]
    return tuple(filter(None, (name.strip() for name in raw.split(","))))


def parse_cell(params):
    raw = params.get("cell", [""])[0]
    return tuple(int(v) for v in raw.split(",") if v.strip())


def parse_since(params):
    return int(params.get("since", ["0"])[0])


def _json_items(run):
    """The run's cells as the items of a JSON array, in cell order — the
    run's own — byte for byte what ``json.dumps`` writes for their
    ``{"cell", "count", "sum"}`` objects: one ``%`` template per cell
    (``%s`` of an int and ``%r`` of a float are json's own text)."""
    sums = run.sums.tolist()
    sum_format = "%r"
    if not _np.isfinite(run.sums).all():
        # json writes nan and ±inf as NaN and ±Infinity
        sums, sum_format = [json.dumps(s) for s in sums], "%s"
    template = ('{"cell": [' + ", ".join(["%s"] * len(run.dims))
                + '], "count": %s, "sum": ' + sum_format + "}")
    rows = zip(*run.codes.tolist(), run.counts.tolist(), sums)
    return ", ".join([template % row for row in rows])


def json_body(answer, **extra):
    """An answer's JSON reply body: a group-by / point answer
    (``QueryAnswer`` or ``RouterAnswer``) or a whole-cube one
    (``CubeAnswer`` or ``RouterCubeAnswer``), ``extra`` carrying the
    endpoint's own fields.  The head is ``json.dumps``; the cells, last,
    are written straight from each answer's run."""
    head = dict(extra)
    cuboids = getattr(answer, "cuboids", None)
    if cuboids is None:
        head["cuboid"] = list(answer.cuboid)
        key, items = "cells", _json_items(answer.cells.run)
    else:
        key, items = "cuboids", ", ".join([
            '{"cuboid": %s, "cells": [%s]}'
            % (json.dumps(list(cuboid)), _json_items(cells.run))
            for cuboid, cells in sorted(cuboids.items())])
    head.update(threshold=answer.threshold, generation=answer.generation,
                latency_ms=round(answer.latency_s * 1000.0, 3))
    return ('%s, "%s": [%s]}' % (json.dumps(head)[:-1], key, items)).encode()


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Shared request handling; subclasses supply routes and error kinds.

    ``get_routes`` / ``post_routes`` map a URL path to the name of a
    method taking the parsed query parameters.  ``error_kinds`` lists
    the subclass's own ``(exception type, status, kind, attribute)``
    rows — first match wins, ``attribute`` (or ``None``) names an
    exception field copied into the reply.
    """

    protocol_version = "HTTP/1.1"
    get_routes = {}
    post_routes = {}
    error_kinds = ()

    #: what both endpoints answer the same way, after the subclass's own
    _shared_error_kinds = (
        ((ReproError, ValueError), 400, "bad_request", None),
    )

    @property
    def app(self):
        return self.server.app

    def do_GET(self):  # noqa: N802 - http.server naming
        self._guarded(self.get_routes)

    def do_POST(self):  # noqa: N802 - http.server naming
        self._guarded(self.post_routes)

    def _guarded(self, routes):
        # A reply sent before the body is read closes the connection
        # (:meth:`_send`): kept open, the body's bytes would be parsed
        # as the next request.
        self._body_unread = (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers)
        try:
            # Join the caller's distributed trace for the whole request:
            # any span opened while routing (serve.query, router.append,
            # …) parents under the span named in the header.
            with obs.activate(obs.extract(self.headers.get("traceparent"))):
                if not self._bounded_request():
                    return
                split = urlsplit(self.path)
                route = routes.get(split.path)
                if route is None:
                    self._reply(404, {"error": "unknown path %r" % split.path,
                                      "kind": "not_found"})
                else:
                    getattr(self, route)(parse_qs(split.query))
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client hung up mid-reply; nothing to answer
        except Exception as exc:
            for kind_type, status, kind, attribute in (
                    self.error_kinds + self._shared_error_kinds):
                if isinstance(exc, kind_type):
                    payload = {"error": str(exc), "kind": kind}
                    if attribute is not None:
                        payload[attribute] = getattr(exc, attribute)
                    break
            else:  # pragma: no cover - last-ditch guard
                # Never a traceback on the wire: a structured 500 instead.
                status = 500
                payload = {"error": "internal error (%s)"
                           % exc.__class__.__name__, "kind": "internal"}
            self._reply(status, payload)

    def _bounded_request(self):
        """Reject oversized or malformed requests before any work."""
        if len(self.path) > MAX_PATH_BYTES:
            self._reply(400, {"error": "request path too long",
                              "kind": "bad_request"})
            return False
        length = self.headers.get("Content-Length")
        if length is not None:
            try:
                n_bytes = int(length)
            except ValueError:
                self._reply(400, {"error": "malformed Content-Length %r" % length,
                                  "kind": "bad_request"})
                return False
            if n_bytes > MAX_REQUEST_BYTES:
                self._reply(413, {"error": "request body of %d bytes exceeds "
                                  "the %d byte limit" % (n_bytes, MAX_REQUEST_BYTES),
                                  "kind": "too_large"})
                return False
        return True

    def _read_append(self, default_dims=None):
        """Decode a ``POST /append`` body into ``(relation, batch_id)``.

        A missing or malformed body raises ``ValueError`` (a ``400``).
        ``default_dims`` stands in for an absent ``dims`` field (a
        replica knows its store's).
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("POST /append needs a JSON body")
        try:
            body = self.rfile.read(length)
            self._body_unread = False
            payload = json.loads(body)
            measures = payload.get("measures")
            relation = Relation(
                tuple(payload.get("dims") or default_dims),
                [tuple(int(v) for v in row) for row in payload["rows"]],
                None if measures is None else [float(m) for m in measures])
            batch_id = payload.get("batch_id")
        except (json.JSONDecodeError, AttributeError, KeyError,
                TypeError) as exc:
            raise ValueError("malformed append body (%s)" % exc) from None
        return relation, None if batch_id is None else str(batch_id)

    # Routes both apps answer alike (each lists them in its table).
    def _get_stats(self, params):
        self._reply(200, self.app.stats())

    def _get_trace(self, params):
        self._reply(200, self.app.trace_payload(parse_since(params)))

    def _get_healthz(self, params):
        health = self.app.health()
        self._reply(200 if health["status"] == "ok" else 503, health)

    def _reply(self, status, payload):
        self._send(status, json.dumps(payload).encode(), "application/json")

    def _reply_answer(self, answer, **extra):
        self._send(200, json_body(answer, **extra), "application/json")

    def _reply_text(self, status, text):
        self._send(status, text.encode(),
                   "text/plain; version=0.0.4; charset=utf-8")

    def _send(self, status, body, content_type, headers=()):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if self._body_unread:
            self.send_header("Connection", "close")
        # Header block and body leave in ONE write.  ``end_headers()``
        # would send the headers on their own, and a second small send
        # on the unbuffered socket then waits out Nagle + the client's
        # delayed ACK (~40 ms per reply on a kept-alive connection).
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def log_message(self, format, *args):  # noqa: A002 - http.server naming
        pass  # keep the serving path quiet; telemetry covers it

    def log_request(self, code="-", size="-"):
        pass
