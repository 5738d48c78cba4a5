"""Span collection and the self-time analyser.

A traced run yields one :meth:`repro.obs.trace.Tracer.payload` per
process (the driver, every server incarnation).  :class:`TraceSet`
merges them onto one clock, links spans by id across processes, and
answers the questions the per-layer metrics ask:

* **self time** of a span = its duration minus the part of that
  interval its child spans cover (children may live in other threads or
  processes; overlapping children are counted once);
* **layer split** of a pipeline stage = self time of every span below
  the stage's ``bench.stage`` span, grouped by layer, with the stage
  span's own self time reported as ``unattributed``.

The pool supervisor records ``<name>.batch`` spans from dispatch to
completion on one synthetic ``pool`` thread, so sibling batches overlap
almost entirely; they are coalesced into the pool's busy window before
self times are taken (otherwise the pool would be counted once per
batch), and :func:`pool_busy` reconstructs per-worker busy time from
their completion times.
"""

import json

from repro.obs import merge_chrome_traces

#: Thread ids whose spans are synthetic and may overlap each other.
SYNTHETIC_TIDS = frozenset({"pool"})

#: Layer of a library span, by name prefix (first match wins).
LAYER_PREFIXES = (
    ("local.", "parallel.local"),
    ("local_leaves.", "parallel.local"),
    ("buc.", "core.buc"),
    ("mr.", "mr"),
    ("mr_map.", "mr"),
    ("mr_reduce.", "mr"),
    ("store.", "serve.store"),
    ("ingest.", "serve.ingest"),
    ("serve.", "serve.server"),
    ("router.", "serve.cluster"),
)

UNATTRIBUTED = "unattributed"
#: Layer of a ``bench.call`` span around work run with the tracer off
#: (the dark half of the overhead A/B); left out of layer splits.
UNTRACED = "untraced"


def layer_of(span):
    """The layer a span's self time is charged to.

    ``bench.call`` spans (recorded by the benchmark around each public
    call) name the called layer in their ``layer`` attribute; the stage
    spans themselves are driver glue."""
    name = span["name"]
    if name == "bench.call":
        return span["attrs"].get("layer", UNATTRIBUTED)
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return UNATTRIBUTED


def union_length(intervals):
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class TraceDropped(RuntimeError):
    """A tracer evicted spans, so the layer split would be wrong."""


class TraceSet:
    """Spans of every process of one run, on one clock."""

    def __init__(self, processes):
        """``processes`` is ``[(label, payload), ...]``; payloads with
        ``enabled`` false contribute nothing."""
        self.processes = [(label, payload) for label, payload in processes]
        self.dropped = sum(int(p.get("dropped") or 0)
                           for _label, p in processes if p.get("enabled"))
        spans = []
        for label, payload in processes:
            if not payload.get("enabled"):
                continue
            epoch = payload.get("epoch_unix") or 0.0
            for raw in payload.get("spans") or ():
                if raw.get("duration") is None or raw.get("clock") == "sim":
                    continue  # instant events and simulated time
                start = epoch + raw["start"]
                spans.append({
                    "name": raw["name"], "process": label,
                    "tid": raw.get("tid"), "span_id": raw["span_id"],
                    "parent_id": raw.get("parent_id"),
                    "trace_id": raw.get("trace_id"),
                    "start": start, "end": start + raw["duration"],
                    "attrs": raw.get("attrs") or {},
                })
        self.spans = _coalesce_synthetic(spans)
        self.by_id = {span["span_id"]: span for span in self.spans}
        self.children = {}
        for span in self.spans:
            self.children.setdefault(span["parent_id"], []).append(span)
        for span in self.spans:
            span["self"] = self._self_time(span)

    def require_complete(self):
        if self.dropped:
            raise TraceDropped(
                "%d span(s) were evicted from a tracer ring buffer; the "
                "per-layer split is void (raise max_spans)" % self.dropped)

    def _self_time(self, span):
        covered = union_length(
            (max(child["start"], span["start"]), min(child["end"], span["end"]))
            for child in self.children.get(span["span_id"], ())
            if child["end"] > span["start"] and child["start"] < span["end"])
        return max(0.0, (span["end"] - span["start"]) - covered)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def descendants(self, root):
        out = []
        frontier = [root]
        while frontier:
            span = frontier.pop()
            for child in self.children.get(span["span_id"], ()):
                out.append(child)
                frontier.append(child)
        return out

    def stage_roots(self, stage):
        """The ``bench.stage`` spans of one pipeline stage (one per
        sample of the stage)."""
        return [span for span in self.spans
                if span["name"] == "bench.stage"
                and span["attrs"].get("stage") == stage]

    def below_stage(self, stage, name=None):
        """Every span below any sample of ``stage``, optionally only
        those called ``name``."""
        return [span for root in self.stage_roots(stage)
                for span in self.descendants(root)
                if name is None or span["name"] == name]

    def layer_split(self, stage):
        """``{layer: self seconds}`` below one stage (all its samples),
        with the stage spans' own self time as ``unattributed``; ``{}``
        if the stage was not traced."""
        roots = self.stage_roots(stage)
        if not roots:
            return {}
        split = {UNATTRIBUTED: sum(root["self"] for root in roots)}
        for span in self.below_stage(stage):
            layer = layer_of(span)
            if layer != UNTRACED:
                split[layer] = split.get(layer, 0.0) + span["self"]
        return split

    def export_chrome(self, path):
        """One Perfetto-loadable file with a process track per node."""
        with open(path, "w") as handle:
            json.dump(merge_chrome_traces(self.processes), handle)
            handle.write("\n")


def _coalesce_synthetic(spans):
    """Merge overlapping same-name siblings on synthetic threads."""
    out = []
    groups = {}
    for span in spans:
        if span["tid"] in SYNTHETIC_TIDS:
            key = (span["process"], span["parent_id"], span["name"])
            groups.setdefault(key, []).append(span)
        else:
            out.append(span)
    for members in groups.values():
        members.sort(key=lambda s: (s["start"], s["end"]))
        current = None
        for span in members:
            if current is not None and span["start"] <= current["end"]:
                current["end"] = max(current["end"], span["end"])
                current["members"].append(span)
            else:
                current = dict(span, members=[span])
                out.append(current)
    return out


def pool_busy(batch_spans, workers):
    """Reconstructed per-worker busy seconds of one pool round.

    ``batch_spans`` are the raw ``<name>.batch`` members of one
    coalesced pool window: they share a start (dispatch) and end at
    their completion.  The executor hands batches to free workers in
    submission order (ascending ``batch`` attribute), so replaying
    completions against ``workers`` free slots recovers when each batch
    must have started.  Returns ``(busy_seconds, window_seconds)``.
    """
    if not batch_spans:
        return 0.0, 0.0
    origin = min(span["start"] for span in batch_spans)
    free = [origin] * max(1, workers)
    busy = 0.0
    for span in sorted(batch_spans,
                       key=lambda s: s["attrs"].get("batch", 0)):
        slot = min(range(len(free)), key=free.__getitem__)
        started = min(free[slot], span["end"])
        busy += span["end"] - started
        free[slot] = span["end"]
    window = max(span["end"] for span in batch_spans) - origin
    return busy, window
