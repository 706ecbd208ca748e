"""Out-of-tree tracer for the tdxmodel layers.

Wraps public functions from outside the program, so no file under ``src/``
changes.  Every wrapped call updates a per-name ``[calls, self_s]`` record,
where self time is the call's duration minus the time of the wrapped calls
nested inside it.  Calls listed with ``span=True`` also keep a span record
``(op_id, span_id, parent_id, name, start, end)`` in memory for the first
``SPAN_OPS`` ops (op -1 is outside any op); per-element hot calls only count.

A function imported elsewhere with ``from ... import`` is a separate module
binding, so installing rebinds every ``tdxmodel`` module-level name that refers
to a wrapped function; a missed binding would make its counts read low
without any error.  ``uninstall`` restores every binding it changed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from tdxmodel import cli, envelope, md_codec, scenarios, states
from tdxmodel import status as S
from tdxmodel.catalog import FieldCatalog
from tdxmodel.engine import TdxModule
from tdxmodel.envelope import MigStreamContext
from tdxmodel.md_codec import ParseArena
from tdxmodel.states import PermissionMatrix
from tdxmodel.td import TdExportSource, TdImportSink

perf_counter = time.perf_counter

# Spans are kept for the first ops of a traced phase; counts cover all of it.
SPAN_OPS = 2


def _status(result) -> int:
    return result[0] if isinstance(result, tuple) else result


class Tracer:
    # A leaf refused by the permission-matrix gate returns this status.
    denied_status = S.TDX_OP_STATE_INCORRECT

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.leaf_status: Counter = Counter()
        self.load_samples: dict[str, list[float]] = {"catalog.load": [], "states.load": []}
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[list] = []
        self._next_span = 0
        self._patches: list[tuple] = []
        self._op = self._wrap(lambda fn, *args: fn(*args), "op", True, None)

    # -- the wrapped set ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, metric name, keeps spans, hook after each call)."""
        targets = [
            (md_codec, "write_list", "md_codec.write_list", True, self._after_write_list),
            (md_codec, "dump_lists", "md_codec.dump_lists", True, None),
            (md_codec, "decode_field_id", "md_codec.decode_field_id", False, None),
            (ParseArena, "__init__", "md_codec.arena_init", True, None),
            (ParseArena, "read", "md_codec.arena_read", False, self._after_arena_read),
            (FieldCatalog, "find_entry", "catalog.find_entry", False, None),
            (FieldCatalog, "next_entry_after", "catalog.next_entry_after", False, None),
            (FieldCatalog, "load", "catalog.load", True, None),
            (PermissionMatrix, "is_allowed", "states.is_allowed", False, None),
            (states, "transition", "states.transition", False, None),
            (states, "validate_trace", "states.validate_trace", True, None),
            (PermissionMatrix, "load", "states.load", True, None),
            (envelope, "encrypt_bundle", "envelope.encrypt_bundle", True, self._after_encrypt),
            (envelope, "decrypt_bundle", "envelope.decrypt_bundle", True, self._after_decrypt),
            (MigStreamContext, "next_iv", "envelope.next_iv", False, None),
            (TdImportSink, "write_field", "td.write_field", False, self._after_td_write),
            (TdExportSource, "read_field", "td.read_field", False, None),
            (TdxModule, "build_td", "engine.build_td", True, None),
            (scenarios, "run_scenario", "scenarios.run_scenario", True, None),
            (cli, "main", "cli.main", True, None),
        ]
        for attr in sorted(vars(TdxModule)):
            if attr.startswith(("tdh_", "tdg_")):
                targets.append((TdxModule, attr, f"engine.{attr}", True, self._after_leaf))
        return targets

    def _after_write_list(self, args, kwargs, result):
        if result.status != S.TDX_SUCCESS:
            self.counters["md_codec.lists_rejected"] += 1

    def _after_td_write(self, args, kwargs, result):
        if result != S.TDX_SUCCESS:
            self.counters["td.write_rejected"] += 1

    def _after_arena_read(self, args, kwargs, result):
        if args[1] >= md_codec.LIST_BYTES:
            self.counters["md_codec.oob_reads"] += 1
            self.counters["md_codec.oob_bytes"] += args[2]

    def _after_encrypt(self, args, kwargs, result):
        ctx, lists = args[0], args[2] if len(args) > 2 else kwargs["lists"]
        self.counters["envelope.encrypt_bytes"] += sum(len(item) for item in lists)
        longest = max(self.counters["envelope.iv_history_len"], len(ctx.iv_history))
        self.counters["envelope.iv_history_len"] = longest

    def _after_decrypt(self, args, kwargs, result):
        ciphertext = args[2] if len(args) > 2 else kwargs["ciphertext"]
        self.counters["envelope.decrypt_bytes"] += len(ciphertext)
        if result[0] == S.TDX_INCORRECT_MBMD_MAC:
            self.counters["envelope.mac_fail"] += 1

    def _after_leaf(self, args, kwargs, result):
        self.leaf_status[_status(result)] += 1

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "tdxmodel" or name.startswith("tdxmodel.")]
        for owner, attr, name, span, after in self._targets():
            found = vars(owner)[attr]
            if isinstance(found, classmethod):
                replacement = classmethod(self._wrap(found.__func__, name, span, after))
            else:
                replacement = self._wrap(found, name, span, after)
            self._patches.append((owner, attr, found))
            setattr(owner, attr, replacement)
            if isinstance(owner, type):
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is found and module is not owner:
                        self._patches.append((module, binding, found))
                        setattr(module, binding, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- recording ----------------------------------------------------------------

    def _wrap(self, fn, name, span, after):
        record = self.stats.setdefault(name, [0, 0.0])
        samples = self.load_samples.get(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            if span:
                tracer._next_span += 1
                frame[1] = tracer._next_span
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                record[0] += 1
                record[1] += duration - frame[0]
                if samples is not None:
                    samples.append(duration)
                if span and tracer.op_id < SPAN_OPS:
                    tracer._keep_span(frame[1], name, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _keep_span(self, span_id, name, start, end):
        parent = next((frame[1] for frame in reversed(self._stack) if frame[1]), 0)
        self.spans.append((self.op_id, span_id, parent, name, start, end))

    def op(self, op_id: int, fn, *args):
        """Run one op under an ``op`` span, so its unattributed time is its self time."""
        self.op_id = op_id
        return self._op(fn, *args)

    def snapshot(self) -> dict:
        """Every deterministic count so far: calls per name plus the counters."""
        counts = {name: record[0] for name, record in sorted(self.stats.items())}
        counts.update(sorted(self.counters.items()))
        counts.update({f"leaf_status.{code:#x}": n for code, n in sorted(self.leaf_status.items())})
        return counts

    # -- per-layer metrics ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def leaf_names(self) -> list[str]:
        return [name for name in self.stats if name.startswith(("engine.tdh_", "engine.tdg_"))]
