"""Run the thzra CLI with every public function of its modules timed.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <thzra CLI arguments>

The program is not changed: each public function defined in a thzra
module is replaced, from outside, by a timing wrapper
(``setattr(mod, name, timed(fn))``).  Module globals are the module's
attribute dict, so calls inside a module go through the wrapper too.
A name imported into another module (``from .params import
validate_config`` in ``cli``) is replaced there by the same wrapper.

Each call is a span (name, start, end, parent).  Holding every span of a
run would take hundreds of MB (one per substream build), so spans are
reduced as they close: per function the call count, the inclusive time
and the self time, i.e. the span's duration minus the part covered by its
child spans.  A few counters are read at the same boundaries from the
arguments and results of the calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("params", "cli", "streams", "channel", "protocol", "analytics",
           "validation")


class Tracer:
    """Span stack plus per-function [calls, inclusive_s, self_s] totals."""

    def __init__(self):
        self.stats = {}
        self.counters = {"slots": 0, "admitted": 0,
                         "provisioned": 0, "snr_draws": 0,
                         "snr_batches": 0, "outage_draws": 0}
        self._stack = []      # child time of each open span
        self._wrapped = {}    # id(original function) -> wrapper

    def wrap(self, qual, fn, count=None):
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        stat = self.stats.setdefault(qual, [0, 0.0, 0.0])
        stack = self._stack
        sig = inspect.signature(fn) if count else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - child
                if stack:
                    stack[-1] += span
            if count:
                count(self.counters, sig.bind(*args, **kwargs).arguments,
                      result)
            return result

        self._wrapped[id(fn)] = timed
        return timed


def _count_batch(c, args, result):
    stats = result[0]
    c["slots"] += round(stats.mean_delay * stats.n_trials)
    c["admitted"] += round(stats.mean_k_admitted * stats.n_trials)
    c["provisioned"] += args["exp"].protocol.n_total * stats.n_trials


def _count_snr(c, args, result):
    c["snr_draws"] += int(args["n"])
    c["snr_batches"] += 1


def _count_outage(c, args, result):
    c["outage_draws"] += int(args["n"]) * len(result.gamma_bar_db)


COUNTERS = {"protocol.run_batch": _count_batch,
            "channel.draw_snr_batch": _count_snr,
            "validation.outage_mc": _count_outage}


def instrument(tracer):
    mods = {name: importlib.import_module(f"thzra.{name}") for name in MODULES}
    by_module = {f"thzra.{name}": name for name in MODULES}
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = by_module.get(obj.__module__)
            if home is None:
                continue
            qual = f"{home}.{obj.__name__}"
            setattr(mod, attr, tracer.wrap(qual, obj, COUNTERS.get(qual)))
    return mods["cli"]


def main(argv):
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <cli arguments>")
    tracer = Tracer()
    cli = instrument(tracer)
    code = cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"exit": code,
                   "functions": tracer.stats, "counters": tracer.counters},
                  fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
