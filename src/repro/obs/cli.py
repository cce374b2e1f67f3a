"""``hirep-obs`` — inspect telemetry bundles from the command line.

Usage::

    hirep-obs summarize BUNDLE            # counts + span latency percentiles
    hirep-obs timeline  BUNDLE            # rendered event/span timeline tail
    hirep-obs timeline  BUNDLE -c net.send -c fault.drop --limit 100
    hirep-obs diff      BUNDLE_A BUNDLE_B # metric/count deltas between runs

``BUNDLE`` is a bundle directory — either one written directly with
:func:`repro.obs.bundle.write_bundle` or a content-addressed directory an
orchestrator run produced under ``--telemetry DIR`` (the path is recorded
in the run manifest's ``finished`` events and printed by
``hirep-experiments``).

Everything prints deterministically: categories, names, and metric keys
come out sorted, and percentiles (p50/p95/p99) are
:func:`repro.sim.stats.summarize`'s — the same linear-interpolation rule
``hirep-serve``'s SLO report uses — so CI can golden-file this output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from repro.obs.bundle import Bundle, load_bundle
from repro.sim.stats import summarize

__all__ = ["main"]


def _load(path: str) -> Bundle:
    directory = Path(path)
    if not (directory / "events.jsonl").is_file():
        raise SystemExit(f"not a telemetry bundle (no events.jsonl): {path}")
    return load_bundle(directory)


def _span_durations(bundle: Bundle) -> dict[str, list[float]]:
    """Span name -> durations (finished spans only), names sorted."""
    durations: dict[str, list[float]] = {}
    for span in bundle.spans:
        if span.get("end_ms") is None:
            continue
        durations.setdefault(span["name"], []).append(
            span["end_ms"] - span["start_ms"]
        )
    return dict(sorted(durations.items()))


def _event_counts(bundle: Bundle) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in bundle.events:
        category = event.get("category", "?")
        counts[category] = counts.get(category, 0) + 1
    return dict(sorted(counts.items()))


# -- summarize ---------------------------------------------------------------


def cmd_summarize(args: argparse.Namespace) -> int:
    bundle = _load(args.bundle)
    print(f"bundle: {bundle.path}")
    if bundle.meta:
        spec = bundle.meta.get("spec")
        if isinstance(spec, dict):
            target = f"{spec.get('module', '?')}.{spec.get('func', 'run')}"
            print(f"job: {target} {spec.get('kwargs', {})}")
    print(f"events: {len(bundle.events)}   spans: {len(bundle.spans)}")

    counts = _event_counts(bundle)
    if counts:
        print("\nevents by category:")
        width = max(len(c) for c in counts)
        for category, n in counts.items():
            print(f"  {category:<{width}}  {n}")

    durations = _span_durations(bundle)
    if durations:
        print("\nspan latency (sim-ms):")
        width = max(len(n) for n in durations)
        header = f"  {'span':<{width}}  {'count':>6} {'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}"
        print(header)
        for name, values in durations.items():
            stats = summarize(values)
            print(
                f"  {name:<{width}}  {stats.n:>6} {stats.p50:>10.3f}"
                f" {stats.p95:>10.3f} {stats.p99:>10.3f} {stats.maximum:>10.3f}"
            )

    if args.metrics:
        print("\nmetrics:")
        for name, value in sorted(bundle.metrics.items()):
            print(f"  {name} = {value}")
    else:
        wanted = [
            k
            for k in bundle.metrics
            if not k.startswith("span_ms[") and ".le[" not in k
        ]
        if wanted:
            print("\nmetrics (scalars; --metrics for all):")
            for name in sorted(wanted):
                print(f"  {name} = {bundle.metrics[name]}")
    return 0


# -- timeline ----------------------------------------------------------------


def _render_event(event: dict[str, Any]) -> str:
    fields = event.get("fields", {})
    parts = " ".join(f"{k}={fields[k]}" for k in fields)
    return f"[{event['t_ms']:12.3f}ms] {event['category']:<22} {parts}"


def _render_span(span: dict[str, Any]) -> str:
    end = span.get("end_ms")
    dur = f"{end - span['start_ms']:10.3f}ms" if end is not None else "      open"
    attrs = span.get("attrs", {})
    extra = " ".join(f"{k}={attrs[k]}" for k in attrs)
    return (
        f"[{span['start_ms']:12.3f}ms] span {span['name']:<18} {dur}"
        f" #{span['span_id']}" + (f" {extra}" if extra else "")
    )


def cmd_timeline(args: argparse.Namespace) -> int:
    bundle = _load(args.bundle)
    rows: list[tuple[float, int, str]] = []
    if not args.spans_only:
        for order, event in enumerate(bundle.events):
            if args.category and event.get("category") not in args.category:
                continue
            rows.append((event["t_ms"], order, _render_event(event)))
    if not args.events_only:
        for order, span in enumerate(bundle.spans):
            if args.category and span.get("category") not in args.category:
                continue
            rows.append((span["start_ms"], len(bundle.events) + order, _render_span(span)))
    rows.sort(key=lambda r: (r[0], r[1]))
    shown = rows[-args.limit :] if args.limit else rows
    for _, _, line in shown:
        print(line)
    if len(shown) < len(rows):
        print(f"({len(rows) - len(shown)} earlier row(s) omitted; --limit 0 for all)")
    return 0


# -- diff --------------------------------------------------------------------


def _diff_section(
    title: str, a: dict[str, float], b: dict[str, float], *, show_equal: bool
) -> list[str]:
    lines = []
    keys = sorted(set(a) | set(b))
    for key in keys:
        va, vb = a.get(key), b.get(key)
        if va == vb:
            if show_equal:
                lines.append(f"    {key}: {va}")
            continue
        if va is None:
            lines.append(f"  + {key}: {vb}")
        elif vb is None:
            lines.append(f"  - {key}: {va}")
        else:
            delta = ""
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                delta = f"  ({vb - va:+g})"
            lines.append(f"  ~ {key}: {va} -> {vb}{delta}")
    if lines:
        lines.insert(0, f"{title}:")
    return lines


def cmd_diff(args: argparse.Namespace) -> int:
    a = _load(args.bundle_a)
    b = _load(args.bundle_b)
    print(f"a: {a.path}")
    print(f"b: {b.path}")
    lines: list[str] = []
    counts_a = {k: float(v) for k, v in _event_counts(a).items()}
    counts_b = {k: float(v) for k, v in _event_counts(b).items()}
    lines += _diff_section("events by category", counts_a, counts_b, show_equal=False)
    spans_a = {n: float(len(v)) for n, v in _span_durations(a).items()}
    spans_b = {n: float(len(v)) for n, v in _span_durations(b).items()}
    lines += _diff_section("span counts", spans_a, spans_b, show_equal=False)
    lines += _diff_section("metrics", a.metrics, b.metrics, show_equal=False)
    if not lines:
        print("bundles are identical in events, spans, and metrics")
        return 0
    for line in lines:
        print(line)
    return 1 if args.exit_code else 0


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hirep-obs", description="inspect hiREP telemetry bundles"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="counts and span latency percentiles")
    p_sum.add_argument("bundle", help="bundle directory")
    p_sum.add_argument(
        "--metrics", action="store_true", help="print every metric, not just scalars"
    )
    p_sum.set_defaults(func=cmd_summarize)

    p_tl = sub.add_parser("timeline", help="render the event/span timeline")
    p_tl.add_argument("bundle", help="bundle directory")
    p_tl.add_argument(
        "-c",
        "--category",
        action="append",
        default=[],
        help="only these categories (repeatable; matches events and spans)",
    )
    p_tl.add_argument(
        "--limit",
        type=int,
        default=50,
        help="show only the last N rows (0 = all; default 50)",
    )
    p_tl.add_argument(
        "--events-only", action="store_true", help="timeline events, no spans"
    )
    p_tl.add_argument(
        "--spans-only", action="store_true", help="spans, no timeline events"
    )
    p_tl.set_defaults(func=cmd_timeline)

    p_diff = sub.add_parser("diff", help="compare two bundles")
    p_diff.add_argument("bundle_a", help="baseline bundle directory")
    p_diff.add_argument("bundle_b", help="comparison bundle directory")
    p_diff.add_argument(
        "--exit-code",
        action="store_true",
        help="exit 1 when the bundles differ (for scripting)",
    )
    p_diff.set_defaults(func=cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
