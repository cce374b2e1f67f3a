"""``hirep-obs`` — the one report CLI: telemetry bundles and perf records.

Usage::

    hirep-obs summarize BUNDLE            # counts, span latency, SLO, metrics
    hirep-obs timeline  BUNDLE            # rendered event/span timeline tail
    hirep-obs timeline  BUNDLE -c net.send -c fault.drop --limit 100
    hirep-obs diff      A B --exit-code   # two bundles, perf records or campaign reports
    hirep-obs flame     BUNDLE --top 20 --collapsed out/flame.txt
    hirep-obs record    BENCH_perf.json --history .perf-history
    hirep-obs trend     --history .perf-history --suite kernel
    hirep-obs gate      --history .perf-history --exit-code

``BUNDLE`` is a bundle directory — either one written directly with
:func:`repro.obs.bundle.write_bundle` or a content-addressed directory an
orchestrator run (``--telemetry DIR``, recorded in the run manifest's
``finished`` events) or ``hirep-serve load --telemetry DIR`` produced.
A serve bundle carries its SLO summary in ``meta.json``; ``summarize``
renders it with :func:`repro.obs.slo.render_slo`, as ``load`` did.

``diff`` reads what its two paths hold: two bundles, two campaign
reports (a JSON object with a ``campaign_hash``, as ``hirep-experiments
<campaign> --out`` writes; compared by
:func:`repro.campaigns.report.diff_reports`), or two perf histories /
report files (one :class:`~repro.perf.report.PerfReport` object, a list,
or an envelope with a ``"reports"`` list — the shape
``benchmarks/conftest.py`` writes, and what ``record`` ingests).
``flame`` renders a bundle's ``profile.json`` (:mod:`repro.obs.prof`).
``gate`` checks the newest report of every series (suite, backend, N,
options, scale) against the rolling median of prior runs.  ``diff`` and ``gate`` always
print their findings and exit non-zero only under ``--exit-code``.  An
input file that is not JSON, or not the record it should be, prints one
``hirep-obs: ...`` line and exits 2.

Everything prints deterministically: categories, names, and metric keys
come out sorted, and percentiles (p50/p95/p99) are
:func:`repro.sim.stats.summarize`'s, so CI can golden-file this output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ConfigError
from repro.obs.bundle import Bundle, load_bundle
from repro.obs.prof import PROFILE_FILENAME, profile_chrome_trace_obj, write_flamegraph
from repro.obs.slo import render_slo
from repro.perf.gate import TOLERANCE, gate, latest_by_key, series_label
from repro.perf.history import PerfHistory
from repro.perf.report import PerfReport, current_git_sha, metric_direction
from repro.sim.stats import summarize

__all__ = ["build_parser", "main"]


def _is_bundle(path: str) -> bool:
    return (Path(path) / "events.jsonl").is_file()


def _load(path: str) -> Bundle:
    if not _is_bundle(path):
        raise SystemExit(f"not a telemetry bundle (no events.jsonl): {path}")
    return load_bundle(path)


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


def _clock(bundle: Bundle) -> str:
    """A live fleet's spans are on the wall clock, a simulator's on its own."""
    wall = any(name.endswith("serve.frames_posted") for name in bundle.metrics)
    return "wall-ms" if wall else "sim-ms"


# -- summarize ---------------------------------------------------------------


def cmd_summarize(args: argparse.Namespace) -> int:
    bundle = _load(args.bundle)
    print(f"bundle: {bundle.path}")
    spec = bundle.meta.get("spec")
    if isinstance(spec, dict):
        target = f"{spec.get('module', '?')}.{spec.get('func', 'run')}"
        print(f"job: {target} {spec.get('kwargs', {})}")
    print(f"events: {len(bundle.events)}   spans: {len(bundle.spans)}")

    if "slo" in bundle.meta:
        print(f"\n{render_slo(bundle.meta['slo'])}")

    counts = _event_counts(bundle)
    if counts:
        print("\nevents by category:")
        width = max(len(c) for c in counts)
        for category, n in counts.items():
            print(f"  {category:<{width}}  {n}")

    durations = _span_durations(bundle)
    if durations:
        print(f"\nspan latency ({_clock(bundle)}):")
        width = max(len(n) for n in durations)
        header = f"  {'span':<{width}}  {'count':>6} {'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}"
        print(header)
        for name, values in durations.items():
            stats = summarize(values)
            print(
                f"  {name:<{width}}  {stats.n:>6} {stats.p50:>10.3f}"
                f" {stats.p95:>10.3f} {stats.p99:>10.3f} {stats.maximum:>10.3f}"
            )

    if bundle.metrics:
        print("\nmetrics:")
        for name, value in sorted(bundle.metrics.items()):
            print(f"  {name} = {value}")
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


# -- perf records ------------------------------------------------------------


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not JSON ({exc})") from None


def _load_report_objs(path: Path) -> list[PerfReport]:
    """Reports from a JSON file: one object, a list, or an envelope."""
    data = _read_json(path)
    if isinstance(data, dict) and "reports" in data:
        data = data["reports"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a report object, list, or envelope")
    try:
        return [PerfReport.from_dict(obj) for obj in data]
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_latest(path: str) -> dict[tuple, PerfReport]:
    """Latest report per key from a history dir or a report file."""
    p = Path(path)
    if p.is_dir():
        return latest_by_key(PerfHistory(p).records())
    if not p.is_file():
        raise SystemExit(f"not a bundle, perf history or report file: {path}")
    return latest_by_key(_load_report_objs(p))


def cmd_record(args: argparse.Namespace) -> int:
    history = PerfHistory(args.history)
    total = 0
    sha = current_git_sha() if args.git_sha == "auto" else args.git_sha
    for file in args.files:
        reports = _load_report_objs(Path(file))
        for report in reports:
            if report.git_sha is None and sha:
                report.git_sha = sha
            history.record(report)
        total += len(reports)
    print(f"recorded {total} report(s) into {history.root}")
    return 0


def cmd_trend(args: argparse.Namespace) -> int:
    history = PerfHistory(args.history)
    series = history.series()
    if args.suite:
        series = {k: v for k, v in series.items() if k[0] in args.suite}
    if not series:
        print("no perf history matched")
        return 0
    for key, reports in series.items():
        print(f"{series_label(*key)}  ({len(reports)} run(s))")
        metrics = sorted({m for r in reports for m in r.metrics})
        if args.metric:
            metrics = [m for m in metrics if m in args.metric]
        for metric in metrics:
            values = [r.metrics[metric] for r in reports if metric in r.metrics]
            tail = values[-args.last :]
            trail = " -> ".join(f"{v:g}" for v in tail)
            marker = {"higher": "(^ better)", "lower": "(v better)"}.get(
                metric_direction(metric) or "", ""
            )
            print(f"  {metric:<28} {trail} {marker}".rstrip())
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    history = PerfHistory(args.history)
    result = gate(history, tolerance=args.tolerance, suites=args.suite or None)
    print(result.render())
    if result.ok:
        return 0
    return 1 if args.exit_code else 0


# -- diff --------------------------------------------------------------------

#: One diff section: (title, side a, side b); ``None`` = absent on that side.
Section = tuple[str, Mapping[str, Any] | None, Mapping[str, Any] | None]


def _change_note(key: str, va: Any, vb: Any) -> str:
    """``(+delta)`` for two numbers, plus a ratio where the direction is known."""
    if not (isinstance(va, (int, float)) and isinstance(vb, (int, float))):
        return ""
    note = f"  ({vb - va:+g})"
    direction = metric_direction(key)
    if direction is not None and va > 0 and vb > 0:
        ratio = vb / va
        worse = ratio < 1.0 if direction == "higher" else ratio > 1.0
        note += f"  [{ratio:.2f}x {'WORSE' if worse else 'better'}]"
    return note


def _print_diff(
    a: str, b: str, sections: list[Section], *, same: str, exit_code: bool
) -> int:
    """The one diff printer, for bundle pairs and perf-record pairs alike.

    A key present on both sides is compared as a value, ``None`` (a NaN
    metric exported as ``null``) included; only a key missing from one
    side prints as added or removed.
    """
    print(f"a: {a}")
    print(f"b: {b}")
    lines: list[str] = []
    for title, side_a, side_b in sections:
        if side_a is None or side_b is None:
            lines.append(f"{'+' if side_a is None else '-'} {title}")
            continue
        rows = []
        for key in sorted(set(side_a) | set(side_b)):
            if key not in side_a:
                rows.append(f"  + {key}: {side_b[key]}")
            elif key not in side_b:
                rows.append(f"  - {key}: {side_a[key]}")
            elif side_a[key] != side_b[key]:
                va, vb = side_a[key], side_b[key]
                rows.append(f"  ~ {key}: {va} -> {vb}{_change_note(key, va, vb)}")
        if rows:
            lines += [f"{title}:", *rows]
    if not lines:
        print(same)
        return 0
    print("\n".join(lines))
    return 1 if exit_code else 0


def _bundle_sections(a: Bundle, b: Bundle) -> list[Section]:
    def span_counts(bundle: Bundle) -> dict[str, int]:
        return {n: len(v) for n, v in _span_durations(bundle).items()}

    return [
        ("events by category", _event_counts(a), _event_counts(b)),
        ("span counts", span_counts(a), span_counts(b)),
        ("metrics", a.metrics, b.metrics),
    ]


def _perf_sections(a: str, b: str) -> list[Section]:
    latest_a, latest_b = _load_latest(a), _load_latest(b)
    sections: list[Section] = []
    for key in sorted(set(latest_a) | set(latest_b)):
        ra, rb = latest_a.get(key), latest_b.get(key)
        sections.append(
            (series_label(*key), ra.metrics if ra else None, rb.metrics if rb else None)
        )
    return sections


def _campaign_report(path: str) -> dict | None:
    """The campaign report at ``path``, or ``None`` if it holds none."""
    p = Path(path)
    data = _read_json(p) if p.is_file() else None
    return data if isinstance(data, dict) and "campaign_hash" in data else None


#: what ``diff`` can compare, in the order a mixed pair is named
_BUNDLE, _CAMPAIGN, _PERF = "a telemetry bundle", "a campaign report", "perf records"
_KINDS = (_BUNDLE, _CAMPAIGN, _PERF)


def _kind(path: str) -> str:
    if _is_bundle(path):
        return _BUNDLE
    return _CAMPAIGN if _campaign_report(path) is not None else _PERF


def cmd_diff(args: argparse.Namespace) -> int:
    a, b = args.a, args.b
    kinds = sorted({_kind(a), _kind(b)}, key=_KINDS.index)
    if len(kinds) > 1:
        raise SystemExit(f"cannot diff {kinds[0]} against {kinds[1]}: {a} vs {b}")
    if kinds[0] == _CAMPAIGN:
        # repro.campaigns sits above this package (layer 8 over 2), so the
        # import is function-scoped; the report format stays known to it alone
        from repro.campaigns.report import diff_reports

        lines = diff_reports(_campaign_report(a), _campaign_report(b))
        print("\n".join(lines) if lines else "reports are identical")
        return 1 if lines and args.exit_code else 0
    if kinds[0] == _BUNDLE:
        sections = _bundle_sections(load_bundle(a), load_bundle(b))
        same = "bundles are identical in events, spans, and metrics"
    else:
        sections = _perf_sections(a, b)
        same = "no metric differences"
    return _print_diff(a, b, sections, same=same, exit_code=args.exit_code)


# -- flame -------------------------------------------------------------------


def _load_profile(path: str) -> dict[str, Any]:
    p = Path(path)
    if p.is_dir():
        p = p / PROFILE_FILENAME
    if not p.is_file():
        raise SystemExit(
            f"no profile at {path} — run under capture(profile=True), "
            "HIREP_PROFILE=1, or hirep-serve load --profile"
        )
    return _read_json(p)


def cmd_flame(args: argparse.Namespace) -> int:
    profile = _load_profile(args.bundle)
    interval = profile.get("interval_ms", 0.0)
    print(
        f"profile: {profile.get('samples', 0)} samples @ {interval:g}ms over "
        f"{profile.get('wall_ms', 0.0):.0f}ms wall, "
        f"rss peak {profile.get('rss_peak_kb', 0):g}kb"
    )
    if profile.get("tracemalloc_peak_kb") is not None:
        print(f"tracemalloc peak: {profile['tracemalloc_peak_kb']:.0f}kb")
    contexts = profile.get("contexts", {})
    if contexts:
        rendered = ", ".join(
            f"{name or '(none)'}={count}" for name, count in sorted(contexts.items())
        )
        print(f"sample contexts: {rendered}")
    self_ms = profile.get("self_ms", [])[: args.top]
    if self_ms:
        print(f"\ntop {len(self_ms)} by self time:")
        for label, ms in self_ms:
            print(f"  {ms:9.1f}ms  {label}")
    if args.collapsed:
        path = write_flamegraph(profile, args.collapsed)
        print(f"\ncollapsed stacks: {path}")
    if args.chrome:
        out = Path(args.chrome)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(
                profile_chrome_trace_obj(profile),
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        print(f"chrome trace: {out}")
    return 0


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hirep-obs", description="hiREP telemetry bundles and perf records"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser(
        "summarize", help="counts, span latency, SLO report, metrics"
    )
    p_sum.add_argument("bundle", help="bundle directory")
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

    p_diff = sub.add_parser(
        "diff",
        help="compare two bundles, perf histories/report files or campaign reports",
    )
    p_diff.add_argument(
        "a", help="baseline: bundle dir, history dir, perf or campaign report JSON"
    )
    p_diff.add_argument("b", help="comparison, of the same kind as the baseline")
    p_diff.add_argument(
        "--exit-code",
        action="store_true",
        help="exit 1 when they differ (for scripting)",
    )
    p_diff.set_defaults(func=cmd_diff)

    p_fl = sub.add_parser("flame", help="render a bundle's wall-clock profile")
    p_fl.add_argument("bundle", help="bundle directory or profile.json path")
    p_fl.add_argument("--top", type=int, default=15, help="self-time rows shown")
    p_fl.add_argument(
        "--collapsed", default=None, help="write flamegraph.pl collapsed stacks here"
    )
    p_fl.add_argument(
        "--chrome", default=None, help="write a Chrome trace of the samples here"
    )
    p_fl.set_defaults(func=cmd_flame)

    p_rec = sub.add_parser("record", help="append perf report files to a history")
    p_rec.add_argument("files", nargs="+", help="PerfReport JSON file(s)")
    p_rec.add_argument("--history", required=True, help="history root directory")
    p_rec.add_argument(
        "--git-sha",
        default="auto",
        help='sha stamped onto reports lacking one ("auto" = git rev-parse)',
    )
    p_rec.set_defaults(func=cmd_record)

    p_tr = sub.add_parser("trend", help="print perf metric series per suite")
    p_tr.add_argument("--history", required=True)
    p_tr.add_argument("--suite", action="append", default=[], help="filter suites")
    p_tr.add_argument("--metric", action="append", default=[], help="filter metrics")
    p_tr.add_argument("--last", type=int, default=8, help="series tail length")
    p_tr.set_defaults(func=cmd_trend)

    p_gate = sub.add_parser("gate", help="flag perf regressions vs rolling baseline")
    p_gate.add_argument("--history", required=True)
    p_gate.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help="allowed fractional degradation (default %(default)s: one host)",
    )
    p_gate.add_argument("--suite", action="append", default=[], help="gate only these")
    p_gate.add_argument(
        "--exit-code",
        action="store_true",
        help="exit 1 on any regression (for CI)",
    )
    p_gate.set_defaults(func=cmd_gate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ConfigError, json.JSONDecodeError) as exc:
        # an unreadable input is a usage error: exit 1 means "differ"
        print(f"hirep-obs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
