"""Table 1 — simulation parameters.

Regenerates the parameter table with provenance flags for the values that
had to be reconstructed from prose (the scan of the original is garbled;
see DESIGN.md for the reconstruction rationale).
"""

from __future__ import annotations

from repro.core.config import DEFAULT_CONFIG, TABLE1_ROWS
from repro.experiments.common import ExperimentResult, format_table

__all__ = ["run", "render", "main"]


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table1",
        title="Simulation parameters",
        x_label="-",
        y_label="-",
    )
    # Cross-check the printed rows against the live defaults.
    cfg = DEFAULT_CONFIG
    live = {
        "Network size": str(cfg.network_size),
        "Neighbors per node": str(int(cfg.avg_neighbors)),
        "Good rating": f"[{cfg.good_rating[0]}, {cfg.good_rating[1]}]",
        "Bad rating": f"[{cfg.bad_rating[0]}, {cfg.bad_rating[1]}]",
        "Relays per onion": str(cfg.onion_relays),
        "Trusted agents": str(cfg.trusted_agents),
        "Poor performance agents": f"{cfg.poor_agent_fraction:.0%}",
        "TTL": str(cfg.ttl),
        "Token number": str(cfg.tokens),
    }
    for name, default, _desc, _prov in TABLE1_ROWS:
        if live.get(name) != default:
            result.note(f"default drift: {name} table says {default}, config says {live.get(name)}")
    result.scalars["rows"] = len(TABLE1_ROWS)
    return result


def render(result: ExperimentResult) -> str:
    """The parameter table, with a line per drifted default."""
    text = format_table(
        ["Name", "Default", "Description", "Provenance"],
        TABLE1_ROWS,
        title="Table 1: simulation parameters",
    )
    if result.notes:
        text += "\n" + "\n".join(f"  ! {n}" for n in result.notes)
    return text


def main() -> str:
    text = render(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
