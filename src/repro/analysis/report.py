"""Full reproduction report generation.

Runs every paper artifact plus the extension studies and assembles a
single markdown document with the rendered tables/figures and the
paper-vs-measured comparisons — the machine-generated counterpart of the
hand-written EXPERIMENTS.md. Exposed on the CLI as ``abm-spconv report``.
"""

from __future__ import annotations

import importlib
from typing import List, Sequence

from .compare import Comparison, render_comparisons, worst_error

#: Paper artifacts, in presentation order.
PAPER_SECTIONS = (
    ("table1", "Table 1 — #OP by convolution scheme"),
    ("table2", "Table 2 — comparison with state of the art"),
    ("table3", "Table 3 — design parameters & weight sizes"),
    ("fig1", "Figure 1 — roofline design spaces"),
    ("fig6", "Figure 6 — optimal N_knl"),
    ("fig7", "Figure 7 — S_ec x N_cu exploration"),
    ("utilization", "CU execution efficiency"),
)

#: Extension studies appended after the paper artifacts.
EXTENSION_SECTIONS = (
    ("bitwidth", "Extension — weight bit-width sweep"),
    ("batch_bandwidth", "Extension — batch size vs bandwidth"),
)


def _section(title: str, body: str, comparisons: Sequence[Comparison]) -> str:
    parts = [f"## {title}", "", "```", body, "```", ""]
    if comparisons:
        parts.extend(
            [
                "```",
                render_comparisons(comparisons, title="paper vs measured"),
                "```",
                f"worst relative error: {worst_error(comparisons):.1%}",
                "",
            ]
        )
    return "\n".join(parts)


def generate_report(seed: int = 1, include_extensions: bool = True) -> str:
    """Run all experiments and return the markdown report."""
    sections: List[str] = [
        "# ABM-SpConv reproduction report",
        "",
        f"Workload seed: {seed}. Generated by `abm-spconv report`.",
        "",
    ]
    names = list(PAPER_SECTIONS)
    if include_extensions:
        names.extend(EXTENSION_SECTIONS)
    for name, title in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        result = module.run(seed=seed)
        comparisons = getattr(result, "comparisons", ())
        sections.append(_section(title, result.render(), comparisons))
    return "\n".join(sections)


def write_report(path: str, seed: int = 1, include_extensions: bool = True) -> int:
    """Generate and write the report; returns its size in bytes."""
    content = generate_report(seed=seed, include_extensions=include_extensions)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return len(content.encode("utf-8"))
