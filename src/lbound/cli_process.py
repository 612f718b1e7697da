"""``lbound process``: unique-layer statistics of models."""

from __future__ import annotations

import click

from .cli_common import _exit_codes, _load_inferred
from .model_ir import DTYPES


@click.command()
@click.argument("models", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--batch", default=1, show_default=True, type=int)
@click.option("--dtype", default="f32", show_default=True,
              type=click.Choice(DTYPES))
@click.option("--coverage", is_flag=True, help="Also print per-op API coverage.")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "jsonl"]))
@_exit_codes
def process(models, batch, dtype, coverage, fmt):
    """Parse models, infer shapes, and report unique-layer statistics."""
    from . import dedup

    graphs = [_load_inferred(p, batch) for p in models]
    report = dedup.unique_layers(graphs, dtype)
    if fmt == "jsonl":
        click.echo(dedup.stats_jsonl(report), nl=False)
    else:
        for st in report.per_model + [report.pooled]:
            click.echo(f"{st.model}: {st.total} layers, {st.unique} unique "
                       f"({st.percent:.1f}%)")
    if coverage:
        for graph in graphs:
            cov = dedup.support_coverage(graph)
            click.echo(f"{cov.model}: {cov.percent:.2f}% of layers backed by "
                       f"cuDNN/cuBLAS")
            for row in cov.by_op:
                mark = "supported" if row.supported else "unsupported"
                click.echo(f"  {row.op_type}: {row.count} ({row.share_percent:.1f}%), {mark}")
