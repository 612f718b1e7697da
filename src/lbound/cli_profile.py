"""``lbound profile``: execution-profile utilities."""

from __future__ import annotations

import click

from .cli_common import _exit_codes
from .errors import ProfileFormatError, read_text


@click.group()
def profile():
    """Execution-profile utilities."""


@profile.command("convert")
@click.option("--cudnn-log", type=click.Path(exists=True), default=None)
@click.option("--kernels", type=click.Path(exists=True), default=None)
@click.option("--latency-ms", type=float, required=True)
@click.option("--model", required=True)
@click.option("--system", required=True)
@click.option("--batch", default=1, show_default=True, type=int)
@click.option("--strict", is_flag=True, help="Reject unparseable logger lines.")
@click.option("-o", "--out", type=click.Path(), required=True)
@_exit_codes
def profile_convert(cudnn_log, kernels, latency_ms, model, system, batch, strict, out):
    """Convert library logs and a kernel trace into the canonical profile."""
    from . import profile_ingest

    log_text = read_text(cudnn_log, ProfileFormatError) if cudnn_log else ""
    kern_text = read_text(kernels, ProfileFormatError) if kernels else ""
    prof = profile_ingest.build_profile(
        model, system, batch, latency_ms, log_text, kern_text, strict=strict)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(profile_ingest.serialize_profile(prof))
    click.echo(f"wrote profile with {len(prof.api_calls)} api call(s) and "
               f"{len(prof.kernels)} kernel(s) to {out}")
