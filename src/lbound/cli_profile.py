"""``lbound profile``: execution-profile utilities."""

from __future__ import annotations

from .cli_common import _DEFAULT, _existing, _group, _parser
from .errors import ProfileFormatError, read_text, write_text


def profile_convert(argv: list[str]) -> None:
    """Convert library logs and a kernel trace into the canonical profile."""
    p = _parser("profile convert", profile_convert.__doc__)
    p.add_argument("--cudnn-log", metavar="PATH", type=_existing, help="cuDNN API log.")
    p.add_argument("--kernels", metavar="PATH", type=_existing, help="Kernel trace (JSON lines).")
    p.add_argument("--latency-ms", type=float, metavar="MS", required=True,
                   help="Measured model latency.")
    p.add_argument("--model", required=True, help="Model name.")
    p.add_argument("--system", required=True, help="System id.")
    p.add_argument("--batch", type=int, metavar="N", default=1, help=_DEFAULT)
    p.add_argument("--strict", action="store_true", help="Reject unparseable logger lines.")
    p.add_argument("-o", "--out", metavar="PATH", required=True, help="Profile to write.")
    opts = p.parse_intermixed_args(argv)

    from . import profile_ingest

    log_text = read_text(opts.cudnn_log, ProfileFormatError) if opts.cudnn_log else ""
    kern_text = read_text(opts.kernels, ProfileFormatError) if opts.kernels else ""
    prof = profile_ingest.build_profile(opts.model, opts.system, opts.batch, opts.latency_ms,
                                        log_text, kern_text, strict=opts.strict)
    write_text(opts.out, profile_ingest.serialize_profile(prof))
    print(f"wrote profile with {len(prof.api_calls)} api call(s) and "
          f"{len(prof.kernels)} kernel(s) to {opts.out}")


SUBCOMMANDS = {"convert": profile_convert}


def profile(argv: list[str]) -> None:
    """Execution-profile utilities."""
    _group("profile", profile.__doc__, SUBCOMMANDS, argv)
