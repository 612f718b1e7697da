"""``lbound process``: unique-layer statistics of models."""

from __future__ import annotations

import sys

from . import model_ir
from .cli_common import _DEFAULT, _existing, _parser
from .model_ir import DTYPES


def process(argv: list[str]) -> None:
    """Parse models, infer shapes, and report unique-layer statistics."""
    p = _parser("process", process.__doc__)
    p.add_argument("models", metavar="MODELS", nargs="+", type=_existing,
                   help="Model files: text or ONNX.")
    p.add_argument("--batch", type=int, metavar="N", default=1, help=_DEFAULT)
    p.add_argument("--dtype", choices=DTYPES, default="f32", help=_DEFAULT)
    p.add_argument("--coverage", action="store_true", help="Also print per-op API coverage.")
    p.add_argument("--format", dest="fmt", choices=("text", "jsonl"), default="text",
                   help=_DEFAULT)
    opts = p.parse_intermixed_args(argv)

    from . import dedup

    graphs = [model_ir.infer_shapes(model_ir.load_model_file(path), opts.batch)
              for path in opts.models]
    report = dedup.unique_layers(graphs, opts.dtype)
    if opts.fmt == "jsonl":
        sys.stdout.write(dedup.stats_jsonl(report))
    else:
        for st in report.per_model + [report.pooled]:
            print(f"{st.model}: {st.total} layers, {st.unique} unique ({st.percent:.1f}%)")
    if opts.coverage:
        for graph in graphs:
            cov = dedup.support_coverage(graph)
            print(f"{cov.model}: {cov.percent:.2f}% of layers backed by cuDNN/cuBLAS")
            for row in cov.by_op:
                mark = "supported" if row.supported else "unsupported"
                print(f"  {row.op_type}: {row.count} ({row.share_percent:.1f}%), {mark}")
