"""Manifest round trip over the thirty-model family."""

from __future__ import annotations

import modelzoo as mz
from lbound import benchgen, dedup


def test_manifest_round_trips_for_the_family():
    graphs = [mz.load(text) for _name, text in mz.thirty_model_family()]
    uniques = dedup.unique_layers(graphs).signatures
    sites = [site for graph in graphs for site in benchgen.fusion_candidates(graph)]
    config = benchgen.BenchConfig(layouts=("NCHW", "NHWC"))
    specs = benchgen.generate_specs(uniques, config, fusion_sites=sites)
    assert {s.fused for s in specs} > {None} and {s.layout for s in specs} == {"NCHW", "NHWC"}
    text = benchgen.manifest_lines(specs)
    parsed = benchgen.parse_manifest(text)
    assert parsed == specs
    assert [(s.dtype, s.api_name) for s in parsed] == [(s.dtype, s.api_name) for s in specs]
    assert benchgen.manifest_lines(parsed) == text
