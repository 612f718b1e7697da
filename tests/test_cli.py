"""Exit codes of the CLI on bad numeric flags, bad outside files and damaged databases."""

from __future__ import annotations

import json
from importlib import resources

import pytest
from click.testing import CliRunner

import modelzoo as mz
from lbound.cli import main


@pytest.fixture(scope="module")
def r18(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    model = root / "resnet18.txt"
    model.write_text(mz.resnet_v1_text(18), "utf-8")
    db = root / "perf.db"
    res = CliRunner().invoke(main, ["bench", str(model), "--db", str(db),
                                    "--system", "Tesla_V100", "--simulate"])
    assert res.exit_code == 0, res.output
    return model, db


def _analyze(model, db, *extra):
    return CliRunner().invoke(main, ["analyze", str(model), "--db", str(db),
                                     "--system", "Tesla_V100", "--out", "json", *extra])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_bad_measured_latency_exits_2(r18, value):
    res = _analyze(*r18, f"--measured-ms={value}")
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert not isinstance(res.exception, ZeroDivisionError)


def test_logged_algo_without_profile_exits_2(r18):
    res = _analyze(*r18, "--logged-algo")
    _no_traceback(res, 2)
    assert "--profile" in res.output


def test_measured_latency_gives_ratios(r18):
    res = _analyze(*r18, "--measured-ms", "5")
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert 0 < report["br_parallel"]["br"] <= report["br_sequential"]["br"]


def test_torn_tail_is_tolerated_and_corrupt_middle_is_not(r18, tmp_path):
    model, db = r18
    good = db.read_bytes()
    expected = _analyze(model, db).output
    torn = tmp_path / "torn.db"
    torn.write_bytes(good + good.splitlines(keepends=True)[0][:-40])
    assert _analyze(model, torn).output == expected
    res = CliRunner().invoke(main, ["db", "stats", str(torn)])
    assert res.exit_code == 0 and res.output.startswith(f"{len(good.splitlines())} live")
    res = CliRunner().invoke(main, ["db", "compact", str(torn)])
    assert res.exit_code == 0, res.output
    assert torn.read_bytes() == good

    lines = good.splitlines(keepends=True)
    lines[len(lines) // 2] = lines[len(lines) // 2][:-40] + b"\n"
    corrupt = tmp_path / "corrupt.db"
    corrupt.write_bytes(b"".join(lines))
    assert _analyze(model, corrupt).exit_code == 4
    assert CliRunner().invoke(main, ["db", "compact", str(corrupt)]).exit_code == 4


def _no_traceback(res, code):
    assert res.exit_code == code, res.output
    assert "error:" in res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("changes", [{"latency_us": float("nan")},
                                     {"latency_us": float("inf")},
                                     {"algorithm": "BOGUS"},
                                     {"latency_us": True},
                                     {"dtype": "f99"},
                                     {"layout": "XYZ"},
                                     {"fused": "bogus"},
                                     {"system": ["x"]},
                                     {"hash64": ["x"]},
                                     {"signature": ["x"]}])
def test_bad_record_is_refused_on_import_and_open(r18, tmp_path, changes):
    model, db = r18
    good = db.read_bytes()
    line = next(ln for ln in good.decode().splitlines() if '"algorithm":"IPGEMM"' in ln)
    rec = tmp_path / "rec.jsonl"
    rec.write_text(json.dumps({**json.loads(line), **changes}) + "\n", "utf-8")
    copy = tmp_path / "perf.db"
    copy.write_bytes(good)
    _no_traceback(CliRunner().invoke(main, ["db", "import", str(copy), str(rec)]), 4)
    assert copy.read_bytes() == good
    copy.write_bytes(good + rec.read_bytes())
    _no_traceback(_analyze(model, copy), 4)


@pytest.mark.parametrize("op, changes", [("Conv", {"signature": "garbage", "hash64": "zz"}),
                                         ("Conv", {"dtype": "f16"}),
                                         ("Conv", {"hash64": "zz"}),
                                         ("Conv", {"signature": ["x"]}),
                                         ("Conv", {"algorithm": None}),
                                         ("Conv", {"fused": "conv_bias"}),
                                         ("Relu", {"algorithm": "FFT"}),
                                         ("Relu", {"algorithm": "FFT", "fused": "conv_bias"})],
                         ids=["garbage-signature", "dtype", "hash64", "list-signature",
                              "conv-neither", "conv-both", "relu-algo", "relu-algo-fused"])
def test_record_that_disagrees_with_its_signature_is_refused_on_import(r18, tmp_path, op, changes):
    model, db = r18
    good = db.read_bytes()
    line = next(ln for ln in good.decode().splitlines()
                if f'"signature":"{op}|' in ln and '"fused":null' in ln
                and '"algorithm":' + ('"IPGEMM"' if op == "Conv" else "null") in ln)
    rec = tmp_path / "rec.jsonl"
    rec.write_text(json.dumps({**json.loads(line), **changes}) + "\n", "utf-8")
    copy = tmp_path / "perf.db"
    copy.write_bytes(good)
    res = CliRunner().invoke(main, ["db", "import", str(copy), str(rec)])
    _no_traceback(res, 4)
    assert res.output.count("error:") == 1 and "line 1" in res.output
    assert copy.read_bytes() == good


@pytest.mark.parametrize("cost", ["abc", "nan", "inf", "-3"])
def test_bad_cost_exits_2(r18, cost):
    model, db = r18
    res = CliRunner().invoke(main, [
        "advise", str(model), "--db", str(db), "--systems", "Tesla_V100",
        "--costs", f"Tesla_V100={cost}"])
    _no_traceback(res, 2)
    assert f"bad cost {cost!r}" in res.output


@pytest.mark.parametrize("changes", [{"fp32_tflops": float("nan")},
                                     {"mem_bw_gbps": float("inf")},
                                     {"kernel_overhead_us": float("nan")},
                                     {"tensor_tflops": float("nan")},
                                     {"algo_factor": {"WING": float("nan")}}])
def test_non_finite_system_profile_exits_2(r18, tmp_path, changes):
    model, _db = r18
    system = {**json.loads((resources.files("lbound") / "data/systems/Tesla_V100.json")
                           .read_text("utf-8")), **changes}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system), "utf-8")
    res = CliRunner().invoke(main, [
        "bench", str(model), "--db", str(tmp_path / "perf.db"), "--system", str(path),
        "--simulate"])
    _no_traceback(res, 2)
    assert "finite" in res.output


def test_unparseable_system_profile_exits_2(r18, tmp_path):
    model, db = r18
    path = tmp_path / "system.json"
    path.write_text("{", "utf-8")
    _no_traceback(CliRunner().invoke(main, [
        "analyze", str(model), "--db", str(db), "--system", str(path)]), 2)


@pytest.mark.parametrize("meta, kernel, reason", [
    ("nan", '{"name":"k","duration_us":1}', "measured latency"),
    ("1", '{"name":"k","duration_us":NaN}', "duration"),
    ("1", '{"name":"k","duration_us":1,"between":5}', "bad kernel line"),
])
def test_bad_profile_values_exit_2(r18, tmp_path, meta, kernel, reason):
    model, db = r18
    prof = tmp_path / "bad.prof"
    prof.write_text("lbound-profile v1\n[META]\nmodel: m\nsystem: s\nbatch: 1\n"
                    f"measured_latency_ms: {meta}\n[APICALLS]\n[KERNELS]\n{kernel}\n", "utf-8")
    res = _analyze(model, db, "--profile", str(prof))
    _no_traceback(res, 2)
    assert reason in res.output
    kernels = tmp_path / "kernels.txt"
    kernels.write_text(kernel + "\n", "utf-8")
    res = CliRunner().invoke(main, [
        "profile", "convert", "--kernels", str(kernels), "--latency-ms", meta,
        "--model", "m", "--system", "s", "-o", str(tmp_path / "out.prof")])
    _no_traceback(res, 2)
    assert reason in res.output


_CONV = "Conv|f32|in=1x3x8x8|dilations=1x1,group=1,kernel=3x3,pads=1x1x1x1"
_CONV_API = "cudnnConvolutionForward"


def _spec_line(signature, algorithm="FFT", fused=None, api=_CONV_API, dtype="f32"):
    return json.dumps({"signature": signature, "api": api, "algorithm": algorithm,
                       "dtype": dtype, "layout": "NCHW", "fused_pattern": fused})


def _one_error(res):
    _no_traceback(res, 2)
    assert res.output.count("error:") == 1
    assert "Traceback" not in res.output


@pytest.mark.parametrize("line", [
    _spec_line(_CONV + ",strides=2,w1=4x3x3x3"),
    _spec_line(_CONV + ",strides=1x1"),
    _spec_line("Relu|f32|in=|", None, api="cudnnActivationForward"),
    "[]",
    _spec_line(5),
    _spec_line(_CONV + ",strides=1x1,w1=4x3x3x3", None, "bogus"),
    _spec_line(_CONV + ",strides=1x1,w1=4x3x3x3", None),
    _spec_line("Relu|f32|in=1x3x8x8|", "FFT", api="cudnnActivationForward"),
    _spec_line(_CONV + ",strides=1x1,w1=4x3x3x3", dtype="f16"),
    _spec_line("Relu|f32|in=1x3x8x8|", None, api="cublasGemmEx"),
    _spec_line(_CONV + ",strides=1x1,w1=4x3x3x3", api=5),
    _spec_line("Reshape|f32|in=1x3x8x8|shape=1x192", None, api="cudnnOpTensor"),
], ids=["scalar-strides", "no-w1", "no-input", "list", "int-signature", "bogus-fused",
        "conv-without-algorithm", "relu-with-algorithm", "dtype-mismatch", "api-mismatch",
        "int-api", "no-library-api"])
def test_bad_manifest_line_exits_2(tmp_path, line):
    good = _spec_line(_CONV + ",strides=1x1,w1=4x3x3x3")
    manifest = tmp_path / "specs.jsonl"
    manifest.write_text(f"{good}\n{line}\n", "utf-8")
    out = tmp_path / "src"
    res = CliRunner().invoke(main, [
        "bench", "--from-manifest", str(manifest), "--db", str(tmp_path / "perf.db"),
        "--system", "Tesla_V100", "--simulate", "--emit-src", str(out)])
    _one_error(res)
    assert not out.exists()


@pytest.mark.parametrize("dims, node", [
    ("1x3", "Conv attrs=kernel=3x3;w1=4x3x3x3"),
    ("1x3", "Squeeze attrs=axes=5"),
    ("1x3", "Reshape attrs=shape=0x0x0"),
    ("1x3x8x8", "Conv attrs=kernel=3x3;w1=abc"),
    ("1x3x8x8", "Conv attrs=kernel=1x1;strides=0x0;w1=4x3x1x1"),
    ("1x3x8x8", "Conv attrs=kernel=1x1;strides=-1x-1;w1=4x3x1x1"),
])
def test_bad_text_model_layer_exits_2(tmp_path, dims, node):
    op, attrs = node.split(" ")
    model = tmp_path / "bad.txt"
    model.write_text(f"graph t\ninput d {dims}\nnode n {op} inputs=d {attrs}\n", "utf-8")
    res = CliRunner().invoke(main, ["process", str(model)])
    _one_error(res)
    assert f"node 'n' ({op})" in res.output
