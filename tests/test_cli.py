"""Exit codes of the CLI on bad numeric flags, bad outside files and damaged databases."""

from __future__ import annotations

import json
import re
from importlib import resources

import pytest

import modelzoo as mz
from cli_run import invoke
from lbound import analyzer, dedup
from lbound.benchgen import ConvAlgorithm
from lbound.perfdb import PerfDb


@pytest.fixture(scope="module")
def r18(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    model = root / "resnet18.txt"
    model.write_text(mz.resnet_v1_text(18), "utf-8")
    db = root / "perf.db"
    res = invoke(["bench", str(model), "--db", str(db),
                  "--system", "Tesla_V100", "--simulate"])
    assert res.exit_code == 0, res.output
    return model, db


def _analyze(model, db, *extra):
    return invoke(["analyze", str(model), "--db", str(db),
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
    res = invoke(["db", "stats", str(torn)])
    assert res.exit_code == 0 and res.output.startswith(f"{len(good.splitlines())} live")
    res = invoke(["db", "compact", str(torn)])
    assert res.exit_code == 0, res.output
    assert torn.read_bytes() == good

    lines = good.splitlines(keepends=True)
    lines[len(lines) // 2] = lines[len(lines) // 2][:-40] + b"\n"
    corrupt = tmp_path / "corrupt.db"
    corrupt.write_bytes(b"".join(lines))
    assert _analyze(model, corrupt).exit_code == 4
    assert invoke(["db", "compact", str(corrupt)]).exit_code == 4


def test_a_corrupt_line_of_another_system_fails_every_read(r18, tmp_path):
    model, db = r18
    lines = db.read_bytes().splitlines(keepends=True)
    other = lines[0].replace(b'"Tesla_V100"', b'"Tesla_T4"')[:-40] + b"\n"
    copy = tmp_path / "perf.db"
    copy.write_bytes(b"".join(lines[:1] + [other] + lines[1:]))
    for args in (["analyze", str(model), "--db", str(copy), "--system", "Tesla_V100"],
                 ["bench", str(model), "--delta", "--system", "Tesla_V100", "--db", str(copy)],
                 ["advise", str(model), "--db", str(copy), "--systems", "Tesla_V100"],
                 ["db", "stats", str(copy)]):
        res = invoke(args)
        _no_traceback(res, 4)
        assert "line 2:" in res.output, args


@pytest.mark.parametrize("dtype", ["f32", "f16"])
def test_a_bad_writer_line_fails_every_open(r18, tmp_path, dtype):
    """An open decodes each line no index covers: `analyze` at f32 fails on f16."""
    model, db = r18
    lines = db.read_bytes().splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines)
              if f'"dtype":"{dtype}"'.encode() in ln and b'"signature":"Conv|' in ln)
    lines[at] = re.sub(rb'"latency_us":[^,]*,', b'"latency_us":-1,', lines[at])
    copy = tmp_path / "perf.db"
    copy.write_bytes(b"".join(lines))
    for res in (_analyze(model, copy), invoke(["db", "stats", str(copy)])):
        _no_traceback(res, 4)
        assert f"line {at + 1}:" in res.output


def _no_traceback(res, code):
    assert res.exit_code == code, res.output
    assert "error:" in res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("bad", ["non-utf8", "non-utf8-past-256-bytes", "directory"])
@pytest.mark.parametrize("args, code", [
    (["process", "{f}"], 2),
    (["bench", "--from-manifest", "{empty}", "--db", "{db}", "--system", "{f}", "--simulate"], 2),
    (["bench", "--from-manifest", "{f}"], 2),
    (["bench", "--from-misses", "{f}"], 2),
    (["db", "import", "{db}", "{f}"], 4),
    (["profile", "convert", "--cudnn-log", "{f}", "--latency-ms", "1", "--model", "m",
      "--system", "Tesla_V100", "-o", "{out}"], 2),
    (["profile", "convert", "--kernels", "{f}", "--latency-ms", "1", "--model", "m",
      "--system", "Tesla_V100", "-o", "{out}"], 2),
    (["analyze", "{model}", "--db", "{db}", "--system", "Tesla_V100", "--profile", "{f}"], 2),
], ids=["model", "system", "manifest", "misses", "import", "cudnn-log", "kernels", "profile"])
def test_an_unreadable_outside_file_exits_with_its_code(r18, tmp_path, args, code, bad):
    """A directory, bytes that are not UTF-8, or a text-model head whose
    bytes stop being UTF-8 past the 256 that the model loader sniffs."""
    model, db = r18
    path = tmp_path / "input"
    if bad == "directory":
        path.mkdir()
    elif bad == "non-utf8":
        path.write_bytes(b"\xff\xfe")
    else:
        path.write_bytes(b"graph m\n" + b"#" * 300 + b"\n\xff\n")
    copy = tmp_path / "perf.db"
    copy.write_bytes(db.read_bytes())
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    args = [a.format(f=path, db=copy, model=model, out=tmp_path / "out.prof", empty=empty)
            for a in args]
    res = invoke(args)
    _no_traceback(res, code)
    # A model that is not text from its first byte is read as binary ONNX.
    if (args[0], bad) != ("process", "non-utf8"):
        assert f"cannot read {path}" in res.output


def test_a_text_model_with_a_character_cut_at_the_sniffed_head_is_read_as_text(tmp_path):
    """The loader sniffs 256 bytes; the comment's é spans bytes 255 and 256."""
    body = "graph t\ninput d 1x3x8x8\nnode n Relu inputs=d\n"
    comment = "#" + "x" * (254 - len(body)) + "é" + "x" * 30 + "\n"
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text(body, "utf-8")
    commented.write_text(body + comment, "utf-8")
    data = commented.read_bytes()
    assert (len(data), data[255:257]) == (288, "é".encode())
    expected = invoke(["process", str(plain)])
    assert expected.exit_code == 0, expected.output
    res = invoke(["process", str(commented)])
    assert (res.exit_code, res.output) == (0, expected.output)


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
    _no_traceback(invoke(["db", "import", str(copy), str(rec)]), 4)
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
    res = invoke(["db", "import", str(copy), str(rec)])
    _no_traceback(res, 4)
    assert res.output.count("error:") == 1 and "line 1" in res.output
    assert copy.read_bytes() == good


@pytest.mark.parametrize("cost", ["abc", "nan", "inf", "-3"])
def test_bad_cost_exits_2(r18, cost):
    model, db = r18
    res = invoke([
        "advise", str(model), "--db", str(db), "--systems", "Tesla_V100",
        "--costs", f"Tesla_V100={cost}"])
    _no_traceback(res, 2)
    assert f"bad cost {cost!r}" in res.output


@pytest.mark.parametrize("changes", [{"fp32_tflops": float("nan")},
                                     {"mem_bw_gbps": float("inf")},
                                     {"kernel_overhead_us": float("nan")},
                                     {"tensor_tflops": float("nan")},
                                     {"algo_factor": {"WING": float("nan")}},
                                     {"fp32_tflops": 10**400}])
def test_non_finite_system_profile_exits_2(r18, tmp_path, changes):
    """A rate or overhead that is not finite exits 2, and so does an
    ``algo_factor``, a key that no system file holds."""
    model, _db = r18
    system = {**json.loads((resources.files("lbound") / "data/systems/Tesla_V100.json")
                           .read_text("utf-8")), **changes}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system), "utf-8")
    res = invoke([
        "bench", str(model), "--db", str(tmp_path / "perf.db"), "--system", str(path),
        "--simulate"])
    _no_traceback(res, 2)
    assert ("unknown key 'algo_factor'" if "algo_factor" in changes else "finite") \
        in res.output


@pytest.mark.parametrize("changes, reason", [
    ({"tensor_core": "no"}, "tensor_core must be a JSON bool, got 'no'"),
    ({"fp32_tflops": True}, "fp32_tflops must be a JSON number, got True"),
    ({"fp32_tflops": "15.7"}, "fp32_tflops must be a JSON number, got '15.7'"),
    ({"mem_bw_gbps": "900"}, "mem_bw_gbps must be a JSON number, got '900'"),
    ({"tensor_tflops": True}, "tensor_tflops must be a JSON number, got True"),
    ({"kernel_overhead_us": False}, "kernel_overhead_us must be a JSON number, got False"),
    ({"algo_factor": {"WING": "0.8"}}, "unknown key 'algo_factor'"),
    ({"mem_gb": "lots"}, "mem_gb must be a JSON number, got 'lots'"),
    ({"mem_gb": True}, "mem_gb must be a JSON number, got True"),
    ({"mem_gb": 0}, "mem_gb must be positive and finite, got 0"),
    ({"mem_gb": 10**400}, "mem_gb must be positive and finite"),
], ids=["tensor_core", "fp32-bool", "fp32-string", "mem_bw", "tensor_tflops",
        "kernel_overhead", "algo_factor", "mem_gb-string", "mem_gb-bool", "mem_gb-zero",
        "mem_gb-past-float"])
def test_system_profile_takes_only_json_types(r18, tmp_path, changes, reason):
    model, db = r18
    system = {**json.loads((resources.files("lbound") / "data/systems/Tesla_V100.json")
                           .read_text("utf-8")), **changes}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system), "utf-8")
    res = invoke(["analyze", str(model), "--db", str(db), "--system",
                  str(path)])
    _no_traceback(res, 2)
    assert f"system 'Tesla_V100': {reason}" in res.output


def test_unparseable_system_profile_exits_2(r18, tmp_path):
    model, db = r18
    path = tmp_path / "system.json"
    path.write_text("{", "utf-8")
    _no_traceback(invoke([
        "analyze", str(model), "--db", str(db), "--system", str(path)]), 2)


_TC_MISMATCH = "tensor_tflops must be present exactly when tensor_core is set"


@pytest.mark.parametrize("extra, system, reason", [
    ([], None, "--simulate needs --system"),
    (["--delta"], None, "--delta needs --system to check existing results"),
    (["--system", "Nope"], None, "unknown system profile 'Nope'; builtins: Quadro_RTX, "
     "TITAN_V, TITAN_Xp, Tesla_K80, Tesla_M60, Tesla_T4, Tesla_V100"),
    ([], ("Tesla_V100", {"tensor_core": False}), _TC_MISMATCH),
    ([], ("Tesla_K80", {"tensor_core": True}), _TC_MISMATCH),
    ([], ("Tesla_V100", {"system_id": 5}), "system_id must be a non-empty JSON string, got 5"),
    ([], ("Tesla_V100", {"system_id": ""}), "system_id must be a non-empty JSON string, got ''"),
    ([], ("Tesla_K80", {"tensor_tflop": 125.0}), "system 'Tesla_K80': unknown key 'tensor_tflop'"),
    ([], ("Tesla_V100", {"system_id": "a\nb"}),
     "system_id 'a\\nb' holds control character U+000A"),
    ([], ("Tesla_V100", {"system_id": "a\x7fb"}),
     "system_id 'a\\x7fb' holds control character U+007F"),
], ids=["no-system", "delta-no-system", "unknown-system", "rate-without-flag",
        "flag-without-rate", "system-id-number", "system-id-empty", "unknown-key",
        "system-id-newline", "system-id-del"])
def test_bad_system_exits_2_before_the_db_opens(r18, tmp_path, extra, system, reason):
    model, _db = r18
    if system is not None:
        name, changes = system
        obj = {**json.loads((resources.files("lbound") / f"data/systems/{name}.json")
                            .read_text("utf-8")), **changes}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(obj), "utf-8")
        extra = [*extra, "--system", str(path)]
    db = tmp_path / "x.db"
    res = invoke(["bench", str(model), "--simulate", "--db", str(db),
                  *extra])
    _one_error(res)
    assert reason in res.output
    assert not db.exists()


@pytest.mark.parametrize("meta, kernel, reason", [
    ("nan", '{"name":"k","duration_us":1}', "measured latency"),
    ("1", '{"name":"k","duration_us":NaN}', "duration"),
    pytest.param("1", '{"name":"k","duration_us":1' + "0" * 400 + '}', "bad kernel line",
                 id="duration-past-float"),
    ("1", '{"name":"k","duration_us":1,"between":5}', "bad kernel line"),
    ("1", '{"name":5,"duration_us":1}', "name must be a string, got 5"),
    ("1", '{"name":"k","duration_us":true}', "duration_us must be a number, got True"),
    ("1", '{"name":"k","duration_us":"1"}', "duration_us must be a number, got '1'"),
    ("1", '{"name":"k","duration_us":1,"between":[1]}', "between must be null or a list"),
    ("1", '{"name":"k","duration_us":1,"between":"ab"}', "between must be null or a list"),
    ("1", '{"name":"k","duration_us":1,"between":[1,true]}', "between must be null or a list"),
    ("1", '{"name":"k","duration_us":1,"between":[1,2.0]}', "between must be null or a list"),
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
    res = invoke([
        "profile", "convert", "--kernels", str(kernels), "--latency-ms", meta,
        "--model", "m", "--system", "s", "-o", str(tmp_path / "out.prof")])
    _no_traceback(res, 2)
    assert reason in res.output


@pytest.mark.parametrize("batch", ["0", "-5", "+5", "1_0", "01", "1.0", "5x", "\uff15", ""])
def test_bad_profile_batch_exits_2(r18, tmp_path, batch):
    """A profile's batch is what ``serialize_profile`` writes for an int >= 1;
    ``profile convert --batch`` refuses a number below 1 and writes no file."""
    model, db = r18
    prof = tmp_path / "bad.prof"
    prof.write_text("lbound-profile v1\n[META]\nmodel: m\nsystem: s\n"
                    f"batch: {batch}\nmeasured_latency_ms: 1\n[APICALLS]\n", "utf-8")
    res = _analyze(model, db, "--profile", str(prof))
    _one_error(res)
    assert f"batch must be an integer >= 1 in plain decimal digits, got {batch!r}" \
        in res.output
    if batch in ("0", "-5"):
        out = tmp_path / "out.prof"
        res = invoke(["profile", "convert", "--latency-ms", "1", "--model", "m",
                      "--system", "s", "--batch", batch, "-o", str(out)])
        _one_error(res)
        assert f"batch must be an integer >= 1, got {int(batch)}" in res.output
        assert not out.exists()


@pytest.mark.parametrize("meta, reason", [
    ("framework: torch\n", "unknown META key 'framework'"),
    ("Model: m\n", "unknown META key 'Model'"),
    ("model: m2\n", "META key 'model' appears twice"),
    ("batch: 2\n", "META key 'batch' appears twice"),
    ("measured_latency_ms: 2\n", "META key 'measured_latency_ms' appears twice"),
])
def test_bad_profile_meta_key_exits_2(r18, tmp_path, meta, reason):
    """META holds model, system, batch and measured_latency_ms, each once."""
    model, db = r18
    prof = tmp_path / "bad.prof"
    prof.write_text("lbound-profile v1\n[META]\nmodel: m\nsystem: s\nbatch: 1\n"
                    f"measured_latency_ms: 1\n{meta}[APICALLS]\n", "utf-8")
    res = _analyze(model, db, "--profile", str(prof))
    _one_error(res)
    assert reason in res.output


@pytest.mark.parametrize("latency", ["1_0", " 1e1x", "+1", "-1", ".5", "5.", "1e", "1.5e+",
                                     "inf", "nan", "0x10", "\uff15", "1,5", ""])
def test_bad_profile_latency_spelling_exits_2(r18, tmp_path, latency):
    """A profile's latency is digits, an optional fraction and an optional exponent."""
    model, db = r18
    prof = tmp_path / "bad.prof"
    prof.write_text("lbound-profile v1\n[META]\nmodel: m\nsystem: s\nbatch: 1\n"
                    f"measured_latency_ms: {latency}\n[APICALLS]\n", "utf-8")
    res = _analyze(model, db, "--profile", str(prof))
    _one_error(res)
    assert "measured latency must be a plain decimal number, got " \
        f"{latency.strip()!r}" in res.output


@pytest.mark.parametrize("call, reason", [
    ('{"seq":true,"api":"cudnnAddTensor"}', "seq must be an integer, got True"),
    ('{"seq":1.0,"api":"cudnnAddTensor"}', "seq must be an integer, got 1.0"),
    ('{"seq":"1","api":"cudnnAddTensor"}', "seq must be an integer, got '1'"),
    ('{"seq":1,"api":5}', "api must be a string, got 5"),
    ('{"seq":1,"api":"cudnnAddTensor","params":[["k","v"]]}', "params must be an object"),
    ('{"seq":1,"api":"cudnnAddTensor","backtrace":"f"}', "backtrace must be null or a list"),
    ('{"seq":1,"api":"cudnnAddTensor","backtrace":["f",1]}', "backtrace must be null or a list"),
])
def test_bad_api_call_values_exit_2(r18, tmp_path, call, reason):
    model, db = r18
    prof = tmp_path / "bad.prof"
    prof.write_text("lbound-profile v1\n[META]\nmodel: m\nsystem: Tesla_V100\nbatch: 1\n"
                    f"measured_latency_ms: 1\n[APICALLS]\n{call}\n", "utf-8")
    res = _analyze(model, db, "--profile", str(prof))
    _no_traceback(res, 2)
    assert "bad APICALLS line" in res.output and reason in res.output


@pytest.mark.parametrize("option, name", [
    ("--dtypes", "dtype"), ("--layouts", "layout"), ("--algorithms", "algorithm")])
def test_bench_with_an_empty_list_exits_2(r18, option, name):
    model, _db = r18
    res = invoke(["bench", str(model), "--dtypes", "f32", option, " , "])
    _one_error(res)
    assert f"config needs at least one {name}" in res.output


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
    res = invoke([
        "bench", "--from-manifest", str(manifest), "--db", str(tmp_path / "perf.db"),
        "--system", "Tesla_V100", "--simulate", "--emit-src", str(out)])
    _one_error(res)
    assert not out.exists()


@pytest.mark.parametrize("dims, node", [
    ("1x3", "Conv attrs=kernel=3x3;w1=4x3x3x3"),
    ("1x3", "Squeeze attrs=axes=5"),
    ("1x3x4x4", "Flatten attrs=axis=7"),
    ("1x3x4x4", "Flatten attrs=axis=-9"),
    ("1x3", "Unsqueeze attrs=axes=9"),
    ("1x3", "Unsqueeze attrs=axes=0x0"),
    ("1x3", "Softmax attrs=axis=9"),
    ("1x3", "Reshape attrs=shape=0x0x0"),
    ("1x3x8x8", "Conv attrs=kernel=3x3;w1=abc"),
    ("1x3x8x8", "Conv attrs=kernel=1x1;strides=0x0;w1=4x3x1x1"),
    ("1x3x8x8", "Conv attrs=kernel=1x1;strides=-1x-1;w1=4x3x1x1"),
    ("1x3x2x2", "Conv attrs=kernel=3x3;w1=4x3x3x3"),
    ("1x3x2x2", "MaxPool attrs=strides=2x2"),
])
def test_bad_text_model_layer_exits_2(tmp_path, dims, node):
    op, attrs = node.split(" ")
    model = tmp_path / "bad.txt"
    model.write_text(f"graph t\ninput d {dims}\nnode n {op} inputs=d {attrs}\n", "utf-8")
    res = invoke(["process", str(model)])
    _one_error(res)
    assert f"node 'n' ({op})" in res.output


def test_bad_text_model_input_dims_exit_2_naming_the_line(tmp_path):
    model = tmp_path / "bad.txt"
    model.write_text("graph t\ninput x 1x0x8x8\nnode n Relu inputs=x\n", "utf-8")
    res = invoke(["process", str(model)])
    _one_error(res)
    assert "bad model line 'input x 1x0x8x8': all dims must be positive integers, " \
        "got (1, 0, 8, 8) (at offset 2)" in res.output


def _conv_profile(tmp_path, model, system="Tesla_V100", batch=1, drop=0):
    """A profile whose library log runs every convolution of ``model`` with
    FFT, less the last ``drop`` of them."""
    graph = mz.load(model.read_text("utf-8"), batch=batch)
    convs = sum(node.op_type == "Conv" for node in graph.nodes.values()) - drop
    log = tmp_path / "cudnn.log"
    log.write_text(convs * ("I! CuDNN (v7605) function cudnnConvolutionForward() called:\n"
                            "    algo: type=cudnnConvolutionFwdAlgo_t; "
                            f"val={ConvAlgorithm.FFT.token} (1);\n"), "utf-8")
    prof = tmp_path / "conv.prof"
    res = invoke([
        "profile", "convert", "--cudnn-log", str(log), "--latency-ms", "40", "--model",
        graph.name, "--system", system, "--batch", str(batch), "-o", str(prof)])
    assert res.exit_code == 0, res.output
    return prof


@pytest.mark.parametrize("extra", [[], ["--parallel"], ["--fusion"], ["--tensor-core"],
                                   ["--logged-algo"]],
                         ids=["plain", "parallel", "fusion", "tensor-core", "logged-algo"])
def test_misses_group_by_key_and_fill_from_the_miss_file(r18, tmp_path, extra):
    """ResNet-50 on the ResNet-18 database: only the stem's layers are there.

    Each analysis reads some of the missing layers, so each exits 3, is let
    through by --allow-missing, and is filled from its miss file.
    """
    _model, r18_db = r18
    model = tmp_path / "resnet50.txt"
    model.write_text(mz.resnet_v1_text(50), "utf-8")
    if extra == ["--logged-algo"]:
        extra = ["--profile", str(_conv_profile(tmp_path, model)), *extra]
    db = tmp_path / "perf.db"
    db.write_bytes(r18_db.read_bytes())
    misses = tmp_path / "misses.txt"
    res = invoke(["analyze", str(model), "--db", str(db), "--system",
                  "Tesla_V100", "--miss-out", str(misses), *extra])
    _no_traceback(res, 3)
    keys = misses.read_text("utf-8").splitlines()
    assert keys and len(keys) == len(set(keys))
    counts = [line.rsplit(" (", 1) for line in res.output.splitlines()
              if line.startswith("  missing: ")]
    assert [key[len("  missing: "):] for key, _n in counts] == keys
    nodes = sum(int(n.split()[0]) for _key, n in counts)
    assert nodes > len(keys)  # ResNet-50 repeats its missing layers
    assert f"error: {len(keys)} benchmark result(s) missing" in res.output
    allowed = _analyze(model, db, "--allow-missing", *extra)
    assert allowed.exit_code == 0, allowed.output
    assert len(json.loads(allowed.output)["missing"]) == nodes
    res = invoke(["bench", "--from-misses", str(misses), "--db", str(db),
                  "--system", "Tesla_V100", "--simulate"])
    assert res.exit_code == 0, res.output
    res = _analyze(model, db, *extra)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["missing"] == []


def test_tensor_core_misses_of_an_f32_database_fill_from_the_miss_file(tmp_path):
    model = tmp_path / "resnet50.txt"
    model.write_text(mz.resnet_v1_text(50), "utf-8")
    db = tmp_path / "perf.db"
    res = invoke(["bench", str(model), "--db", str(db), "--system",
                  "Tesla_V100", "--dtypes", "f32", "--simulate"])
    assert res.exit_code == 0, res.output
    misses = tmp_path / "m.txt"
    args = ["analyze", str(model), "--db", str(db), "--system", "Tesla_V100", "--tensor-core"]
    _no_traceback(invoke([*args, "--miss-out", str(misses)]), 3)
    keys = misses.read_text("utf-8").splitlines()
    unique = dedup.unique_layers([mz.load(model.read_text("utf-8"))], "f16").signatures
    assert len(keys) == sum(dedup.api_for_op(sig.layer.op_type) is not None for sig in unique) == 45
    assert all(key.startswith("Tesla_V100/f16/NCHW/") for key in keys)
    res = invoke(["bench", "--from-misses", str(misses), "--db", str(db),
                  "--system", "Tesla_V100", "--simulate"])
    assert res.exit_code == 0, res.output
    # Each key at its own dtype only: no f32 layer is simulated again.
    assert "generated 185 benchmark spec(s)" in res.output
    res = invoke(["db", "stats", str(db)])
    assert res.exit_code == 0, res.output
    assert ", 0 superseded" in res.output
    res = invoke(args)
    assert res.exit_code == 0, res.output


def test_allow_missing_still_writes_the_miss_file(r18, tmp_path):
    """A partial report and the keys that fill it come from one command."""
    _model, r18_db = r18
    model = tmp_path / "resnet50.txt"
    model.write_text(mz.resnet_v1_text(50), "utf-8")
    db = tmp_path / "perf.db"
    db.write_bytes(r18_db.read_bytes())
    misses = tmp_path / "m.txt"
    res = _analyze(model, db, "--allow-missing", "--miss-out", str(misses))
    assert res.exit_code == 0, res.output
    keys = misses.read_text("utf-8").splitlines()
    assert keys == list(dict.fromkeys(json.loads(res.output)["missing"]))
    res = invoke(["bench", "--from-misses", str(misses), "--db", str(db),
                  "--system", "Tesla_V100", "--simulate"])
    assert res.exit_code == 0, res.output
    res = _analyze(model, db)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["missing"] == []


@pytest.mark.parametrize("system, batch", [("Tesla_T4", 64), ("Tesla_T4", 2),
                                           ("Tesla_V100", 64)])
def test_profile_of_another_system_or_batch_exits_2(r18, tmp_path, system, batch):
    model, db = r18
    prof = _conv_profile(tmp_path, model, system, batch)
    res = _analyze(model, db, "--batch", "2", "--profile", str(prof))
    _one_error(res)
    assert (f"is of system {system!r} at batch {batch}, but the command analyzes "
            "'Tesla_V100' at batch 2") in res.output


def test_miss_keys_fill_at_their_own_layout(tmp_path):
    """NHWC misses of the tensor-core analysis are benchmarked at NHWC, not at --layouts."""
    model = tmp_path / "resnet50.txt"
    model.write_text(mz.resnet_v1_text(50), "utf-8")
    db = tmp_path / "perf.db"
    res = invoke(["bench", str(model), "--db", str(db), "--system",
                  "Tesla_V100", "--dtypes", "f32", "--simulate"])
    assert res.exit_code == 0, res.output
    misses = tmp_path / "m.txt"
    args = ["analyze", str(model), "--db", str(db), "--system", "Tesla_V100",
            "--tensor-core", "--layout", "NHWC"]
    _no_traceback(invoke([*args, "--miss-out", str(misses)]), 3)
    keys = misses.read_text("utf-8").splitlines()
    nhwc = [key for key in keys if key.startswith("Tesla_V100/f16/NHWC/")]
    assert nhwc and all("/Conv|" in key for key in nhwc)
    res = invoke(["bench", "--from-misses", str(misses), "--db", str(db),
                  "--system", "Tesla_V100", "--simulate"])
    assert res.exit_code == 0, res.output
    with PerfDb(db) as handle:
        simulated = [rec.key for rec in handle.records() if rec.key.dtype == "f16"]
    assert {k.layout for k in simulated if k.signature.startswith("Conv|")} == {"NHWC"}
    res = invoke(args)
    assert res.exit_code == 0, res.output


def test_a_miss_key_splits_from_the_right(r18, tmp_path):
    """A system id may hold a ``/``; the signature, the last field, never does."""
    model, _db = r18
    system = tmp_path / "system.json"
    system.write_text(json.dumps({**json.loads(
        (resources.files("lbound") / "data/systems/Tesla_V100.json").read_text("utf-8")),
        "system_id": "a/b"}), "utf-8")
    db = tmp_path / "perf.db"
    res = invoke(["bench", str(model), "--db", str(db), "--system", str(system),
                  "--dtypes", "f32", "--simulate"])
    assert res.exit_code == 0, res.output
    misses = tmp_path / "m.txt"
    args = ["analyze", str(model), "--db", str(db), "--system", str(system), "--tensor-core"]
    _no_traceback(invoke([*args, "--miss-out", str(misses)]), 3)
    keys = misses.read_text("utf-8").splitlines()
    assert keys and all(key.startswith("a/b/f16/NCHW/") for key in keys)
    res = invoke(["bench", "--from-misses", str(misses), "--db", str(db),
                  "--system", str(system), "--simulate"])
    assert res.exit_code == 0, res.output
    res = invoke(args)
    assert res.exit_code == 0, res.output


_KEY = "expected system/dtype/layout/algo/fused/signature, got {line!r}"


@pytest.mark.parametrize("line, reason", [
    ("Relu|f32|in=1x8|", _KEY),
    ("Tesla_V100/f32/NCHW/-/Relu|f32|in=1x8|", _KEY),
    ("Tesla_V100/f32/NHWC/FFT/-/Relu|f16|in=1x8|", "dtype 'f32' is not its signature's 'f16'"),
    ("Tesla_V100/f16/NCWH/-/-/Relu|f16|in=1x8|", "unknown layout 'NCWH'"),
    ("Tesla_V100/f32/NCHW/FAST/-/Relu|f32|in=1x8|",
     "algorithm 'FAST' is neither '-' nor a ConvAlgorithm name"),
    ("Tesla_V100/f32/NCHW/IMPLICIT_GEMM/-/Relu|f32|in=1x8|",
     "algorithm 'IMPLICIT_GEMM' is neither '-' nor a ConvAlgorithm name"),
    ("Tesla_V100/f32/NCHW/-/conv_relu/Relu|f32|in=1x8|",
     "fused 'conv_relu' is neither '-' nor a fusion pattern id"),
    ("Tesla_V100/f32/NCHW/-//Relu|f32|in=1x8|", "fused '' is neither '-' nor a fusion pattern id"),
    ("/f32/NCHW/-/-/Relu|f32|in=1x8|", "system must be a non-empty JSON string, got ''"),
    ("a\tb/f32/NCHW/-/-/Relu|f32|in=1x8|", "system 'a\\tb' holds control character U+0009"),
    ("Tesla_V100/f32/NCHW/-/-/Relu|f32|in=1x8x|",
     "bad signature 'Relu|f32|in=1x8x|': dims must be x-joined integers, got '1x8x'"),
], ids=["bare-signature", "five-fields", "dtype", "layout", "algorithm", "algorithm-value",
        "fused", "fused-empty", "system-empty", "system-control", "signature"])
def test_a_miss_line_that_is_not_a_key_exits_2(tmp_path, line, reason):
    """Every field of a key is checked as ``RecordKey.render`` writes it."""
    misses = tmp_path / "m.txt"
    misses.write_text(f"Tesla_V100/f32/NCHW/GEMM/conv_bias/Relu|f32|in=1x8|\n{line}\n",
                      "utf-8")
    res = invoke(["bench", "--from-misses", str(misses)])
    _one_error(res)
    message = reason.format(line=line) if reason == _KEY else f"{reason} in {line!r}"
    assert f"miss file {misses} line 2: {message}" in res.output


@pytest.mark.parametrize("section", ["KERNEL", "kernels", "KERNELS "])
def test_an_unknown_profile_section_exits_2(r18, tmp_path, section):
    """A misspelt ``[KERNELS]`` is refused, not read as a profile without kernels."""
    model, db = r18
    prof = _conv_profile(tmp_path, model)
    prof.write_text(prof.read_text("utf-8").replace("[KERNELS]", f"[{section}]"), "utf-8")
    res = _analyze(model, db, "--tensor-core", "--profile", str(prof))
    _one_error(res)
    assert f"unknown section {section!r}" in res.output


def test_advise_counts_the_covered_layers_of_an_incomplete_system(r18):
    model, db = r18
    res = invoke(["advise", str(model), "--db", str(db),
                  "--systems", "Tesla_K80,Tesla_V100", "--costs",
                  "Tesla_K80=0.9,Tesla_V100=3.06"])
    assert res.exit_code == 0, res.output
    supported = sum(dedup.api_for_op(node.op_type) is not None
                    for node in mz.load(model.read_text("utf-8")).nodes.values())
    first, second = res.output.splitlines()
    assert re.fullmatch(r"1\. Tesla_V100: \d+\.\d{3} ms, cost score \d+\.\d", first)
    assert second == (f"2. Tesla_K80: 0 of {supported} layers covered"
                      "  [incomplete: database misses]")


@pytest.mark.parametrize("systems", [",", " ", " , "])
def test_advise_with_no_system_named_exits_2(r18, systems):
    model, db = r18
    res = invoke(["advise", str(model), "--db", str(db), "--systems", systems])
    _one_error(res)
    assert "names no system" in res.output


def test_advise_ranks_a_repeated_system_once(r18):
    model, db = r18
    args = ["advise", str(model), "--db", str(db), "--systems"]
    res = invoke([*args, "Tesla_V100, Tesla_V100,Tesla_V100"])
    assert res.exit_code == 0, res.output
    assert res.stdout == invoke([*args, "Tesla_V100"]).stdout
    assert res.stdout.startswith("1. Tesla_V100: ") and res.stdout.count("\n") == 1


def test_bench_simulates_a_repeated_system_once(r18, tmp_path):
    """A system named twice in ``--system`` is one system: its records are
    appended once, so none supersedes another."""
    model, _db = r18
    manifest, db = tmp_path / "specs.jsonl", tmp_path / "perf.db"
    res = invoke(["bench", str(model), "--dtypes", "f32", "--manifest", str(manifest)])
    assert res.exit_code == 0, res.output
    res = invoke(["bench", "--from-manifest", str(manifest), "--simulate", "--system",
                  "Tesla_V100, Tesla_V100,", "--db", str(db)])
    assert res.exit_code == 0, res.output
    generated, simulated = res.stdout.splitlines()
    n = int(generated.split()[1])
    assert simulated == f"simulated {n} record(s) into {db}"  # no system prefix, once
    res = invoke(["db", "stats", str(db)])
    assert res.stdout == f"{n} live record(s), 0 superseded\n  Tesla_V100: {n}\n", res.output


def test_repeated_list_entries_give_the_specs_without_repeats(r18, tmp_path):
    model, _db = r18
    manifests = []
    for lists in (["f32,f16", "NCHW,NHWC", "FFT,GEMM"],
                  ["f32,f16,f32", "NCHW,NHWC,NCHW", "FFT,GEMM,FFT,GEMM"]):
        manifests.append(tmp_path / f"specs{len(manifests)}.jsonl")
        res = invoke(["bench", str(model), "--dtypes", lists[0], "--layouts", lists[1],
                      "--algorithms", lists[2], "--manifest", str(manifests[-1])])
        assert res.exit_code == 0, res.output
    once, repeated = (path.read_text("utf-8") for path in manifests)
    assert once and repeated == once


@pytest.mark.parametrize("args", [
    ["analyze", "{model}", "--db", "{db}", "--system", "Tesla_V100", "--out-file", "{bad}"],
    ["analyze", "{model}", "--db", "{db}", "--system", "Tesla_T4", "--miss-out", "{bad}"],
    ["analyze", "{model}", "--db", "{db}", "--system", "Tesla_T4", "--allow-missing",
     "--miss-out", "{bad}"],
    ["bench", "{model}", "--manifest", "{bad}"],
    ["bench", "{model}", "--emit-src", "{bad}"],
    ["bench", "{model}", "--emit-src", "{file}"],
    ["profile", "convert", "--latency-ms", "1", "--model", "m", "--system", "s", "-o", "{bad}"],
], ids=["out-file", "miss-out", "miss-out-allowed", "manifest", "emit-src", "emit-src-file",
        "profile-out"])
def test_an_unwritable_output_path_exits_2(r18, tmp_path, args):
    """A path below a regular file, or a directory that is a file, cannot be written."""
    model, db = r18
    file = tmp_path / "file"
    file.write_text("", "utf-8")
    bad = file / "out"
    args = [a.format(model=model, db=db, bad=bad, file=file) for a in args]
    res = invoke(args)
    _one_error(res)
    assert f"cannot write {file if args[-1] == str(file) else bad}: " in res.output


def _folder(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize("state", ["none", "valid", "stale"])
def test_read_only_commands_write_nothing(r18, tmp_path, state):
    """With no index, an index of part of the file, or one of another file."""
    model, db = r18
    lines = db.read_bytes().splitlines(keepends=True)
    folder = tmp_path / "db"
    folder.mkdir()
    copy = folder / "perf.db"
    if state != "none":
        part = lines[:len(lines) // 2] if state == "valid" else lines[1:]
        copy.write_bytes(b"".join(part))
        PerfDb(copy, mode="rw").close()  # the index of those lines
    copy.write_bytes(b"".join(lines))
    before = _folder(folder)
    assert sorted(before) == (["perf.db"] if state == "none" else ["perf.db", "perf.db.idx"])
    commands = [["analyze", str(model), "--db", str(copy), "--system", "Tesla_V100"],
                ["advise", str(model), "--db", str(copy), "--systems", "Tesla_V100,Tesla_T4"],
                ["db", "stats", str(copy)],
                ["bench", str(model), "--delta", "--system", "Tesla_V100", "--db", str(copy)]]
    for args in commands:
        res = invoke(args)
        assert res.exit_code == 0, res.output
        assert res.output == invoke([str(db) if a == str(copy) else a
                                     for a in args]).output
        assert _folder(folder) == before, args


def test_a_failed_index_write_keeps_the_exit_code(r18, tmp_path):
    model, _db = r18
    db = tmp_path / "perf.db"
    (tmp_path / "perf.db.idx.tmp").mkdir()  # where the index is written first
    res = invoke(["bench", str(model), "--db", str(db),
                  "--system", "Tesla_V100", "--simulate"])
    assert res.exit_code == 0, res.output
    assert not (tmp_path / "perf.db.idx").exists()
    res = invoke(["db", "compact", str(db)])
    assert res.exit_code == 0 and "dropped 0 superseded" in res.output
    assert _analyze(model, db).exit_code == 0


def test_a_log_with_another_number_of_convolutions_exits_2(r18, tmp_path):
    model, db = r18
    convs = sum(node.op_type == "Conv" for node in mz.load(model.read_text("utf-8")).nodes.values())
    res = _analyze(model, db, "--profile", str(_conv_profile(tmp_path, model, drop=1)))
    _one_error(res)
    assert (f"graph has {convs} convolution layers but the log has {convs - 1} "
            "convolution calls") in res.output


def test_a_fusion_site_with_no_fused_record_keeps_its_members(tmp_path):
    """A tower of Conv->bias Add pairs, benchmarked without --fusion: no
    site has a fused record, so none applies and no latency moves."""
    model = tmp_path / "tower.txt"
    model.write_text(mz.fusion_tower_text(6, 40), "utf-8")
    db = tmp_path / "perf.db"
    res = invoke(["bench", str(model), "--db", str(db), "--system", "Tesla_V100", "--simulate"])
    assert res.exit_code == 0, res.output
    res = _analyze(model, db, "--fusion")
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    fusion = report["fusion"]
    assert len(fusion["sites"]) == 6 and fusion["fused_layer_count"] == 12
    assert all(site["applied"] is False and site["fused_us"] is None
               and site["profit_us"] == 0.0 for site in fusion["sites"])
    assert fusion["fused_lb_us"] == fusion["unfused_lb_us"] == report["lb_sequential_us"]
    assert fusion["profit_ratio"] == 1.0
    with PerfDb(db) as handle:
        anns = analyzer.Annotator(mz.load(model.read_text("utf-8")), handle)
        ann, latencies, sites = analyzer.apply(anns, "Tesla_V100", "f32", None, fusion=True)
        assert latencies == ann.latencies
        sums = [sum(ann.latencies[m] for m in site.members) for site in sites]
        assert [site.member_sum_us for site in sites] == sums and min(sums) > 0


def test_allow_missing_lists_each_missing_benchmark_in_the_text_report(r18, tmp_path):
    _model, db = r18
    model = tmp_path / "resnet50.txt"
    model.write_text(mz.resnet_v1_text(50), "utf-8")
    args = ["analyze", str(model), "--db", str(db), "--system", "Tesla_V100", "--allow-missing"]
    missing = json.loads(invoke([*args, "--out", "json"]).output)["missing"]
    res = invoke(args)
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    at = lines.index(f"  missing benchmarks: {len(missing)}")
    assert lines[at + 1:at + 1 + len(missing)] == [f"    - {key}" for key in missing]
    assert len(lines) == at + 1 + len(missing)  # the list ends this report


def test_a_measured_latency_below_the_bound_warns(r18):
    model, db = r18
    args = ["analyze", str(model), "--db", str(db), "--system", "Tesla_V100",
            "--measured-ms", "0.01"]
    report = json.loads(invoke([*args, "--out", "json"]).output)
    for key in ("br_sequential", "br_parallel"):
        assert report[key]["br"] > 1 and report[key]["speedup"] < 1
        assert report[key]["warning"].startswith("lower bound exceeds measured latency")
    res = invoke(args)
    assert res.exit_code == 0, res.output
    warnings = [line for line in res.output.splitlines() if line.startswith("  warning: ")]
    assert warnings == [f"  warning: {report[key]['warning']}"
                        for key in ("br_sequential", "br_parallel")]


@pytest.mark.parametrize("costs", [[], ["--costs", "Tesla_V100=3.06"]])
def test_advise_by_cost_without_a_cost_for_each_system_exits_2(r18, costs):
    model, db = r18
    res = invoke(["advise", str(model), "--db", str(db), "--systems", "Tesla_K80,Tesla_V100",
                  "--rank-by", "cost", *costs])
    _one_error(res)
    assert "no cost given for system 'Tesla_K80'" in res.output


def test_db_import_appends_nothing_unless_every_line_of_every_file_is_good(r18, tmp_path):
    """A bad line 6 leaves lines 1-5, and every earlier file, unwritten too."""
    model, r18_db = r18
    db = tmp_path / "perf.db"
    for suffix in ("", ".idx"):
        tmp_path.joinpath("perf.db" + suffix).write_bytes(
            r18_db.with_name(r18_db.name + suffix).read_bytes())
    other = tmp_path / "t4.db"
    res = invoke(["bench", str(model), "--db", str(other), "--system", "Tesla_T4", "--simulate"])
    assert res.exit_code == 0, res.output
    lines = other.read_text("utf-8").splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:5] + ["{not a record"] + lines[5:]) + "\n", "utf-8")
    before = db.read_bytes(), (tmp_path / "perf.db.idx").read_bytes()
    for files in ([bad], [other, bad]):
        res = invoke(["db", "import", str(db), *map(str, files)])
        _no_traceback(res, 4)
        assert "bad database record at line 6" in res.output
        assert (db.read_bytes(), (tmp_path / "perf.db.idx").read_bytes()) == before


def test_db_import_adds_a_system_and_a_second_import_supersedes_it(r18, tmp_path):
    """Another database's lines, for a system the database lacks, import and
    are read by analyze; importing a re-run supersedes them, and compact
    drops what was superseded."""
    model, r18_db = r18
    db = tmp_path / "perf.db"
    db.write_bytes(r18_db.read_bytes())
    runs = []
    for seed in ("1", "2"):
        other = tmp_path / f"t4-{seed}.db"
        res = invoke(["bench", str(model), "--db", str(other), "--system", "Tesla_T4",
                      "--simulate", "--jitter-seed", seed])
        assert res.exit_code == 0, res.output
        runs.append(other)
    n = len(runs[0].read_text("utf-8").splitlines())
    live = len(r18_db.read_text("utf-8").splitlines())
    t4 = ["--system", "Tesla_T4"]
    assert _analyze(model, db, *t4).exit_code == 3  # no Tesla_T4 record yet

    for i, run in enumerate(runs):
        res = invoke(["db", "import", str(db), str(run)])
        assert res.exit_code == 0, res.output
        assert res.output == f"imported {n} record(s) into {db}\n"
        stats = invoke(["db", "stats", str(db)]).output
        assert stats.splitlines()[0] == f"{live + n} live record(s), {i * n} superseded"
        assert f"  Tesla_T4: {n}" in stats
        res = _analyze(model, db, *t4)
        assert res.exit_code == 0, res.output
        assert res.output == _analyze(model, run, *t4).output
    assert _analyze(model, runs[0], *t4).output != _analyze(model, runs[1], *t4).output

    res = invoke(["db", "compact", str(db)])
    assert res.output == f"compacted {db}: dropped {n} superseded record(s)\n"
    stats = invoke(["db", "stats", str(db)]).output
    assert stats.splitlines()[0] == f"{live + n} live record(s), 0 superseded"
    assert len(db.read_text("utf-8").splitlines()) == live + n
    assert _analyze(model, db, *t4).output == _analyze(model, runs[1], *t4).output
