"""Every int and float field of the configs `run` builds (DedupConfig,
EndpointConfig, FilterConfig, MixPlan, GenSection, EvalSection and the run's
own seed) at 0, -1, a large value and the non-finite floats: each is refused
up front with a ConfigError (exit 2 before any stage runs), or it is accepted
and runs."""

from __future__ import annotations

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import renokit.endpoint
from renokit.cli import main
from renokit.dedup import DedupConfig
from renokit.endpoint import EndpointConfig, HttpTransport
from renokit.errors import ConfigError
from renokit.evalharness import check_shots, load_dataset
from renokit.filters import FilterConfig
from renokit.jsonl import config_from_dict, read_json, write_json
from renokit.mixer import MixPlan
from renokit.pipeline import EvalSection, GenSection, RunConfig

from fixture_data import write_evalhome, write_pipeline_fixture
from mocks import ScriptedTransport

NUMERIC = ("int", "float", "int | None", "tuple[float, ...]", "list[int]")
INF, NAN = float("inf"), float("nan")
BANDING = ("num_perm", "lsh_bands", "lsh_rows")


def numeric_fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type in NUMERIC]


def values(cls, name: str) -> list:
    ftype = next(f.type for f in dataclasses.fields(cls) if f.name == name)
    if "float" in ftype:
        return [0, -1, 1e9, 1e12, INF, NAN]
    # The banding sizes every signature, so its large value is one a run can hold.
    return [0, -1, 4096 if name in BANDING else 10**9]


def cases(cls) -> list[tuple[str, object]]:
    return [(name, value) for name in numeric_fields(cls) for value in values(cls, name)]


def test_every_numeric_field_is_covered():
    assert numeric_fields(DedupConfig) == ["ngram", "num_perm", "jaccard_threshold", "lsh_bands", "lsh_rows",
                                           "sentence_max_repeats", "seed"]
    assert numeric_fields(EndpointConfig) == ["temperature", "max_retries", "backoff", "concurrency_limit", "timeout"]
    assert numeric_fields(FilterConfig) == ["min_effective_chars", "min_language_ratio"]
    assert [numeric_fields(cls) for cls in (MixPlan, GenSection, EvalSection, RunConfig)] == [
        ["seed"], ["budget"], ["shots"], ["seed"]]


# --- DedupConfig: refused, or the fixture run exits 0 ------------------------------


def dedup_section(name: str, value) -> dict:
    """The default section with `name` set to `value`; a banding value keeps
    bands * rows == num_perm, so that only its own bound is under test."""
    section = {"num_perm": 256, "lsh_bands": 32, "lsh_rows": 8, name: value}
    if name == "num_perm":
        section.update(lsh_bands=value, lsh_rows=1)
    elif name == "lsh_bands":
        section["num_perm"] = value * 8
    elif name == "lsh_rows":
        section["num_perm"] = 32 * value
    return section


def run_fixture(tmp_path, section: dict) -> int:
    config_path = write_pipeline_fixture(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["dedup"] = section
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("section", [
    *(dedup_section(name, value) for name, value in cases(DedupConfig)),
    # every banding field at zero, and negative bands and rows with a positive product
    {"num_perm": 0, "lsh_bands": 0, "lsh_rows": 0},
    {"num_perm": 256, "lsh_bands": -32, "lsh_rows": -8},
], ids=str)
def test_dedup_value_is_refused_up_front_or_runs(tmp_path, capsys, section):
    try:
        config_from_dict(DedupConfig, section, "dedup section")
    except ConfigError:
        assert run_fixture(tmp_path, section) == 2
        assert capsys.readouterr().err.startswith("error: dedup section")
        assert not (tmp_path / "out" / "docs.jsonl").exists()
    else:
        assert run_fixture(tmp_path, section) == 0
        assert (tmp_path / "out" / "unique.jsonl").exists()


@pytest.mark.parametrize("section", [
    {"num_perm": 0, "lsh_bands": 0, "lsh_rows": 0},
    {"num_perm": 256, "lsh_bands": -32, "lsh_rows": -8},
    {"num_perm": -256, "lsh_bands": -32, "lsh_rows": 8},
], ids=str)
def test_banding_below_one_is_refused(tmp_path, section):
    with pytest.raises(ConfigError, match="must be >= 1"):
        config_from_dict(DedupConfig, section, "dedup section")
    (tmp_path / "docs.jsonl").write_text("", encoding="utf-8")
    (tmp_path / "dedup.json").write_text(json.dumps(section), encoding="utf-8")
    assert main(["dedup", "--in", str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / "u.jsonl"),
                 "--pairs", str(tmp_path / "p.jsonl"), "--config", str(tmp_path / "dedup.json")]) == 2


# --- EndpointConfig: refused, or a request goes through -----------------------------

BASE = {"base_url": "http://127.0.0.1:9", "model_name": "m"}


def endpoint_value(name: str, value) -> dict:
    return {**BASE, name: [value] if name == "backoff" else value}


class _BusyOnce(BaseHTTPRequestHandler):
    """Answers 503 to the first request after `calls` is reset, then a completion."""

    calls = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).calls += 1
        status, payload = (503, b"{}") if self.calls == 1 else (200, json.dumps(
            {"choices": [{"message": {"content": "ok"}}]}).encode())
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def busy_once_url():
    server = HTTPServer(("127.0.0.1", 0), _BusyOnce)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.mark.parametrize("name, value", cases(EndpointConfig), ids=str)
def test_endpoint_value_is_refused_up_front_or_runs(tmp_path, capsys, busy_once_url, name, value):
    obj = endpoint_value(name, value)
    try:
        cfg = config_from_dict(EndpointConfig, obj, "endpoint config")
    except ConfigError:
        (tmp_path / "ep.json").write_text(json.dumps(obj), encoding="utf-8")
        (tmp_path / "docs.jsonl").write_text("", encoding="utf-8")
        assert main(["gen", "--kind", "mcq", "--knowledge", str(tmp_path / "docs.jsonl"), "--out",
                     str(tmp_path / "sft.jsonl"), "--endpoint", str(tmp_path / "ep.json"), "--budget", "1"]) == 2
        assert str(tmp_path / "ep.json") in capsys.readouterr().err
        return
    if name in ("max_retries", "concurrency_limit"):
        return  # they set loop and thread counts: checked by construction only
    # one retried request through requests itself, which checks the timeout
    cfg = dataclasses.replace(cfg, base_url=busy_once_url, max_retries=1)
    _BusyOnce.calls = 0
    slept: list[float] = []

    def sleep(seconds: float) -> None:
        assert 0 <= seconds <= threading.TIMEOUT_MAX, f"time.sleep refuses {seconds}"
        slept.append(seconds)

    transport = HttpTransport(cfg, sleep=sleep)
    try:
        request = {"model": "m", "messages": [{"role": "user", "content": "q"}], "temperature": cfg.temperature}
        assert transport.complete(request).text == "ok"
    finally:
        transport.close()
    assert slept == [cfg.backoff[0]]


@pytest.mark.parametrize("obj", [{"timeout": 0}, {"timeout": -1.5}, {"timeout": NAN}, {"timeout": 1e12},
                                 {"backoff": [1, -0.5]}, {"backoff": [INF]}, {"temperature": NAN}], ids=str)
def test_endpoint_waits_that_cannot_run_are_refused(obj):
    with pytest.raises(ValueError):
        EndpointConfig(**{**BASE, **obj})


# --- the run's other sections: refused, or the fixture run exits 0 ------------------

# What the mock endpoint answers to every request: a generated question for gen,
# a reply with an option letter for eval.
MCQ_REPLY = json.dumps({
    "question": "知识点判断？",
    "question_type": "单选",
    "candidate_options": {k: f"选{k}" for k in "ABCD"},
    "answer": {"correct_option": "A", "reason": "依据"},
}, ensure_ascii=False)
# The section each class builds, as the fixture's config holds it (gen and eval
# against the mock endpoint); RunConfig's fields sit at the top level.
SECTIONS = {
    FilterConfig: "filters",
    MixPlan: "mix",
    GenSection: "gen",
    EvalSection: "eval",
    RunConfig: None,
}
GEN = {"kind": "mcq", "endpoint": "ep.json", "budget": 100}
EVAL = {"dataset": "evalhome.jsonl", "endpoint": "ep.json", "shots": [0]}


@pytest.fixture()
def mock_endpoint(monkeypatch):
    """Every HTTP transport the run opens is a scripted one that sends nothing."""
    monkeypatch.setattr(renokit.endpoint, "HttpTransport", lambda cfg: ScriptedTransport(lambda messages: MCQ_REPLY))


def fixture_config(tmp_path, cls, name: str, value) -> dict:
    """The fixture's run config, with the section that `cls` builds holding `value` at `name`."""
    config = json.loads(write_pipeline_fixture(tmp_path).read_text(encoding="utf-8"))
    write_json(tmp_path / "ep.json", {"base_url": "http://mock.invalid", "model_name": "m"})
    write_evalhome(tmp_path / "evalhome.jsonl")
    if cls in (GenSection, EvalSection):
        config.update(gen=dict(GEN), eval=dict(EVAL))
    section = config if cls is RunConfig else config[SECTIONS[cls]]
    section[name] = [value] if name == "shots" else value
    return config


def refused(tmp_path, cls, config: dict) -> bool:
    """Whether the section is refused where `run` builds it: by config_from_dict,
    or, for the eval shots, by check_shots against the dataset."""
    section = config if cls is RunConfig else config[SECTIONS[cls]]
    if cls is MixPlan:
        section = {"seed": config["seed"], **section}
    try:
        built = config_from_dict(cls, section, f"{cls.__name__} section")
        if cls is EvalSection:
            check_shots(built.shots, load_dataset(tmp_path / "evalhome.jsonl"))
    except ConfigError:
        return True
    return False


def run(tmp_path, config: dict) -> int:
    (tmp_path / "pipeline.json").write_text(json.dumps(config), encoding="utf-8")
    return main(["run", "--config", str(tmp_path / "pipeline.json"), "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("cls, name, value", [
    (cls, name, value) for cls in SECTIONS for name, value in cases(cls)
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_section_value_is_refused_up_front_or_runs(tmp_path, capsys, mock_endpoint, cls, name, value):
    config = fixture_config(tmp_path, cls, name, value)
    out = tmp_path / "out"
    if refused(tmp_path, cls, config):
        assert run(tmp_path, config) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "docs.jsonl").exists()
    elif (cls, name, value) == (FilterConfig, "min_effective_chars", 10**9):
        # A data outcome, not a config defect: no document is that long, so
        # the filter keeps none and mix has no domain data to mix.
        assert run(tmp_path, config) == 3
        assert capsys.readouterr().err == "error: stage 'mix' failed: domain dataset is empty\n"
        report = read_json(out / "filter_report.json")
        assert report["retained"] == 0
        assert report["retained"] + sum(report["dropped"].values()) == report["input"] == 20
    elif (cls, name, value) == (GenSection, "budget", 0):
        # budget 0 replays a full archive: filled by a first run, then no request
        assert run(tmp_path, fixture_config(tmp_path, cls, name, GEN["budget"])) == 0
        assert run(tmp_path, config) == 0
        assert read_json(out / "gen_report.json")["requests_sent"] == 0
    else:
        assert run(tmp_path, config) == 0
        assert (out / "train.jsonl").exists()


def test_negative_budget_is_refused_before_any_stage_or_request(tmp_path, capsys, mock_endpoint):
    config = fixture_config(tmp_path, GenSection, "budget", -1)
    assert run(tmp_path, config) == 2
    assert capsys.readouterr().err == "error: gen section: generation budget must be >= 0, got -1\n"
    assert not (tmp_path / "out" / "docs.jsonl").exists()
    write_json(tmp_path / "docs.jsonl", {})
    assert main(["gen", "--kind", "mcq", "--knowledge", str(tmp_path / "docs.jsonl"), "--endpoint",
                 str(tmp_path / "ep.json"), "--out", str(tmp_path / "sft.jsonl"), "--budget", "-1"]) == 2
    assert capsys.readouterr().err == "error: generation budget must be >= 0, got -1\n"
    assert not (tmp_path / "sft.jsonl").exists()
