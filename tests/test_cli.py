import http.server
import json
import logging
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
import requests

from wotsim import BindFailure, EventMode, ServientConfig, build_config, load_config_file
from wotsim import cli, server
from wotsim.cli import _parse_interval_flags, main, probe_target, ProbeError

from conftest import (FIXTURE_DIR, fixture_text, free_port, open_connections,
                      running_server, wait_for)


class TestEventModeSpellings:
    def test_cli_forms(self):
        assert EventMode.parse("none") == EventMode.none()
        assert EventMode.parse("random") == EventMode.random_interval()
        assert EventMode.parse("fixed:2.5") == EventMode.fixed(2.5)

    @pytest.mark.parametrize("text", ["hourly", "fixed:", "fixed:abc",
                                      "fixed:0", "fixed:-3", "FIXED:2",
                                      "fixed:nan", "fixed:inf", "fixed:-inf"])
    def test_cli_rejects(self, text):
        with pytest.raises(ValueError):
            EventMode.parse(text)

    def test_config_forms(self):
        assert EventMode.from_config_value("none") == EventMode.none()
        assert EventMode.from_config_value({"fixed": 4}) == EventMode.fixed(4.0)
        with pytest.raises(ValueError):
            EventMode.from_config_value({"fixed": "4"})
        with pytest.raises(ValueError):
            EventMode.from_config_value("sometimes")


class TestIntervalFlags:
    def test_parses_entries(self):
        parsed = _parse_interval_flags(["alarm=2", "tick=0.5"])
        assert parsed == {"alarm": EventMode.fixed(2.0),
                         "tick": EventMode.fixed(0.5)}

    @pytest.mark.parametrize("entry", ["alarm", "=3", "alarm=soon", "alarm=nan", "alarm=inf"])
    def test_rejects_bad_entries(self, entry):
        with pytest.raises(ValueError):
            _parse_interval_flags([entry])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            _parse_interval_flags(["alarm=2", "alarm=3"])

    def test_event_name_may_contain_equals(self):
        assert _parse_interval_flags(["a=b=1"]) == {"a=b": EventMode.fixed(1.0)}


class TestConfigFile:
    def test_full_file(self, tmp_path):
        path = tmp_path / "servient.json"
        path.write_text(json.dumps({
            "address": "0.0.0.0",
            "port": 9000,
            "eventMode": {"fixed": 3},
            "eventIntervals": {"alarm": 1.5},
            "seed": 11,
            "logLevel": "debug",
        }))
        settings = load_config_file(str(path))
        assert settings == {
            "address": "0.0.0.0",
            "port": 9000,
            "eventMode": EventMode.fixed(3.0),
            "eventIntervals": {"alarm": EventMode.fixed(1.5)},
            "seed": 11,
            "logLevel": "debug",
        }

    @pytest.mark.parametrize("doc", [
        {"portt": 1},
        {"port": "8080"},
        {"port": True},
        {"seed": 1.5},
        {"logLevel": "chatty"},
        {"eventIntervals": {"alarm": "fast"}},
        ["not", "an", "object"],
        {"eventMode": {"fixed": float("nan")}},
        {"eventMode": {"fixed": float("inf")}},
        {"eventIntervals": {"alarm": float("nan")}},
        {"eventIntervals": {"alarm": 10 ** 400}},  # past a double's range
    ])
    def test_rejected_documents(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_config_file(str(path))

    def test_missing_and_malformed_files(self, tmp_path):
        with pytest.raises(ValueError):
            load_config_file(str(tmp_path / "absent.json"))
        broken = tmp_path / "broken.json"
        broken.write_text("{oops")
        with pytest.raises(ValueError):
            load_config_file(str(broken))


class TestBuildConfig:
    def test_defaults(self):
        config = build_config(None, None)
        assert config == ServientConfig()

    def test_file_values_apply(self):
        config = build_config({"port": 9000, "seed": 3}, {})
        assert config.port == 9000 and config.seed == 3
        assert config.address == "127.0.0.1"

    @pytest.mark.parametrize("key,file_value,flag_value,attribute", [
        ("address", "10.0.0.5", "192.168.1.9", "address"),
        ("port", 9000, 9001, "port"),
        ("eventMode", EventMode.none(), EventMode.fixed(1.0), "event_mode"),
        ("eventIntervals", {"a": EventMode.fixed(1.0)},
         {"a": EventMode.fixed(2.0)}, "event_overrides"),
        ("seed", 1, 2, "seed"),
        ("logLevel", "warn", "debug", "log_level"),
    ])
    def test_flags_beat_file_per_key(self, key, file_value, flag_value, attribute):
        config = build_config({key: file_value}, {key: flag_value})
        assert getattr(config, attribute) == flag_value

    def test_none_flags_do_not_mask_file_values(self):
        config = build_config({"seed": 9, "port": 9000},
                              {"seed": None, "port": None, "address": None})
        assert config.seed == 9 and config.port == 9000


class TestRunErrors:
    def run_main(self, capsys, *argv):
        code = main(["run", *argv])
        return code, capsys.readouterr().err

    def test_missing_td_file(self, capsys):
        code, err = self.run_main(capsys, "no-such.td.json")
        assert code == 1 and "error:" in err

    def test_unusable_td(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[]")
        code, err = self.run_main(capsys, str(path))
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("member", ['"enum": ["\\ud800"]', '"maximum": NaN'])
    def test_td_that_json_cannot_carry(self, capsys, tmp_path, member):
        path = tmp_path / "x.td.json"
        path.write_text('{"title": "T", "properties": {"p": {%s, "forms": [{"href": "/p"}]}}}'
                        % member)
        code, err = self.run_main(capsys, str(path), "--port", str(free_port()),
                                  "--event-mode", "none")
        assert code == 1 and err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_number_range_past_the_largest_double(self, capsys, tmp_path):
        path = tmp_path / "x.td.json"
        path.write_text('{"title": "T", "properties": {"p": {"type": "number", '
                        '"minimum": 1%s, "forms": [{"href": "/p"}]}}}' % ("0" * 400))
        code, err = self.run_main(capsys, str(path), "--port", str(free_port()),
                                  "--event-mode", "none")
        assert code == 1 and err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "no double" in err

    def test_bad_event_mode_flag(self, capsys):
        path = str(FIXTURE_DIR / "coffee-machine.td.json")
        code, err = self.run_main(capsys, path, "--event-mode", "hourly")
        assert code == 1 and "event mode" in err

    def test_bad_interval_flag(self, capsys):
        path = str(FIXTURE_DIR / "coffee-machine.td.json")
        code, err = self.run_main(capsys, path, "--event-interval", "alarm")
        assert code == 1 and "EVENT=SECONDS" in err

    def test_duplicate_titles(self, capsys):
        path = str(FIXTURE_DIR / "coffee-machine.td.json")
        code, err = self.run_main(capsys, path, path,
                                  "--port", str(free_port()),
                                  "--event-mode", "none")
        assert code == 1 and "already attached" in err

    def test_occupied_port(self, capsys):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            path = str(FIXTURE_DIR / "coffee-machine.td.json")
            code, err = self.run_main(capsys, path, "--port", str(port),
                                      "--event-mode", "none")
        finally:
            blocker.close()
        assert code == 1 and "cannot bind" in err

    @pytest.fixture
    def refused_things(self, monkeypatch):
        """Things that `run` tried to serve; serving itself is refused."""
        things = []

        def refuse(served, config):
            things.extend(served)
            raise BindFailure("not serving in this test")

        monkeypatch.setattr(cli, "serve", refuse)
        return things

    def test_one_logged_seed_drives_every_thing(self, refused_things, caplog):
        paths = [str(FIXTURE_DIR / name)
                 for name in ("coffee-machine.td.json", "dice-box.td.json")]
        with caplog.at_level(logging.INFO, logger="wotsim.cli"):
            assert main(["run", *paths, "--event-mode", "none"]) == 1
        seeds = [r.args[0] for r in caplog.records if r.getMessage().startswith("seed ")]
        assert len(seeds) == 1
        assert [thing.config.seed for thing in refused_things] == seeds * 2

    def test_given_seed_is_logged(self, refused_things, caplog):
        path = str(FIXTURE_DIR / "coffee-machine.td.json")
        with caplog.at_level(logging.INFO, logger="wotsim.cli"):
            main(["run", path, "--seed", "42", "--event-mode", "none"])
        assert any(r.getMessage().startswith("seed 42 ") for r in caplog.records)

    def test_bad_config_file(self, capsys, tmp_path):
        config = tmp_path / "servient.json"
        config.write_text(json.dumps({"portt": 1}))
        path = str(FIXTURE_DIR / "coffee-machine.td.json")
        code, err = self.run_main(capsys, path, "--config", str(config))
        assert code == 1 and "portt" in err

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["--event-mode", "fixed:nan"],
        ["--event-mode", "fixed:inf"],
        ["--event-interval", "alarm=nan"],
        ["--event-interval", "alarm=inf"],
        ["--config", '{"eventMode": {"fixed": NaN}}'],
        ["--config", '{"eventIntervals": {"alarm": Infinity}}'],
    ])
    def test_interval_that_is_not_finite(self, refused_things, capsys, tmp_path, argv):
        if argv[0] == "--config":
            (tmp_path / "servient.json").write_text(argv[1])
            argv = ["--config", str(tmp_path / "servient.json")]
        code, err = self.run_main(capsys, str(FIXTURE_DIR / "thermostat.td.json"), *argv)
        assert (code, refused_things) == (1, [])
        assert err.startswith("error: ") and err.count("\n") == 1


def test_interrupt_just_after_serving_stops_the_servient(monkeypatch):
    stopped = []
    stop = server.ServerHandle.stop

    def interrupted(thing):
        raise KeyboardInterrupt

    monkeypatch.setattr(server.ServerHandle, "stop",
                        lambda handle: stopped.append(handle) or stop(handle))
    monkeypatch.setattr(cli, "_log_routes", interrupted)
    sigterm = signal.getsignal(signal.SIGTERM)
    try:
        code = main(["run", str(FIXTURE_DIR / "coffee-machine.td.json"),
                     "--port", str(free_port()), "--event-mode", "none"])
    except KeyboardInterrupt:  # escaped the servient's stop
        code = None
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    assert code == 0
    assert len(stopped) == 1 and not stopped[0]._thread.is_alive()


def test_interrupt_inside_serve_stops_the_servient(monkeypatch):
    # The loop already answers when start() logs where it listens.
    info = server.logger.info

    def interrupted(message, *args):
        if message.startswith("servient listening on"):
            raise KeyboardInterrupt
        return info(message, *args)

    def loops():
        return {t for t in threading.enumerate() if t.name == "wotsim-loop" and t.is_alive()}

    before = loops()
    monkeypatch.setattr(server.logger, "info", interrupted)
    sigterm = signal.getsignal(signal.SIGTERM)
    try:
        code = main(["run", str(FIXTURE_DIR / "coffee-machine.td.json"),
                     "--port", str(free_port()), "--event-mode", "none"])
    except KeyboardInterrupt:  # escaped serve()
        code = None
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    assert code == 0
    assert loops() <= before


def start_run_process(*extra, port=None, tds=("coffee-machine.td.json",)):
    port = port or free_port()
    argv = [sys.executable, "-m", "wotsim", "run",
            *(str(FIXTURE_DIR / name) for name in tds),
            "--port", str(port), "--log-level", "error", *extra]
    # A shell that starts pytest as a background job ignores SIGINT, and the
    # child would inherit that: restore the default so SIGINT stops it.
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise AssertionError(
                    f"run exited early: {process.stderr.read().decode()}")
            try:
                requests.get(f"http://127.0.0.1:{port}/", timeout=1)
                return process, port
            except requests.RequestException:
                time.sleep(0.1)
        raise AssertionError("server never came up")
    except BaseException:
        reap(process)
        raise


def reap(process) -> None:
    """Kill the process if it still runs, wait for it and close its pipes."""
    if process.poll() is None:
        process.kill()
    process.wait()
    process.stdout.close()
    process.stderr.close()


def stop_run_process(process, signum=signal.SIGINT) -> int:
    """Signal the servient and wait for it; kill it if the wait runs out."""
    try:
        process.send_signal(signum)
        return process.wait(timeout=10)
    finally:
        reap(process)


class TestRunProcess:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_clean_shutdown(self, signum):
        process, _ = start_run_process("--event-mode", "none")
        assert stop_run_process(process, signum) == 0

    def test_sigterm_just_after_a_hundred_streams_end_exits_at_once(self):
        process, port = start_run_process("--event-mode", "fixed:0.005",
                                          tds=("thermostat.td.json",))
        try:
            streams = [socket.create_connection(("127.0.0.1", port), timeout=5)
                       for _ in range(100)]
            for stream in streams:
                stream.sendall(b"GET /Thermostat-42/events/alarm HTTP/1.1\r\nHost: x\r\n"
                               b"Accept: text/event-stream\r\n\r\n")
                assert stream.recv(64).startswith(b"HTTP/1.1 200")
            for stream in streams:
                stream.close()
            started = time.monotonic()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=5) == 0
            assert time.monotonic() - started < 5
        finally:
            reap(process)

    def test_serves_after_startup(self):
        process, port = start_run_process("--event-mode", "none", "--seed", "8")
        try:
            reply = requests.get(
                f"http://127.0.0.1:{port}/Coffee-Machine/properties/state",
                timeout=5)
            assert reply.status_code == 200
        finally:
            stop_run_process(process)


class _FaultyHandler(http.server.BaseHTTPRequestHandler):
    """Serves a TD whose state property answers with a value outside its enum
    and whose lever property rejects writes although the TD allows them."""

    td = {
        "title": "Faulty",
        "properties": {
            "state": {
                "type": "string",
                "enum": ["Ready", "Brewing", "Error"],
                "readOnly": True,
                "forms": [{"href": "/properties/state"}],
            },
            "lever": {
                "type": "integer",
                "minimum": 1,
                "maximum": 5,
                "forms": [{"href": "/properties/lever"}],
            },
        },
    }

    def _reply(self, body: bytes, content_type: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/":
            self._reply(json.dumps(self.td).encode(), "application/td+json")
        elif self.path == "/properties/state":
            self._reply(b'"Espresso"', "application/json")
        elif self.path == "/properties/lever":
            self._reply(b"3", "application/json")
        else:
            self.send_error(404)

    def do_PUT(self):
        self.send_response(405)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def faulty_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FaultyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestProbe:
    def test_healthy_thing_passes(self, capsys, coffee_text):
        with running_server([coffee_text], seed=5) as handle:
            code = main(["probe", f"{handle.base_url}/Coffee-Machine",
                         "--duration", "0.5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 check(s): 3 passed, 0 failed" in out
        assert "FAIL" not in out

    def test_json_report_shape(self, capsys, coffee_text):
        with running_server([coffee_text], seed=5) as handle:
            code = main(["probe", f"{handle.base_url}/Coffee-Machine",
                         "--duration", "0.5", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [sorted(entry) for entry in report] == (
            [["affordance", "detail", "elapsed_ms", "kind", "result"]] * 3)
        assert {entry["affordance"] for entry in report} == {"state", "brew", "error"}
        assert all(entry["elapsed_ms"] >= 0 for entry in report)
        event = next(entry for entry in report if entry["kind"] == "event")
        assert event["elapsed_ms"] >= 500  # it was watched for the whole window
        assert all(entry["result"] == "PASS" for entry in report)

    def test_event_silence_is_a_vacuous_pass(self, capsys, coffee_text):
        with running_server([coffee_text], seed=5) as handle:
            code = main(["probe", f"{handle.base_url}/Coffee-Machine",
                         "--duration", "0.5", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        event = next(e for e in report if e["kind"] == "event")
        assert "no events" in event["detail"]

    def test_live_events_are_counted(self, capsys, coffee_text):
        with running_server([coffee_text], seed=5,
                            event_mode=EventMode.fixed(0.2)) as handle:
            code = main(["probe", f"{handle.base_url}/Coffee-Machine",
                         "--duration", "1.0", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        event = next(e for e in report if e["kind"] == "event")
        assert "conforming" in event["detail"] and "no events" not in event["detail"]

    def test_nonconforming_value_fails(self, capsys, faulty_server):
        code = main(["probe", faulty_server, "--duration", "0.2"])
        out = capsys.readouterr().out
        assert code == 1
        lines = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(lines) == 1 and "state" in lines[0]
        assert "violates" in lines[0]

    def test_405_write_rejection_passes(self, capsys, faulty_server):
        main(["probe", faulty_server, "--duration", "0.2", "--json"])
        report = json.loads(capsys.readouterr().out)
        lever = next(e for e in report if e["affordance"] == "lever")
        assert lever["result"] == "PASS"
        assert "405" in lever["detail"]

    def test_unreachable_target_exits_2(self, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        blocker.close()  # nothing listens here now
        code = main(["probe", f"http://127.0.0.1:{port}/"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_http_error_target_exits_2(self, capsys, coffee_text):
        with running_server([coffee_text]) as handle:
            code = main(["probe", f"{handle.base_url}/Tea-Kettle"])
        assert code == 2
        assert "404" in capsys.readouterr().err

    def test_url_answering_a_non_td_exits_2(self, capsys, faulty_server):
        code = main(["probe", f"{faulty_server}properties/state"])
        assert code == 2
        assert "not a usable Thing Description" in capsys.readouterr().err

    def test_unparseable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{oops")
        code = main(["probe", str(path)])
        assert code == 2

    def test_file_target_without_base_fails_cleanly(self, capsys):
        code = main(["probe", str(FIXTURE_DIR / "dice-box.td.json"),
                     "--duration", "0.2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no usable form URL" in out

    def test_thing_without_affordances(self, capsys):
        code = main(["probe", str(FIXTURE_DIR / "bare-thing.td.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 check(s): 0 passed, 0 failed" in out

    def test_probe_target_returns_checks(self, coffee_text):
        with running_server([coffee_text], seed=5) as handle:
            checks = probe_target(f"{handle.base_url}/Coffee-Machine",
                                  duration=0.5, seed=3)
        assert [(c.kind, c.affordance) for c in checks] == [
            ("property", "state"), ("action", "brew"), ("event", "error")]
        assert all(c.passed for c in checks)

    def test_probe_closes_its_connections(self, coffee_text, monkeypatch):
        # The servient notices a closed stream when its client's FIN arrives; a
        # short heartbeat would also make a write find it, with the event in
        # mode none.
        monkeypatch.setattr(server, "HEARTBEAT_SECONDS", 0.1)
        td = json.loads(coffee_text)
        del td["events"]
        for text in (json.dumps(td), coffee_text):
            with running_server([text], seed=5) as handle:
                before = open_connections(handle)
                probe_target(f"{handle.base_url}/Coffee-Machine", duration=0.2, seed=3)
                assert wait_for(lambda: open_connections(handle) <= before, 1.0)

    def test_probe_error_for_refused_connection(self):
        with pytest.raises(ProbeError):
            probe_target("http://127.0.0.1:9/")

    def test_probe_error_releases_its_connection(self, coffee_text):
        with running_server([coffee_text]) as handle:
            before = open_connections(handle)
            with pytest.raises(ProbeError) as caught:  # kept, with its traceback
                probe_target(f"{handle.base_url}/Tea-Kettle")
            assert "404" in str(caught.value)
            assert wait_for(lambda: open_connections(handle) <= before, 1.0)

    def test_event_watch_ends_with_its_window(self, coffee_text, monkeypatch):
        # A heartbeat every 0.4 s keeps the stream from ever idling for the
        # whole 0.5 s window; the watch must still end when the window does.
        monkeypatch.setattr(server, "HEARTBEAT_SECONDS", 0.4)
        td = json.loads(coffee_text)
        del td["properties"], td["actions"]
        with running_server([json.dumps(td)], seed=5) as handle:
            started = time.monotonic()
            checks = probe_target(f"{handle.base_url}/Coffee-Machine", duration=0.5)
            elapsed = time.monotonic() - started
        assert [c.result for c in checks] == ["PASS"]
        assert elapsed < 0.5 + 0.15

    @pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "1e10", "nan", "-1"])
    def test_duration_no_socket_timeout_can_carry(self, capsys, text):
        code = main(["probe", str(FIXTURE_DIR / "thermostat.td.json"), f"--duration={text}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        with pytest.raises(ValueError):
            probe_target(str(FIXTURE_DIR / "thermostat.td.json"), duration=float(text))

    def test_null_action_input_is_sent(self):
        td = {"title": "Switch", "actions": {"reset": {
            "input": {"type": "null"}, "forms": [{"href": "/actions/reset"}]}}}
        with running_server([json.dumps(td)]) as handle:
            checks = probe_target(f"{handle.base_url}/Switch", duration=0.2)
        assert [(c.result, c.detail) for c in checks] == [("PASS", "invoked (204)")]


# Three events and a property, all served from one Thing.
TRIO_TD = json.dumps({
    "title": "Trio",
    "properties": {"level": {"type": "integer", "minimum": 0, "maximum": 9,
                             "forms": [{"href": "/properties/level"}]}},
    "events": {name: {"data": {"type": "integer", "minimum": 0, "maximum": 9},
                      "forms": [{"href": f"/events/{name}"}]}
               for name in ("low", "high", "tick")},
})


class TestEventWindow:
    """Every event stream of a pass is read together, in one window."""

    def test_events_are_watched_at_once(self):
        window = 0.5
        with running_server([TRIO_TD], seed=5, event_mode=EventMode.fixed(0.05)) as handle:
            started = time.monotonic()
            checks = probe_target(f"{handle.base_url}/Trio", duration=window, seed=3)
            elapsed = time.monotonic() - started
        assert elapsed < 2 * window  # one window, not one per event
        assert [(c.kind, c.affordance) for c in checks] == [
            ("property", "level"), ("event", "low"), ("event", "high"), ("event", "tick")]
        for check in checks[1:]:
            assert check.passed and int(check.detail.split()[0]) >= 1, check.detail

    def test_every_reader_is_joined(self):
        with running_server([TRIO_TD], seed=5, event_mode=EventMode.fixed(0.05)) as handle:
            before = threading.active_count()
            probe_target(f"{handle.base_url}/Trio", duration=0.2, seed=3)
            assert threading.active_count() == before

    def test_a_check_that_raises_ends_the_window_at_once(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("check broke")

        monkeypatch.setattr(cli, "_check_property", broken)
        with running_server([TRIO_TD], seed=5, event_mode=EventMode.fixed(0.05)) as handle:
            before = threading.active_count()
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="check broke"):
                probe_target(f"{handle.base_url}/Trio", duration=5.0, seed=3)
            assert time.monotonic() - started < 2.5
            assert threading.active_count() == before
            assert wait_for(lambda: open_connections(handle) == 0, 1.0)

    def test_streams_past_the_cap_wait_for_a_later_window(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_WATCHED_STREAMS", 2)
        read_events = cli._read_events
        lock = threading.Lock()
        reading = most = 0

        def counted(*args):
            nonlocal reading, most
            with lock:
                reading += 1
                most = max(most, reading)
            try:
                return read_events(*args)
            finally:
                with lock:
                    reading -= 1

        monkeypatch.setattr(cli, "_read_events", counted)
        with running_server([TRIO_TD], seed=5, event_mode=EventMode.fixed(0.05)) as handle:
            checks = probe_target(f"{handle.base_url}/Trio", duration=0.3, seed=3)
        assert most == 2
        assert [c.affordance for c in checks] == ["level", "low", "high", "tick"]
        assert all(c.passed for c in checks)


def test_probe_needs_no_third_party_package(coffee_text):
    # `wotsim run` starts faster without them, and `pip install wotsim` pulls
    # in nothing else. A blocked `requests` fails any late import of it too.
    script = ("import sys\n"
              "import wotsim.cli\n"
              "if {'requests', 'urllib3'} & set(sys.modules):\n"
              "    sys.exit('imported by wotsim.cli')\n"
              "sys.modules['requests'] = None\n"
              "sys.exit(wotsim.cli.main(sys.argv[1:]))\n")
    with running_server([coffee_text], seed=5) as handle:
        done = subprocess.run([sys.executable, "-c", script, "probe",
                               f"{handle.base_url}/Coffee-Machine", "--duration", "0.2"],
                              capture_output=True, timeout=30)
    assert done.returncode == 0, done.stderr.decode()
