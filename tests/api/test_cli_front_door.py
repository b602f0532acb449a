"""CLI surface of the front door: run --json, synth --save-plan, exec --plan."""

import json

import pytest

from repro import cli


def test_run_json_emits_machine_readable_record(capsys):
    assert cli.main(["run", "aggregation", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["workload"] == "aggregation"
    assert record["backend"] == "sim"
    assert record["derivation"] == ["apply-block", "seq-ac"]
    assert record["opt_cost"] > 0
    assert record["search"]["space"] > 0
    assert record["execution"]["elapsed"] > 0
    assert record["execution"]["devices"]["HDD"]["bytes_read"] > 0


def test_run_unknown_workload_exits_2(capsys):
    assert cli.main(["run", "tape-robot"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_run_unknown_backend_exits_2(capsys):
    assert cli.main(["run", "aggregation", "--backend", "gpu"]) == 2
    assert "unknown execution backend" in capsys.readouterr().err


def test_run_table1_only_workload_uses_table1_scale(capsys):
    # multiset-diff has no validation twin; `run` falls back to the
    # full-size experiment instead of erroring.
    assert cli.main(["run", "multiset-diff", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["scale"] == "table1"


def test_synth_exec_round_trip_without_research(
    capsys, tmp_path, monkeypatch
):
    plan_path = str(tmp_path / "plan.json")
    assert cli.main(["synth", "aggregation", "--save-plan", plan_path]) == 0
    out = capsys.readouterr().out
    assert "derivation" in out
    assert plan_path in out

    # Replaying the plan must never touch the synthesizer.
    from repro.search.synthesizer import Synthesizer

    def forbidden(self, *args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("exec must not invoke the synthesizer")

    monkeypatch.setattr(Synthesizer, "synthesize", forbidden)
    assert cli.main(["exec", "--plan", plan_path, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["workload"] == "aggregation"
    assert record["search"]["space"] == 0
    assert record["execution"]["elapsed"] > 0


def test_run_compiled_backend_round_trips_through_plan(capsys, tmp_path):
    plan_path = str(tmp_path / "plan.json")
    assert cli.main([
        "run", "aggregation", "--backend", "compiled",
        "--workdir", str(tmp_path / "w"), "--json", "--save-plan", plan_path,
    ]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["backend"] == "compiled"
    # The plan document records its backend…
    with open(plan_path) as handle:
        assert json.load(handle)["backend"] == "compiled"
    # …and exec replays on it without --backend.
    assert cli.main([
        "exec", "--plan", plan_path, "--json",
        "--workdir", str(tmp_path / "w2"),
    ]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["backend"] == "compiled"


def test_exec_unknown_backend_lists_compiled(capsys, tmp_path):
    plan_path = str(tmp_path / "plan.json")
    assert cli.main(["synth", "aggregation", "--save-plan", plan_path]) == 0
    capsys.readouterr()
    assert cli.main(["exec", "--plan", plan_path, "--backend", "gpu"]) == 2
    err = capsys.readouterr().err
    assert "unknown execution backend" in err
    assert "compiled" in err


def test_fuzz_compiled_backend_lane(capsys):
    assert cli.main([
        "fuzz", "--seed", "0", "--count", "3", "--backend", "compiled",
        "--no-save", "--progress-every", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert "compiled runs" in out


def test_exec_missing_plan_exits_2(capsys, tmp_path):
    code = cli.main(["exec", "--plan", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot load plan" in capsys.readouterr().err


def test_exec_garbage_bytes_plan_exits_2(capsys, tmp_path):
    # Not even JSON: must exit 2 with a clean message, never traceback.
    path = tmp_path / "garbage.json"
    path.write_bytes(b"\x00\xff{not json")
    assert cli.main(["exec", "--plan", str(path)]) == 2
    assert "cannot load plan" in capsys.readouterr().err


def test_exec_structurally_corrupt_plan_exits_2(capsys, tmp_path):
    # Valid JSON, valid format tag, nonsense body (a null program used
    # to escape the load-time error net as an AttributeError traceback).
    plan_path = tmp_path / "plan.json"
    assert cli.main(
        ["synth", "aggregation", "--save-plan", str(plan_path)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(plan_path.read_text())
    for field, value in (("program", None), ("config", None)):
        bad = dict(doc)
        bad[field] = value
        plan_path.write_text(json.dumps(bad))
        assert cli.main(["exec", "--plan", str(plan_path)]) == 2
        assert "cannot load plan" in capsys.readouterr().err


def test_exec_unusable_workdir_exits_2_with_one_line(capsys, tmp_path):
    # The suite runs as root, where permission bits don't bite, so the
    # unwritable-workdir case is simulated by pointing --workdir at an
    # existing *file*: creating the directory fails with a real OSError.
    plan_path = str(tmp_path / "plan.json")
    assert cli.main(["synth", "aggregation", "--save-plan", plan_path]) == 0
    capsys.readouterr()
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("occupied")
    code = cli.main([
        "exec", "--plan", plan_path, "--backend", "file",
        "--workdir", str(blocker),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot execute plan: workdir unusable" in err
    # One-line diagnosis, never a traceback.
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_exec_injected_fault_exits_1_with_position(capsys, tmp_path, monkeypatch):
    # A permanent device fault during execution is an *execution*
    # failure (exit 1), reported with device/op/offset — distinct from
    # the exit-2 can't-even-start lane above.
    plan_path = str(tmp_path / "plan.json")
    assert cli.main(["synth", "aggregation", "--save-plan", plan_path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("REPRO_FAULTS", "seed=0,HDD.fail_read_at=1")
    code = cli.main([
        "exec", "--plan", plan_path, "--backend", "file",
        "--workdir", str(tmp_path / "w"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "execution fault: device HDD: read at offset" in err
    assert "Traceback" not in err


def test_exec_rejects_incompatible_plan_format(capsys, tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"format": "repro-plan/0"}))
    assert cli.main(["exec", "--plan", str(path)]) == 2
    assert "repro-plan/0" in capsys.readouterr().err


def test_run_on_file_backend_with_save_plan(capsys, tmp_path):
    plan_path = str(tmp_path / "plan.json")
    code = cli.main(
        [
            "run", "aggregation",
            "--backend", "file",
            "--workdir", str(tmp_path / "files"),
            "--json",
            "--save-plan", plan_path,
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["backend"] == "file"
    assert record["execution"]["wall_seconds"] is not None
    # The plan lands on disk and the JSON stdout stays pure.
    with open(plan_path) as handle:
        assert json.load(handle)["workload"] == "aggregation"


def test_run_text_output_prints_table_row(capsys):
    assert cli.main(["run", "aggregation"]) == 0
    out = capsys.readouterr().out
    assert "Experiment" in out and "Act/Opt" in out
    assert "aggregation" in out
    assert "derivation: apply-block -> seq-ac" in out
    assert "tuned parameters:" in out


def test_exec_text_output_prints_summary(capsys, tmp_path):
    plan_path = str(tmp_path / "plan.json")
    assert cli.main(
        ["synth", "aggregation", "--save-plan", plan_path, "--json"]
    ) == 0
    capsys.readouterr()
    assert cli.main(["exec", "--plan", plan_path]) == 0
    out = capsys.readouterr().out
    assert "aggregation:" in out and "act=" in out


def test_list_shows_workloads_presets_and_backends(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "aggregation" in out
    assert "[table1,validation]" in out
    assert "hdd-ram" in out
    assert "sim" in out and "file" in out


def test_run_rejects_mismatched_hierarchy_preset(capsys):
    # The two-hdd preset has no SSD node for the flash write-out.
    code = cli.main(
        ["run", "product-writeout-flash", "--hierarchy", "two-hdd"]
    )
    assert code == 2
    assert "has no node(s) ['SSD']" in capsys.readouterr().err


def test_run_hierarchy_preset_override(capsys):
    code = cli.main(
        [
            "run", "aggregation",
            "--hierarchy", "ram-ssd-hdd",
            "--ram-size", str(8 * 1024),
            "--json",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert "SSD" in record["execution"]["devices"]


@pytest.mark.parametrize("strategy", ["beam", "exhaustive-bfs"])
def test_run_accepts_every_strategy(capsys, strategy):
    assert cli.main(
        ["run", "aggregation", "--strategy", strategy, "--json"]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["search"]["strategy"] == strategy


def test_fuzz_faults_flag_runs_the_chaos_lane(capsys):
    assert cli.main([
        "fuzz", "--faults", "7", "--seed", "0", "--count", "3",
        "--progress-every", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert "chaos:" in out and "recovered" in out
