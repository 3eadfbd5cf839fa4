"""CSV log emission/parsing, run summaries, parameter snapshots."""

import json

import numpy as np
import pytest

from pmptrain.data import synthetic_blobs
from pmptrain.errors import InputError
from pmptrain.network import ParamSet, build_model, init_params
from pmptrain.regularization import Regularizer
from pmptrain.runlog import (CSV_COLUMNS, CsvLogger, RunSummary, load_params,
                             read_log, record_to_row, save_params, summarize,
                             write_log)
from pmptrain.trainer import IterationRecord, RunLog, TrainConfig, train


def make_record(k=0, **kwargs):
    base = dict(k=k, epsilon=0.07, j=2, mb_loss_before=2.5,
                mb_loss_after=2.25, step_sq=0.01, ls_steps_cum=3,
                wall_s=0.125)
    base.update(kwargs)
    return IterationRecord(**base)


def test_row_blank_fields_for_unevaluated_iterations():
    row = record_to_row(make_record())
    parts = row.split(",")
    assert len(parts) == len(CSV_COLUMNS)
    assert parts[0] == "0"
    assert parts[4] == "2.25"
    assert parts[5] == "" and parts[6] == "" and parts[7] == "" and parts[8] == ""
    assert parts[9] == "0.125"


def test_row_floats_round_trip_exactly():
    eps = 7.0 ** 3 * 0.01
    loss = 2.302585092994046
    row = record_to_row(make_record(epsilon=eps, mb_loss_after=loss,
                                    full_loss=loss / 3.0, train_acc=98.25,
                                    test_acc=97.0, sparsity=52.5))
    parts = row.split(",")
    assert float(parts[1]) == eps
    assert float(parts[4]) == loss
    assert float(parts[5]) == loss / 3.0


def test_csv_write_read_cycle(tmp_path):
    path = tmp_path / "run.csv"
    records = [make_record(k=0),
               make_record(k=1, mb_loss_after=2.0, ls_steps_cum=5,
                           full_loss=2.125, train_acc=90.0, test_acc=88.5,
                           sparsity=0.0)]
    write_log(RunLog(records=records), path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith(",".join(CSV_COLUMNS) + "\n")
    assert "\r" not in text
    rows = read_log(path)
    assert len(rows) == 2
    assert rows[0]["iter"] == 0
    assert rows[0]["full_loss"] is None
    assert rows[1]["full_loss"] == 2.125
    assert rows[1]["mb_loss"] == 2.0
    assert rows[1]["ls_steps_cum"] == 5


def test_read_log_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_log(path)


def test_csv_logger_streams(tmp_path):
    path = tmp_path / "stream.csv"
    with CsvLogger(path) as sink:
        sink.append_row(make_record(k=0))
        sink.append_row(make_record(k=1, full_loss=1.0))
    rows = read_log(path)
    assert [r["iter"] for r in rows] == [0, 1]


def test_summarize_totals_and_best():
    records = [
        make_record(k=0, mb_loss_after=2.0, ls_steps_cum=3),
        make_record(k=1, mb_loss_after=1.5, ls_steps_cum=4, test_acc=91.0,
                    train_acc=95.0, sparsity=10.0),
        make_record(k=2, mb_loss_after=1.25, ls_steps_cum=6, test_acc=90.0,
                    train_acc=97.0, sparsity=12.0, epsilon=0.5),
    ]
    s = summarize(RunLog(records=records))
    assert isinstance(s, RunSummary)
    assert s.iterations == 3
    assert s.final_loss == 1.25
    assert s.final_epsilon == 0.5
    assert s.total_ls_steps == 6
    assert s.best_test_acc == 91.0
    assert s.final_test_acc == 90.0
    assert s.final_train_acc == 97.0
    assert s.final_sparsity == 12.0


def test_summarize_single_row_equals_that_row():
    r = make_record(k=0, mb_loss_after=1.75, ls_steps_cum=2, epsilon=0.25,
                    test_acc=80.0, train_acc=85.0, sparsity=5.0)
    s = summarize(RunLog(records=[r]))
    assert s.iterations == 1
    assert s.final_loss == 1.75
    assert s.final_epsilon == 0.25
    assert s.total_ls_steps == 2
    assert s.best_test_acc == s.final_test_acc == 80.0
    assert s.final_train_acc == 85.0
    assert s.final_sparsity == 5.0


def test_summarize_empty_log():
    with pytest.raises(InputError):
        summarize(RunLog())


def test_summary_of_real_run_matches_records(tmp_path):
    data = synthetic_blobs(seed=3, n_per_class=20, m=2, dim=2, separation=4.0)
    model = build_model("fc out=8 act=tanh\nfc out=2 act=identity", (2,))
    _, log = train(TrainConfig(seed=1, k_max=8, eval_every=4), model, data)
    s = summarize(log)
    assert s.iterations == 8
    assert s.final_loss == log.records[-1].mb_loss_after
    assert s.total_ls_steps == log.records[-1].ls_steps_cum
    path = tmp_path / "real.csv"
    write_log(log, path)
    rows = read_log(path)
    assert rows[-1]["mb_loss"] == log.records[-1].mb_loss_after
    assert rows[3]["full_loss"] == log.records[3].full_loss


def test_snapshot_round_trip(tmp_path):
    model = build_model("fc out=5 act=relu\nfc out=3 act=identity", (4,))
    params = init_params(model, seed=9)
    path = str(tmp_path / "u.bin")
    save_params(params, path)
    back = load_params(path)
    assert len(back.blocks) == len(params.blocks)
    for (wa, ba), (wb, bb) in zip(params.blocks, back.blocks):
        assert wa.shape == wb.shape and ba.shape == bb.shape
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)


def test_snapshot_bytes_identical_for_identical_params(tmp_path):
    model = build_model("fc out=5 act=relu\nfc out=3 act=identity", (4,))
    params = init_params(model, seed=9)
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_params(params, p1)
    save_params(params.copy(), p2)
    with open(p1, "rb") as fa, open(p2, "rb") as fb:
        assert fa.read() == fb.read()


def test_snapshot_rejects_wrong_length(tmp_path):
    model = build_model("fc out=5 act=relu\nfc out=3 act=identity", (4,))
    params = init_params(model, seed=9)
    path = str(tmp_path / "u.bin")
    save_params(params, path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(InputError):
        load_params(path)


def test_failed_save_keeps_previous_snapshot(tmp_path, monkeypatch):
    model = build_model("fc out=5 act=relu\nfc out=3 act=identity", (4,))
    path = str(tmp_path / "u.bin")
    save_params(init_params(model, seed=9), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail_midway(*args, **kwargs):
        raise OSError("no space left on device")

    # the binary is written, then the sidecar write fails
    monkeypatch.setattr(json, "dump", fail_midway)
    with pytest.raises(OSError):
        save_params(init_params(model, seed=10), path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    load_params(path)


@pytest.mark.parametrize("sidecar", [
    '{"shapes": []}',
    '{"layers": [{"weight": 15, "bias": [3]}]}',
    '{"layers": [{"weight": [3, 5]}]}',
    None,
], ids=["no-layers", "shape-not-list", "no-bias", "no-sidecar"])
def test_load_params_rejects_broken_sidecar(tmp_path, sidecar):
    path = tmp_path / "u.bin"
    save_params(ParamSet([(np.zeros((3, 5)), np.zeros(3))]), path)
    side = tmp_path / "u.bin.json"
    side.unlink() if sidecar is None else side.write_text(sidecar, encoding="utf-8")
    with pytest.raises(InputError, match="u.bin"):
        load_params(path)
