import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqcat
from fuzzing import damaged
from uqcat import Volume, cli, read_volume, write_volume
from uqcat.cli import main


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """phantom -> train -> run -> analyze chain at miniature scale."""
    root = tmp_path_factory.mktemp("chain")
    assert main(["phantom", "--out", str(root / "ph"), "--subjects", "2", "--seed", "5",
                 "--dims", "16,16,8", "--radius", "1.5,2.5"]) == 0
    assert main(["train", "--data", str(root / "ph"), "--out", str(root / "model.uqp"),
                 "--epochs", "8", "--seed", "5"]) == 0
    assert main(["run", "--model", str(root / "model.uqp"), "--subjects", str(root / "ph"),
                 "--out", str(root / "maps"), "--samples", "4", "--seed", "5",
                 "--cases", "1,2,7"]) == 0
    assert main(["analyze", "--maps", str(root / "maps"), "--out", str(root / "analysis")]) == 0
    return root


def test_phantom_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["phantom", "--out", str(out), "--subjects", "2", "--seed", "9",
                     "--dims", "16,16,8", "--radius", "1.5,2.5"]) == 0
    for i in range(2):
        img = read_volume(out1 / f"sub-{i}_img.vvol")
        lab = read_volume(out1 / f"sub-{i}_lab.vvol")
        assert img.dims == (16, 16, 8)
        assert set(np.unique(lab.data)) <= {0.0, 1.0}
    assert tree_digest(out1) == tree_digest(out2)
    manifest = json.loads((out1 / "phantom_manifest.json").read_text())
    assert manifest["command"] == "phantom"
    assert manifest["config"]["seed"] == 9
    assert "sub-0_img.vvol" in manifest["outputs"]


def test_cases_listing(capsys):
    assert main(["cases", "--list"]) == 0
    out1 = capsys.readouterr().out
    lines = out1.strip().splitlines()
    assert len(lines) == 15  # header + 14 cases
    row1 = lines[1].split()
    assert row1[0] == "1" and row1[1] == "TTD" and "0.03" in lines[1]
    assert lines[6].split()[0] == "6" and "0.40" in lines[6]
    row14 = lines[14]
    assert row14.split()[0] == "14"
    for token in ("combined high", "U(0.80,1.20)", "U(-45,45)", "U(0.25,0.75)", "bias 0.8"):
        assert token in row14
    main(["cases", "--list"])
    assert capsys.readouterr().out == out1  # stable across calls


def test_run_outputs_and_manifest(small_run):
    maps = small_run / "maps"
    for sid in (0, 1):
        for cid in (1, 2, 7):
            for tag in ("mean", "var", "ent"):
                v = read_volume(maps / f"sub-{sid}_case-{cid}_{tag}.vvol")
                assert v.dims == (16, 16, 8)
    manifest = json.loads((maps / "run_manifest.json").read_text())
    assert manifest["config"]["cases"] == [1, 2, 7]
    passes = manifest["passes"]["subject-0"]
    assert len(passes["case-1"]) == 4
    assert passes["case-1"][0]["dropout_rate"] == 0.03
    assert passes["case-7"][0]["affine"] is not None
    assert passes["case-7"][0]["ghosting"] is None
    # manifest carries no absolute paths
    assert str(small_run) not in (maps / "run_manifest.json").read_text()


def test_analyze_outputs(small_run):
    analysis_dir = small_run / "analysis"
    for sid in (0, 1):
        for name in (f"corr_sub-{sid}.csv", f"median_ent_sub-{sid}.vvol",
                     f"iqr_ent_sub-{sid}.vvol", f"mask_sub-{sid}.vvol"):
            assert (analysis_dir / name).exists()
    corr = (analysis_dir / "corr_sub-0.csv").read_text().strip().splitlines()
    assert corr[0] == "case,1,2,7"
    assert len(corr) == 4
    first_row = corr[1].split(",")
    assert first_row[0] == "1"
    assert first_row[1] == "1" or first_row[1].startswith("1")  # unit diagonal at 6 sig digits

    summary = (analysis_dir / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "subject,case,mean_nonzero_entropy,count"
    assert len(summary) == 1 + 2 * 3

    mean_csv = (analysis_dir / "corr_mean.csv").read_text().strip().splitlines()
    assert mean_csv[0] == "case,1,2,7"

    mask = read_volume(analysis_dir / "mask_sub-0.vvol")
    assert set(np.unique(mask.data)) <= {0.0, 1.0}


def test_run_deterministic_and_thread_independent(small_run, tmp_path, monkeypatch):
    # unset: a worker process per usable core; "3": capped at the cores; "1": the jobs run in this process
    monkeypatch.delenv("UQCAT_THREADS", raising=False)
    for threads in (None, "3", "1"):
        if threads is not None:
            monkeypatch.setenv("UQCAT_THREADS", threads)
        out = tmp_path / f"maps-{threads}"
        assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(small_run / "ph"),
                     "--out", str(out), "--samples", "4", "--seed", "5", "--cases", "1,2,7"]) == 0
        assert tree_digest(small_run / "maps") == tree_digest(out), threads


@pytest.mark.parametrize("threads, jobs, workers", [
    (None, 3, 3), ("1", 3, 1), ("12", 3, 3),  # fewer jobs than the 8 cores
    (None, 20, 8), ("12", 20, 8), ("5", 20, 5),
])
def test_worker_count(monkeypatch, threads, jobs, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    if threads is None:
        monkeypatch.delenv("UQCAT_THREADS", raising=False)
    else:
        monkeypatch.setenv("UQCAT_THREADS", threads)
    assert cli._worker_count(jobs, cli._thread_cap()) == workers


def test_invalid_threads_env(small_run, tmp_path, monkeypatch):
    monkeypatch.setenv("UQCAT_THREADS", "zero")
    code = main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(small_run / "ph"),
                 "--out", str(tmp_path / "x"), "--samples", "4", "--seed", "5", "--cases", "1"])
    assert code == 2


@pytest.mark.parametrize("cases", ["1-20", "0", "x", "1,1", "1-3,2"])
def test_run_bad_cases_exit_2_before_output(small_run, tmp_path, cases):
    out = tmp_path / "maps"
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(small_run / "ph"),
                 "--out", str(out), "--samples", "4", "--seed", "5", "--cases", cases]) == 2
    assert not out.exists()


def test_bad_threads_env_exits_2_before_output(small_run, tmp_path, monkeypatch):
    monkeypatch.setenv("UQCAT_THREADS", "x")
    out = tmp_path / "maps"
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(small_run / "ph"),
                 "--out", str(out), "--samples", "4", "--seed", "5", "--cases", "1"]) == 2
    assert not out.exists()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(pipeline_config()))
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "pipe")]) == 2
    assert not (tmp_path / "pipe").exists()


def test_run_missing_subjects_creates_no_output(small_run, tmp_path):
    out = tmp_path / "maps"
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(tmp_path / "absent"),
                 "--out", str(out), "--samples", "4", "--seed", "5", "--cases", "1"]) == 1
    assert not out.exists()


def test_phantom_failure_creates_no_output(tmp_path, capsys):
    out = tmp_path / "ph"
    for flags, named in ((["--dims", "6,6,6"], "does not fit"), (["--noise", "-0.1"], "noise std"),
                         (["--noise", "nan"], "noise std"), (["--noise", "inf"], "noise std"),
                         (["--radius", "5,3"], "radius range"), (["--lesions", "0"], "at least one lesion"),
                         (["--subjects", "0"], "--subjects")):
        assert main(["phantom", "--out", str(out), "--subjects", "1", *flags]) == 2, flags  # bad flags
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1])
@pytest.mark.parametrize("command", ["phantom", "train", "run", "pipeline"])
def test_seed_out_of_range_exits_2_before_any_output(small_run, tmp_path, capsys, command, seed):
    # derive_seed packs an integer key into 16 signed bytes
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(pipeline_config()))
    argv = {"phantom": ["phantom", "--out", str(out), "--subjects", "1", "--dims", "16,16,8", "--radius", "1.5,2.5"],
            "train": ["train", "--data", str(small_run / "ph"), "--out", str(out / "model.uqp"), "--epochs", "1"],
            "run": ["run", "--model", str(small_run / "model.uqp"), "--subjects", str(small_run / "ph"),
                    "--out", str(out), "--samples", "2", "--cases", "1,7"],
            "pipeline": ["pipeline", "--config", str(cfg_path), "--out", str(out)]}[command]
    assert main([*argv, "--seed", str(seed)]) == 2
    assert f"seed keys must lie in [-2**127, 2**127), got {seed}\n" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_mismatched_cases_exit_2_before_output(small_run, tmp_path, capsys):
    maps = tmp_path / "maps"
    maps.mkdir()
    for sid, cid in ((0, 1), (0, 2), (1, 1), (1, 7)):
        for suffix in ("ent.vvol", "ent.vvol.json"):
            name = f"sub-{sid}_case-{cid}_{suffix}"
            (maps / name).write_bytes((small_run / "maps" / name).read_bytes())
    out = tmp_path / "analysis"
    assert main(["analyze", "--maps", str(maps), "--out", str(out)]) == 2
    assert "subject 1 has cases [1, 7], expected [1, 2]" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_single_case_maps_exit_2_before_output(small_run, tmp_path, capsys):
    maps = tmp_path / "maps"
    maps.mkdir()
    for sid in (0, 1):
        for suffix in ("ent.vvol", "ent.vvol.json"):
            name = f"sub-{sid}_case-2_{suffix}"
            (maps / name).write_bytes((small_run / "maps" / name).read_bytes())
    out = tmp_path / "analysis"
    assert main(["analyze", "--maps", str(maps), "--out", str(out)]) == 2
    assert "maps of case 2 only; analyze needs >= 2 cases" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_failing_subject_leaves_no_output(small_run, tmp_path, capsys):
    # subject 0 analyzes cleanly; subject 1's all-zero entropy maps have an empty support mask
    maps = tmp_path / "maps"
    maps.mkdir()
    for cid in (1, 2, 7):
        for suffix in ("ent.vvol", "ent.vvol.json"):
            name = f"sub-0_case-{cid}_{suffix}"
            (maps / name).write_bytes((small_run / "maps" / name).read_bytes())
        ent = read_volume(small_run / "maps" / f"sub-1_case-{cid}_ent.vvol")
        write_volume(Volume(np.zeros_like(ent.data), ent.spacing), maps / f"sub-1_case-{cid}_ent.vvol")
    out = tmp_path / "analysis"
    assert main(["analyze", "--maps", str(maps), "--out", str(out)]) == 1
    assert "entropy support mask is empty" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_reads_only_canonical_ids(small_run, tmp_path):
    # zero-padded ids name no subject or case; read as integers they would shadow sub-1 and case 7 and add a sub-2
    clean, decoyed = tmp_path / "clean", tmp_path / "decoyed"
    for maps in (clean, decoyed):
        maps.mkdir()
        for p in (small_run / "maps").glob("sub-*_case-*_ent.vvol*"):
            (maps / p.name).write_bytes(p.read_bytes())
    for decoy in ("sub-01_case-1", "sub-0_case-07", "sub-02_case-1", "sub-02_case-2", "sub-02_case-7"):
        for suffix in ("ent.vvol", "ent.vvol.json"):
            (decoyed / f"{decoy}_{suffix}").write_bytes((small_run / "maps" / f"sub-0_case-2_{suffix}").read_bytes())
    for maps in (clean, decoyed):
        assert main(["analyze", "--maps", str(maps), "--out", str(maps / "analysis")]) == 0
    assert tree_digest(decoyed / "analysis") == tree_digest(clean / "analysis")
    assert not list((decoyed / "analysis").glob("*sub-2*"))


def test_analyze_without_maps_creates_no_output(tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "--maps", str(tmp_path / "nomaps"), "--out", str(out)]) == 1
    assert not out.exists()


def test_train_zero_epochs_exits_2_before_output(small_run, tmp_path):
    out = tmp_path / "model.uqp"
    assert main(["train", "--data", str(small_run / "ph"), "--out", str(out), "--epochs", "0", "--seed", "5"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_train_negative_holdout_exits_2_before_output(small_run, tmp_path, capsys):
    out = tmp_path / "model.uqp"
    assert main(["train", "--data", str(small_run / "ph"), "--out", str(out), "--epochs", "1", "--seed", "5",
                 "--holdout", "-1"]) == 2
    assert "--holdout must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_one_sample_exits_2_before_output(small_run, tmp_path):
    out = tmp_path / "maps"
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(small_run / "ph"),
                 "--out", str(out), "--samples", "1", "--seed", "5", "--cases", "1"]) == 2
    assert not out.exists()


def test_run_accepts_images_without_labels(small_run, tmp_path):
    subjects = tmp_path / "imgs_only"
    subjects.mkdir()
    for name in ("sub-0_img.vvol", "sub-0_img.vvol.json"):
        (subjects / name).write_bytes((small_run / "ph" / name).read_bytes())
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(subjects),
                 "--out", str(tmp_path / "maps"), "--samples", "4", "--seed", "5", "--cases", "1"]) == 0


def test_run_ignores_labels(small_run, tmp_path):
    subjects = tmp_path / "corrupt_label"
    subjects.mkdir()
    for p in (small_run / "ph").iterdir():
        (subjects / p.name).write_bytes(p.read_bytes())
    (subjects / "sub-0_lab.vvol").write_bytes(b"not a volume")
    out = tmp_path / "maps"
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(subjects),
                 "--out", str(out), "--samples", "4", "--seed", "5", "--cases", "1,2,7"]) == 0
    assert tree_digest(out) == tree_digest(small_run / "maps")


def test_run_binarize_flag(small_run, tmp_path):
    out = tmp_path / "mapsb"
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(small_run / "ph"),
                 "--out", str(out), "--samples", "4", "--seed", "5", "--cases", "1", "--binarize"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["binarize"] is True
    mean = read_volume(out / "sub-0_case-1_mean.vvol")
    quarters = np.round(mean.data * 4)
    assert np.allclose(mean.data * 4, quarters, atol=1e-6)  # means are multiples of 1/4


def test_runtime_error_exit_code(tmp_path):
    code = main(["train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "m.uqp"),
                 "--epochs", "1", "--seed", "0"])
    assert code == 1


def test_usage_error_exit_code(tmp_path):
    code = main(["phantom", "--out", str(tmp_path / "p"), "--subjects", "2", "--dims", "16x16x8"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------

def pipeline_config(**overrides):
    cfg = {
        "seed": 21,
        "phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5]},
        "train": {"epochs": 6},
        "run": {"samples": 4, "cases": "1,7"},
        "analyze": {},
    }
    cfg.update(overrides)
    return cfg


def test_pipeline_end_to_end(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(pipeline_config()))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "model.uqp").exists()
    assert (out / "analysis" / "corr_mean.csv").exists()
    manifest = json.loads((out / "pipeline_manifest.json").read_text())
    assert manifest["effective_config"]["seed"] == 21
    assert "phantoms/sub-0_img.vvol" in manifest["outputs"]
    assert str(out) not in (out / "pipeline_manifest.json").read_text()


def test_pipeline_reproduces_committed_golden_run(tmp_path):
    # a small run committed with its manifest config must reproduce bit-exactly
    golden = json.loads((Path(__file__).parent / "data" / "golden_pipeline.json").read_text())
    cfg_path = tmp_path / "golden_cfg.json"
    cfg_path.write_text(json.dumps(golden["config"]))
    out = tmp_path / "golden"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert tree_digest(out) == golden["digests"]


def test_pipeline_reproducible_from_manifest(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(pipeline_config()))
    out1 = tmp_path / "o1"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out1)]) == 0
    # a rerun configured from the manifest alone reproduces every output byte
    manifest = json.loads((out1 / "pipeline_manifest.json").read_text())
    cfg2 = tmp_path / "from_manifest.json"
    cfg2.write_text(json.dumps(manifest["effective_config"]))
    out2 = tmp_path / "o2"
    assert main(["pipeline", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert tree_digest(out1) == tree_digest(out2)


def test_pipeline_skips_training_with_model(tmp_path, small_run):
    # --model overrides a config's train section as it does a config without one
    maps = {}
    for train in ("absent", "configured"):
        cfg = pipeline_config()
        if train == "absent":
            del cfg["train"]
        cfg_path = tmp_path / f"{train}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / train
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out),
                     "--model", str(small_run / "model.uqp")]) == 0
        assert not (out / "model.uqp").exists()
        assert (out / "analysis" / "summary.csv").exists()
        assert "train" not in json.loads((out / "pipeline_manifest.json").read_text())["effective_config"]
        maps[train] = {p.name: p.read_bytes() for p in (out / "maps").iterdir()}
    assert maps["configured"] == maps["absent"]


def test_pipeline_requires_some_model(tmp_path):
    cfg = pipeline_config(train=None)  # explicitly disabled, no --model given
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2


def test_pipeline_malformed_json(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text('{"seed": 21,,}')
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_pipeline_missing_config_file(tmp_path):
    assert main(["pipeline", "--config", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "o")]) == 2


def test_pipeline_non_utf8_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.json"
    cfg_path.write_bytes(json.dumps(pipeline_config()).replace("{}", '{"x": "\u00e9"}').encode("latin-1"))
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: malformed config latin1.json: not UTF-8 text")
    assert not (tmp_path / "out").exists()


def test_pipeline_directory_config_exits_2(tmp_path, capsys):
    cfg_dir = tmp_path / "cfg.json"
    cfg_dir.mkdir()
    assert main(["pipeline", "--config", str(cfg_dir), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: unreadable config cfg.json: ")
    assert not (tmp_path / "out").exists()


def test_pipeline_stage_failure_names_stage(tmp_path, capsys):
    cfg = pipeline_config()
    # the main lesion fits, but its satellite, 5.2 voxels from a center in [2, 3]^3, cannot land in [2, 3]^3
    cfg["phantom"].update(dims=[6, 6, 6], radius=[2, 2], satellite=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "stage 'phantom' failed" in capsys.readouterr().err


def test_pipeline_phantom_failure_leaves_no_out(tmp_path, capsys):
    cfg = pipeline_config()
    # the main lesion fits, but its satellite, 5.2 voxels from a center in [2, 3]^3, cannot land in [2, 3]^3
    cfg["phantom"].update(dims=[6, 6, 6], radius=[2, 2], satellite=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "stage 'phantom' failed" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(pipeline_config()))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "99", "--samples", "3"]) == 0
    manifest = json.loads((out / "pipeline_manifest.json").read_text())
    assert manifest["effective_config"]["seed"] == 99
    assert manifest["effective_config"]["run"]["samples"] == 3
    run_manifest = json.loads((out / "maps" / "run_manifest.json").read_text())
    assert run_manifest["config"]["samples"] == 3


def test_run_takes_subject_ids_from_file_names(small_run, tmp_path):
    # a cohort with a gap: sub-0 and sub-2 only (sub-2 is a copy of sub-1)
    subjects = tmp_path / "gap"
    subjects.mkdir()
    for src, dst in ((0, 0), (1, 2)):
        for suffix in ("img.vvol", "img.vvol.json"):
            (subjects / f"sub-{dst}_{suffix}").write_bytes((small_run / "ph" / f"sub-{src}_{suffix}").read_bytes())
    out = tmp_path / "maps"
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(subjects),
                 "--out", str(out), "--samples", "4", "--seed", "5", "--cases", "1"]) == 0
    names = sorted(p.name for p in out.glob("*_ent.vvol"))
    assert names == ["sub-0_case-1_ent.vvol", "sub-2_case-1_ent.vvol"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert sorted(manifest["inputs"]) == ["sub-0_img.vvol", "sub-2_img.vvol"]
    assert sorted(manifest["passes"]) == ["subject-0", "subject-2"]
    # sub-0 keeps its contiguous-cohort bytes; sub-2's seeds come from its id, not its position
    for tag in ("mean", "var", "ent"):
        name = f"sub-0_case-1_{tag}.vvol"
        assert (out / name).read_bytes() == (small_run / "maps" / name).read_bytes()
    contiguous = json.loads((small_run / "maps" / "run_manifest.json").read_text())
    assert manifest["passes"]["subject-2"]["case-1"] != contiguous["passes"]["subject-1"]["case-1"]


def test_run_writes_maps_per_job_and_manifest_last(small_run, tmp_path, monkeypatch):
    import uqcat.cli as cli

    real_run_case = cli.run_case

    def failing_run_case(model, image, case, **kwargs):
        if kwargs["subject_id"] == 1:
            raise RuntimeError("injected failure")
        return real_run_case(model, image, case, **kwargs)

    monkeypatch.setattr(cli, "run_case", failing_run_case)
    out = tmp_path / "maps"
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(small_run / "ph"),
                 "--out", str(out), "--samples", "4", "--seed", "5", "--cases", "1,2"]) == 1
    for cid in (1, 2):
        name = f"sub-0_case-{cid}_ent.vvol"
        assert (out / name).read_bytes() == (small_run / "maps" / name).read_bytes()
    assert not list(out.glob("sub-1_*"))
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_failure_names_subject_case_and_pass(small_run, tmp_path, capsys, monkeypatch, threads):
    # subject 1 is 9x9 in plane, which two blocks cannot halve
    monkeypatch.setenv("UQCAT_THREADS", threads)
    subjects = tmp_path / "odd"
    subjects.mkdir()
    for suffix in ("img.vvol", "img.vvol.json"):
        (subjects / f"sub-0_{suffix}").write_bytes((small_run / "ph" / f"sub-0_{suffix}").read_bytes())
    write_volume(Volume(np.zeros((9, 9, 8), dtype=np.float32)), subjects / "sub-1_img.vvol")
    assert main(["run", "--model", str(small_run / "model.uqp"), "--subjects", str(subjects),
                 "--out", str(tmp_path / "maps"), "--samples", "4", "--seed", "5", "--cases", "1,7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PredictorError: in-plane dims (9, 9) must be divisible by 2")
    assert err.rstrip().endswith("(subject 1, case 1, pass 0)")


def uqcat_subprocess(code: str, argv: list[str], stderr) -> subprocess.Popen:
    """``python -c code`` with ``argv`` and uqcat importable, capped at 2 run-stage workers.

    stderr goes to a file: a worker that outlived the process would hold a pipe open.
    """
    env = {**os.environ, "UQCAT_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(uqcat.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env, stdout=subprocess.DEVNULL, stderr=stderr)


def proc_stat(pid) -> tuple[int, str, str] | None:
    """(parent pid, state, start time) from ``/proc/<pid>/stat``, or None once the process is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[1]), fields[0], fields[19]


def children(pid: int) -> dict[int, str]:
    """Start time of each child of ``pid``."""
    stats = {int(d.name): proc_stat(d.name) for d in Path("/proc").iterdir() if d.name.isdigit()}
    return {child: st[2] for child, st in stats.items() if st is not None and st[0] == pid}


def alive(pid: int, start: str) -> bool:
    st = proc_stat(pid)
    return st is not None and st[2] == start and st[1] not in "ZX"  # a zombie has exited


forks_workers = pytest.mark.skipif(
    not Path("/proc/self/stat").exists() or "fork" not in multiprocessing.get_all_start_methods()
    or cli._usable_cores() < 2, reason="needs /proc, the fork start method and 2 usable cores")


@pytest.fixture(scope="module")
def grid_32(tmp_path_factory):
    """2 subjects at 32x32x16 and a 1-epoch model: 14 cases x 50 passes take a few seconds."""
    root = tmp_path_factory.mktemp("grid32")
    assert main(["phantom", "--out", str(root / "ph"), "--subjects", "2", "--seed", "5", "--dims", "32,32,16"]) == 0
    assert main(["train", "--data", str(root / "ph"), "--out", str(root / "model.uqp"), "--epochs", "1",
                 "--seed", "5"]) == 0
    return root


@forks_workers
@pytest.mark.parametrize("sig, code", [(signal.SIGTERM, -signal.SIGTERM), (signal.SIGKILL, -signal.SIGKILL),
                                       (signal.SIGINT, 130)], ids=["SIGTERM", "SIGKILL", "SIGINT"])
def test_killed_run_leaves_no_worker_manifest_or_traceback(grid_32, tmp_path, sig, code):
    out = tmp_path / "maps"
    with open(tmp_path / "stderr.txt", "w") as err:
        # Ctrl-C as in a terminal, where Python raises KeyboardInterrupt: a shell starts background jobs ignoring it
        proc = uqcat_subprocess("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
                                "from uqcat.cli import main; sys.exit(main(sys.argv[1:]))",
                                ["run", "--model", str(grid_32 / "model.uqp"), "--subjects", str(grid_32 / "ph"),
                                 "--out", str(out), "--samples", "50"], err)
        try:
            deadline = time.monotonic() + 60
            while not (len(children(proc.pid)) >= 2 and list(out.glob("*_ent.vvol"))):  # mid-run
                assert proc.poll() is None and time.monotonic() < deadline, "the run never got under way"
                time.sleep(0.01)
            workers = children(proc.pid)
            proc.send_signal(sig)
            assert proc.wait(timeout=10) == code
        finally:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 2
    while any(alive(*w) for w in workers.items()) and time.monotonic() < deadline:
        time.sleep(0.01)
    survivors = [pid for pid, start in workers.items() if alive(pid, start)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors
    assert not (out / "run_manifest.json").exists()
    stderr = (tmp_path / "stderr.txt").read_text()
    assert "Traceback" not in stderr
    if sig == signal.SIGINT:
        assert stderr.endswith("error: interrupted\n")


@forks_workers
def test_run_fails_when_a_worker_dies(small_run, tmp_path):
    # a multiprocessing.Pool would wait forever for the dead worker's job
    code = """import os, signal, sys
import uqcat.cli as cli
real_run_case = cli.run_case
def dying_run_case(model, image, case, **kwargs):
    if kwargs["subject_id"] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_run_case(model, image, case, **kwargs)
cli.run_case = dying_run_case
sys.exit(cli.main(sys.argv[1:]))
"""
    out = tmp_path / "maps"
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = uqcat_subprocess(code, ["run", "--model", str(small_run / "model.uqp"), "--subjects",
                                       str(small_run / "ph"), "--out", str(out), "--samples", "4", "--cases", "1,2"],
                                err)
        try:
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.wait()
    assert (tmp_path / "stderr.txt").read_text().startswith("error: BrokenProcessPool: ")
    assert not (out / "run_manifest.json").exists()


def thread_counts(job: str) -> tuple[int, int | None]:
    """A job for a forked worker: the OS threads and BLAS threads of the process that runs it, after a matmul."""
    a = np.ones((256, 256), dtype=np.float32)
    a @ a  # a worker that builds a BLAS thread pool has built it by now
    if job == "fail":
        raise ValueError("job failed")
    return len(os.listdir("/proc/self/task")), cli._blas_threads()


@forks_workers
def test_forked_workers_run_one_thread_and_the_parent_blas_threads_are_restored():
    # a worker that builds an OpenBLAS thread pool keeps a spare thread busy-waiting beside its jobs
    if cli._blas_threads() is None:
        pytest.skip("numpy's OpenBLAS is not found")
    before = cli._blas_threads(2)  # more than one, so that dropping to one and restoring both show
    try:
        with cli._job_results(thread_counts, ["ok"] * 6, 2) as results:
            assert list(results) == [(1, 1)] * 6
        assert cli._blas_threads() == 2
        with pytest.raises(ValueError, match="job failed"):
            with cli._job_results(thread_counts, ["ok", "fail", "ok"], 2) as results:
                list(results)
        assert cli._blas_threads() == 2
    finally:
        cli._blas_threads(before)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_config_is_accepted_or_exits_2_before_any_stage(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "cfg.json").write_bytes(data.draw(damaged(json.dumps(pipeline_config()).encode())))
    started = []

    def stage(*args, **kwargs):  # stands in for every stage and stops the pipeline at the first
        started.append(kwargs)
        raise RuntimeError("stage stub")

    with mock.patch.multiple(cli, cmd_phantom=stage, cmd_train=stage, cmd_run=stage, cmd_analyze=stage):
        try:
            code = cli.cmd_pipeline(root / "out", root / "cfg.json")
        except cli.UsageError:
            assert not started
            return
    # accepted: the config phase gave the first stage its arguments, and the stub stopped the pipeline there
    assert code == 1 and len(started) == 1


def test_pipeline_deeply_nested_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text("[" * 200_000)
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: malformed config deep.json: nested too deeply\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, named", [
    ({"phantom": 5}, "int"),
    ({"run": {"samples": "x"}}, "'x'"),
    ({"run": {"cases": "1-20"}}, "got 15"),
    ({"train": {"epochs": 6, "holdout": 2}}, "holdout 2"),
    ({"runs": {"samples": 4}}, "'runs'"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radii": [1.5, 2.5]}}, "phantom.radii"),
    ({"train": {"epoch": 6}}, "train.epoch"),
    ({"run": {"sample": 2, "cases": "1,7"}}, "run.sample"),
    ({"analyze": {"cases": "1,7"}}, "analyze.cases"),
    ({"run": {"samples": 4, "cases": "1"}}, "'1'"),
    ({"run": {"samples": 4, "cases": "1,1"}}, "'1,1'"),
    ({"run": {"samples": 4, "cases": "1,1,7"}}, "'1,1,7'"),
    ({"seed": True}, "seed must be a JSON integer"),
    ({"seed": 21.0}, "seed must be a JSON integer"),
    ({"phantom": {"subjects": True, "dims": [16, 16, 8], "radius": [1.5, 2.5]}}, "phantom.subjects"),
    ({"phantom": {"subjects": 2, "dims": [16, 16.0, 8], "radius": [1.5, 2.5]}}, "phantom.dims"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5], "lesions": 1.5}}, "phantom.lesions"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5], "satellite": "false"}},
     "phantom.satellite"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5], "satellite": 0}}, "phantom.satellite"),
    ({"train": {"epochs": 1.9}}, "train.epochs"),
    ({"train": {"epochs": 6, "holdout": False}}, "train.holdout"),
    ({"run": {"samples": 2.7, "cases": "1,7"}}, "run.samples"),
    ({"run": {"samples": 4, "cases": "1,7", "binarize": "false"}}, "run.binarize"),
    ({"run": {"samples": 4, "cases": "1,7", "binarize": 1}}, "run.binarize"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5], "noise": "0.05"}}, "phantom.noise"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5], "noise": True}}, "phantom.noise"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [True, "3"]}}, "phantom.radius"),
    ({"train": {"epochs": 6, "holdout": -1}}, "train.holdout must be >= 0"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5], "noise": -0.1}}, "noise std"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [5, 3]}}, "radius range"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5], "lesions": 0}}, "at least one lesion"),
    ({"phantom": {"subjects": 2, "dims": [8, 8, 8]}}, "does not fit inside dims"),
    ({"phantom": {"subjects": 2, "dims": [6, 6, 6], "radius": [2.2, 2.2]}}, "does not fit inside dims"),
    ({"phantom": {"subjects": 0, "dims": [16, 16, 8], "radius": [1.5, 2.5]}}, "phantom.subjects must be >= 1"),
    ({"phantom": {"subjects": 2, "dims": [33, 33, 12], "radius": [1.5, 2.5]}}, "phantom.dims in-plane size (33, 33)"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5], "noise": math.nan}}, "noise std"),
    ({"phantom": {"subjects": 2, "dims": [16, 16, 8], "radius": [1.5, 2.5], "noise": math.inf}}, "noise std"),
    ({"seed": 2**127}, "seed keys must lie in [-2**127, 2**127)"),
], ids=["phantom-not-object", "samples-not-int", "case-out-of-range", "holdout-covers-cohort",
        "unknown-section", "unknown-phantom-key", "unknown-train-key", "unknown-run-key", "unknown-analyze-key",
        "one-case", "one-distinct-case", "repeated-case", "seed-bool", "seed-float", "subjects-bool", "dims-float",
        "lesions-float", "satellite-string", "satellite-int", "epochs-float", "holdout-bool", "samples-float",
        "binarize-string", "binarize-int", "noise-string", "noise-bool", "radius-bool-and-string", "holdout-negative",
        "noise-negative", "radius-unordered", "lesions-zero", "radius-does-not-fit", "radius-ceil-does-not-fit",
        "subjects-zero", "dims-odd", "noise-nan", "noise-infinity", "seed-out-of-range"])
def test_pipeline_config_errors_exit_2_before_any_stage(tmp_path, capsys, overrides, named):
    cfg_path = tmp_path / "bad_cfg.json"
    cfg_path.write_text(json.dumps(pipeline_config(**overrides)))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad_cfg.json" in err and named in err
    assert not (out / "phantoms").exists()


@pytest.mark.parametrize("overrides, flags", [
    ({"run": {"samples": 1, "cases": "1,7"}}, []),
    ({"train": {"epochs": 0}}, []),
    ({}, ["--samples", "1"]),
    ({}, ["--epochs", "0"]),
], ids=["config-samples-1", "config-epochs-0", "flag-samples-1", "flag-epochs-0"])
def test_pipeline_too_few_samples_or_epochs_exit_2_before_output(tmp_path, overrides, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(pipeline_config(**overrides)))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
    assert not out.exists()


def test_pipeline_matches_standalone_commands(tmp_path):
    from uqcat.seeding import derive_seed

    # integer-valued radius and noise pin the int/float coercions of the config values
    cfg = pipeline_config(phantom={"subjects": 2, "dims": [16, 16, 8], "radius": [2, 3], "noise": 0})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    pipe = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(pipe)]) == 0

    solo = tmp_path / "solo"
    assert main(["phantom", "--out", str(solo / "phantoms"), "--subjects", "2", "--seed", "21",
                 "--dims", "16,16,8", "--radius", "2,3", "--noise", "0"]) == 0
    assert main(["train", "--data", str(solo / "phantoms"), "--out", str(solo / "model.uqp"),
                 "--epochs", "6", "--seed", str(derive_seed(21, "train-stage"))]) == 0
    assert main(["run", "--model", str(solo / "model.uqp"), "--subjects", str(solo / "phantoms"),
                 "--out", str(solo / "maps"), "--samples", "4", "--seed", str(derive_seed(21, "run-stage")),
                 "--cases", "1,7"]) == 0
    assert main(["analyze", "--maps", str(solo / "maps"), "--out", str(solo / "analysis")]) == 0

    pipe_tree = tree_digest(pipe)
    del pipe_tree["pipeline_manifest.json"]
    assert pipe_tree == tree_digest(solo)
    phantom_cfg = json.loads((pipe / "phantoms" / "phantom_manifest.json").read_text())["config"]
    assert phantom_cfg["radius"] == [2.0, 3.0] and isinstance(phantom_cfg["radius"][0], float)
    assert isinstance(phantom_cfg["noise"], float)
