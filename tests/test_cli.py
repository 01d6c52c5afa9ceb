import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import watune.cli
from watune.cli import build_parser, main
from watune.config import ExperimentConfig, load_config, save_config
from watune.datagen import file_hash, load_dataset
from watune.reward import RewardMode

from conftest import FUZZ_VALUES


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    """A scaled-down experiment so CLI runs stay fast."""
    d = tmp_path_factory.mktemp("cli")
    cfg = ExperimentConfig(seed=1)
    cfg.dataset.logs_per_session = 60
    cfg.train.epochs = 1
    cfg.train.layers = 1
    p = d / "config.json"
    save_config(p, cfg)
    return str(p)


@pytest.fixture(scope="module")
def gen_dir(tiny_config, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("artifacts"))
    assert main(["--config", tiny_config, "gen", "--out", out]) == 0
    return out


def test_gen_outputs(tiny_config, gen_dir):
    names = set(os.listdir(gen_dir))
    assert {"train.jsonl", "test.jsonl", "ood.jsonl", "config.json", "manifest.json"} <= names
    with open(os.path.join(gen_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["counts"]["in_distribution"] == 16 * 60
    assert manifest["counts"]["train"] + manifest["counts"]["test"] == 16 * 60
    assert manifest["counts"]["ood"] == 16 * 60
    for k in ("train", "test", "ood"):
        path = os.path.join(gen_dir, f"{k}.jsonl")
        assert manifest["hashes"][k] == file_hash(path)
        assert len(load_dataset(path, load_config(tiny_config).reward)) == manifest["counts"][k]


def test_gen_deterministic(tiny_config, gen_dir, tmp_path):
    out2 = str(tmp_path / "again")
    assert main(["--config", tiny_config, "gen", "--out", out2]) == 0
    with open(os.path.join(out2, "manifest.json")) as fh:
        m2 = json.load(fh)
    with open(os.path.join(gen_dir, "manifest.json")) as fh:
        m1 = json.load(fh)
    # same seed + config => byte-identical dataset files
    assert m1["hashes"] == m2["hashes"]


# sha256 of the files `gen` writes for `tiny_config`: a change to the record
# text, the row order or the random stream moves them.
GEN_SHA256 = {
    "train": "68701b1f34d8072e181efa200af5864d0e9c00b6e0bcadeaf7a4855ed0645ca7",
    "test": "8b4a19186ee1c7197a01edcbfd2c98d5c24d1b13959cb788143d0ca00c4a9653",
    "ood": "8fdeaad643631a8453ac47c63a3b9128f890dd899747cf2ac9ef2a983a58aa03",
}


def test_gen_files_are_pinned(gen_dir):
    with open(os.path.join(gen_dir, "manifest.json")) as fh:
        assert json.load(fh)["hashes"] == GEN_SHA256
    assert {k: file_hash(os.path.join(gen_dir, f"{k}.jsonl")) for k in GEN_SHA256} == GEN_SHA256


# sha256 of every file a cold `compare` writes for `tiny_config`: a change to
# the data, the training, the checkpoint text or the tables moves them.
COMPARE_SHA256 = {
    **{f"{k}.jsonl": v for k, v in GEN_SHA256.items()},
    "config.json": "de4404b87337088aa4942b9abbfb9b1f40020807c1e515dcdddb9879fe6867c5",
    "manifest.json": "e7d83542ea2884d904686c2d1af378f43c62d07275aa55d1401c9f581e7fb900",
    "head-ce.ckpt.json": "d696ea3f1e6a0897d66e465737e0821ecc75fa84169e56d6dec1e3e49c12171e",
    "head-kl.ckpt.json": "724f12006b9e53f49170e81ee9ee3fcb3a5dd236e11c18e6040b6de0bbadb0e8",
    "head-kl+dpo.ckpt.json": "72cbd66c6bf5396d9f9d08b2c286122b502193c8deee9df7e8b6ee3072be8ae4",
    "head-kl-no-peer.ckpt.json": "dd7e4e4c276250a4c229f1ae2c470684c8a2e10e54246aa500076d0bbfdada4d",
    "compare.tsv": "858e1ebc53b3ab306b385ff7fc96ffb27a8d0d19b6fa2a5104ad92090b5481d0",
    "compare_full.tsv": "d294151dc7c79ac95b8bc9d9fb025b9599ac3e8ea4f1574a9a494eeb9f874062",
}


def test_compare_files_are_pinned(tiny_config, tmp_path):
    """A cold `compare` writes exactly the pinned files, each with the mode
    `open()` would give it under the umask."""
    out = tmp_path / "cmp"
    old = os.umask(0o027)
    try:
        assert main(["--config", tiny_config, "compare", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert {f.name: file_hash(f) for f in out.iterdir()} == COMPARE_SHA256
    assert {f.name: oct(f.stat().st_mode & 0o777) for f in out.iterdir()} == dict.fromkeys(
        COMPARE_SHA256, oct(0o640))


def test_train_and_eval_head(tiny_config, gen_dir, tmp_path, capsys):
    ckpt = str(tmp_path / "head.ckpt.json")
    assert main(["--config", tiny_config, "train", "--data", gen_dir,
                 "--loss", "kl", "--out", ckpt]) == 0
    assert os.path.exists(ckpt)
    rep_path = str(tmp_path / "report.json")
    assert main(["--config", tiny_config, "eval", "--data", gen_dir,
                 "--policy", "head", "--checkpoint", ckpt, "--out", rep_path]) == 0
    with open(rep_path) as fh:
        rep = json.load(fh)
    assert "head" in rep
    assert rep["head"]["n_samples"] > 0


def subprocess_env(**extra) -> dict:
    """The environment of a child Python that imports this checkout's watune."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def test_seed_flag_is_the_config_seed(tiny_config, gen_dir, tmp_path):
    """`--seed 7` runs what a config file whose seed is 7 runs: `gen` writes
    the same manifest, other than seed 1's, and `train` the same head,
    stamped with seed 7."""
    seven = tmp_path / "seven.json"
    save_config(seven, replace(load_config(tiny_config), seed=7))
    manifests, heads = [], []
    for flags in (["--config", tiny_config, "--seed", "7"], ["--config", str(seven)]):
        out, ckpt = tmp_path / f"out-{len(heads)}", tmp_path / f"kl-{len(heads)}.ckpt.json"
        assert main([*flags, "gen", "--out", str(out)]) == 0
        assert main([*flags, "train", "--data", str(out), "--loss", "kl", "--out", str(ckpt)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
        heads.append(ckpt.read_bytes())
    with open(os.path.join(gen_dir, "manifest.json")) as fh:
        assert manifests[0] == manifests[1] and manifests[0]["hashes"] != json.load(fh)["hashes"]
    assert heads[0] == heads[1] and json.loads(heads[0])["metadata"]["seed"] == 7


def test_soft_temp_reaches_only_the_kl_head(tiny_config, gen_dir, tmp_path):
    """`reward.soft_temp` is the temperature of the KL head's soft labels:
    at 0.5 it changes a KL head's weights and leaves a CE head's as they are."""
    d = load_config(tiny_config).to_dict()
    d["reward"]["soft_temp"] = 0.5
    warm = tmp_path / "warm.json"
    warm.write_text(json.dumps(d))
    params = {}
    for config in (tiny_config, str(warm)):
        for loss in ("ce", "kl"):
            ckpt = tmp_path / f"{loss}-{len(params)}.ckpt.json"
            assert main(["--config", config, "train", "--data", gen_dir, "--loss", loss,
                         "--out", str(ckpt)]) == 0
            params[config, loss] = json.loads(ckpt.read_text())["params"]
    assert params[tiny_config, "ce"] == params[str(warm), "ce"]
    assert params[tiny_config, "kl"] != params[str(warm), "kl"]


def test_train_checkpoint_same_across_blas_threads(tiny_config, gen_dir, tmp_path):
    """`watune train` writes the same bytes under one and two OpenBLAS
    threads: a KL head on the tiny config, and a 3-layer, hidden-64 KL head
    and a DPO head on it, whose reference forward over 2,560 rows is a
    product two threads share."""
    cfg = ExperimentConfig(seed=1)
    cfg.dataset.logs_per_session = 200
    cfg.train.epochs = 1
    deep_config, deep_dir = str(tmp_path / "deep.json"), str(tmp_path / "deep")
    save_config(deep_config, cfg)
    assert main(["--config", deep_config, "gen", "--out", deep_dir]) == 0
    assert len(load_dataset(os.path.join(deep_dir, "train.jsonl"), cfg.reward)) >= 2560
    for case, config, data, losses in (("tiny", tiny_config, gen_dir, ["kl"]),
                                       ("deep", deep_config, deep_dir, ["kl", "dpo"])):
        checkpoints = {}
        for threads in ("1", "2"):
            for loss in losses:
                ckpt = tmp_path / f"{case}-{loss}-{threads}.ckpt.json"
                ref = ["--ref", str(tmp_path / f"{case}-kl-{threads}.ckpt.json")] if loss == "dpo" else []
                subprocess.run([sys.executable, "-m", "watune.cli", "--config", config, "train",
                                "--data", data, "--loss", loss, *ref, "--out", str(ckpt)],
                               env=subprocess_env(OPENBLAS_NUM_THREADS=threads), check=True,
                               capture_output=True, timeout=300)
                checkpoints.setdefault(loss, set()).add(ckpt.read_bytes())
        assert {loss: len(found) for loss, found in checkpoints.items()} == dict.fromkeys(losses, 1), case


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and at least 2 CPUs")
def test_cli_starts_one_blas_thread_unless_told():
    """Importing `watune.cli` loads OpenBLAS with one thread when no thread
    count is set, and with the count given when one is; either way it leaves
    `os.environ` as it found it, so children inherit the caller's."""
    script = ("import os; before = dict(os.environ); import watune.cli; "
              "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)")
    unset = {k: v for k, v in subprocess_env().items()
             if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    for extra, threads in (({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)):
        run = subprocess.run([sys.executable, "-c", script], env={**unset, **extra},
                             check=True, capture_output=True, text=True, timeout=60)
        assert run.stdout.split() == [str(threads), "True"], extra


def test_train_layers_follow_the_config(tiny_config, gen_dir, tmp_path, capsys):
    """A head has the config's depth (1 here), and so has a DPO head trained
    from it. A reference trained under another config, here of depth 2, is
    refused by name."""
    kl, dpo = tmp_path / "kl.ckpt.json", tmp_path / "dpo.ckpt.json"
    assert main(["--config", tiny_config, "train", "--data", gen_dir, "--out", str(kl)]) == 0
    assert main(["--config", tiny_config, "train", "--data", gen_dir, "--loss", "dpo",
                 "--ref", str(kl), "--out", str(dpo)]) == 0
    for path in (kl, dpo):
        obj = json.loads(path.read_text())
        assert len(obj["shapes"]) == obj["metadata"]["layers"] == 1
    two = load_config(tiny_config).to_dict()
    two["train"]["layers"] = 2
    config = tmp_path / "two.json"
    config.write_text(json.dumps(two))
    before = dpo.read_bytes()
    capsys.readouterr()
    assert main(["--config", str(config), "train", "--data", gen_dir, "--loss", "dpo",
                 "--ref", str(kl), "--out", str(dpo)]) == 1
    assert f"checkpoint {kl} came from config" in capsys.readouterr().err
    assert dpo.read_bytes() == before


def test_train_writes_the_heads_compare_writes(tmp_path, capsys):
    """`watune train` and `compare` train and stamp a head the same way: on
    the same data and config their checkpoints are byte-identical, and each
    carries that config's hash and reward mode, under either mode."""
    for mode in RewardMode:
        cfg = ExperimentConfig(seed=1)
        cfg.dataset.logs_per_session = 80
        cfg.train.epochs = 1
        cfg.train.layers = 1
        cfg.reward.reward_mode = mode
        config, out = str(tmp_path / f"{mode.value}.json"), tmp_path / mode.value
        save_config(config, cfg)
        assert main(["--config", config, "compare", "--out", str(out)]) == 0
        for name, flags in (("head-ce", ["--loss", "ce"]), ("head-kl", ["--loss", "kl"]),
                            ("head-kl-no-peer", ["--loss", "kl", "--no-peer"]),
                            ("head-kl+dpo", ["--loss", "dpo", "--ref", str(out / "head-kl.ckpt.json")])):
            ckpt = tmp_path / f"{name}.ckpt.json"
            assert main(["--config", config, "train", "--data", str(out), *flags,
                         "--out", str(ckpt)]) == 0
            assert ckpt.read_bytes() == (out / f"{name}.ckpt.json").read_bytes(), (mode, name)
            meta = json.loads(ckpt.read_text())["metadata"]
            assert (meta["config_hash"], meta["reward_mode"]) == (
                cfg.config_hash(), "naive" if mode is RewardMode.naive else "context"), (mode, name)


def test_train_dpo_requires_ref(tiny_config, gen_dir, tmp_path, capsys):
    ckpt = str(tmp_path / "dpo.ckpt.json")
    assert main(["--config", tiny_config, "train", "--data", gen_dir,
                 "--loss", "dpo", "--out", ckpt]) == 1
    assert "requires --ref" in capsys.readouterr().err


def test_train_ref_only_with_dpo(tiny_config, gen_dir, tmp_path, capsys):
    """`--ref` with another loss is refused, not ignored, even when the path
    does not exist."""
    ckpt = tmp_path / "head.ckpt.json"
    for loss in ("ce", "kl"):
        assert main(["--config", tiny_config, "train", "--data", gen_dir, "--loss", loss,
                     "--ref", str(tmp_path / "missing.ckpt.json"), "--out", str(ckpt)]) == 1
        assert "--ref is only read with --loss dpo" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.fixture(scope="module")
def compared(tiny_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("compared")
    assert main(["--config", tiny_config, "compare", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("value", FUZZ_VALUES, ids=repr)
@pytest.mark.parametrize("key", ["format", "shapes", "params", "metadata", "metadata.loss",
                                 "metadata.no_peer", "metadata.config_hash"])
def test_checkpoint_fuzz_every_key(tiny_config, compared, key, value, capsys):
    """Each checkpoint key set to each value either loads or makes `eval
    --policy head` and `compare` exit 1 naming the file. Only a head marked
    with another loss, or as trained without the peer, loads in `eval`;
    `compare` refuses both as its `head-kl` row, naming the field (both
    commands check the config hash)."""
    ckpt = compared / "head-kl.ckpt.json"
    original = ckpt.read_text()
    obj = json.loads(original)
    owner, _, leaf = key.rpartition(".")
    (obj[owner] if owner else obj)[leaf] = value
    eval_loads = key == "metadata.loss" or (key, value) == ("metadata.no_peer", True)
    capsys.readouterr()
    try:
        ckpt.write_text(json.dumps(obj))
        for command, loads in ((["eval", "--data", str(compared), "--policy", "head",
                                 "--checkpoint", str(ckpt)], eval_loads),
                               (["compare", "--out", str(compared)], False)):
            code = main(["--config", tiny_config, *command])
            err = capsys.readouterr().err
            assert code == (0 if loads else 1), (command[0], err)
            assert code == 0 or str(ckpt) in err, (command[0], err)
            if eval_loads and not loads:  # refused as the head-kl row, by field
                assert f"has {key} " in err, (command[0], err)
    finally:
        ckpt.write_text(original)


def test_eval_baselines_and_slices(tiny_config, gen_dir, capsys):
    assert main(["--config", tiny_config, "eval", "--data", gen_dir,
                 "--policy", "oracle"]) == 0
    agg = json.loads(capsys.readouterr().out)["oracle"]
    assert main(["--config", tiny_config, "eval", "--data", gen_dir,
                 "--policy", "rule", "--scenario", "coop"]) == 0
    coop = json.loads(capsys.readouterr().out)["rule"]
    # cooperative slice = 4 of the 16 scenarios
    assert coop["n_samples"] == agg["n_samples"] // 4
    assert main(["--config", tiny_config, "eval", "--data", gen_dir,
                 "--policy", "fix-rt-iv", "--ood"]) == 0
    assert json.loads(capsys.readouterr().out)["fix-rt-iv"]["n_samples"] == 16 * 60


def test_eval_reports_are_stamped(tiny_config, gen_dir, capsys):
    """No field of an `eval` report is left empty: it carries the config
    hash and the sha256 of the file it read."""
    chash = load_config(tiny_config).config_hash()
    test = file_hash(os.path.join(gen_dir, "test.jsonl"))
    assert main(["--config", tiny_config, "eval", "--data", gen_dir, "--policy", "rule"]) == 0
    rep = json.loads(capsys.readouterr().out)["rule"]
    assert [k for k, v in rep.items() if v in ("", {}, None)] == []
    assert (rep["config_hash"], rep["dataset_hash"]) == (chash, test)


def test_eval_unknown_policy(tiny_config, gen_dir, capsys):
    assert main(["--config", tiny_config, "eval", "--data", gen_dir,
                 "--policy", "bogus"]) == 1
    assert "unknown policy" in capsys.readouterr().err


def test_eval_requires_policy(tiny_config, gen_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config", tiny_config, "eval", "--data", gen_dir])
    assert exc.value.code == 2
    assert "--policy" in capsys.readouterr().err


def test_eval_refuses_an_empty_file(tiny_config, tmp_path, capsys):
    """`eval`, `train` and `replay` refuse a dataset file with no records by
    name, and write nothing."""
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    out = tmp_path / "out"
    for command in (["eval", "--policy", "rule"], ["train", "--out", str(out)],
                    ["replay", "--out", str(out)]):
        assert main(["--config", tiny_config, *command, "--data", str(path)]) == 1
        assert f"{path} holds no dataset records" in capsys.readouterr().err, command
        assert not out.exists(), command


def test_eval_coop_names_a_file_without_cooperative_rows(tiny_config, gen_dir, tmp_path, capsys):
    path = tmp_path / "no-coop.jsonl"
    with open(os.path.join(gen_dir, "test.jsonl")) as fh:
        path.write_text("".join(line for line in fh if "pubHighSubLow" not in line))
    assert main(["--config", tiny_config, "eval", "--data", str(path),
                 "--policy", "rule", "--scenario", "coop"]) == 1
    assert (capsys.readouterr().err
            == f"error: {path} holds no cooperative (pubHighSubLow) records\n")


def test_eval_names_an_overflowing_record_without_a_warning(gen_dir, tmp_path):
    """An energy of 5e-324 overflows the record's energy scores. Run as
    `python -W error`, which turns a numpy warning into a traceback, `eval`
    refuses the record with one line that names its file and line."""
    with open(os.path.join(gen_dir, "test.jsonl")) as fh:
        record = json.loads(fh.readline())
    record["energy_pct_h"][0] = 5e-324
    path = tmp_path / "tiny-energy.jsonl"
    path.write_text(json.dumps(record) + "\n")
    run = subprocess.run([sys.executable, "-W", "error", "-m", "watune.cli", "eval",
                          "--data", str(path), "--policy", "oracle"],
                         env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (
        1, f"error: {path}: line 1: energy scores must be finite and positive\n")


def test_heads_from_another_config_are_refused(tiny_config, compared, tmp_path, capsys):
    """A head trained under one config is refused by name under another
    (here the seed differs) by every command that loads it."""
    ckpt = str(compared / "head-kl.ckpt.json")
    out = tmp_path / "out"
    capsys.readouterr()
    for command in (["eval", "--data", str(compared), "--policy", "head", "--checkpoint", ckpt],
                    ["replay", "--data", str(compared), "--policies", "oracle,head",
                     "--checkpoint", ckpt, "--out", str(out)],
                    ["train", "--data", str(compared), "--loss", "dpo", "--ref", ckpt,
                     "--out", str(out)]):
        assert main(["--config", tiny_config, "--seed", "2", *command]) == 1
        captured = capsys.readouterr()
        assert f"checkpoint {ckpt} came from config" in captured.err, command
        assert captured.out == "" and not out.exists(), command


def test_eval_missing_data(tiny_config, tmp_path, capsys):
    assert main(["--config", tiny_config, "eval", "--data", str(tmp_path),
                 "--policy", "oracle"]) == 1
    assert "run `watune gen` first" in capsys.readouterr().err


def test_gen_names_mistyped_config_field(tmp_path, capsys, monkeypatch):
    mistyped, unknown, out_dir, mode, sigma, swapped, layers, weight, seed, split = (
        ExperimentConfig().to_dict() for _ in range(10))
    mistyped["dataset"]["window"] = 2.5
    unknown["link"]["time_latency_multiplier"]["noon"] = 1.0
    out_dir["out_dir"] = 5
    mode["reward"]["reward_mode"] = "fancy"
    sigma["link"]["latency_noise_sigma"] = -1.0
    lat = swapped["link"]["base_latency_ms"]
    lat[:4], lat[4:] = lat[4:], lat[:4]  # bulk faster than realtime
    layers["train"]["layers"] = 4
    weight["reward"]["w_p"] = float("nan")  # written and read back as the JSON literal NaN
    seed["seed"] = -1
    split["dataset"].update(logs_per_session=1, window=1, split_fraction=0.5)  # no training row
    monkeypatch.chdir(tmp_path)  # where `gen` and `compare` without --out would write
    out = ["--out", str(tmp_path / "out")]
    for d, message, args in (
            (mistyped, "dataset.window", out),
            (unknown, "config link.time_latency_multiplier has no key 'noon'", out),
            (out_dir, "config out_dir must be a string, not 5", []),
            (mode, "config reward.reward_mode must be one of 'contextAware', 'naive', "
                   "not 'fancy'", out),
            (sigma, "link.latency_noise_sigma must be finite and >= 0, not -1.0", out),
            (swapped, "link.base_latency_ms must be lower for realtime than bulk", out),
            (layers, "train.layers must be 1, 2 or 3, not 4", out),
            (weight, "reward.w_p must be finite and >= 0, not nan", out),
            (seed, "seed must be >= 0, not -1", out),
            (split, "dataset.split_fraction must be >= 1 / dataset.logs_per_session", out)):
        p = tmp_path / "f.json"
        p.write_text(json.dumps(d))
        for command in (["gen", *args], ["compare", *args],
                        ["train", "--data", str(tmp_path), "--out", str(tmp_path / "h.ckpt.json")]):
            assert main(["--config", str(p), *command]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {p}: ") and message in err, (command, err)
            assert sorted(os.listdir(tmp_path)) == ["f.json"]


def _refused_by_every_command(config, message, tmp_path, capsys):
    """`gen`, `compare` and `train` under `config` exit 1 with `message`
    and write nothing."""
    for command in (["gen", "--out", str(tmp_path / "out")],
                    ["compare", "--out", str(tmp_path / "out")],
                    ["train", "--data", str(tmp_path), "--out", str(tmp_path / "h.ckpt.json")]):
        assert main(["--config", str(config), *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (command, err)
        assert os.listdir(tmp_path) == [config.name]


def test_malformed_config_names_its_file(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"seed": 1,')
    _refused_by_every_command(config, f"{config}: not a JSON config: ", tmp_path, capsys)


@pytest.mark.parametrize("value", FUZZ_VALUES, ids=repr)
def test_config_fuzz_the_whole_file(tmp_path, value, capsys):
    """A file holding one odd value is refused with a message, not a
    traceback: an object lacks `seed`, anything else is not an object."""
    config = tmp_path / "odd.json"
    config.write_text(json.dumps(value))
    message = (f"error: {config}: config missing key seed\n" if value == {}
               else "config file must be an object, not ")
    _refused_by_every_command(config, message, tmp_path, capsys)


def test_negative_seed_flag_named(tmp_path, capsys):
    assert main(["--seed", "-1", "gen", "--out", str(tmp_path / "out")]) == 1
    assert "error: seed must be >= 0, not -1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_gen_refuses_generated_columns_that_overflow(tiny_config, tmp_path, capsys):
    """Config values that each pass their own check but overflow the
    generated columns are refused where the grid is checked, before any
    dataset file is written."""
    for section, key, value, message in (
            ("link", "latency_noise_sigma", 1e3, "latency must be finite and non-negative"),
            ("reward", "w_l", 1e308, "rewards must be finite")):
        d = load_config(tiny_config).to_dict()
        d[section][key] = value
        config, out = tmp_path / f"{key}.json", tmp_path / key
        config.write_text(json.dumps(d))
        assert main(["--config", str(config), "gen", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err, key
        assert list(out.glob("*.jsonl")) == [], key


def test_gen_names_the_settings_of_an_overflowing_column(tiny_config, tmp_path):
    """Run as `python -W error`, which turns a numpy warning into a traceback,
    `gen` refuses an overflowing column with one line that names the config
    file and the section whose settings made the column."""
    for section, key, value, message in (
            ("link", "latency_noise_sigma", 1e3, "latency must be finite and non-negative"),
            ("reward", "w_l", 1e308, "rewards must be finite")):
        d = load_config(tiny_config).to_dict()
        d[section][key] = value
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps(d))
        run = subprocess.run([sys.executable, "-W", "error", "-m", "watune.cli", "--config",
                              str(config), "gen", "--out", str(tmp_path / key)],
                             env=subprocess_env(), capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (
            1, f"error: {config}: {section}.* settings: generated {message}\n"), key


def test_train_reports_bad_settings_and_divergence(tiny_config, gen_dir, tmp_path, capsys):
    for key, value, message in (("hidden", 0, "train.hidden"),
                                ("learning_rate", float("nan"), "train.learning_rate"),
                                ("learning_rate", 1e300, "non-finite kl loss")):
        d = load_config(tiny_config).to_dict()
        d["train"][key] = value
        p = tmp_path / "f.json"
        p.write_text(json.dumps(d))
        with np.errstate(all="ignore"):  # a learning rate of 1e300 overflows on purpose
            code = main(["--config", str(p), "train", "--data", gen_dir,
                         "--out", str(tmp_path / "head.ckpt.json")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "head.ckpt.json").exists()


def test_replay(tiny_config, gen_dir, capsys):
    assert main(["--config", tiny_config, "replay", "--data", gen_dir,
                 "--policies", "oracle,rule,fix-bulk-bg",
                 "--scenario", "night/pubHighSubLow", "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("step ") == 4
    assert out.count("oracle") == 4 and out.count("rule") == 4
    assert "night" in out


def test_replay_steps_must_be_non_negative(tiny_config, gen_dir, capsys):
    base = ["--config", tiny_config, "replay", "--data", gen_dir, "--steps"]
    assert main(base + ["-1"]) == 1
    captured = capsys.readouterr()
    assert "--steps" in captured.err and captured.out == ""
    assert main(base + ["0"]) == 0
    assert capsys.readouterr().out == ""


def test_replay_bad_scenario(tiny_config, gen_dir, capsys):
    assert main(["--config", tiny_config, "replay", "--data", gen_dir,
                 "--policies", "oracle", "--scenario", "noon"]) == 1
    assert "bad scenario" in capsys.readouterr().err


def test_parser_surface():
    """Every run setting lives in the config file: no option may shadow one."""
    def options(parser):
        return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}

    ap = build_parser()
    commands, = (a.choices for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert options(ap) == {"--config", "--seed"}
    assert {name: options(p) for name, p in commands.items()} == {
        "gen": {"--out"},
        "train": {"--data", "--loss", "--no-peer", "--ref", "--out"},
        "eval": {"--data", "--policy", "--checkpoint", "--scenario", "--ood", "--out"},
        "compare": {"--out"},
        "replay": {"--data", "--policies", "--checkpoint", "--scenario", "--steps", "--out"},
    }


class ParseLog(list):
    """The base names of the dataset files the CLI parses, in order; `heads`
    maps each name to the checkpoints beside the file when it was last parsed."""

    def __init__(self):
        super().__init__()
        self.heads = {}


HEADS = ("head-ce", "head-kl", "head-kl+dpo", "head-kl-no-peer")


@pytest.fixture
def parsed(monkeypatch):
    names, load = ParseLog(), watune.cli.load_dataset

    def spy(path, reward_cfg):
        name = os.path.basename(path)
        names.append(name)
        names.heads[name] = sorted(f.removesuffix(".ckpt.json")
                                   for f in os.listdir(os.path.dirname(path))
                                   if f.endswith(".ckpt.json"))
        return load(path, reward_cfg)

    monkeypatch.setattr(watune.cli, "load_dataset", spy)
    return names


def test_compare_end_to_end_and_hash_guard(tiny_config, tmp_path, parsed, capsys):
    out = str(tmp_path / "cmp")
    assert main(["--config", tiny_config, "compare", "--out", out]) == 0
    capsys.readouterr()
    assert parsed == ["test.jsonl", "ood.jsonl"]  # the heads train on the split `gen` built
    # and are written before test and OOD are read back, so the train split can be freed first
    assert parsed.heads["test.jsonl"] == sorted(HEADS)
    with open(os.path.join(out, "compare.tsv")) as fh:
        table = fh.read()
    lines = table.strip().split("\n")
    assert lines[0].startswith("# config_hash:")
    assert len(lines) == 2 + 8  # comment + header + 8 policy rows
    assert os.path.exists(os.path.join(out, "compare_full.tsv"))

    # rerun with cached artifacts is byte-identical and parses only test and OOD
    before = {f: file_hash(os.path.join(out, f)) for f in os.listdir(out)}
    parsed.clear()
    assert main(["--config", tiny_config, "compare", "--out", out]) == 0
    capsys.readouterr()
    after = {f: file_hash(os.path.join(out, f)) for f in os.listdir(out)}
    assert before == after
    assert parsed == ["test.jsonl", "ood.jsonl"]

    # a different seed must refuse the stale artifacts
    assert main(["--config", tiny_config, "--seed", "2", "compare", "--out", out]) == 1
    assert "remove" in capsys.readouterr().err

    # so must a dataset file edited after `gen` wrote its hash to the manifest,
    # even the training set, which a warm run hashes but does not parse
    train_path = os.path.join(out, "train.jsonl")
    with open(train_path, "rb") as fh:
        original = fh.read()
    edited = bytearray(original)
    edited[edited.index(b".") + 1] ^= 1  # one digit of one number: '0' <-> '1', ...
    with open(train_path, "wb") as fh:
        fh.write(edited)
    parsed.clear()
    assert main(["--config", tiny_config, "compare", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "train.jsonl" in err and "remove" in err
    assert parsed == []
    with open(train_path, "wb") as fh:
        fh.write(original)

    test_path = os.path.join(out, "test.jsonl")
    with open(test_path) as fh:
        lines = fh.readlines()
    rec = json.loads(lines[0])
    rec["latency_ms"][0] += 1.0
    lines[0] = json.dumps(rec) + "\n"
    with open(test_path, "w") as fh:
        fh.writelines(lines)
    assert main(["--config", tiny_config, "compare", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "test.jsonl" in err and "remove" in err


def test_compare_retrains_only_a_missing_head(tiny_config, tmp_path, parsed, capsys):
    """A rerun with one checkpoint gone parses the training set once, and
    rewrites that head and both tables byte for byte: each head trained on
    the parsed file equals the one a cold run trained on the split in memory."""
    out = tmp_path / "cmp"
    assert main(["--config", tiny_config, "compare", "--out", str(out)]) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    for head in HEADS:
        (out / f"{head}.ckpt.json").unlink()
        parsed.clear()
        assert main(["--config", tiny_config, "compare", "--out", str(out)]) == 0
        assert parsed.count("train.jsonl") == 1, head
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before, head


def test_compare_checks_each_row_once(tiny_config, tmp_path, monkeypatch):
    """Dataset columns are checked once, where they enter: a cold `compare`
    checks the two grids it generates and the test and OOD files it reads
    back, a warm one those two files; no split, slice or mask checks again."""
    rows, check = [], watune.datagen._checked

    def spy(data):
        rows.append(len(data))
        return check(data)

    monkeypatch.setattr(watune.datagen, "_checked", spy)
    out = tmp_path / "cmp"
    for runs, generated in ((4, ("in_distribution", "ood")), (2, ())):
        rows.clear()
        assert main(["--config", tiny_config, "compare", "--out", str(out)]) == 0
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert len(rows) == runs
        assert sum(rows) == sum(counts[k] for k in (*generated, "test", "ood"))


def test_compare_does_not_import_numpy_ma(tiny_config, tmp_path):
    """No command uses numpy.ma, but `np.unique` imports it under numpy 2,
    which costs every command that import's time and memory."""
    script = ("import sys; from watune.cli import main; "
              "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", script, "--config", tiny_config, "compare",
                          "--out", str(tmp_path / "cmp")],
                         env=subprocess_env(), check=True, capture_output=True, text=True,
                         timeout=300)
    assert run.stdout.splitlines()[-1] == "False"
