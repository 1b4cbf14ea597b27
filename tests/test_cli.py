"""Command line round trips: flags, reports, exit codes."""

import argparse
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from permdec import bench, cli, costmodel, verify
from permdec.chain import DecompositionChain
from permdec.cli import main
from permdec.costmodel import chain_cost
from permdec.network import build_network, evaluate_network, reduce_masks
from permdec.slots import Permutation, SlotVector
from permdec.verify import CheckResult, SuiteReport, run_suite

REFERENCE_ROW_1024 = {1: 1.0, 2: 2.0, 3: 3.3, 4: 3.7, 5: 4.0,
                      6: 4.1, 7: 4.3, 8: 4.3, 9: 4.0, 10: 3.8}


def run(capsys, *args):
    rc = main(list(args))
    return rc, capsys.readouterr().out


def run_json(capsys, *args):
    rc, out = run(capsys, *args)
    return rc, json.loads(out)


# ------------------------------------------------------------- decompose

def test_decompose_ut_lists_right_factor_diagonals(capsys):
    rc, rep = run_json(capsys, "decompose", "ut", "--d", "4", "--l", "1")
    assert rc == 0
    assert rep["verified"] is True
    by_name = {f["name"]: f["diagonals"] for f in rep["factors"]}
    assert by_name["R_1"] == [-6, 0, 6]
    assert rep["n"] == 16


def test_decompose_ut_left_factor_runs_bsgs(capsys):
    # L holds the 15 diagonals 15 t, |t| <= 7: its plan splits them into
    # baby and giant steps (7 rotations), where one rotation per off
    # diagonal would take 14; R_1 = {0, +-120} rotates twice either way
    rc, rep = run_json(capsys, "decompose", "ut", "--d", "16", "--l", "1")
    assert rc == 0
    by_name = {f["name"]: f for f in rep["factors"]}
    assert len(by_name["L"]["diagonals"]) == 15
    assert by_name["L"]["rotations"] == 7
    assert by_name["R_1"]["rotations"] == 2


@pytest.mark.parametrize("target,d,l", [
    ("sigma", 8, 2), ("tau", 8, 1), ("ut", 8, 2),
])
def test_decompose_ladders_verify(capsys, target, d, l):
    rc, rep = run_json(capsys, "decompose", target, "--d", str(d),
                       "--l", str(l))
    assert rc == 0 and rep["verified"] is True
    assert len(rep["factors"]) == l + 1


def test_decompose_padded_gamma(capsys):
    rc, rep = run_json(capsys, "decompose", "gamma", "--d", "4", "--dp", "2",
                       "--l", "1")
    assert rc == 0 and rep["verified"] is True
    assert rep["rotations"] == len(rep["doubling_steps"]) + len(
        rep["fanout_steps"])
    assert rep["mask_ones"] > 0


def test_decompose_always_checks_and_has_no_verify_flag(capsys):
    # every decompose checks its route, so the flag that asked for it is gone
    assert main(["decompose", "ut", "--verify"]) == 2
    cap = capsys.readouterr()
    assert "unrecognized arguments: --verify" in cap.err and not cap.out


def test_decompose_wrong_chain_fails_verification(capsys, monkeypatch):
    # a ut chain missing its left factor is not the transpose: the report
    # says so and the run exits 1
    build, decompose = cli.LADDERS["ut"]

    def short(d, l, n=None):
        chain = decompose(d, l, n)
        return DecompositionChain(chain.n, chain.factors[1:])

    monkeypatch.setitem(cli.LADDERS, "ut", (build, short))
    rc, rep = run_json(capsys, "decompose", "ut", "--d", "4", "--l", "1")
    assert rc == 1 and rep["verified"] is False
    assert len(rep["factors"]) == 1


# ---------------------------------------------------------------- search

def test_search_wrong_chain_fails_verification(capsys, monkeypatch):
    # a chain that skips its left factor when it runs: its factors still
    # meet the ideal-form conditions, so only the run on slots can tell,
    # and the report says so and the run exits 1
    evaluate = DecompositionChain.evaluate

    def skips_left(chain, v):
        rest = DecompositionChain(chain.n, chain.factors[1:], chain.plans[1:])
        return evaluate(rest, v)

    monkeypatch.setattr(DecompositionChain, "evaluate", skips_left)
    rc, rep = run_json(capsys, "search", "--target", "ut", "--d", "8")
    assert rc == 1 and rep["ok"] is False
    assert rep["depth"] >= 2 and len(rep["factors"]) == rep["depth"] + 1


def test_search_named_target(capsys):
    rc, rep = run_json(capsys, "search", "--target", "ut", "--d", "8")
    assert rc == 0 and rep["ok"] is True
    assert rep["depth"] >= 2  # floor(log2(7))
    assert len(rep["rc_sequence"]) == rep["depth"]
    assert rep["factors"][0]["name"] == "L"


def test_search_named_target_d64(capsys):
    # deeper than Python's recursion limit when the DFS recursed
    rc, rep = run_json(capsys, "search", "--target", "ut", "--d", "64")
    assert rc == 0 and rep["ok"] is True
    assert rep["depth"] == rep["depth_cap"] == 5


def test_search_perm_file(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(Permutation.rotation(32, 5).to_json()))
    rc, rep = run_json(capsys, "search", "--perm-file", str(path))
    assert rc == 0 and rep["ok"] is True
    assert rep["n"] == 32


# ------------------------------------------------------------------- hmm

def test_hmm_naive_budget_exact(capsys):
    rc, rep = run_json(capsys, "hmm", "--d", "8", "--dp", "4")
    assert rc == 0
    assert rep["rotations"] == rep["budget"]["total"]
    assert rep["products_ok"] and rep["budget_ok"]


def test_hmm_layered_replication(capsys):
    rc, rep = run_json(capsys, "hmm", "--d", "8", "--dp", "1",
                       "--replication", "4,2", "--m", "2")
    assert rc == 0
    assert rep["replication"] == [4, 2]
    assert rep["rotations"] == rep["budget"]["total"]
    assert rep["products_ok"] and rep["budget_ok"]


def test_hmm_layered_budget_is_the_executed_count(capsys):
    rc, rep = run_json(capsys, "hmm", "--d", "16", "--dp", "4",
                       "--replication", "4,4")
    assert rc == 0 and rep["ok"] is True
    assert rep["rotations"] == rep["budget"]["total"] == 34
    assert "budget_exact" not in rep


# ------------------------------------------------------------------- net

def test_net_eval_collapsed(capsys):
    rc, rep = run_json(capsys, "net", "eval", "--n", "256", "--seed", "3",
                       "--collapse", "2,3")
    assert rc == 0 and rep["ok"] is True
    _, built = run_json(capsys, "net", "build", "--n", "256", "--seed", "3",
                        "--collapse", "2,3")
    assert rep["rotations"] == sum(built["per_level"].values())
    assert "profile_total" not in rep


def test_net_eval_reports_the_reduction(capsys):
    _, reduced = run_json(capsys, "net", "eval")
    _, raw = run_json(capsys, "net", "eval", "--no-reduce")
    assert (reduced["reduced"], raw["reduced"]) == (True, False)
    assert (raw["masks"], reduced["masks"]) == (152, 104)
    assert raw["rotations"] == reduced["rotations"]


def test_net_profile_matches_reference_row(capsys):
    rc, rep = run_json(capsys, "net", "profile", "--n", "1024",
                       "--samples", "20", "--seed", "7")
    assert rc == 0
    for lv, want in REFERENCE_ROW_1024.items():
        assert abs(rep["per_level_mean"][str(lv)] - want) <= 0.5
    assert abs(rep["total_mean"] - 34.5) <= 0.10 * 34.5


def test_net_profile_reports_spread_and_scalar_mults(capsys):
    rc, rep = run_json(capsys, "net", "profile", "--n", "64", "--samples",
                       "3", "--seed", "11")
    assert rc == 0
    assert rep["scalar_mult_mean"] > 0 and rep["total_std"] >= 0
    # one sample has no spread, and its mean is that network's priced total
    _, one = run_json(capsys, "net", "profile", "--n", "64", "--samples",
                      "1", "--seed", "11")
    p = Permutation.random(64, random.Random(11))
    net = reduce_masks(build_network(p))
    assert one["total_std"] == 0
    assert one["scalar_mult_mean"] == chain_cost(net).total


def test_net_build_report_roundtrips(capsys):
    # the printed graph is the (by default reduced) network built from the
    # seeded permutation, and that network evaluates it exactly
    rc, rep = run_json(capsys, "net", "build", "--n", "64", "--seed", "3")
    assert rc == 0
    p = Permutation.random(64, __import__("random").Random(3))
    net = reduce_masks(build_network(p))
    assert rep["network"] == net.to_json()
    vals = list(range(64))
    out = evaluate_network(net, SlotVector.from_list(vals))
    assert out.to_list() == p.apply(vals)


# first 16 hex digits of the sha256 of `permdec net ARGS` stdout, all with
# exit status 0. The eval report says whether masks were reduced and how
# many it applied, so the default and --no-reduce differ.
NET_REPORTS = {
    ("build",): "464140acd84002f0",
    ("build", "--collapse", "2,3"): "e01c1fe4a46f77fa",
    ("eval",): "14da96aec7cbb12c",
    ("eval", "--no-reduce"): "6583cf6d5a09cfe3",
    ("eval", "--collapse", "2,3"): "e4d5a80e0cad7a0e",
    ("eval", "--collapse", "0,2"): "ccf902eaf3bebe47",
    ("eval", "--n", "1024", "--collapse", "3,3"): "393201730139a4d1",
    ("profile", "--samples", "3"): "bd158f9be3ae4db2",
}


def test_net_reports_pinned(capsys):
    for args, digest in NET_REPORTS.items():
        rc, out = run(capsys, "net", *args)
        got = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert (rc, got) == (0, digest), args


# ----------------------------------------------------------------- benes

def test_benes_report(capsys):
    rc, rep = run_json(capsys, "benes", "--n", "128", "--seed", "2")
    assert rc == 0 and rep["ok"] is True
    assert rep["depth"] == 6
    assert rep["total_rotations"] == sum(rep["rotation_counts"])
    assert len(rep["keys"]) <= 9


# first 16 hex digits of the sha256 of `permdec benes ARGS` stdout, all with
# exit status 0. --budget 3 and --n 32 --seed 28 list only the keys some
# rotation uses: the power-of-two coverage keys 64 and 8 that no path takes
# are not reported.
BENES_REPORTS = {
    (): "0668297215b96247",
    ("--n", "16"): "aad4fdf324d00ead",
    ("--n", "64"): "bd6324a32df1f6cd",
    ("--n", "1024"): "60a1fd2ec19c7be4",
    ("--no-collapse",): "c0a1ad7109f1d92f",
    ("--no-restrict",): "f1b304cbd66130d5",
    ("--budget", "2"): "4ac4c4d7b94c6339",
    ("--budget", "3"): "7fbfc1ae55ec396a",
    ("--n", "32", "--seed", "28"): "c059fca02805656a",
}


def test_benes_reports_pinned(capsys):
    for args, digest in BENES_REPORTS.items():
        rc, out = run(capsys, "benes", *args)
        got = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert (rc, got) == (0, digest), args


def test_benes_single_slot_default_budget(capsys):
    # the default budget is log2 n but at least 1 (an explicit 0 is a usage
    # error)
    rc, rep = run_json(capsys, "benes", "--n", "1")
    assert rc == 0 and rep["ok"] is True and rep["keys"] == []


def test_benes_uncollapsed_depth(capsys):
    rc, rep = run_json(capsys, "benes", "--n", "64", "--seed", "2",
                       "--no-collapse", "--no-restrict")
    assert rc == 0
    assert rep["depth"] == 11  # 2 log n - 1


# ---------------------------------------------------------------- verify

def test_verify_quick_suite(capsys):
    rc, rep = run_json(capsys, "verify", "--n-max", "64")
    assert rc == 0 and rep["ok"] is True
    names = {c["name"] for c in rep["checks"]}
    assert names == {
        "ideal-search", "transpose-ladder", "diag-to-col-ladder",
        "diag-to-row-ladder", "padded-fanout", "batched-matmul",
        "network-raw", "network-reduced", "network-collapsed", "benes",
    }


@pytest.mark.parametrize("n_max", [1, 2, 4])
def test_verify_tiny_sizes(capsys, n_max):
    # networks this small may be the identity, which has no level to collapse
    assert run_suite(n_max=n_max, full=False).ok
    rc, rep = run_json(capsys, "verify", "--n-max", str(n_max))
    assert rc == 0 and rep["ok"] is True


@pytest.mark.parametrize("n_max", [1, 16, 48, 64, 256])
def test_verify_sizes_capped_by_n_max(monkeypatch, n_max):
    # the network and Beneš checks build nothing above n_max, and Beneš
    # only powers of two
    built = {"network": [], "benes": []}

    def recording(sizes, fn):
        def wrapped(p):
            sizes.append(p.n)
            return fn(p)
        return wrapped

    monkeypatch.setattr(verify, "build_network",
                        recording(built["network"], verify.build_network))
    monkeypatch.setattr(verify, "benes_decompose",
                        recording(built["benes"], verify.benes_decompose))
    rng = random.Random(n_max)
    assert verify.run_check("network-raw", rng, 1, n_max).ok
    assert verify.run_check("benes", rng, 1, n_max).ok
    for sizes in built.values():
        assert sizes and max(sizes) <= n_max
    assert all(n & (n - 1) == 0 for n in built["benes"])


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    bad = SuiteReport(64, 0, [CheckResult("benes", 1, 1, ["boom"])])
    monkeypatch.setattr("permdec.cli.run_suite",
                        lambda **kw: bad)
    rc, rep = run_json(capsys, "verify")
    assert rc == 1
    assert rep["ok"] is False


# ----------------------------------------------- pinned reports by route

# first 16 hex digits of the sha256 of `permdec ARGS` stdout, all with exit
# status 0: the ladder, padded, search, hmm and verify reports.
ROUTE_REPORTS = {
    ("decompose", "ut", "--d", "16", "--l", "3"):
        "a85bd6118f922dac",
    ("decompose", "ut", "--d", "5", "--l", "1", "--n", "32"):
        "2e97af35a98c1cca",
    ("decompose", "sigma", "--d", "16", "--l", "2"):
        "b5b115ba3ee0a5fb",
    ("decompose", "sigma", "--d", "7", "--l", "2"):
        "4676420307e2296f",
    ("decompose", "tau", "--d", "16", "--l", "3"):
        "ecd1604cb19ab613",
    ("decompose", "gamma", "--d", "8", "--dp", "4", "--l", "1"):
        "a26966aa542ff385",
    ("decompose", "xi", "--d", "8", "--dp", "8", "--l", "2"):
        "93acb7cafc155847",
    ("search", "--d", "16"): "68e4fbf0f6d85ecb",
    ("search", "--target", "sigma", "--d", "8"): "b8e851d883dd5cc3",
    ("search", "--target", "tau", "--d", "4"): "01b58465b827ba9f",
    ("hmm", "--d", "16", "--dp", "4", "--replication", "4,4"):
        "7831e86376b4cb7f",
    ("verify", "--n-max", "256"): "c6a3dcebc98432d0",
    ("verify", "--all"): "430632747f9a8ddf",
}


def test_route_reports_pinned(capsys):
    for args, digest in ROUTE_REPORTS.items():
        rc, out = run(capsys, *args)
        got = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert (rc, got) == (0, digest), args


# -------------------------------------------------------------- plumbing

def test_identical_seeds_identical_bytes(capsys):
    _, first = run(capsys, "net", "profile", "--n", "128", "--samples", "4",
                   "--seed", "9")
    _, again = run(capsys, "net", "profile", "--n", "128", "--samples", "4",
                   "--seed", "9")
    assert first == again


def test_out_file_and_outdir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PERMDEC_OUTDIR", str(tmp_path))
    rc, _ = run(capsys, "benes", "--n", "64", "--seed", "1",
                "--out", "rep.json")
    assert rc == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["command"] == "benes" and rep["ok"] is True


def test_text_format(capsys):
    rc, out = run(capsys, "hmm", "--d", "4", "--format", "text")
    assert rc == 0
    assert "ok: True" in out and "{" not in out


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main(["frobnicate"]) == 2
    assert main(["decompose", "ut", "--d", "nope"]) == 2
    assert main(["net", "eval", "--perm-file", str(tmp_path / "absent.json")]) == 2
    assert main(["decompose", "ut", "--d", "4", "--l", "9"]) == 2
    assert main(["search", "--d", "0"]) == 2
    assert main(["net", "profile", "--n", "16", "--collapse", "0,0,3"]) == 2
    assert main(["benes", "--budget", "0"]) == 2
    assert main(["benes", "--n", "1", "--budget", "0"]) == 2
    capsys.readouterr()
    # an empty permutation has no Beneš routing
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 0, "targets": []}))
    assert main(["benes", "--perm-file", str(empty)]) == 2
    cap = capsys.readouterr()
    assert cap.err == "permdec: length must be a power of two\n"
    assert not cap.out
    # the bench subcommand and the csv format are gone
    for argv in (["bench"], ["decompose", "ut", "--format", "csv"],
                 ["net", "profile", "--format", "csv"]):
        assert main(argv) == 2, argv
        cap = capsys.readouterr()
        assert "invalid choice" in cap.err and not cap.out
    # profile samples random permutations, so a file (present or not) is
    # refused rather than ignored
    path = tmp_path / "p.json"
    path.write_text(json.dumps(Permutation.rotation(16, 3).to_json()))
    for perm in (path, tmp_path / "absent.json"):
        assert main(["net", "profile", "--perm-file", str(perm)]) == 2
        cap = capsys.readouterr()
        assert cap.err.startswith("permdec: net profile") and not cap.out
    # options the requested run would not read are refused, not ignored
    for argv, flags in (
            (["search", "--perm-file", str(path), "--target", "ut"],
             "--target"),
            (["search", "--perm-file", str(path), "--d", "4"], "--d"),
            (["search", "--perm-file", str(path), "--n", "16"], "--n"),
            (["net", "build", "--samples", "3"], "--samples"),
            (["net", "eval", "--samples", "20"], "--samples"),
            (["decompose", "ut", "--dp", "2"], "--dp"),
            (["decompose", "sigma", "--dp", "2"], "--dp"),
            (["decompose", "tau", "--d", "8", "--dp", "4"], "--dp"),
            (["benes", "--no-collapse", "--depth", "4"], "--depth"),
            (["benes", "--no-restrict", "--budget", "3"], "--budget")):
        assert main(argv) == 2, argv
        cap = capsys.readouterr()
        assert cap.err.startswith("permdec: ") and not cap.out, argv
        assert cap.err.rstrip().endswith(f"drop {flags}"), cap.err
    # search draws nothing, so it has no --seed
    assert main(["search", "--seed", "3"]) == 2
    cap = capsys.readouterr()
    assert "unrecognized arguments: --seed" in cap.err and not cap.out
    # 19 and 18 factors, deeper than the 17 levels of a fresh vector
    for argv, depth in ((["benes", "--n", "1024", "--no-collapse"], 19),
                        (["benes", "--n", "1024", "--depth", "18"], 18)):
        assert main(argv) == 2, argv
        cap = capsys.readouterr()
        assert f"{depth} factors" in cap.err and "17 are available" in cap.err
        assert not cap.out
    for argv in (["net", "eval", "--n", "-4"], ["hmm", "--samples", "-2"],
                 ["benes", "--n", "-4"], ["net", "profile", "--samples", "-1"],
                 ["verify", "--n-max", "0"], ["decompose", "ut", "--n", "0"],
                 ["search", "--n", "x"], ["search", "--d", "-2"],
                 ["decompose", "ut", "--d", "-3"], ["hmm", "--dp", "0"],
                 ["decompose", "gamma", "--dp", "0"]):
        assert main(argv) == 2, argv
        cap = capsys.readouterr()
        assert "expected a positive integer" in cap.err and not cap.out
    # list options name the form they expect
    for argv, expected in (
            (["net", "eval", "--collapse", "a,3"], "expected T,B, got 'a,3'"),
            (["net", "eval", "--collapse", "0,0,3"],
             "expected T,B, got '0,0,3'"),
            (["net", "profile", "--collapse", "2"], "expected T,B, got '2'"),
            (["hmm", "--replication", "x"],
             "expected 'naive' or factors like 4,4, got 'x'"),
            (["hmm", "--replication", "4,"],
             "expected 'naive' or factors like 4,4, got '4,'")):
        assert main(argv) == 2, argv
        cap = capsys.readouterr()
        assert expected in cap.err and not cap.out, cap.err


def test_every_subcommand_dispatches():
    # a subparser without a dispatch entry would die with a KeyError
    # traceback and exit 1 instead of running or exiting 2
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._DISPATCH)


def test_net_build_collapsed_report_declares_collapse(capsys):
    # the printed network must not pass for the uncollapsed graph, whose
    # rotations differ from the report's per_level and keys
    rc, rep = run_json(capsys, "net", "build", "--n", "256", "--seed", "5",
                       "--collapse", "2,3")
    assert rc == 0
    assert rep["network"]["collapse"] == {"top": 2, "bottom": 3}
    assert all(k & (k - 1) == 0 for k in rep["keys"])


def test_duplicate_targets_exit_two(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"n": 4, "targets": [0, 1, 1, 3]}))
    assert main(["benes", "--perm-file", str(path)]) == 2
    assert "not a permutation" in capsys.readouterr().err


@pytest.mark.parametrize("obj, why", [
    ({"n": 4, "targets": [1.0, 0.0, 3.0, 2.0]},
     "targets must be integers, not float"),
    ({"n": 4, "targets": [True, False, 3, 2]},
     "targets must be integers, not bool"),
    ({"n": 4.0, "targets": [1, 0, 3, 2]}, "'n' must be an integer, not float"),
    ({"n": True, "targets": [0]}, "'n' must be an integer, not bool"),
    ({"n": 1, "targets": 5}, "'targets' must be a list, not int"),
    ({"n": 1, "targets": None}, "'targets' must be a list, not NoneType"),
], ids=["float", "bool", "float-n", "bool-n", "int-targets", "null-targets"])
def test_non_integer_targets_exit_two(capsys, tmp_path, obj, why):
    # floats and bools sort and compare like the ints they equal; the
    # commands must refuse them, and a targets value that is not a list,
    # before the network or the Benes routing indexes with them
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    for cmd in (["search"], ["net", "eval"], ["benes"]):
        assert main([*cmd, "--perm-file", str(path)]) == 2, cmd
        cap = capsys.readouterr()
        assert cap.err.startswith("permdec: not a permutation") and not cap.out
        assert why in cap.err, cmd


def run_module(*args):
    """A fresh interpreter running `python ARGS` with permdec importable."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_python_m_permdec_is_the_cli(capsys):
    proc = run_module("-m", "permdec", "net", "eval", "--n", "64")
    rc, out = run(capsys, "net", "eval", "--n", "64")
    assert rc == 0 and out
    assert (proc.returncode, proc.stdout) == (rc, out)
    assert run_module("-m", "permdec", "net", "eval", "--n", "x").returncode == 2


def test_duplicate_targets_exit_two_without_asserts(tmp_path):
    # the check must not vanish under python -O
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"n": 4, "targets": [0, 1, 1, 3]}))
    proc = run_module("-O", "-m", "permdec.cli", "benes", "--perm-file",
                      str(path))
    assert proc.returncode == 2
    assert "not a permutation" in proc.stderr and not proc.stdout


def test_deep_benes_chain_exits_two_without_asserts():
    proc = run_module("-O", "-m", "permdec.cli", "benes", "--n", "1024",
                      "--no-collapse")
    assert proc.returncode == 2
    assert "19 factors" in proc.stderr and not proc.stdout


def test_network_deeper_than_the_modulus_chain_exits_two(capsys,
                                                          monkeypatch):
    # a network whose schedule underflows the pricer's modulus chain (at
    # the default level, n = 2^18) is refused with exit 2 and a message,
    # by build and profile alike. Pricing n = 64 (schedule levels 1..6,
    # five rescales run) from level 5 stands in for it
    low = functools.partial(costmodel.CostParams, level=5)
    for module in (costmodel, bench):
        monkeypatch.setattr(module, "CostParams", low)
    for argv in (["net", "build", "--n", "64"],
                 ["net", "profile", "--n", "64", "--samples", "1"]):
        assert main(argv) == 2, argv
        cap = capsys.readouterr()
        assert cap.err == ("permdec: network level 6 underflows the modulus "
                           "chain at 5\n") and not cap.out, argv


def test_network_file_is_not_a_permutation_file(capsys, tmp_path):
    # a network's JSON report keeps only its graph, so it cannot stand in
    # for the permutation a collapsed network is built from
    path = tmp_path / "net.json"
    net = build_network(Permutation.rotation(256, 77))
    path.write_text(json.dumps(net.to_json()))
    assert main(["net", "build", "--perm-file", str(path),
                 "--collapse", "2,3"]) == 2
    assert "not a permutation file" in capsys.readouterr().err
