"""Command-line entry points: schema, artifacts, exit codes."""

import contextlib
import csv
import importlib.util
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heatframe import DomainError, load_net
from heatframe import cli, geometry, heat, jacobi, operators
from heatframe.geometry import make_jacobi_space
from heatframe.cli import RunConfig, build_parser, main
from heatframe.reporting import CHECK_IDS

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_config_validation_rejects_bad_ranges():
    with pytest.raises(DomainError):
        RunConfig(delta=0.0).validate()
    with pytest.raises(DomainError):
        RunConfig(delta=1.5).validate()
    with pytest.raises(DomainError):
        RunConfig(degree=64, n_nodes=64).validate()
    with pytest.raises(DomainError):
        RunConfig(t=-0.5).validate()
    for bad in (
        {"t": math.inf},
        {"t": math.nan},
        {"sigma_exp": math.nan},
        {"sigma_exp": math.inf},
        {"seed": -1},
        {"gamma": math.nan},
        {"alpha": math.inf},
    ):
        with pytest.raises(DomainError):
            RunConfig(**bad).validate()
    RunConfig().validate()


def test_parser_round_trip():
    args = build_parser().parse_args(
        ["verify", "--gamma", "0.5", "--alpha", "-0.3", "--seed", "9"]
    )
    config = RunConfig(**vars(args))
    assert config.command == "verify"
    assert config.gamma == 0.5 and config.alpha == -0.3 and config.seed == 9
    # every flag left out takes the RunConfig default
    for command in ("verify", "kernel", "net", "decompose"):
        assert RunConfig(**vars(build_parser().parse_args([command]))) == RunConfig(command=command)


def test_verify_document_schema(tmp_path):
    out = tmp_path / "verify.json"
    code = main(
        ["verify", "--nodes", "48", "--degree", "30", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "command",
        "config",
        "profile",
        "reports",
        "summary",
        "all_passed",
        "gated_passed",
    }
    assert doc["command"] == "verify"
    assert "out" not in doc["config"]
    assert doc["gated_passed"] is True
    assert doc["reports"] and all(
        set(r) >= {"check_id", "lhs", "rhs", "margin", "passed"}
        for r in doc["reports"]
    )
    summary_ids = {row["check_id"] for row in doc["summary"]}
    assert {"markov", "semigroup", "young", "schur"} <= summary_ids


def test_kernel_command_writes_csv(tmp_path):
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--nodes", "16", "--degree", "8", "--t", "0.9",
                 "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x_index", "y_index", "value"]
    assert len(rows) == 1 + 16 * 16


def test_net_command_writes_loadable_net(tmp_path):
    out = tmp_path / "net.json"
    assert main(["net", "--nodes", "32", "--degree", "8", "--delta", "0.25",
                 "--out", str(out)]) == 0
    net = load_net(str(out))
    assert net.delta == 0.25
    assert net.assignment is not None


def test_net_does_not_check_the_degree_it_never_reads(tmp_path, capsys):
    # the default degree 40 exceeds 30 - 1, but a net needs no basis
    assert main(["net", "--nodes", "30", "--out", str(tmp_path / "net.json")]) == 0
    assert "(15 centers)" in capsys.readouterr().out


def test_decompose_command_writes_csv(tmp_path):
    out = tmp_path / "decomp.csv"
    assert main(["decompose", "--nodes", "32", "--degree", "12",
                 "--basis-index", "3", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "center_index", "coefficient"]
    assert len(rows) > 1


WRITERS = [
    ["verify", "--nodes", "48", "--degree", "30"],
    ["kernel", "--nodes", "16", "--degree", "8", "--t", "0.9"],
    ["net", "--nodes", "32", "--degree", "8", "--delta", "0.25"],
    ["decompose", "--nodes", "32", "--degree", "12", "--basis-index", "3"],
]


def _written(argv, out) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == 0
    return Path(out).read_bytes()


@pytest.mark.parametrize("argv", WRITERS, ids=[argv[0] for argv in WRITERS])
def test_writing_over_an_old_file_gives_the_bytes_of_a_fresh_path(argv, tmp_path):
    old = tmp_path / "old"
    old.write_bytes(b"stale,\r\n" * 100_000)  # longer than any output, so truncation shows
    assert _written(argv, old) == _written(argv, tmp_path / "fresh")


@pytest.mark.parametrize("argv", [WRITERS[0], WRITERS[2]], ids=["verify", "net"])
def test_out_to_a_device_writes_through_it(argv):
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("argv", WRITERS, ids=[argv[0] for argv in WRITERS])
@pytest.mark.parametrize(
    "where, reason",
    [("missing/dir/out", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_unwritable_out_ends_in_one_error_line_naming_it(argv, where, reason, tmp_path, capsys):
    # exit 1 means a failed check, so a path the writer cannot open exits 2
    out = tmp_path / where
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out}: {reason}"]


def test_out_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("stale\n" * 100_000, encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    fresh = _written(WRITERS[0], tmp_path / "fresh.json")
    assert _written(WRITERS[0], link) == fresh
    assert link.is_symlink() and target.read_bytes() == fresh


def test_out_replaces_the_file_so_other_hard_links_keep_the_old_copy(tmp_path):
    out = tmp_path / "net.json"
    out.write_text("old\n", encoding="utf-8")
    os.link(out, tmp_path / "other.json")
    fresh = _written(WRITERS[2], out)
    assert fresh.startswith(b"{") and (tmp_path / "other.json").read_text(encoding="utf-8") == "old\n"


VERDICTS = [
    ["verify", "--gamma", "1.5", "--alpha", "-0.5", "--nodes", "96", "--degree", "76", "--seed", "3"],
    ["verify", "--nodes", "64", "--degree", "51", "--delta", "0.3", "--t", "0.1", "--seed", "5"],
]


def test_seeds_of_one_config_share_the_memoised_radii(tmp_path):
    # The radii of the memoised volume vectors come from delta and the fixed
    # t grids, so verdicts that differ only in seed add none.
    make_jacobi_space.cache_clear()
    radii = []
    for seed in ("1", "2", "3"):
        _written([*VERDICTS[1][:-1], seed], tmp_path / "v.json")
        radii.append([sorted(make_jacobi_space(0.0, 0.0, n)._node_ball_volumes) for n in (64, 128)])
    assert radii[0][0] and radii[0] == radii[1] == radii[2]


@pytest.mark.filterwarnings("ignore::heatframe.TruncationWarning")  # delta 0.10 truncates at degree 51
def test_a_sweep_over_delta_keeps_a_bounded_volume_memo(tmp_path):
    # Each new delta adds up to three radii (delta / 2, delta, 2 delta) to the
    # memoised space; past the cap the oldest are dropped, and a verdict
    # that recomputes a dropped vector writes the bytes of a cleared memo.
    make_jacobi_space.cache_clear()
    argv = ["verify", "--nodes", "64", "--degree", "51"]
    for k in range(20):
        last = [*argv, "--delta", f"{0.10 + 0.02 * k:.2f}"]
        swept = _written(last, tmp_path / "v.json")
    assert len(make_jacobi_space(0.0, 0.0, 64)._node_ball_volumes) == geometry.BALL_VOLUME_MEMO
    make_jacobi_space.cache_clear()
    assert _written(last, tmp_path / "cold.json") == swept


def test_a_verdict_takes_one_pass_over_the_kernel_blocks(monkeypatch, tmp_path):
    # a' and every Schur norm come from dominated_operator's one pass over
    # the upper triangle; verify_schur reads them and builds no block
    inside: list[str] = []
    entered: list[str] = []
    passes: list[tuple[str, ...]] = []
    upper_row_blocks = heat.FactoredKernel.upper_row_blocks

    def counted(kernel):
        passes.append(tuple(inside))
        return upper_row_blocks(kernel)

    def traced(fn):
        def call(*args, **kwargs):
            entered.append(fn.__name__)
            inside.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return call

    monkeypatch.setattr(heat.FactoredKernel, "upper_row_blocks", counted)
    for name in ("dominated_operator", "verify_schur"):
        monkeypatch.setattr(operators, name, traced(getattr(operators, name)))
    for argv in VERDICTS:
        entered.clear()
        passes.clear()
        _written(argv, tmp_path / "v.json")
        assert entered == ["dominated_operator", *["verify_schur"] * len(cli.SCHUR_EXPONENTS)], argv
        assert passes == [("dominated_operator",)], argv


# the second runs on the first's spaces and weight: -0.0 and 0.0 share them
ZERO_TWINS = [
    ["verify", "--nodes", "65", "--degree", "52", "--seed", "2"],
    ["verify", "--gamma", "-0.0", "--alpha", "-0.0", "--nodes", "65", "--degree", "52", "--seed", "2"],
]


def test_interleaved_verdicts_equal_their_runs_on_a_cleared_memo(tmp_path):
    calls = [*VERDICTS, *ZERO_TWINS]
    cold = []
    for k, argv in enumerate(calls):
        make_jacobi_space.cache_clear()
        cold.append(_written(argv, tmp_path / f"cold{k}.json"))
    make_jacobi_space.cache_clear()
    # each verdict after another one (new bases) and after itself or its twin (kept bases)
    for k in (0, 1, 0, 0, 1, 1, 2, 3, 3, 2):
        assert _written(calls[k], tmp_path / "warm.json") == cold[k], calls[k]
    assert make_jacobi_space.cache_info().hits >= 2 * len(VERDICTS)  # the repeats built no space


@pytest.fixture
def builds(monkeypatch):
    """Node counts of the bases ``build_basis`` builds, in call order."""
    sizes = []
    build = jacobi.build_basis

    def counted(space, params, degree):
        sizes.append(space.n)
        return build(space, params, degree)

    monkeypatch.setattr(jacobi, "build_basis", counted)
    return sizes


def test_a_repeated_verdict_builds_no_basis_until_the_memo_is_cleared(builds, tmp_path):
    argv = VERDICTS[1]
    make_jacobi_space.cache_clear()
    _written(argv, tmp_path / "v.json")
    assert builds == [64, 128]
    _written(argv, tmp_path / "v.json")
    _written([*argv[:-1], "6"], tmp_path / "v.json")  # another seed, the same bases
    assert builds == [64, 128]
    make_jacobi_space.cache_clear()
    _written(argv, tmp_path / "v.json")
    assert builds == [64, 128, 64, 128]


@pytest.mark.parametrize("argv", [WRITERS[1], WRITERS[3]], ids=["kernel", "decompose"])
def test_kernel_and_decompose_build_their_basis_on_every_run(argv, builds, tmp_path):
    for runs in range(1, 4):
        _written(argv, tmp_path / "out")
        assert len(builds) == runs


def test_kept_bases_are_read_only():
    for basis in cli._verdict_bases(RunConfig(n_nodes=64, degree=51)):
        with pytest.raises(ValueError):
            basis.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            basis.values *= 1.0
        with pytest.raises(ValueError):
            basis.eigenvalues[0] = 1.0


def test_an_error_outside_the_library_propagates_out_of_main(monkeypatch):
    def broken(config):
        raise RuntimeError("not a HeatframeError")

    monkeypatch.setattr(cli, "run_net", broken)
    with pytest.raises(RuntimeError, match="not a HeatframeError"):
        main(["net"])


def test_domain_error_exits_with_code_two(tmp_path, capsys):
    assert main(["verify", "--delta", "0"]) == 2
    err = capsys.readouterr().err
    assert err.strip() != ""


def test_vacuous_young_constant_exits_two(capsys):
    # k = 30 for this weight, so the Young constant overflows a float
    argv = ["verify", "--gamma", "5", "--alpha", "20", "--nodes", "128",
            "--degree", "19", "--delta", "0.05", "--t", "1.0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Young constant" in errors[0]
    assert "Traceback" not in err


def test_truncated_young_schur_kernel_is_recorded_not_gated(tmp_path):
    # At delta = 0.1 the degree-51 kernel at t = delta^2 keeps a tail of 5.06e-12.
    out = tmp_path / "verify.json"
    argv = ["verify", "--gamma", "-0.5", "--alpha", "-0.5", "--nodes", "64", "--degree", "51",
            "--delta", "0.1", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    [warning] = [str(w.message) for w in caught]
    reports = json.loads(out.read_text())["reports"]
    [tail] = {r["context"]["kernel_tail"] for r in reports if r["check_id"] in ("young", "schur")}
    assert tail > 1e-12
    assert warning == f"spectral tail exp(-beta_N t) = {tail:.2e} exceeds 1.0e-12 at t = {0.1**2}"


def _main_recording_runtime_warnings(argv):
    """Run main; return its exit code and the RuntimeWarnings (numpy's raw notices) it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "argv, sigma",
    [(["verify", "--sigma", "300"], "300"), (["verify", "--nodes", "30", "--degree", "29", "--k-override", "150"], "301")],
)
def test_envelope_underflow_ends_in_one_error_line_naming_it(argv, sigma, tmp_path, capsys):
    # (1 + d/delta)^-sigma is 0 at the far node pairs, where the heat kernel is not
    assert _main_recording_runtime_warnings([*argv, "--out", str(tmp_path / "out")]) == (2, [])
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [
        f"error: envelope (1 + d/delta)^-sigma underflows at sigma = {sigma} where the kernel is nonzero, "
        "so a' = max |H|/E is infinite; the mapping bound is vacuous"
    ]
    assert "Traceback" not in err


def test_default_verdict_emits_every_registered_check(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    emitted = {row["check_id"] for row in json.loads(out.read_text())["summary"]}
    assert emitted == CHECK_IDS


@pytest.mark.parametrize(
    "extra, constant",
    [(["--sigma", "2000"], "beta^sigma_exp"), (["--k-override", "1000"], "(2/beta)^k"), (["--k-override", "400"], "a2")],
)
def test_overflowing_constant_ends_in_one_error_line(extra, constant, capsys):
    code, runtime_warnings = _main_recording_runtime_warnings(["verify", "--nodes", "30", "--degree", "29", *extra])
    assert code == 2
    # at k = 400 the lemma pass meets an infinite constant before a2 is checked
    assert runtime_warnings == []
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: constant {constant} overflows") and "vacuous" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "kernel", "net", "decompose"])
@pytest.mark.parametrize(
    "extra, message",
    [
        (["--seed", "-1"], "seed must be nonnegative"),
        (["--t", "inf"], "t must be finite and positive"),
        (["--t", "nan"], "t must be finite and positive"),
        (["--sigma", "nan"], "sigma must be finite and positive"),
        (["--gamma", "nan"], "weight exponents must be finite"),
        (["--alpha", "inf"], "weight exponents must be finite"),
    ],
)
def test_non_finite_value_or_negative_seed_ends_in_one_domain_error(command, extra, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--nodes", "30", "--degree", "29", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_too_low_verify_degree_fails_before_any_phase(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "_verdict_bases", lambda config: built.append(config))
    assert main(["verify", "--nodes", "64", "--degree", "10"]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    # beta_23 * 0.05 = 27.6 leaves a tail of 1.03e-12; beta_24 * 0.05 = 30
    assert len(errors) == 1 and "degree >= 24" in errors[0]
    assert "Traceback" not in err
    assert built == []
    # the same degree stays admissible for the other commands
    RunConfig(command="kernel", n_nodes=64, degree=10).validate()


def test_benchmark_sweep_grid_passes_validation(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    for n, gamma, alpha, delta, t in itertools.product(
        workloads.SWEEP_NODES,
        workloads.SWEEP_WEIGHTS,
        workloads.SWEEP_WEIGHTS,
        workloads.SWEEP_DELTAS,
        workloads.SWEEP_TIMES,
    ):
        RunConfig(
            gamma=gamma, alpha=alpha, n_nodes=n, degree=math.floor(0.8 * n), t=t, delta=delta
        ).validate()


@pytest.mark.parametrize("command", ["kernel", "net", "decompose"])
def test_exports_accept_weights_past_the_gamma_function_overflow(command, tmp_path):
    # gamma + alpha + 2 = 202 overflows math.gamma in the total mass
    argv = [command, "--gamma", "100", "--alpha", "100", "--nodes", "64", "--degree", "40",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0


def _young_overflow(log_constant, k):
    return (
        f"error: Young constant a' a_hat^(k(1/r - 1)) 2^(2k+1) overflows (log {log_constant} at k = {k});"
        " the mapping bound is vacuous"
    )


def test_verify_past_the_gamma_function_overflow_ends_in_one_error_line(capsys):
    argv = ["verify", "--gamma", "100", "--alpha", "100", "--nodes", "256", "--degree", "255"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [_young_overflow("4001.35", 93)]
    assert "Traceback" not in err


@pytest.mark.parametrize("weight, k, log_constant", [(60, 70, "2493.41"), (80, 82, "3261.42")])
def test_doubling_ratios_summed_to_one_below_one_do_not_end_the_run(weight, k, log_constant, capsys):
    # some sampled ratios sigma(B(x, 2r))/sigma(B(x, r)) sum to 1 - 1 ulp;
    # read as 1, they let the run go on to the Young constant, which this k
    # puts past the float range
    argv = ["verify", "--gamma", str(weight), "--alpha", str(weight), "--nodes", "256", "--degree", "255"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [_young_overflow(log_constant, k)]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["net", "kernel", "verify"])
def test_rule_outside_the_float_range_ends_in_one_error_line_naming_it(command, tmp_path, capsys):
    # at gamma = alpha = 200 the weights near +-1 lie below the smallest double
    argv = [command, "--gamma", "200", "--alpha", "200", "--nodes", "1024", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: the Gauss rule of 1024 nodes for (gamma, alpha) = (200, 200) has weights outside the float64 range"
    ]


@pytest.mark.parametrize(
    "gamma, alpha",
    [
        ("-0.999999999", "1000"),  # the log form of the mass past the float range
        ("1e15", "0"),  # likewise, from 2^(gamma + alpha + 1)
        ("1e300", "1e300"),  # (2 + gamma + alpha)^2 in the coefficient b_1
    ],
)
def test_weight_whose_mass_or_recurrence_overflows_ends_in_one_error_line_naming_it(gamma, alpha, tmp_path, capsys):
    argv = ["kernel", "--nodes", "4", "--degree", "3", "--gamma", gamma, "--alpha", alpha,
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: the mass or the recurrence of the weight (gamma, alpha) = ({float(gamma)!r}, {float(alpha)!r}) "
        "lies outside the float64 range"
    ]
    assert not (tmp_path / "out").exists()


def test_the_program_never_imports_scipy():
    script = (
        "import sys, contextlib, io\n"
        "import heatframe\n"
        "from heatframe import cli\n"
        "from heatframe.geometry import make_jacobi_space\n"
        "make_jacobi_space(0.0, 0.0, 1024)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--nodes', '64', '--degree', '51']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_verdict_does_not_depend_on_the_blas_thread_count():
    # The bytes may differ (roundoff in the BLAS products); the check ids,
    # their pass flags and the gate may not.
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-m", "heatframe.cli", "verify", "--nodes", "256", "--degree", "204", "--seed", "3"]
    verdicts = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            "OPENBLAS_NUM_THREADS": threads,
        }
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        document = json.loads(done.stdout)
        verdicts.append(
            ([(r["check_id"], r["passed"]) for r in document["reports"]], document["gated_passed"])
        )
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][1] is True


WEIGHT_EXPONENTS = st.floats(-1.0, 200.0, exclude_min=True, allow_nan=False)


@st.composite
def nodes_and_degree(draw):
    """A node count and a degree up to the exactness limit, from a little
    below the flat weight's spectral-tail floor of 24."""
    nodes = draw(st.integers(23, 96))
    return nodes, draw(st.integers(22, nodes - 1))


@settings(max_examples=25, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gamma=WEIGHT_EXPONENTS,
    alpha=WEIGHT_EXPONENTS,
    size=nodes_and_degree(),
    delta=st.floats(0.05, 1.0),
    t=st.floats(0.05, 2.0),
    sigma=st.none() | st.floats(0.5, 30.0),
    k_override=st.none() | st.integers(1, 8),
)
def test_verify_fuzz_ends_in_verdict_or_one_error_line(gamma, alpha, size, delta, t, sigma, k_override):
    nodes, degree = size
    # values as separate tokens, the form negative exponent notation used to break
    argv = ["verify", "--gamma", repr(gamma), "--alpha", repr(alpha), "--nodes", str(nodes),
            "--degree", str(degree), "--delta", repr(delta), "--t", repr(t)]
    if sigma is not None:
        argv += ["--sigma", repr(sigma)]
    if k_override is not None:
        argv += ["--k-override", str(k_override)]
    out, err = io.StringIO(), io.StringIO()
    # an uncaught exception propagates out of main and fails the example
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1


@pytest.mark.parametrize("command", ["verify", "net"])
def test_negative_exponent_notation_values_parse_as_separate_tokens(command, tmp_path, capsys):
    argv = [command, "--gamma", "-1e-05", "--alpha", "-2.5e-1", "--nodes", "48", "--degree", "30",
            "--out", str(tmp_path / "out")]
    args = build_parser().parse_args(argv)
    assert args.gamma == -1e-05 and args.alpha == -0.25
    assert main(argv) in (0, 1)
    err = capsys.readouterr().err
    assert "error" not in err and "Traceback" not in err
