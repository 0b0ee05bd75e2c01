"""The CI pipeline definition must stay parseable and complete."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow() -> dict:
    return yaml.safe_load(WORKFLOW.read_text())


def test_workflow_parses(workflow):
    assert workflow["name"] == "CI"


def test_triggers_cover_push_and_pr(workflow):
    # PyYAML parses the bare `on:` key as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert "push" in triggers
    assert "pull_request" in triggers


def test_concurrency_cancels_superseded_runs(workflow):
    concurrency = workflow["concurrency"]
    assert concurrency["cancel-in-progress"] is True
    assert "github.ref" in concurrency["group"]


def test_has_lint_analyze_test_and_bench_smoke_jobs(workflow):
    jobs = workflow["jobs"]
    assert set(jobs) == {
        "lint",
        "analyze",
        "test",
        "bench-smoke",
    }


def _all_runs(workflow):
    return [
        step.get("run") or ""
        for job in workflow["jobs"].values()
        for step in job["steps"]
    ]


def _analyze_gate(workflow):
    runs = [step.get("run") or "" for step in workflow["jobs"]["analyze"]["steps"]]
    return next(run for run in runs if "repro analyze src" in run)


def test_analyze_job_runs_domain_linter(workflow):
    # one step runs every rule over src, writing the SARIF CI uploads
    assert _analyze_gate(workflow) == "python -m repro analyze src --sarif analysis.sarif"


def test_analyze_job_runs_doc_gates(workflow):
    # OBS02 and DOC01/DOC02 are default rules of the one analyze step
    assert not any("tools/" in run for run in _all_runs(workflow))
    assert "--rules" not in _analyze_gate(workflow)


def test_analyze_job_runs_experiments_footer_gate(workflow):
    # DOC03 rides the same analyze step; no step anywhere compares inside python
    runs = _all_runs(workflow)
    assert not any("tools/" in run or "--compare" in run for run in runs)
    assert sum("repro analyze" in run for run in runs) == 1


def test_analyze_job_fails_on_any_finding(workflow):
    gate = _analyze_gate(workflow)
    assert "--baseline" not in gate
    assert "--stats" not in gate
    assert "--sarif analysis.sarif" in gate
    for banned in ("--rules", "--baseline", "--stats"):
        assert not any(banned in run for run in _all_runs(workflow)), banned


def test_test_matrix_is_supported_pythons_only(workflow):
    # one tier-1 run per Python: the network's codec is an argument, never
    # ambient state, so no matrix axis or job env can pick it
    job = workflow["jobs"]["test"]
    assert job["strategy"]["matrix"] == {"python-version": ["3.10", "3.11", "3.12"]}
    assert "env" not in job


def test_pythonpath_is_src(workflow):
    assert workflow["env"]["PYTHONPATH"] == "src"


def test_lint_job_runs_pinned_ruff(workflow):
    steps = workflow["jobs"]["lint"]["steps"]
    runs = [step.get("run") or "" for step in steps]
    assert any("ruff check" in run for run in runs)
    assert any("pip install ruff==" in run for run in runs)


def test_setup_python_steps_cache_pip(workflow):
    for name, job in workflow["jobs"].items():
        setup_steps = [
            step
            for step in job["steps"]
            if "setup-python" in (step.get("uses") or "")
        ]
        assert setup_steps, f"job {name} never sets up python"
        for step in setup_steps:
            assert step["with"].get("cache") == "pip", (
                f"job {name} setup-python step is missing pip caching"
            )


def test_bench_smoke_compiles_and_runs_bench_tests(workflow):
    runs = [step.get("run") or "" for step in workflow["jobs"]["bench-smoke"]["steps"]]
    assert any("compileall" in run for run in runs)
    assert any("tests/bench" in run for run in runs)


def test_bench_smoke_runs_the_deep_decode_contract(workflow):
    # tier-1 deselects the `deep` marker (pyproject addopts); this step is where it runs
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    name = "Deep example budgets"
    (step,) = [step for step in steps if step.get("name") == name]
    assert step["run"] == (
        "python -m pytest tests/test_decode_contract.py tests/messaging/test_matching.py"
        " tests/analytics/test_store.py tests/crypto/test_primes.py tests/crypto/test_aes.py"
        " tests/analytics/test_availability.py tests/sim/test_engine_oracle.py"
        " tests/messaging/test_hop_oracle.py"
        " tests/messaging/test_routing_properties.py tests/messaging/test_parse_oracle.py"
        " tests/messaging/test_interest_index_oracle.py"
        " tests/test_reachability.py"
        " -m deep -q"
    )
    # the step runs two contracts, a state machine, a round-trip property, the
    # prime-generation oracle, the CBC decryption oracle, the timelines property, the
    # engine oracle, the continuation oracle, the hop oracle, the route-table oracle, the
    # parse oracle, the interest-index oracle, the count oracle and the reachability
    # tracer; its comment (lost to the YAML parser) names all fifteen
    text = WORKFLOW.read_text()
    comment = text[: text.index(f"      - name: {name}")]
    comment = comment[comment.rindex("\n      - ") :]
    assert "from_dict" in comment
    assert "canonical_decode" in comment and "TokenVerifier.verify" in comment
    assert "SubscriptionIndex state machine" in comment
    assert "empty-kind invariant" in comment
    assert "from_json(export_json())" in comment
    assert "generate_prime" in comment
    assert "CBC decryption oracle" in comment and "aes_cbc_decrypt" in comment
    assert "build_timelines" in comment
    assert "reference_engine" in comment
    assert "continuation oracle" in comment and "use_then" in comment
    assert "hop oracle" in comment and "three-entry" in comment
    assert "hop count equal to the links of its path" in comment
    assert "route-table oracle" in comment and "all_next_hops" in comment
    assert "parse oracle" in comment and "Broker._parse_pattern" in comment
    assert "interest-index oracle" in comment and "InterestSummary.matches" in comment
    assert "FederatedInterestPlane.interested" in comment and "up to 70 brokers" in comment
    assert "count oracle" in comment and "_InterestAccumulator" in comment
    assert "full-count reference accumulator" in comment
    assert "reachability tracer" in comment and "tests/reach_allowlist.py" in comment


def test_bench_smoke_runs_the_wall_clock_harness_self_test(workflow):
    # benchmarks/perf/spans.py patches its entry points by name; only its own
    # self-test notices a rename before the next benchmark run does
    runs = [step.get("run") or "" for step in workflow["jobs"]["bench-smoke"]["steps"]]
    # exactly two ids are deselected, each for frozen assertions a perf change falsified
    # on purpose (crypto.aes.share > 0.5; the topic_matches and trace-steady split_topic
    # rows of spans.TARGETS); ci.yml says why, and ROADMAP item 5 brings them back
    assert (
        "python -m pytest benchmarks/perf -q"
        " --deselect benchmarks/perf/test_perf.py::test_zero_call_predictions_hold"
        " --deselect benchmarks/perf/test_perf.py"
        "::test_every_entry_point_is_hit_where_the_table_says"
    ) in runs


def test_bench_smoke_gates_the_benchmark_sim_digests(workflow):
    # "all four sim_digests equal the parent's" is a committed seed, not a PR's word; its
    # producer is the frozen harness, so it regenerates in place and the seeds step compares
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    digests, seeds = steps[-3:-1]
    assert digests["run"] == (
        "python benchmarks/perf/run.py --smoke --trace 0 \\\n"
        "  | awk '/sim_digest/ {print $1, $NF}' > benchmarks/results/perf_smoke_digests.txt\n"
    )
    assert seeds["name"] == "Committed seeds"


def test_bench_smoke_ends_with_the_one_committed_seeds_step(workflow):
    # which call writes which file is src/repro/seeds.py's to know; CI runs the table and
    # lets git name the drifted leaf (tests/test_seeds.py is the tier-1 mirror)
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    seeds, upload = steps[-2:]
    assert seeds["run"] == (
        "python -m repro seeds\ngit diff --exit-code benchmarks/results\n"
    )
    assert upload["if"] == "failure()"
    assert upload["with"]["path"] == "benchmarks/results"
    others = [run for run in _all_runs(workflow) if run != seeds["run"]]
    assert not any("repro seeds" in run or "git diff" in run for run in others)
    assert not any("diff -u benchmarks/results" in run for run in others)
    assert not any(re.search(r"> \S*_snapshot\.json", run) for run in others)


def test_seed_gates_are_byte_exact_diffs_not_inline_python(workflow):
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            run = step.get("run") or ""
            assert "_legacy" not in run
            # a looser-than-tier-1 comparison can only hide in inline code
            assert "<<" not in run and "python -c" not in run


def test_analyze_job_uploads_sarif_to_code_scanning(workflow):
    steps = workflow["jobs"]["analyze"]["steps"]
    upload = next(
        step
        for step in steps
        if "codeql-action/upload-sarif" in (step.get("uses") or "")
    )
    assert upload["with"]["sarif_file"] == "analysis.sarif"
    assert upload.get("if") == "always()"
    assert workflow["jobs"]["analyze"]["permissions"]["security-events"] == "write"
