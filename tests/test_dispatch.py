"""Tests for the protocol-dispatch layer (repro.core.dispatch).

The load-bearing property: under the default :class:`PaperPolicy`, every
decision is byte-for-byte identical to the pre-refactor ``if``-chains that
lived in ``broadcast.py``/``allreduce.py``/``reduce.py``/``gatherscatter.py``
— exhaustively, across the full (op, size, nodes) bench grid and the
thresholds' ±1 neighborhoods.  The legacy decision logic is replicated
verbatim below as the oracle.
"""

import json

import numpy as np
import pytest

from repro import envelope
from repro.bench.snapshot import bench_nodes as _bench_nodes
from repro.bench.snapshot import bench_sizes as _bench_sizes
from repro.core import (
    SRM,
    CostModelPolicy,
    FixedPolicy,
    PaperPolicy,
    SRMConfig,
    TunedPolicy,
)
from repro.core.dispatch import (
    SelectionEnv,
    derive_chunks,
    lookup_variant,
    registered_ops,
    variants_for,
)
from repro.errors import ConfigurationError
from repro.machine import ClusterSpec, CostModel, Machine
from repro.mpi.ops import SUM

KB = 1024


def _env(op, nbytes, nodes, config=None, ppn=16):
    return SelectionEnv(
        op=op, nbytes=nbytes, nodes=nodes, ppn=ppn,
        config=config if config is not None else SRMConfig(),
        cost=CostModel.ibm_sp_colony(),
    )


def _grid_sizes():
    """The bench grid plus every switch point's ±1 neighborhood."""
    sizes = set(_bench_sizes())
    for threshold in (8 * KB, 16 * KB, 64 * KB):
        sizes.update({threshold - 1, threshold, threshold + 1})
    sizes.update({0, 1, 4 * KB, 256 * KB, 8 * 1024 * KB})
    return sorted(sizes)


# ---------------------------------------------------------------------------
# the pre-refactor if-chains, replicated verbatim (the oracle)
# ---------------------------------------------------------------------------


def _legacy_broadcast(config, nbytes):
    """broadcast.py lines 62-64 before the refactor."""
    chunks = config.chunks(nbytes)
    large = config.is_large(nbytes)
    manage = config.manage_interrupts and not large
    return chunks, large, manage


def _legacy_reduce(config, nbytes):
    """reduce.py lines 69-72 before the refactor."""
    chunks = config.chunks(nbytes)
    manage = config.manage_interrupts and not config.is_large(nbytes)
    return chunks, manage


def _legacy_allreduce(config, nbytes, nodes):
    """allreduce.py lines 57-71 before the refactor."""
    if nbytes <= config.allreduce_exchange_max:
        return "exchange", None, config.manage_interrupts
    if config.allreduce_algorithm == "ring" and nodes > 1:
        return "ring", None, False
    return "pipeline", config.chunks(nbytes), False


def _legacy_allgather(config, recv_nbytes, nodes):
    """gatherscatter.py line 208 before the refactor."""
    if recv_nbytes > config.allgather_ring_min and nodes > 1:
        return "ring"
    return "gather-bcast"


# ---------------------------------------------------------------------------
# satellite: PaperPolicy == legacy decisions, exhaustively
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nodes", sorted(set(_bench_nodes()) | {1, 2, 3}))
def test_paper_policy_matches_legacy_broadcast_and_reduce(nodes):
    from repro.core.dispatch import _manage_interrupts

    policy = PaperPolicy()
    config = SRMConfig()
    for nbytes in _grid_sizes():
        for op in ("broadcast", "reduce"):
            variant = policy.select(_env(op, nbytes, nodes, config))
            chunks = list(derive_chunks(config, op, variant, nbytes))
            if op == "broadcast":
                legacy_chunks, legacy_large, legacy_manage = _legacy_broadcast(
                    config, nbytes
                )
                assert (variant == "large") == legacy_large, (op, nbytes, nodes)
            else:
                legacy_chunks, legacy_manage = _legacy_reduce(config, nbytes)
            assert chunks == legacy_chunks, (op, nbytes, nodes)
            assert _manage_interrupts(config, op, variant) == legacy_manage, (
                op, nbytes, nodes,
            )


@pytest.mark.parametrize("algorithm", ["pipeline", "ring"])
@pytest.mark.parametrize("nodes", sorted(set(_bench_nodes()) | {1, 2, 3}))
def test_paper_policy_matches_legacy_allreduce(nodes, algorithm):
    policy = PaperPolicy()
    config = SRMConfig(allreduce_algorithm=algorithm)
    from repro.core.dispatch import _manage_interrupts

    for nbytes in _grid_sizes():
        variant = policy.select(_env("allreduce", nbytes, nodes, config))
        legacy_variant, legacy_chunks, legacy_manage = _legacy_allreduce(
            config, nbytes, nodes
        )
        assert variant == legacy_variant, (nbytes, nodes, algorithm)
        if legacy_chunks is not None:
            assert (
                list(derive_chunks(config, "allreduce", variant, nbytes))
                == legacy_chunks
            ), (nbytes, nodes, algorithm)
        assert _manage_interrupts(config, "allreduce", variant) == legacy_manage


@pytest.mark.parametrize("nodes", sorted(set(_bench_nodes()) | {1, 2, 3}))
def test_paper_policy_matches_legacy_allgather(nodes):
    policy = PaperPolicy()
    config = SRMConfig()
    for nbytes in _grid_sizes():
        variant = policy.select(_env("allgather", nbytes, nodes, config))
        assert variant == _legacy_allgather(config, nbytes, nodes), (nbytes, nodes)


def test_paper_policy_tree_families_follow_config():
    policy = PaperPolicy()
    config = SRMConfig(inter_family="flat", intra_reduce_family="binary")
    assert policy.select(_env("inter-tree", 0, 4, config)) == "flat"
    assert policy.select(_env("intra-reduce-tree", 0, 4, config)) == "binary"


def test_paper_policy_single_variant_ops():
    policy = PaperPolicy()
    assert policy.select(_env("barrier", 0, 4)) == "dissemination"
    assert policy.select(_env("scatter", 1024, 4)) == "rma-direct"
    assert policy.select(_env("scan", 1024, 4)) == "chained"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_covers_every_operation():
    ops = registered_ops()
    for op in (
        "broadcast", "reduce", "allreduce", "allgather", "scatter", "gather",
        "alltoall", "barrier", "scan", "inter-tree", "intra-reduce-tree",
    ):
        assert op in ops
        assert variants_for(op)


def test_unknown_variant_and_op_raise():
    with pytest.raises(ConfigurationError):
        lookup_variant("broadcast", "telepathy")
    with pytest.raises(ConfigurationError):
        variants_for("sort")


def test_every_variant_has_a_finite_cost_estimate():
    for op in registered_ops():
        env = _env(op, 64 * KB, 4)
        for entry in variants_for(op):
            cost = entry.cost(env)
            assert cost >= 0 and np.isfinite(cost), (op, entry.name)


def test_exchange_applicability_tracks_staging_capacity():
    entry = lookup_variant("allreduce", "exchange")
    assert entry.applicable(_env("allreduce", 16 * KB, 4))
    assert not entry.applicable(_env("allreduce", 16 * KB + 1, 4))
    raised = entry.tune_config(SRMConfig(), 1024 * KB)
    assert entry.applicable(_env("allreduce", 1024 * KB, 4, raised))


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


def test_cost_model_policy_picks_only_applicable_variants():
    policy = CostModelPolicy()
    for nodes in (1, 4, 16):
        for nbytes in _grid_sizes():
            env = _env("allreduce", nbytes, nodes)
            chosen = lookup_variant("allreduce", policy.select(env))
            assert chosen.applicable(env), (nbytes, nodes, chosen.name)


def test_fixed_policy_forces_and_falls_through():
    policy = FixedPolicy({"allreduce": "ring"})
    assert policy.select(_env("allreduce", 8, 4)) == "ring"
    # Unlisted ops follow the fallback (paper) policy.
    assert policy.select(_env("broadcast", 1 * KB, 4)) == "small"


def test_fixed_policy_rejects_unknown_variant():
    with pytest.raises(ConfigurationError):
        FixedPolicy({"broadcast": "telepathy"})


def _tuned_document(table):
    return envelope.stamp(envelope.TUNED_TABLE, "test", {"table": table})


def test_tuned_policy_lookup_and_fallback():
    policy = TunedPolicy(
        _tuned_document(
            {
                "broadcast": {
                    "4": [[8 * KB, "small"], [64 * KB, "pipelined"], [1024 * KB, "large"]],
                }
            }
        )
    )
    assert policy.select(_env("broadcast", 4 * KB, 4)) == "small"
    assert policy.select(_env("broadcast", 32 * KB, 4)) == "pipelined"
    # Beyond the grid: the largest row's winner.
    assert policy.select(_env("broadcast", 8 * 1024 * KB, 4)) == "large"
    # Nearest node count by log distance (4 is the only row).
    assert policy.select(_env("broadcast", 4 * KB, 16)) == "small"
    # Ops absent from the table fall through to the paper policy.
    assert policy.select(_env("allreduce", 4 * KB, 4)) == "exchange"


def test_tuned_policy_validates_document():
    with pytest.raises(ConfigurationError):
        TunedPolicy(_tuned_document({}))
    with pytest.raises(ConfigurationError):
        TunedPolicy(_tuned_document({"broadcast": {"4": [[1024, "telepathy"]]}}))


def test_tuned_policy_load_round_trip(tmp_path):
    path = tmp_path / "tuned.json"
    path.write_text(
        json.dumps(_tuned_document({"allreduce": {"4": [[64 * KB, "ring"]]}}))
    )
    policy = TunedPolicy.load(str(path))
    assert policy.select(_env("allreduce", 32 * KB, 4)) == "ring"


def test_tuned_policy_load_warns_on_fingerprint_mismatch(tmp_path):
    document = _tuned_document({"broadcast": {"4": [[8 * KB, "small"]]}})
    document["identity"] = {"tasks_per_node": 16}
    document["fingerprint"] = "0" * 12  # never a real sha256 prefix of ours
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(document))
    with pytest.warns(UserWarning) as caught:
        policy = TunedPolicy.load(str(path))
    message = str(caught[0].message)
    # The warning names the file and *both* fingerprints, so the user can
    # tell which side is stale.
    assert "stale.json" in message
    assert "0" * 12 in message
    from repro.bench.export import bench_identity, identity_fingerprint

    live = identity_fingerprint(bench_identity(tasks_per_node=16))
    assert live in message
    # The table still loads: stale switch points beat no switch points.
    assert policy.select(_env("broadcast", 4 * KB, 4)) == "small"


def test_tuned_policy_load_is_silent_when_fingerprint_matches(tmp_path):
    import warnings

    document = _tuned_document({"broadcast": {"4": [[8 * KB, "small"]]}})
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(document))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TunedPolicy.load(str(path))


def test_tuned_policy_missing_entries_fall_to_the_fallback_policy():
    # An op absent from the table routes through the explicit fallback;
    # sizes beyond the table's grid use the table's own last row.
    policy = TunedPolicy(
        _tuned_document({"broadcast": {"4": [[8 * KB, "small"]]}}),
        fallback=FixedPolicy({"allreduce": "ring"}),
    )
    assert policy.select(_env("allreduce", 4 * KB, 4)) == "ring"
    assert policy.select(_env("broadcast", 1024 * KB, 4)) == "small"


# ---------------------------------------------------------------------------
# the dispatcher on a live machine
# ---------------------------------------------------------------------------


def _run_allreduce(policy, nbytes=2 * KB, nodes=2, tasks=2):
    spec = ClusterSpec(nodes=nodes, tasks_per_node=tasks)
    machine = Machine(spec)
    srm = SRM(machine, policy=policy)
    count = max(1, nbytes // 8)
    sources = {r: np.full(count, float(r + 1)) for r in range(spec.total_tasks)}
    outs = {r: np.zeros(count) for r in range(spec.total_tasks)}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program)
    expected = sum(range(1, spec.total_tasks + 1))
    for rank in range(spec.total_tasks):
        np.testing.assert_allclose(outs[rank], expected)
    return machine, srm


def test_dispatcher_records_variant_counter_and_span():
    machine, srm = _run_allreduce(None)
    summary = machine.obs.metrics.summary()
    assert summary.get("dispatch.allreduce.exchange", 0) >= 1
    dispatch_spans = [
        span for span in machine.obs.recorder.spans if span.name == "dispatch"
    ]
    assert any(
        span.detail.startswith("allreduce/exchange") for span in dispatch_spans
    )
    # Marker spans are zero-duration: they never perturb the critical path.
    assert all(span.duration == 0.0 for span in dispatch_spans)


def test_dispatcher_caches_decisions():
    spec = ClusterSpec(nodes=2, tasks_per_node=2)
    machine = Machine(spec)
    srm = SRM(machine)
    first = srm.ctx.dispatch("broadcast", 4 * KB)
    second = srm.ctx.dispatch("broadcast", 4 * KB)
    assert first is second
    assert machine.obs.metrics.summary()["dispatch.broadcast.small"] == 2


def test_inapplicable_choice_falls_back_to_paper():
    # Force the exchange variant far beyond its staging capacity: the
    # dispatcher must substitute the paper choice instead of overflowing.
    machine, srm = _run_allreduce(
        FixedPolicy({"allreduce": "exchange"}), nbytes=128 * KB
    )
    summary = machine.obs.metrics.summary()
    assert summary["dispatch.fallbacks"] >= 1
    assert summary.get("dispatch.allreduce.pipeline", 0) >= 1
    assert "dispatch.allreduce.exchange" not in summary


def test_fallback_span_detail_names_the_overridden_choice_and_reason():
    machine, _srm = _run_allreduce(
        FixedPolicy({"allreduce": "exchange"}), nbytes=128 * KB
    )
    details = [
        span.detail
        for span in machine.obs.recorder.spans
        if span.name == "dispatch" and span.detail.startswith("allreduce/")
    ]
    assert details, "expected a dispatch marker span"
    # The marker says what ran, what was overridden, and *why* — the
    # variant's declared structural precondition.
    assert any(
        "<- exchange inapplicable:" in detail
        and "exchange staging buffers" in detail
        for detail in details
    )


def test_decision_record_captures_fallback_and_predictions():
    machine, _srm = _run_allreduce(
        FixedPolicy({"allreduce": "exchange"}), nbytes=128 * KB
    )
    record = machine.obs.decisions.find("allreduce", 128 * KB)
    assert record is not None
    assert record.fallback is True
    assert record.fallback_from == "exchange"
    assert record.chosen == "pipeline"
    assert record.policy == "fixed"
    # Every registered variant was forecast, applicable or not.
    assert set(record.predictions) == {"exchange", "pipeline", "ring"}
    assert record.predictions["exchange"]["applicable"] is False
    assert record.predictions["pipeline"]["applicable"] is True
    for prediction in record.predictions.values():
        assert prediction["total_us"] > 0
        assert prediction["total_us"] == pytest.approx(
            sum(prediction["terms_us"].values()), rel=1e-9
        )


def test_decision_record_counts_cache_hits():
    spec = ClusterSpec(nodes=2, tasks_per_node=2)
    machine = Machine(spec)
    srm = SRM(machine)
    srm.ctx.dispatch("broadcast", 4 * KB)
    srm.ctx.dispatch("broadcast", 4 * KB)
    srm.ctx.dispatch("broadcast", 4 * KB)
    assert len(machine.obs.decisions) == 1
    record = machine.obs.decisions.find("broadcast", 4 * KB)
    assert record.calls == 3
    assert record.cache_hits == 2


def test_decisions_log_is_none_when_observation_is_off():
    spec = ClusterSpec(nodes=2, tasks_per_node=2)
    machine = Machine(spec, observe=False)
    assert machine.obs.decisions is None
    srm = SRM(machine)
    # Dispatch still works; it just records nothing.
    decision = srm.ctx.dispatch("broadcast", 4 * KB)
    assert decision.variant == "small"


def test_dispatchers_with_different_policies_do_not_share_cached_decisions():
    # Two stacks on one machine, different policies, same (op, nbytes):
    # each Dispatcher caches per context, so the selections must diverge.
    spec = ClusterSpec(nodes=2, tasks_per_node=2)
    machine = Machine(spec)
    srm_paper = SRM(machine, policy=PaperPolicy())
    srm_fixed = SRM(machine, policy=FixedPolicy({"allreduce": "ring"}))
    paper_first = srm_paper.ctx.dispatch("allreduce", 2 * KB)
    fixed_first = srm_fixed.ctx.dispatch("allreduce", 2 * KB)
    assert paper_first.variant == "exchange"
    assert fixed_first.variant == "ring"
    # Repeat dispatches hit each stack's own cache, not the other's.
    assert srm_paper.ctx.dispatch("allreduce", 2 * KB) is paper_first
    assert srm_fixed.ctx.dispatch("allreduce", 2 * KB) is fixed_first
    assert paper_first is not fixed_first
    # One DecisionRecord per dispatcher, not one shared record.
    assert len(machine.obs.decisions) == 2
    chosen = {record.chosen for record in machine.obs.decisions.records}
    assert chosen == {"exchange", "ring"}


def test_srm_accepts_each_policy_end_to_end():
    for policy in (
        PaperPolicy(),
        CostModelPolicy(),
        FixedPolicy({"allreduce": "ring"}),
        TunedPolicy(_tuned_document({"allreduce": {"2": [[64 * KB, "pipeline"]]}})),
    ):
        _run_allreduce(policy, nbytes=4 * KB)


def test_paper_policy_is_perf_identical_to_prerefactor_shape():
    # Same machine shape, default policy vs explicitly-passed PaperPolicy:
    # decisions and simulated latency must agree exactly.
    machine_a, _ = _run_allreduce(None)
    machine_b, _ = _run_allreduce(PaperPolicy())
    assert machine_a.engine.now == machine_b.engine.now


def test_tree_family_dispatch_changes_embedding():
    spec = ClusterSpec(nodes=4, tasks_per_node=2)
    machine = Machine(spec)
    srm = SRM(machine, policy=FixedPolicy({"inter-tree": "flat"}))
    plan = srm.ctx.bcast_plan(0)
    root_children = plan.trees.inter.children_of(0)
    assert len(root_children) == 3  # flat: the root parents every other master


# ---------------------------------------------------------------------------
# the tuner
# ---------------------------------------------------------------------------


def test_tune_dry_run_emits_loadable_table():
    from repro.bench.tune import run_tune

    document = run_tune(dry_run=True, operations=("broadcast", "allreduce"))
    assert document["kind"] == envelope.TUNED_TABLE
    assert document["schema_version"] == envelope.KINDS[envelope.TUNED_TABLE].version
    assert document["table"]
    policy = TunedPolicy(document)
    _run_allreduce(policy, nbytes=1 * KB)


def test_tune_cell_skips_structurally_impossible_candidates():
    from repro.bench.tune import tune_cell

    # Ring allreduce on a single node can never run.
    assert tune_cell("allreduce", "ring", 8 * KB, nodes=1, tasks_per_node=2) is None
    # The exchange variant beyond its cutoff is probed via tune_config.
    micros = tune_cell(
        "allreduce", "exchange", 32 * KB, nodes=2, tasks_per_node=2, repeats=1
    )
    assert micros is not None and micros > 0


def test_tune_writes_snapshot_style_artifact(tmp_path):
    from repro.bench.tune import collect_table

    document = collect_table(
        operations=("broadcast",),
        sizes=[512],
        nodes_axis=[2],
        tasks_per_node=2,
        repeats=1,
    )
    path = tmp_path / "TUNED.json"
    envelope.write(str(path), document)
    policy = TunedPolicy.load(str(path))
    assert policy.select(_env("broadcast", 256, 2)) in {"small", "pipelined", "large"}
    assert "fingerprint" in document and "identity" in document
