"""CompileService: single-flight, timeout, degradation, error paths."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.serve.server as server_module
from repro.bench.workloads import COMPOSITE, MEMORY, load_workload
from repro.ir.printer import format_function
from repro.pipeline import prepare
from repro.profiles.interp import run_function
from repro.serve.server import (
    CompileRequest,
    CompileService,
    build_artifact,
)
from repro.serve.store import Artifact

from tests.conftest import build_diamond, build_while_loop


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class _GatedBuild:
    """An injectable build that blocks until the test releases it."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, prepared, config, *, key, engine="compiled",
                 train_args=None, max_steps=2_000_000):
        with self._lock:
            self.calls += 1
        assert self.release.wait(timeout=10.0), "test never released build"
        return Artifact(
            key=key, variant=config.variant, engine=engine, func=prepared
        )


class TestBasicServing:
    def test_compile_then_memory_hit(self, diamond_source):
        with CompileService() as service:
            request = CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            )
            first = service.handle(request)
            second = service.handle(request)
        assert first.status == second.status == "ok"
        assert first.served_by == "compile"
        assert second.served_by == "memory"
        assert first.key == second.key
        assert first.observable() == second.observable()
        assert first.dynamic_cost == second.dynamic_cost
        assert service.metrics.get("compiles") == 1
        assert service.metrics.get("hits_memory") == 1

    def test_answer_matches_reference_interpreter(self, diamond_source):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=diamond_source, args=(4, 5, 0), variant="ssapre"
            ))
        expected = run_function(prepare(build_diamond()), [4, 5, 0])
        assert response.status == "ok"
        assert response.observable() == expected.observable()

    def test_profile_guided_variant_trains_from_train_args(
        self, loop_source
    ):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 4),
            ))
        assert response.status == "ok"
        assert not response.degraded

    def test_profile_guided_without_train_args_is_an_error(
        self, loop_source
    ):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre"
            ))
        assert response.status == "error"
        assert "train_args" in response.error
        assert service.metrics.get("errors") == 1

    def test_solver_on_the_wire(self, loop_source):
        request = CompileRequest.from_dict({
            "source": loop_source, "args": [2, 3, 5],
            "variant": "mc-ssapre", "train_args": [2, 3, 4],
            "solver": "lospre",
        })
        assert request.solver == "lospre"
        with CompileService() as service:
            response = service.handle(request)
        assert response.status == "ok"
        assert not response.degraded

    def test_auto_request_shares_the_resolved_cache_entry(
        self, loop_source
    ):
        # The loop CFG is accepted by the shape classifier, so auto
        # resolves to lospre and the second request must be a cache hit
        # on the same key, not a second compile.
        with CompileService() as service:
            forced = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 4), solver="lospre",
            ))
            auto = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 4), solver="auto",
            ))
            assert service.metrics.get("compiles") == 1
        assert forced.key == auto.key
        assert auto.served_by == "memory"
        assert auto.observable() == forced.observable()

    def test_unknown_solver_is_a_request_error(self, loop_source):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 4), solver="simplex",
            ))
        assert response.status == "error"
        assert "solver" in response.error


class TestSingleFlight:
    def test_concurrent_identical_requests_compile_once(
        self, diamond_source
    ):
        clients = 6
        build = _GatedBuild()
        service = CompileService(build=build, max_workers=clients)
        request = CompileRequest(
            source=diamond_source, args=(1, 2, 1), variant="ssapre"
        )
        with service, ThreadPoolExecutor(max_workers=clients) as pool:
            futures = [
                pool.submit(service.handle, request) for _ in range(clients)
            ]
            # Deterministic rendezvous: every non-leader is provably
            # waiting on the in-flight build before it is allowed to end.
            assert _wait_until(
                lambda: service.metrics.get("coalesced") == clients - 1
            )
            build.release.set()
            responses = [f.result() for f in futures]
        assert build.calls == 1
        assert service.metrics.get("compiles") == 1
        assert all(r.status == "ok" for r in responses)
        assert sorted(r.served_by for r in responses) == (
            ["coalesced"] * (clients - 1) + ["compile"]
        )
        assert len({r.key for r in responses}) == 1

    def test_different_keys_do_not_coalesce(
        self, diamond_source, loop_source
    ):
        with CompileService() as service:
            service.handle(CompileRequest(
                source=diamond_source, args=(1, 2, 1), variant="ssapre"
            ))
            service.handle(CompileRequest(
                source=loop_source, args=(1, 2, 3), variant="ssapre"
            ))
        assert service.metrics.get("compiles") == 2
        assert service.metrics.get("coalesced") == 0


class TestTimeout:
    def test_slow_build_times_out_without_poisoning_the_cache(
        self, diamond_source
    ):
        build = _GatedBuild()
        service = CompileService(build=build, timeout_s=0.1)
        request = CompileRequest(
            source=diamond_source, args=(1, 2, 1), variant="ssapre"
        )
        with service:
            response = service.handle(request)
            assert response.status == "timeout"
            assert service.metrics.get("timeouts") == 1
            # The abandoned build completes in the background and lands
            # in the cache; the retry is a plain hit.
            build.release.set()
            assert _wait_until(
                lambda: service.store.get(response.key)[0] is not None
            )
            retry = service.handle(request)
        assert retry.status == "ok"
        assert retry.served_by == "memory"


class TestDegradation:
    def test_compile_failure_degrades_to_reference_interpreter(
        self, diamond_source, monkeypatch
    ):
        def broken_compile(*args, **kwargs):
            raise RuntimeError("optimiser exploded")

        monkeypatch.setattr(server_module, "compile_variant", broken_compile)
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            ))
        expected = run_function(prepare(build_diamond()), [4, 5, 1])
        assert response.status == "ok"
        assert response.degraded is True
        assert response.observable() == expected.observable()
        assert service.metrics.get("compile_failures") == 1
        assert service.metrics.get("degraded") == 1

    def test_build_artifact_records_the_reason(self, monkeypatch):
        monkeypatch.setattr(
            server_module, "compile_variant",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("boom")),
        )
        prepared = prepare(build_diamond())
        artifact = build_artifact(
            prepared, server_module.PipelineConfig(variant="ssapre"),
            key="k",
        )
        assert artifact.degraded is True
        assert "boom" in artifact.degraded_reason
        assert artifact.program is None


class TestErrorPaths:
    def test_unparsable_source(self):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source="this is not a program", args=()
            ))
        assert response.status == "error"
        assert "ParseError" in response.error
        assert service.metrics.get("errors") == 1

    def test_unknown_variant(self, diamond_source):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=diamond_source, variant="nonsense"
            ))
        assert response.status == "error"
        assert "unknown variant" in response.error

    def test_wrong_arity_is_a_run_error(self, diamond_source):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=diamond_source, args=(1,), variant="ssapre"
            ))
        assert response.status == "error"
        assert "InterpreterError" in response.error
        # The compile itself succeeded and is cached for later requests.
        assert service.metrics.get("compiles") == 1


class TestRequestParsing:
    def test_from_dict_round_trip(self, diamond_source):
        request = CompileRequest.from_dict({
            "source": diamond_source,
            "args": [1, 2, 3],
            "variant": "ssapre",
            "train_args": [4, 5, 6],
        })
        assert request.args == (1, 2, 3)
        assert request.train_args == (4, 5, 6)

    def test_from_dict_rejects_unknown_fields(self, diamond_source):
        with pytest.raises(ValueError, match="unknown request fields"):
            CompileRequest.from_dict({
                "source": diamond_source, "bogus": 1
            })

    def test_from_dict_requires_source(self):
        with pytest.raises(ValueError, match="missing 'source'"):
            CompileRequest.from_dict({"args": [1]})


class TestPlanCache:
    """The plan memo, always on: parse/prepare/key once per distinct
    request plan on both request paths, LRU-bounded by PLAN_MEMO_SIZE."""

    @staticmethod
    def _count_parses(monkeypatch) -> list:
        calls = []
        parse = server_module.parse_function

        def counting(source):
            calls.append(source)
            return parse(source)

        monkeypatch.setattr(server_module, "parse_function", counting)
        return calls

    def test_repeat_requests_hit_the_plan_cache(self, diamond_source, monkeypatch):
        parses = self._count_parses(monkeypatch)
        with CompileService() as service:
            request = CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            )
            cold = service.handle(request)
            warm = service.handle(request)
            third = service.handle(request)
        assert cold.status == warm.status == third.status == "ok"
        assert service.metrics.get("plan_hits") == 2
        assert len(parses) == 1
        # Memoising the plan must not change a single answer bit.
        assert cold.key == warm.key == third.key
        assert cold.observable() == warm.observable() == third.observable()
        assert cold.dynamic_cost == warm.dynamic_cost

    def test_plan_hit_serves_from_memory_tier(self, diamond_source):
        with CompileService() as service:
            request = CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            )
            first = service.handle(request)
            second = service.handle(request)
        assert first.served_by == "compile"
        assert second.served_by == "memory"

    def test_args_and_step_budget_share_one_plan(self, diamond_source):
        with CompileService() as service:
            for args, max_steps in (((4, 5, 1), 1000), ((7, 1, 0), 5000)):
                response = service.handle(CompileRequest(
                    source=diamond_source, args=args, variant="ssapre",
                    max_steps=max_steps,
                ))
                assert response.status == "ok"
        assert service.metrics.get("plan_hits") == 1

    def test_adaptive_path_hits_the_plan_memo(self, loop_source, monkeypatch):
        from repro.serve.adapt.manager import AdaptConfig

        parses = self._count_parses(monkeypatch)
        request = CompileRequest(
            source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
            train_args=(2, 3, 5),
        )
        with CompileService(adapt=AdaptConfig(warmup=2)) as service:
            responses = [service.handle(request) for _ in range(3)]
            assert service.adapt.drain()
            responses.append(service.handle(request))
        assert all(r.status == "ok" for r in responses)
        assert responses[0].served_by == responses[1].served_by == "interp"
        assert responses[-1].served_by == "memory"
        assert len(parses) == 1
        assert service.metrics.get("plan_hits") == 3
        # Tier-0 answers carry the plan's structural key.
        assert responses[0].key == responses[1].key

    def test_distinct_configs_get_distinct_plans(self, diamond_source):
        with CompileService() as service:
            a = service.handle(CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            ))
            b = service.handle(CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre",
                fold_constants=True,
            ))
        assert a.status == b.status == "ok"
        assert a.key != b.key
        assert service.metrics.get("plan_hits") == 0
        assert len(service._plans) == 2

    @pytest.mark.parametrize("change", [
        {"profiling": "probes"},
        {"train_args": (2, 3, 9)},
        {"solver": "lospre"},
    ])
    def test_profiling_train_args_and_solver_miss(self, loop_source, change):
        base = dict(
            source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
            train_args=(2, 3, 5),
        )
        with CompileService() as service:
            a = service.handle(CompileRequest(**base))
            b = service.handle(CompileRequest(**{**base, **change}))
            assert len(service._plans) == 2
        assert a.status == b.status == "ok"
        assert a.key != b.key
        assert a.observable() == b.observable()
        assert service.metrics.get("plan_hits") == 0

    def test_plan_key_covers_every_field_but_the_run_inputs(self, diamond_source):
        # A new request field must either join the plan key or be a pure
        # run input like args/max_steps; otherwise two requests that
        # differ in it would share one plan.
        base = CompileRequest(source=diamond_source)
        variants = {
            "source": diamond_source + "\n",
            "variant": "ssapre",
            "train_args": (1, 2, 3),
            "engine": "reference",
            "fold_constants": True,
            "cleanup": True,
            "rounds": 2,
            "solver": "lospre",
            "profiling": "probes",
        }
        run_inputs = {"args", "max_steps"}
        fields = set(CompileRequest.__dataclass_fields__)
        assert set(variants) == fields - run_inputs
        for name, value in variants.items():
            changed = CompileRequest(**{
                **{f: getattr(base, f) for f in fields}, name: value
            })
            assert changed.plan_key() != base.plan_key(), name
        same = CompileRequest(source=diamond_source, args=(9,), max_steps=7)
        assert same.plan_key() == base.plan_key()

    def test_lru_bound_holds(self, diamond_source):
        # PLAN_MEMO_SIZE + 1 distinct plans: the oldest is evicted, so
        # asking for it again misses, while the newest still hits.
        bound = server_module.PLAN_MEMO_SIZE

        def request(i):
            return CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre",
                train_args=(i,),
            )

        with CompileService(build=_instant_build) as service:
            for i in range(bound + 1):
                assert service.handle(request(i)).status == "ok"
            assert len(service._plans) == bound
            assert service.metrics.get("plan_hits") == 0
            service.handle(request(bound))
            assert service.metrics.get("plan_hits") == 1
            service.handle(request(0))
            assert service.metrics.get("plan_hits") == 1
            assert len(service._plans) == bound


def _instant_build(prepared, config, *, key, engine="compiled",
                   train_args=None, max_steps=2_000_000):
    """A build that skips optimisation: the memo test needs hundreds
    of distinct keys, not hundreds of compiles."""
    return Artifact(
        key=key, variant=config.variant, engine=engine, func=prepared,
        program=None, report=None,
    )


class TestHyphenatedWorkloads:
    """The catalog's hyphen-named programs go through the text protocol:
    printed, parsed by the service, compiled, served and answered the
    same as the reference interpreter on the generator's function."""

    @pytest.mark.parametrize("name", MEMORY + COMPOSITE)
    def test_served_through_handle(self, name):
        workload = load_workload(name)
        func = workload.program.func
        assert "-" in func.name
        request = CompileRequest(
            source=format_function(func),
            args=tuple(workload.ref_args),
            variant="mc-ssapre",
            train_args=tuple(workload.train_args),
        )
        expected = run_function(func, list(workload.ref_args)).observable()
        with CompileService() as service:
            cold = service.handle(request)
            warm = service.handle(request)
        assert cold.status == warm.status == "ok", cold.error
        assert not cold.degraded
        assert (cold.served_by, warm.served_by) == ("compile", "memory")
        assert cold.observable() == warm.observable() == expected


class TestProbesProfiling:
    """``profiling="probes"``: sparse training + sparse serving."""

    def test_build_artifact_ships_a_sparse_program(self):
        from repro.pipeline import PipelineConfig

        prepared = prepare(build_while_loop())
        config = PipelineConfig(variant="mc-ssapre")
        sparse = build_artifact(
            prepared, config, key="k", train_args=(2, 3, 6),
            profiling="probes",
        )
        full = build_artifact(
            prepared, config, key="k", train_args=(2, 3, 6),
        )
        assert sparse.profiling == "probes"
        assert full.profiling == "full"
        assert sparse.program is not None
        assert sparse.program.probes is not None
        assert full.program.probes is None
        # Exact reconstruction: identical training profile, identical
        # optimisation decisions, identical served behaviour.
        assert sparse.train_node_freq == full.train_node_freq
        a = sparse.program.run([2, 3, 9])
        b = full.program.run([2, 3, 9])
        assert a.observable() == b.observable()
        assert dict(a.profile.node_freq) == dict(b.profile.node_freq)

    def test_unknown_profiling_mode_rejected(self, diamond_source):
        with pytest.raises(ValueError):
            CompileRequest(source=diamond_source, profiling="sometimes")
        from repro.pipeline import PipelineConfig

        with pytest.raises(ValueError):
            build_artifact(
                prepare(build_diamond()), PipelineConfig(variant="ssapre"),
                key="k", profiling="sometimes",
            )

    def test_profiling_modes_compile_separately(self, loop_source):
        # A "full" request after a "probes" one must not be served the
        # sparse artifact: the mode is part of the artifact key.
        base = dict(
            source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
            train_args=(2, 3, 5),
        )
        with CompileService() as service:
            sparse = service.handle(CompileRequest(**base, profiling="probes"))
            full = service.handle(CompileRequest(**base))
            again = service.handle(CompileRequest(**base))
            sparse_artifact, _ = service.store.get(sparse.key)
            full_artifact, _ = service.store.get(full.key)
        assert sparse.served_by == full.served_by == "compile"
        assert again.served_by == "memory"
        assert sparse.key != full.key
        assert service.metrics.get("compiles") == 2
        assert service.metrics.get("profile_reconstructions") == 1
        assert sparse_artifact.profiling == "probes"
        assert full_artifact.profiling == "full"
        assert full_artifact.program.probes is None
        assert sparse.observable() == full.observable() == again.observable()

    def test_served_probes_request_counts_reconstructions(self, loop_source):
        with CompileService() as service:
            request = CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 5), profiling="probes",
            )
            first = service.handle(request)
            second = service.handle(request)
        assert first.status == second.status == "ok"
        # Every successful execution of the sparse program is one
        # flow-conservation solve.
        assert service.metrics.get("profile_reconstructions") == 2
        expected = run_function(
            prepare(build_while_loop()), [2, 3, 5]
        ).observable()
        # mc-ssapre preserves observables; the sparse run matches too.
        assert first.observable() == expected
