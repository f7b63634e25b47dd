"""Sharded execution == in-memory: the conformance table's store rows
(``tests/test_conformance.py``) on its ``faults`` corpus, under their
earlier names.  28 members in 8-member shards (the last one short),
data faults in three of them and two zero-patterned members that take
the scalar fallback.
"""

import pytest

from repro.shard import plan_shards

from ..test_conformance import BUDGET_MB, CORPUS, check_row


def check(path, corpus="faults"):
    check_row(CORPUS[corpus], path)


class TestPolicyBackendMatrix:
    @pytest.mark.parametrize("backend", ["numpy"])
    def test_raise_policy_matches(self, backend):
        check("store[serial]")

    @pytest.mark.parametrize("backend,policy",
                             [("numpy", "quarantine"), ("numpy", "repair")])
    def test_faulty_policies_match(self, backend, policy):
        check("store[quarantine]" if policy == "quarantine" else "store[repair]")


class TestDispatchModes:
    def test_pool_matches_serial(self):
        check("store[pool]", corpus="positive")

    def test_pool_matches_with_faults(self):
        check("store[pool]")

    def test_memory_budget_path_matches(self):
        """The budget row runs chunks the planner derives, not one shard."""
        for name in ("faults", "stragglers", "cvb-cov2"):
            plan = plan_shards(*CORPUS[name].stack.shape,
                               memory_budget_bytes=int(BUDGET_MB * 2**20))
            assert len(plan) >= 2, name
        check("store[memory_budget_mb]")

    def test_single_shard_matches(self):
        check("store[one shard]")

    def test_chunk_of_one_member(self):
        check("store[chunk of one]")


class TestFacade:
    def test_store_accepted_as_path(self):
        check("store[path string]")
