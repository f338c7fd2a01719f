"""The distributed MB implementation over real messages."""

import itertools

import pytest

from repro.barrier.control import CP
from repro.barrier.mb import make_mb
from repro.des.network import LinkFaults
from repro.gc.domains import BOT, TOP
from repro.simmpi import Runtime
from repro.simmpi.mb_impl import MBMachine, mb_barrier_program


class TestMachine:
    def make(self, rank=1, size=3):
        return MBMachine(rank=rank, size=size, nphases=4, l_domain=6)

    def test_initial_no_action_at_follower(self):
        m = self.make()
        assert not m.step()  # copies equal own sn: nothing enabled

    def test_root_creates_token(self):
        m = self.make(rank=0)
        assert m.step()  # T1 fires from the uniform start
        assert m.sn == 1
        assert m.cp is CP.EXECUTE
        assert m.events == ["enter-execute"]

    def test_follower_tracks_predecessor(self):
        m = self.make(rank=1)
        m.on_neighbor_state(0, 1, CP.EXECUTE, 0)
        assert m.lsn_prev == 1 and m.lcp_prev is CP.EXECUTE
        assert m.step()  # T2
        assert m.sn == 1 and m.cp is CP.EXECUTE

    def test_busy_holds_token(self):
        m = self.make(rank=1)
        m.on_neighbor_state(0, 1, CP.EXECUTE, 0)
        m.busy = True
        assert not m.step()
        m.busy = False
        assert m.step()

    def test_reset_and_flush(self):
        m = self.make(rank=2, size=3)  # the last process
        m.reset()
        assert m.sn is BOT and m.cp is CP.ERROR
        assert m.step()  # T3: BOT -> TOP
        assert m.sn is TOP

    def test_t4_uses_next_copy(self):
        m = self.make(rank=1)
        m.reset()
        assert not m.step()  # lsn_next is BOT after reset
        m.on_neighbor_state(2, TOP, CP.READY, 0)
        assert m.lsn_next is TOP
        assert m.step()
        assert m.sn is TOP

    def test_ignores_non_neighbors(self):
        m = MBMachine(rank=1, size=5, nphases=4, l_domain=10)
        m.on_neighbor_state(3, 7, CP.SUCCESS, 2)
        assert m.lsn_prev == 0 and m.lsn_next == 0


class TestMachineAgainstProgram:
    """``MBMachine`` -- the code that runs -- against the paper's program
    MB (:func:`repro.barrier.mb.make_mb`) on every local state of a
    2-ring with ``L = 4`` and 2 phases (21 600 states per rank)."""

    LOCAL = ("sn", "cp", "ph", "lsn_prev", "lcp_prev", "lph_prev", "lsn_next")
    COPIES = ("lsn_prev", "lcp_prev", "lph_prev", "lsn_next")

    def setup_method(self):
        self.program = make_mb(2, nphases=2, l_domain=4)
        self.state = self.program.initial_state()

    def machine(self, rank, values):
        return MBMachine(rank=rank, size=2, nphases=2, l_domain=4, **values)

    def product(self, names):
        domains = self.program.domains
        return itertools.product(*(domains[v].values() for v in names))

    def actions(self, rank, kind):
        return [a for a in self.program.processes[rank].actions if a.kind == kind]

    def test_step_is_an_enabled_local_action(self):
        """``step()`` changes the state exactly when one of T1-T5 is
        enabled, and lands on one of their successors."""
        state = self.state
        for rank in range(2):
            local = self.actions(rank, "local")
            for values in self.product(self.LOCAL):
                before = dict(zip(self.LOCAL, values))
                for var, value in before.items():
                    state.set(var, rank, value)
                successors = []
                for action in local:
                    if action.enabled(state):
                        after = dict(before, **dict(action.updates(state)))
                        successors.append(tuple(after[v] for v in self.LOCAL))
                m = self.machine(rank, before)
                changed = m.step()
                got = tuple(getattr(m, v) for v in self.LOCAL)
                assert changed == bool(successors), (rank, before)
                assert got in successors if changed else got == values

    def test_neighbor_push_is_cprev_and_cnext(self):
        """``on_neighbor_state`` applies CPREV and CNEXT (on a 2-ring the
        one neighbour is both predecessor and successor).

        The last rank has no CNEXT and no action of it reads
        ``lsn_next``; the machine still tracks that copy there, so it is
        left out of the comparison at rank N."""
        state = self.state
        for rank in range(2):
            other = 1 - rank
            comm = self.actions(rank, "comm")
            compared = self.COPIES if rank == 0 else self.COPIES[:-1]
            for copies in self.product(self.COPIES):
                before = dict(zip(self.COPIES, copies))
                for var, value in before.items():
                    state.set(var, rank, value)
                for sn, cp, ph in self.product(("sn", "cp", "ph")):
                    state.set("sn", other, sn)
                    state.set("cp", other, cp)
                    state.set("ph", other, ph)
                    after = dict(before)
                    for action in comm:
                        if action.enabled(state):
                            after.update(action.updates(state))
                    m = self.machine(rank, before)
                    m.on_neighbor_state(other, sn, cp, ph)
                    got = [getattr(m, v) for v in compared]
                    expected = [after[v] for v in compared]
                    assert got == expected, (rank, before, sn, cp, ph)


class TestDistributedRuns:
    def test_clean_run_all_complete(self):
        rt = Runtime(nprocs=5, latency=0.01, seed=0)
        logs = rt.run(lambda comm: mb_barrier_program(comm, phases=8))
        assert logs[0].completed == 8
        assert all(l.completed >= 7 for l in logs)
        assert all(l.reexecutions == 0 for l in logs)

    @pytest.mark.parametrize("seed", range(3))
    def test_message_loss_masked(self, seed):
        rt = Runtime(
            nprocs=4,
            latency=0.01,
            seed=seed,
            link_faults=LinkFaults(loss=0.1, duplication=0.05, corruption=0.0),
        )
        logs = rt.run(lambda comm: mb_barrier_program(comm, phases=8))
        assert logs[0].completed == 8
        assert all(l.completed >= 8 - 1 for l in logs)

    def test_detectable_faults_masked(self):
        rt = Runtime(nprocs=5, latency=0.01, seed=2)
        logs = rt.run(
            lambda comm: mb_barrier_program(
                comm, phases=10, fault_plan={2: [1.7, 5.3], 0: [3.1]}
            )
        )
        assert logs[0].completed == 10
        assert all(l.completed >= 10 - 1 for l in logs)
        assert logs[2].faults_applied == 2
        assert logs[0].faults_applied == 1

    def test_faults_cost_reexecutions_not_correctness(self):
        rt = Runtime(nprocs=4, latency=0.01, seed=3)
        times = [1.2 + 2.6 * i for i in range(5)]
        logs = rt.run(
            lambda comm: mb_barrier_program(
                comm, phases=12, fault_plan={1: times}
            )
        )
        assert logs[0].completed == 12
        assert all(l.completed >= 12 - 1 for l in logs)
        # Rank 0 observed at least one re-executed instance.
        assert logs[0].reexecutions >= 1

    def test_loss_plus_faults(self):
        rt = Runtime(
            nprocs=4,
            latency=0.01,
            seed=5,
            link_faults=LinkFaults(loss=0.05),
        )
        logs = rt.run(
            lambda comm: mb_barrier_program(
                comm, phases=6, fault_plan={3: [2.0]}
            )
        )
        assert logs[0].completed == 6
        assert all(l.completed >= 6 - 1 for l in logs)

    def test_two_ranks(self):
        rt = Runtime(nprocs=2, latency=0.01, seed=0)
        logs = rt.run(lambda comm: mb_barrier_program(comm, phases=5))
        assert logs[0].completed == 5
        assert all(l.completed >= 5 - 1 for l in logs)

    def test_timeout_guard(self):
        rt = Runtime(nprocs=3, latency=0.01, seed=0)
        with pytest.raises(Exception):
            rt.run(
                lambda comm: mb_barrier_program(
                    comm, phases=10_000, max_time=5.0
                ),
                until=50.0,
            )
