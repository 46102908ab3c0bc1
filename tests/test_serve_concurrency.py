"""Concurrency proofs for the serve layer.

Two properties make concurrent serving trustworthy:

* **Writer serialization** — mutations from any number of clients
  apply one at a time, each stamped with a global sequence number, and
  every score names the mutation count (``model_seq``) it was computed
  under.  That makes a concurrent session *replayable*: apply the
  mutations to a library classifier in ``seq`` order, evaluate each
  scored message at its ``model_seq`` checkpoint, and every float must
  match — which is exactly what :class:`TestSequentialReplay` does.
* **Demultiplexing fidelity** — the micro-batcher may fuse dozens of
  requests into one bulk call, but each response must carry *its own*
  request's answer.  The seeded property test gives every request a
  distinguishable token set and checks each reply against the library
  score for that exact set, under heavy coalescing.

A third, :class:`TestPipelinedLoadCoalesces`, counts the mechanism
batched serving throughput rests on: under the default window,
pipelined load from many clients reaches the classifier as a few
large bulk calls, not one call per request.
"""

from __future__ import annotations

import asyncio
import random
import threading
from collections import deque

import pytest

from repro.rng import SeedSpawner
from repro.serve import MicroBatcher, ServeClient, ServeConfig, serve_in_thread
from repro.spambayes import ndkernel
from repro.storage import STORE_DIR_ENV


@pytest.fixture(autouse=True)
def _rooted_store_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))


@pytest.fixture(scope="module")
def messages(tiny_corpus):
    rng = SeedSpawner(404).rng("serve-concurrency")
    inbox = tiny_corpus.dataset.sample_inbox(80, 0.5, rng)
    return [(sorted(m.tokens()), m.is_spam) for m in inbox]


class TestSequentialReplay:
    CLIENTS = 6
    OPS_PER_CLIENT = 12

    def _client_session(self, address, seed, pool, log):
        rng = random.Random(seed)
        with ServeClient(address) as client:
            last_seq = 0
            for _ in range(self.OPS_PER_CLIENT):
                tokens, is_spam = pool[rng.randrange(len(pool))]
                if rng.random() < 0.5:
                    reply = client.feedback(tokens, is_spam)
                    log.append(("mutate", reply["seq"], tokens, is_spam))
                    last_seq = reply["seq"]
                else:
                    reply = client.score_response(tokens)
                    # A client's own prior mutations are visible to its
                    # later scores (it awaited their replies first).
                    assert reply["model_seq"] >= last_seq
                    log.append(("score", reply["model_seq"], tokens, reply["score"]))

    def test_concurrent_session_equals_sequential_replay(self, tmp_path, messages):
        config = ServeConfig(
            socket_path=str(tmp_path / "serve.sock"), batch_window_ms=5.0
        )
        logs = [[] for _ in range(self.CLIENTS)]
        with serve_in_thread(config) as service:
            # Seed some baseline training so scores are non-degenerate.
            with ServeClient(service.address) as client:
                for tokens, is_spam in messages[:20]:
                    client.train(tokens, is_spam)
                base_seq = client.stats()["seq"]
            threads = [
                threading.Thread(
                    target=self._client_session,
                    args=(service.address, 1000 + index, messages[20:], logs[index]),
                )
                for index in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        mutations = sorted(
            (entry for log in logs for entry in log if entry[0] == "mutate"),
            key=lambda entry: entry[1],
        )
        scores = sorted(
            (entry for log in logs for entry in log if entry[0] == "score"),
            key=lambda entry: entry[1],
        )
        # Sequence numbers are a gapless permutation: one global writer
        # applied exactly one mutation per number.
        assert [seq for _, seq, _, _ in mutations] == list(
            range(base_seq + 1, base_seq + 1 + len(mutations))
        )

        # Replay: rebuild each observed model state sequentially and
        # demand every score matches its checkpoint, byte for byte.
        classifier = ndkernel.create_classifier()
        for tokens, is_spam in messages[:20]:
            classifier.learn(tokens, is_spam)
        by_state: dict[int, list[tuple[list, float]]] = {}
        for _, model_seq, tokens, served in scores:
            by_state.setdefault(model_seq, []).append((tokens, served))
        cursor = base_seq
        for group_seq in sorted(by_state):
            while cursor < group_seq:
                _, seq, tokens, is_spam = mutations[cursor - base_seq]
                classifier.learn(tokens, is_spam)
                cursor = seq
            for tokens, served in by_state[group_seq]:
                assert classifier.score(tokens) == served

    def test_writer_preserves_one_connections_order(self, tmp_path, messages):
        """Pipelined mutations from one connection apply in frame
        order: reply seqs come back strictly increasing."""
        config = ServeConfig(
            socket_path=str(tmp_path / "serve.sock"), batch_window_ms=5.0
        )
        with serve_in_thread(config) as service:
            with ServeClient(service.address) as client:
                ids = [
                    client.send("train", tokens=tokens, is_spam=is_spam)
                    for tokens, is_spam in messages[:30]
                ]
                seqs = [client.recv(request_id)["seq"] for request_id in ids]
        assert seqs == list(range(1, 31))


class TestCoalescingNeverCrossWires:
    @pytest.mark.parametrize("seed", [11, 29, 83])
    def test_demultiplexed_responses_match_per_request_scores(
        self, tmp_path, messages, seed
    ):
        """Heavy coalescing, distinguishable requests: every reply must
        carry the score of *its* token set, verified against the
        library, and batches must actually have formed (the property
        is vacuous for batch size 1)."""
        rng = random.Random(seed)
        pool = [tokens for tokens, _ in messages]
        # Distinct probe per request: a random message plus a unique
        # marker token, so any cross-wiring changes the float.
        probes = [
            sorted(pool[rng.randrange(len(pool))] + [f"probe-{seed}-{i}"])
            for i in range(40)
        ]
        reference = ndkernel.create_classifier()
        for tokens, is_spam in messages[:20]:
            reference.learn(tokens, is_spam)
        expected = reference.score_many(probes)

        config = ServeConfig(
            socket_path=str(tmp_path / "serve.sock"), batch_window_ms=25.0
        )
        with serve_in_thread(config) as service:
            with ServeClient(service.address) as client:
                for tokens, is_spam in messages[:20]:
                    client.train(tokens, is_spam)
                ids = [client.send("score", tokens=probe) for probe in probes]
                # Collect deliberately out of request order.
                shuffled = ids[:]
                rng.shuffle(shuffled)
                by_id = {rid: client.recv(rid) for rid in shuffled}
            responses = [by_id[rid] for rid in ids]
        assert max(r["batch"] for r in responses) > 1
        assert [r["score"] for r in responses] == expected

    def test_concurrent_clients_each_get_their_own_answer(
        self, tmp_path, messages
    ):
        """Clients hammering distinct probes through shared batches all
        get exactly their own library float back."""
        reference = ndkernel.create_classifier()
        for tokens, is_spam in messages[:20]:
            reference.learn(tokens, is_spam)

        config = ServeConfig(
            socket_path=str(tmp_path / "serve.sock"), batch_window_ms=10.0
        )
        results: dict[int, list[float]] = {}
        probes: dict[int, list] = {
            index: [
                sorted(messages[20 + index][0] + [f"client-{index}-{j}"])
                for j in range(10)
            ]
            for index in range(8)
        }

        def session(index):
            with ServeClient(address) as client:
                results[index] = [client.score(probe) for probe in probes[index]]

        with serve_in_thread(config) as service:
            address = service.address
            with ServeClient(address) as client:
                for tokens, is_spam in messages[:20]:
                    client.train(tokens, is_spam)
            threads = [
                threading.Thread(target=session, args=(index,)) for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ServeClient(address) as client:
                batching = client.stats()["batching"]
        assert batching["max_batch"] > 1  # coalescing actually happened
        for index in range(8):
            assert results[index] == reference.score_many(probes[index])


class TestPipelinedLoadCoalesces:
    """The serve layer's batching gate, as counts rather than timings.

    Eight clients each keep eight score requests in flight against a
    daemon on the default :class:`ServeConfig`.  Coalescing must fuse
    them: the mean batch is at least one client's in-flight depth, and
    the classifier sees exactly one bulk ``score_many`` call per batch
    the batcher reports.  With the window at 0 every batch is a single
    request, and the mean-batch assertion fails.
    """

    CLIENTS = 8
    IN_FLIGHT = 8
    REQUESTS_PER_CLIENT = 40

    def _pipelined_session(self, address, probes, start, replies):
        with ServeClient(address) as client:
            start.wait()
            pending: deque = deque()
            for probe in probes:
                if len(pending) == self.IN_FLIGHT:
                    replies.append(client.recv(pending.popleft()))
                pending.append(client.send("score", tokens=probe))
            while pending:
                replies.append(client.recv(pending.popleft()))

    def test_default_window_coalesces_pipelined_clients(self, tmp_path, messages):
        classifier = ndkernel.create_classifier()
        bulk_calls: list[int] = []
        score_many = classifier.score_many

        def counted_score_many(token_sets):
            bulk_calls.append(len(token_sets))
            return score_many(token_sets)

        classifier.score_many = counted_score_many
        reference = ndkernel.create_classifier()
        for tokens, is_spam in messages[:20]:
            reference.learn(tokens, is_spam)
        pool = [tokens for tokens, _ in messages[20:]]
        probes = [
            [pool[(index * 7 + i) % len(pool)] for i in range(self.REQUESTS_PER_CLIENT)]
            for index in range(self.CLIENTS)
        ]
        replies: list[list[dict]] = [[] for _ in range(self.CLIENTS)]
        start = threading.Barrier(self.CLIENTS)

        config = ServeConfig(socket_path=str(tmp_path / "serve.sock"))
        with serve_in_thread(config, classifier=classifier) as service:
            with ServeClient(service.address) as client:
                for tokens, is_spam in messages[:20]:
                    client.train(tokens, is_spam)
            threads = [
                threading.Thread(
                    target=self._pipelined_session,
                    args=(service.address, probes[index], start, replies[index]),
                )
                for index in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ServeClient(service.address) as client:
                batching = client.stats()["batching"]

        for index in range(self.CLIENTS):
            assert [reply["score"] for reply in replies[index]] == (
                reference.score_many(probes[index])
            )
        total = self.CLIENTS * self.REQUESTS_PER_CLIENT
        assert batching["requests"] == sum(bulk_calls) == total
        assert len(bulk_calls) == batching["batches"]
        assert batching["mean_batch"] >= self.IN_FLIGHT, batching


class TestBatcherFailureContracts:
    """The micro-batcher's promises when the bulk call goes wrong.

    Driven directly (no daemon): these are the contracts the service
    relies on so that one poisoned batch fails its own requests with
    envelopes instead of wedging or crashing the drain loop.
    """

    @staticmethod
    def _run(coro):
        return asyncio.run(coro)

    def test_window_zero_forces_single_request_batches(self):
        async def scenario():
            calls = []

            async def execute(items):
                calls.append(list(items))
                return list(items)

            batcher = MicroBatcher(execute, window_s=0.0, max_batch=64)
            assert batcher.max_batch == 1
            batcher.start()
            futures = [batcher.submit(n) for n in range(5)]
            assert await asyncio.gather(*futures) == list(range(5))
            assert all(len(call) == 1 for call in calls)
            await batcher.close()

        self._run(scenario())

    @staticmethod
    def _echo(calls):
        async def execute(items):
            calls.append(list(items))
            return list(items)

        return execute

    @pytest.mark.parametrize(
        "max_batch, batches, closed_by",
        [
            (256, [[0, 1, 2]], {"quiet": 1, "full": 0, "window": 0}),
            (2, [[0, 1], [2]], {"quiet": 1, "full": 1, "window": 0}),
        ],
    )
    def test_batch_closes_when_arrivals_stop_not_at_the_window(
        self, max_batch, batches, closed_by
    ):
        async def scenario():
            calls = []
            batcher = MicroBatcher(self._echo(calls), window_s=60.0, max_batch=max_batch)
            batcher.start()
            futures = [batcher.submit(n) for n in range(3)]
            # The guard only stops a regression from hanging the suite;
            # closed_by says why each batch closed.
            assert await asyncio.wait_for(asyncio.gather(*futures), 30.0) == [0, 1, 2]
            assert calls == batches
            assert batcher.stats.closed_by == closed_by
            await batcher.close()

        self._run(scenario())

    @pytest.mark.parametrize("idle_passes, batches", [(0, 1), (1, 1), (2, 6)])
    def test_arrivals_one_idle_pass_apart_share_a_batch(self, idle_passes, batches):
        """A trickle with at most one idle loop pass between arrivals
        is still arriving: it lands in one batch, never as alternating
        fragments.  Two idle passes are quiet, and every item closes
        its own batch."""

        async def scenario():
            calls = []
            batcher = MicroBatcher(self._echo(calls), window_s=60.0)
            batcher.start()
            futures = []
            for n in range(6):
                futures.append(batcher.submit(n))
                for _ in range(1 + idle_passes):
                    await asyncio.sleep(0)
            assert await asyncio.wait_for(asyncio.gather(*futures), 30.0) == list(range(6))
            assert len(calls) == batches, calls
            assert batcher.stats.closed_by["quiet"] == batches
            await batcher.close()

        self._run(scenario())

    def test_bulk_failure_fans_out_to_every_future(self):
        async def scenario():
            async def execute(items):
                raise ValueError("kernel rejected the batch")

            batcher = MicroBatcher(execute, window_s=0.001)
            batcher.start()
            futures = [batcher.submit(n) for n in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(
                isinstance(r, ValueError) and "rejected" in str(r)
                for r in results
            )
            await batcher.close()

        self._run(scenario())

    def test_result_count_mismatch_fails_the_batch(self):
        async def scenario():
            async def execute(items):
                return list(items)[:-1]  # one result short

            batcher = MicroBatcher(execute, window_s=0.001)
            batcher.start()
            futures = [batcher.submit(n) for n in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            await batcher.close()

        self._run(scenario())

    def test_close_cancels_queued_work_and_refuses_new(self):
        async def scenario():
            started, release = asyncio.Event(), asyncio.Event()

            async def execute(items):
                started.set()
                await release.wait()  # never set: the drain loop stays busy
                return list(items)

            batcher = MicroBatcher(execute, window_s=60.0)
            batcher.start()
            in_flight = batcher.submit("in flight")
            await started.wait()
            future = batcher.submit("stranded")  # queued behind the blocked batch
            await batcher.close()
            with pytest.raises(asyncio.CancelledError):
                future.result()
            assert in_flight.done()
            with pytest.raises(asyncio.CancelledError, match="batcher closed"):
                in_flight.result()
            with pytest.raises(RuntimeError, match="closed"):
                batcher.submit("too late")

        self._run(scenario())

    def test_rejects_nonpositive_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda items: items, max_batch=0)
