"""Per-rule fixture tests: each rule fires on its target and only there."""
from __future__ import annotations


def _rules(report):
    return [f.rule for f in report.findings]


# -- RP001: blocking call in the event loop ------------------------------- #

EVENT_LOOP_BAD = '''
    import time

    class KVServer:
        def _serve_loop(self):
            self._tick()

        def _tick(self):
            time.sleep(0.1)

        def _handle(self, request):
            self._lock.acquire()

        def unreachable(self):
            time.sleep(5)  # not reachable from the loop entries
'''


def test_rp001_flags_blocking_calls_reachable_from_loop(analyze):
    report = analyze({'src/repro/kvserver/server.py': EVENT_LOOP_BAD},
                     select=['RP001'])
    assert _rules(report) == ['RP001', 'RP001']
    messages = ' '.join(f.message for f in report.findings)
    assert 'time.sleep' in messages
    assert 'acquire' in messages


EVENT_LOOP_OK = '''
    class KVServer:
        def _serve_loop(self):
            events = self._selector.select(0.05)
            with self._lock:
                pass
            self._lock.acquire(timeout=1.0)
            self._lock.acquire(blocking=False)

    class NotTheServer:
        def _serve_loop(self):
            import time
            time.sleep(1)  # other classes are out of scope
'''


def test_rp001_allows_with_lock_timeouts_and_other_classes(analyze):
    report = analyze({'src/repro/kvserver/server.py': EVENT_LOOP_OK},
                     select=['RP001'])
    assert report.clean


def test_rp001_flags_select_without_timeout(analyze):
    source = '''
        class KVServer:
            def _serve_loop(self):
                self._selector.select()
    '''
    report = analyze({'src/repro/kvserver/server.py': source},
                     select=['RP001'])
    assert _rules(report) == ['RP001']


def test_rp001_checks_table_dispatched_command_handlers(analyze):
    # ``_cmd_*`` handlers are called through the dispatch table, never as
    # ``self._cmd_x()``, so each one is an entry of the walk.
    source = '''
        import time

        class KVServer:
            def _cmd_get(self, key, value, conn):
                self._slow()

            def _slow(self):
                time.sleep(0.01)

            def cmd_helper(self):
                time.sleep(1)  # neither an entry nor reached from one

            _HANDLERS = {'GET': _cmd_get}
    '''
    report = analyze({'src/repro/kvserver/server.py': source},
                     select=['RP001'])
    assert _rules(report) == ['RP001']
    assert 'KVServer._slow' in report.findings[0].message


def test_rp001_checks_every_method_of_the_broker_state_classes(analyze):
    # The handlers reach GroupState/TopicRing through other objects, not
    # ``self``, so the self-call walk from KVServer never sees them.
    source = '''
        import time

        class GroupState:
            def heartbeat(self, member, now):
                time.sleep(0.01)

        class TopicRing:
            def append(self, payload):
                self._lock.acquire()

        class SomethingElse:
            def heartbeat(self):
                time.sleep(1)  # not loop state
    '''
    report = analyze({'src/repro/kvserver/broker.py': source},
                     select=['RP001'])
    assert _rules(report) == ['RP001', 'RP001']
    messages = ' '.join(f.message for f in report.findings)
    assert 'GroupState.heartbeat' in messages
    assert 'TopicRing.append' in messages


# -- RP002: stored exception pins buffers --------------------------------- #

def test_rp002_flags_exception_stored_on_self(analyze):
    source = '''
        class Resolver:
            def run(self):
                try:
                    self.resolve()
                except Exception as e:
                    self._error = e
    '''
    report = analyze({'src/repro/proxy/x.py': source}, select=['RP002'])
    assert _rules(report) == ['RP002']
    assert 'with_traceback' in report.findings[0].message


def test_rp002_accepts_stripped_and_local_stores(analyze):
    source = '''
        class Resolver:
            def run(self):
                try:
                    self.resolve()
                except Exception as e:
                    self._error = e.with_traceback(None)

            def local_only(self):
                try:
                    self.resolve()
                except Exception as e:
                    last = e  # dies with the frame
                return last

            def cleared_first(self):
                try:
                    self.resolve()
                except Exception as e:
                    e.__traceback__ = None
                    self._error = e
    '''
    report = analyze({'src/repro/proxy/x.py': source}, select=['RP002'])
    assert report.clean


def test_rp002_flags_closure_escape(analyze):
    source = '''
        def make():
            box = None
            def run():
                nonlocal box
                try:
                    work()
                except Exception as e:
                    box = e
            return run
    '''
    report = analyze({'src/repro/proxy/x.py': source}, select=['RP002'])
    assert _rules(report) == ['RP002']


# -- RP003: lock-order cycles --------------------------------------------- #

def test_rp003_flags_opposite_nesting_orders(analyze):
    source = '''
        import threading

        class Engine:
            def __init__(self):
                self._alock = threading.Lock()
                self._block = threading.Lock()

            def forward(self):
                with self._alock:
                    with self._block:
                        pass

            def backward(self):
                with self._block:
                    with self._alock:
                        pass
    '''
    report = analyze({'src/repro/cluster/x.py': source}, select=['RP003'])
    assert set(_rules(report)) == {'RP003'}
    assert len(report.findings) >= 2  # one per participating edge
    assert 'cycle' in report.findings[0].message


def test_rp003_consistent_order_is_clean(analyze):
    source = '''
        import threading

        class Engine:
            def one(self):
                with self._alock:
                    with self._block:
                        pass

            def two(self):
                with self._alock:
                    with self._block:
                        pass
    '''
    report = analyze({'src/repro/cluster/x.py': source}, select=['RP003'])
    assert report.clean


def test_rp003_one_hop_call_cycle(analyze):
    source = '''
        class Engine:
            def outer(self):
                with self._alock:
                    self.helper()

            def helper(self):
                with self._block:
                    pass

            def backward(self):
                with self._block:
                    with self._alock:
                        pass
    '''
    report = analyze({'src/repro/cluster/x.py': source}, select=['RP003'])
    assert set(_rules(report)) == {'RP003'}


def test_rp003_self_deadlock_on_plain_lock(analyze):
    source = '''
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.Lock()

            def oops(self):
                with self._lock:
                    with self._lock:
                        pass
    '''
    report = analyze({'src/repro/cluster/x.py': source}, select=['RP003'])
    assert _rules(report) == ['RP003']
    assert 'self-deadlock' in report.findings[0].message


# -- RP004: silent broad except ------------------------------------------- #

def test_rp004_flags_silent_swallow_in_scope(analyze):
    source = '''
        def pump():
            try:
                step()
            except Exception:
                pass
    '''
    report = analyze({'src/repro/stream/x.py': source}, select=['RP004'])
    assert _rules(report) == ['RP004']


def test_rp004_accepts_reraise_metric_or_counter(analyze):
    source = '''
        def reraises(self):
            try:
                step()
            except Exception as e:
                raise ConnectorError('step failed') from e

        def records(self):
            try:
                step()
            except Exception:
                self._record('stream.failures')

        def counts(self):
            try:
                step()
            except Exception:
                self.failures += 1
    '''
    report = analyze({'src/repro/stream/x.py': source}, select=['RP004'])
    assert report.clean


def test_rp004_out_of_scope_paths_are_ignored(analyze):
    source = '''
        def pump():
            try:
                step()
            except Exception:
                pass
    '''
    report = analyze({'src/repro/store/x.py': source}, select=['RP004'])
    assert report.clean


def test_rp004_narrow_except_is_fine(analyze):
    source = '''
        def pump():
            try:
                step()
            except (KeyError, ValueError):
                pass
    '''
    report = analyze({'src/repro/stream/x.py': source}, select=['RP004'])
    assert report.clean


# -- RP005: metric-name registry ------------------------------------------ #

def test_rp005_flags_undocumented_metric(analyze):
    source = '''
        def work(self):
            self._record('stream.mystery', 0.0)
    '''
    docs = "| `stream.known` | somewhere | something |"
    report = analyze({'src/repro/stream/x.py': source},
                     select=['RP005'], docs=docs)
    rules = _rules(report)
    assert rules.count('RP005') == 2  # undocumented code + dead docs row
    messages = [f.message for f in report.findings]
    assert any('stream.mystery' in m for m in messages)
    assert any('stream.known' in m for m in messages)


def test_rp005_documented_metrics_are_clean(analyze):
    source = '''
        def work(self):
            self._record('stream.known', 0.0)
            self._bump('failovers')
    '''
    docs = '''\
        | `stream.known` | here | meaning |
        | `cluster.failovers` | there | meaning |
    '''
    report = analyze({'src/repro/stream/x.py': source},
                     select=['RP005'], docs=docs)
    assert report.clean


def test_rp005_wildcards_match_both_directions(analyze):
    source = '''
        def work(self, node_id, suffix):
            self._record(f'cluster.node.{node_id}.{suffix}', 0.0)
    '''
    docs = "| `cluster.node.<id>.ok` / `cluster.node.<id>.fail` | rpc | latency |"
    report = analyze({'src/repro/cluster/x.py': source},
                     select=['RP005'], docs=docs)
    assert report.clean


def test_rp005_numeric_first_arg_is_not_a_metric(analyze):
    source = '''
        def fold(self, stats, elapsed):
            stats.record(elapsed, 128)
    '''
    docs = "| `anything` | x | y |"
    report = analyze({'src/repro/store/x.py': source},
                     select=['RP005'], docs=docs)
    # only the dead docs row fires; the non-string record() is ignored
    assert [f.path for f in report.findings] == ['docs/API.md']


# -- RP006: daemon threads must be joined --------------------------------- #

def test_rp006_flags_unjoined_daemon_attr(analyze):
    source = '''
        import threading

        class Service:
            def start(self):
                self._thread = threading.Thread(target=self.run, daemon=True)
                self._thread.start()
    '''
    report = analyze({'src/repro/stream/x.py': source}, select=['RP006'])
    assert _rules(report) == ['RP006']
    assert '_thread' in report.findings[0].message


def test_rp006_join_via_alias_swap_is_clean(analyze):
    source = '''
        import threading

        class Service:
            def start(self):
                self._reader = threading.Thread(target=self.run, daemon=True)
                self._reader.start()

            def close(self):
                reader, self._reader = self._reader, None
                if reader is not None:
                    reader.join(timeout=2.0)
    '''
    report = analyze({'src/repro/stream/x.py': source}, select=['RP006'])
    assert report.clean


def test_rp006_collection_join_is_clean(analyze):
    source = '''
        import threading

        class Pool:
            def spawn(self):
                worker = threading.Thread(target=self.run, daemon=True)
                self._workers.append(worker)
                worker.start()

            def close(self):
                workers, self._workers = self._workers, []
                for worker in workers:
                    worker.join(timeout=5)
    '''
    report = analyze({'src/repro/stream/x.py': source}, select=['RP006'])
    assert report.clean


def test_rp006_fire_and_forget_local_is_flagged(analyze):
    source = '''
        import threading

        class Service:
            def submit(self):
                worker = threading.Thread(target=self.run, daemon=True)
                worker.start()
    '''
    report = analyze({'src/repro/stream/x.py': source}, select=['RP006'])
    assert _rules(report) == ['RP006']
    assert 'fire-and-forget' in report.findings[0].message


def test_rp006_returned_thread_transfers_ownership(analyze):
    source = '''
        import threading

        def spawn(target):
            worker = threading.Thread(target=target, daemon=True)
            worker.start()
            return worker
    '''
    report = analyze({'src/repro/stream/x.py': source}, select=['RP006'])
    assert report.clean


def test_rp006_getattr_alias_join_is_clean(analyze):
    source = '''
        import threading

        class Factory:
            def resolve_async(self):
                self._async_thread = threading.Thread(target=self.go, daemon=True)
                self._async_thread.start()

            def result(self):
                thread = getattr(self, '_async_thread', None)
                if thread is not None:
                    thread.join()
    '''
    report = analyze({'src/repro/stream/x.py': source}, select=['RP006'])
    assert report.clean
