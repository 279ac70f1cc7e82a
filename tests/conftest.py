import threading

import pytest

from dpimage import metrics


@pytest.fixture
def watch_passes(monkeypatch):
    """watch_passes(fail_on=None, error=None) records, in call order, the
    thread name of each call of the sweep's pass helper; the call numbered
    fail_on raises error instead."""

    def watch(fail_on=None, error=None):
        calls, lock, one_pass = [], threading.Lock(), metrics._decode_encode_pass

        def watched(*args):
            with lock:
                calls.append(threading.current_thread().name)
                failing = len(calls) == fail_on
            if failing:
                raise error
            return one_pass(*args)

        monkeypatch.setattr(metrics, "_decode_encode_pass", watched)
        return calls

    return watch
