import threading

import pytest

from dpimage import metrics


@pytest.fixture
def watch_passes(monkeypatch):
    """watch_passes(fail_on=None, error=None) records, in call order, the
    thread name of each pass that codec's pass schedule hands to the sweep's
    scorer; the call numbered fail_on raises error instead of scoring."""

    def watch(fail_on=None, error=None):
        calls, passes = [], metrics._decode_encode_passes

        def watched_passes(model, z, score):
            def watched(*args):
                calls.append(threading.current_thread().name)  # under the schedule's lock
                if len(calls) == fail_on:
                    raise error
                return score(*args)

            return passes(model, z, watched)

        monkeypatch.setattr(metrics, "_decode_encode_passes", watched_passes)
        return calls

    return watch
