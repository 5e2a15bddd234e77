"""The memos are plain dicts, shared by every thread: threads that run
verify while another clears every memo still get the serial rows."""

import sys
from concurrent.futures import ThreadPoolExecutor

from tautint import psi
from tautint.identities import verify


def test_threads_clearing_the_memos_agree_with_serial():
    psi.clear_cache()
    serial = list(verify(10))

    def passes(clearing):
        rows = []
        for _ in range(3):
            if clearing:
                psi.clear_cache()
            rows.append(list(verify(10)))
        return rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(passes, [True, False, False, False], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [rows for result in results for rows in result] == [serial] * 12
