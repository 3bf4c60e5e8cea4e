"""Seeded-bad annotations and blocking: a taint-mark typo and a sleep
reachable under a lock."""

import threading
import time

_lock = threading.Lock()


def nap():
    time.sleep(0.5)


# sp-taint: sanitiser
def misspelt_sanitizer(value):
    return str(value)


def blocks_under_lock():
    with _lock:
        nap()


# sp-taint: sanitizer
# (a mark two lines above its def attaches to nothing)
def detached_sanitizer(value):
    return str(value)
