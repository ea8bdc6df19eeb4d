"""What a finished simulation cell leaves for the cyclic collector.

A cell's run function closes its engine and freezes its metric exports
once its outcome is read, which leaves the cell's object graph acyclic:
reference counting frees all of it on return, and only the returned
outcome stays tracked.
"""

import gc


def cell_leftovers(run):
    """Call *run* twice (the first call fills first-use caches) and
    measure the second with the cyclic collector off.

    Returns ``(result, left, unreachable)``: the second call's result,
    the GC-tracked objects it left alive (its result included), and
    the objects a following ``gc.collect()`` found unreachable, i.e.
    the work the run handed to the cyclic collector.
    """
    run()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = run()
        left = len(gc.get_objects()) - before
        unreachable = gc.collect()
    finally:
        gc.enable()
    return result, left, unreachable
