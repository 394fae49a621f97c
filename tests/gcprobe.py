"""Counting the autodiff graph a run leaves to the cyclic garbage collector.

Reference counting frees an unlinked graph as soon as it is dropped; a
graph that still holds a reference cycle waits for the cyclic collector,
and its arrays stay allocated until then.
"""

import gc

from chdzdt.tensor import Tensor


def tensors_left_to_cyclic_gc(run):
    """(run(), number of Tensors only the cyclic collector would free).

    The collector is off while run executes; one collection under
    DEBUG_SAVEALL then keeps every unreachable object in gc.garbage, where
    the Tensors among them are counted.
    """
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        leaked = sum(isinstance(obj, Tensor) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return result, leaked
