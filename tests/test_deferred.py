"""Names loaded at their first call: rebinding, and bindings replaced from outside."""

import math

from epibound._deferred import Deferred


def test_first_call_rebinds_the_module_global():
    namespace = {}
    namespace["sqrt"] = Deferred("math", "sqrt", namespace)
    assert namespace["sqrt"](9.0) == 3.0
    assert namespace["sqrt"] is math.sqrt


def test_a_replaced_binding_is_kept():
    namespace = {}
    deferred = namespace["sqrt"] = Deferred("math", "sqrt", namespace)
    namespace["sqrt"] = replacement = lambda x: deferred(x) + 1.0
    assert namespace["sqrt"](9.0) == 4.0 and namespace["sqrt"](16.0) == 5.0
    assert namespace["sqrt"] is replacement and deferred.load() is math.sqrt

