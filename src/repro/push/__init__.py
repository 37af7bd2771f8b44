"""Push caching (paper section 4): move data near clients ahead of demand.

Push policies plug into :class:`repro.hierarchy.hint_hierarchy.HintHierarchy`
and are consulted on the two events the paper's algorithms key off:

* a **remote fetch** (a cache-to-cache transfer whose least common ancestor
  is some level of the metadata hierarchy) -- the trigger for
  *hierarchical push on miss* (push-1 / push-half / push-all);
* a **server fetch** caused by a communication miss -- the trigger for
  *update push*.

The *ideal push* upper bound is not a policy: it is the hint hierarchy's
``charge_remote_as_l1`` flag, which replaces every L2/L3 hit with an L1
hit without charging disk space, exactly as section 4.1.1 defines it.

A policy returns the L1 ids to push to; the host stores the triggering
request's object at each of them and does the accounting.

All policies observe the paper's two restrictions: no knowledge of future
accesses, and no fetching of objects that are not already cached somewhere
in the system.
"""

from repro.push.base import PushPolicy, PushStats
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.push.nopush import NoPush
from repro.push.update_push import UpdatePush

__all__ = [
    "HierarchicalPushOnMiss",
    "NoPush",
    "PushPolicy",
    "PushStats",
    "UpdatePush",
]
