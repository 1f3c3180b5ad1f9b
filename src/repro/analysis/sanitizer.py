"""Developer wiring for the runtime queue/pipeline sanitizer.

The invariant checks themselves live in :mod:`repro.core.sanitizer`,
next to the :class:`~repro.core.command_queue.CommandQueue` they guard
— ``core`` may not import ``analysis``, and the sanitizer must obey the
layer map it ships with.  This module is the developer-facing surface:

* ``THINC_SANITIZE=1 pytest`` (or ``make sanitize``) runs the whole
  tier-1 suite with every command queue self-checking after each
  mutation and every session asserting pipeline ordering;
* :func:`enable` / :func:`disable` arm the sanitizer programmatically
  for *newly created* queues — tests use :func:`sanitized_queue` (or
  :func:`attach`) to check a specific queue without touching global
  state.

See ``docs/ANALYSIS.md`` for the invariant catalogue.
"""

from __future__ import annotations

from ..core import sanitizer as _core
from ..core.command_queue import CommandQueue

SanitizerError = _core.SanitizerError
QueueSanitizer = _core.QueueSanitizer
enabled = _core.enabled
enable = _core.enable
disable = _core.disable
check_pipe_tail = _core.check_pipe_tail

__all__ = ["SanitizerError", "QueueSanitizer", "enabled", "enable",
           "disable", "check_pipe_tail", "attach", "sanitized_queue"]


def attach(queue: CommandQueue) -> QueueSanitizer:
    """Force-attach a sanitizer to *queue*, regardless of the env gate."""
    san = QueueSanitizer()
    queue._sanitizer = san
    return san


def sanitized_queue(merge: bool = True) -> CommandQueue:
    """A CommandQueue that self-checks, regardless of THINC_SANITIZE."""
    queue = CommandQueue(merge=merge)
    attach(queue)
    return queue
