"""Retire hand-written trace records on a core, one ``run`` per batch."""


def retire(core, *records) -> None:
    """Pack ``records`` onto the end of the core's trace and retire them.

    Build the core over an empty trace (``Core(config, hierarchy,
    PackedTrace())``); the cursor never wraps, because each call appends
    exactly the records it runs.
    """
    for record in records:
        core.trace.append_record(record)
    core.run(len(records))
