"""The full-walk oracle for verify's diff.

construct._diff descends only into the children that construct._same
finds different.  full_diff is the walk without that pruning: it visits
every node the two certificates share and writes a line at each one
that differs.  The trace of the pruned walk must be the trace of this
one, the same (path, message) pairs in the same order.  It shares only
the path and message helpers with construct."""

from period_index.construct import _at, _field_set, _show


def full_diff(recorded, derived, rel: str, path: str, trace: list, sections: dict):
    """Append a trace line wherever the recorded certificate at path
    differs from the derived one below rel, visiting every shared node."""
    if isinstance(recorded, dict) and isinstance(derived, dict):
        mismatch = _field_set(recorded, derived, rel)
        if mismatch:
            trace.extend((_at(path, r), mismatch[0]) for r in mismatch[1])
        for key in sorted(set(derived) & set(recorded)):
            full_diff(recorded[key], derived[key], _at(rel, key), path, trace, sections)
    elif (
        isinstance(recorded, list)
        and isinstance(derived, list)
        and len(recorded) == len(derived)
    ):
        for i, (r, d) in enumerate(zip(recorded, derived)):
            full_diff(r, d, _at(rel, "[%d]" % i), path, trace, sections)
    elif type(recorded) is not type(derived) or recorded != derived:
        msg = "recorded %s, recomputed %s" % (_show(recorded), _show(derived))
        prefix, reads = sections.get(rel.split(".")[0], ("", ()))
        if reads:
            msg += " from " + ", ".join(_at(path, r) for r in reads)
        trace.append((_at(path, rel), prefix + msg))
