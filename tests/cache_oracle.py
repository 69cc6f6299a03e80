"""A frozen copy of the response cache's line reader as it was when every
line went through `json.loads`: `OracleCache` is an `AnnotationCache` whose
`_scan` decodes each line with `json.loads` and keeps every field text as
decoded.  It is the oracle for what `AnnotationCache` loads, catches up on,
skips and rejects.  Do not edit it to follow the package."""

import json

from silicon.core import ValidationError, _json_object, _json_value
from silicon.gateway import (_ENTRY_DEFAULTS, _ENTRY_KINDS, _HEADER, AnnotationCache,
                             CacheEntry, _entry_values)


class OracleCache(AnnotationCache):
    def _scan(self, fh) -> bytes:
        offset, lineno, line = self._end, self._lines, b"\n"
        for lineno, line in enumerate(fh, start=lineno + 1):
            start, offset = offset, offset + len(line)
            if not line.strip():
                continue
            terminated = line.endswith(b"\n")
            try:
                obj = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                if terminated:
                    what = "cache entry" if self._header_written else "cache header"
                    raise ValidationError(f"{self.path}:{lineno}: bad {what} ({exc})") from exc
                self._end, self._lines = start, lineno - 1
                return line
            if not self._header_written:
                if json.dumps(obj, sort_keys=True) != _HEADER:
                    raise ValidationError(f"{self.path}: unsupported cache header {obj!r}")
                self._header_written = True
                continue
            try:
                try:  # eight keys that all look up are the fields, as put() writes them
                    if len(obj) != len(_ENTRY_KINDS):
                        raise KeyError
                    values = _entry_values(obj)
                except (KeyError, TypeError):
                    _json_object(obj, _ENTRY_KINDS.keys(), "cache entry")
                    values = _entry_values({**_ENTRY_DEFAULTS, **obj})
                key, model, temperature, index, raw, parsed, failure, created = values
                if not (type(key) is str and type(model) is str and type(raw) is str
                        and type(created) is str and type(temperature) in (float, int)
                        and type(index) is int and (failure is None or type(failure) is str)
                        and (parsed is None or type(parsed) is list
                             and all(type(label) is str for label in parsed))):
                    for (name, kind), value in zip(_ENTRY_KINDS.items(), values):
                        _json_value(value, kind, name, null=name in ("parsed", "failure"))
                    for label in parsed:
                        _json_value(label, str, "parsed")
                entry = CacheEntry(key, model, float(temperature), index, raw,
                                   None if parsed is None else tuple(parsed), failure, created)
            except (KeyError, TypeError, OverflowError) as exc:
                raise ValidationError(f"{self.path}:{lineno}: bad cache entry ({exc})") from exc
            except ValidationError as exc:  # not an object, or an unknown key
                raise ValidationError(f"{self.path}:{lineno}: {exc}") from exc
            self._entries.setdefault(entry.key, entry)
        if line.endswith(b"\n"):
            self._end, self._lines = offset, lineno
        else:
            self._end, self._lines = start, lineno - 1
        return b""
