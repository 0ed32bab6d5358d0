"""Reference formulation ``concat_tables`` is compared against.

This is the host concatenation as first shipped: every string row is
decoded to a Python object and the concatenated column re-encoded with
``Column.from_strings``, and every non-string column builds an all-true
mask for each part before concatenating them.  It is slow and obviously
right; ``test_keys.py`` requires ``concat_tables`` to return tables equal
to its tables in every buffer.
"""

import numpy as np

from repro.columnar import Column, Table


def _decoded(col):
    out = np.empty(len(col), dtype=object)
    valid = col.is_valid_mask() & (col.data >= 0)
    out[valid] = col.dictionary[col.data[valid]]
    out[~valid] = None
    return out


def concat_tables(tables):
    tables = [t for t in tables if t is not None]
    schema = tables[0].schema
    out_cols = []
    for i, field in enumerate(schema):
        parts = [t.columns[i] for t in tables]
        if field.dtype.is_string:
            decoded = np.concatenate([_decoded(p) for p in parts])
            out_cols.append(Column.from_strings(list(decoded)))
        else:
            data = np.concatenate([p.data for p in parts])
            validity = np.concatenate([p.is_valid_mask() for p in parts])
            out_cols.append(Column(field.dtype, data, None if bool(validity.all()) else validity))
    return Table(schema, out_cols)
