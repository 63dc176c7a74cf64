"""Relation-free paths of a bound quiver by brute force, for the tests.

A quiver is a list of vertex ids and a list of ``(id, source, target)``
arrows; a relation is a tuple of arrow ids.  Paths grow one arrow at a
time, and a path lies in the ideal when some relation occurs in it as a
contiguous run, found by substring search.  This module imports nothing of
``strquiv``, so it checks the product graph of ``strquiv.core`` from
outside.
"""


class Infinite(Exception):
    """A relation-free path is longer than any path of a finite-dimensional
    algebra can be."""


def contains_relation(word: tuple, relations) -> bool:
    """Whether some relation occurs in ``word`` as a contiguous run."""
    return any(
        word[i : i + len(r)] == tuple(r) for r in relations for i in range(len(word) - len(r) + 1)
    )


def free_paths(vertices, arrows, relations, limit: int = 200_000) -> list[tuple[str, str, tuple]]:
    """Every relation-free path as (start, end, arrow ids), trivial paths
    included, or Infinite.  Whether a relation-free path grows by an arrow
    depends only on its last m - 1 arrows, m the longest relation, or on
    all of it and its end when it is shorter: a window, itself a
    relation-free path.  So a path as long as the number of windows has
    two prefixes that share one, and the arrows between them repeat
    forever."""
    m = max((len(r) for r in relations), default=1)
    out = {v: [a for a in arrows if a[1] == v] for v in vertices}

    def longer(word, end):
        # the path has no relation, so only one ending at the new arrow can
        # be new: search the last m arrows
        for a in out[end]:
            if not contains_relation((word + (a[0],))[-m:], relations):
                yield a[2], word + (a[0],)

    windows, level = 0, [(v, ()) for v in vertices]
    for _ in range(m):
        windows += len(level)
        level = [nxt for end, word in level for nxt in longer(word, end)]
    found = []
    stack = [(v, v, ()) for v in vertices]
    while stack:  # depth first, so that a long path shows early
        start, end, word = stack.pop()
        if len(word) >= windows:
            raise Infinite(word)
        found.append((start, end, word))
        if len(found) > limit:
            raise RuntimeError("too many paths for a brute-force count")
        stack += [(start, *nxt) for nxt in longer(word, end)]
    return found


def is_closed_path(arrows, word: tuple) -> bool:
    """Whether ``word`` is a nonempty path that ends where it starts."""
    by_id = {a[0]: a for a in arrows}
    if not word or any(x not in by_id for x in word):
        return False
    ends = [(by_id[x][1], by_id[x][2]) for x in word]
    return all(t == s for (_, t), (s, _) in zip(ends, ends[1:] + ends[:1]))
