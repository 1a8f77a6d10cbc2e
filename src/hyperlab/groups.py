"""Group presentations with exact normal forms and ball enumeration.

Three kinds are supported:

* ``free``: finite-rank free groups; normal form is the freely reduced word.
* ``free-product``: free products of finite cyclic groups; normal form is the
  alternating syllable word with each syllable written in its shortest power.
* ``small-cancellation``: one or more cyclically reduced relators satisfying
  the metric C'(1/6) condition; words are reduced with Dehn's algorithm and a
  bounded rewrite search supplies canonical geodesic representatives.

Words are tuples of symbol indices into an Alphabet that lists every letter,
inverses included, in a fixed total order (the shortlex order used for all
deterministic tie-breaking).
"""
from __future__ import annotations

import collections
import functools
import itertools

import numpy as np

from .errors import InputError, ResourceLimitError, UnsupportedElementError

Word = tuple  # tuple[int, ...], indices into an Alphabet

# largest ball enumerate_ball builds
ELEMENT_CAP = 2_000_000
# largest estimated allocation of one bulk_product_lengths call
DISTANCE_BYTES_CAP = 2 << 30
# bytes a pair that bulk_product_lengths allocates at its peak, by kind,
# for int8 distances (a wider `distance_dtype` scales them by at most its
# itemsize), with 8 pairs a letter added for each word, at max |l| +
# max |r| + 1 letters.  Peaks a pair under tracemalloc: 2.1-2.2 on the
# free prefix route (free:2 radius 6, free:3 radius 4); 4.0-4.4 on the
# free-product syllable route (modular radius 12 and 14, Z/3*Z/4 6 and 8);
# 2.9-4.9 on the small-cancellation window search over surface:2 4 x 3
# and 4 x 4 (the most on a first call, with the canonical forms it
# caches), 8.8 over 3 x 3; 9.4, 15 and 38 on skinny free:2 6 x 2,
# modular 12 x 2 and surface:2 3 x 1 calls.  With `CALL_BYTES`, every
# call within free:2 radius 6, free:3 4, free:4 3, modular 8, surface:2 3
# and surface:3 2 (both sides, warm) peaks at most 0.85 of its estimate
PAIR_BYTES = {"free": 3, "free-product": 5, "small-cancellation": 16}
# bytes any bulk_product_lengths call may add to its pair term: numpy
# buffers 8192 entries of each operand of a broadcast comparison,
# and np.unique a few KB.  Traced calls peak up to 92 KB past the pair
# term (free:2 4 x 3)
CALL_BYTES = 1 << 17
# most words the small-cancellation canonical-form cache keeps; the
# largest count measured, after `cocycle surface:2` at its default
# radius, is 207,268
CANON_CACHE_ENTRIES = 1 << 18
# pairs of one window-search block in `_window_hits`: its index and
# state arrays stay at a few hundred KB whatever the call's size
WINDOW_BLOCK_PAIRS = 1 << 16


class Alphabet:
    """Ordered symbol set with a fixed-point-allowed inverse involution."""

    __slots__ = ("symbols", "inverse", "_index")

    def __init__(self, symbols, inverse):
        self.symbols = tuple(symbols)
        self.inverse = tuple(inverse)
        if len(self.inverse) != len(self.symbols):
            raise InputError("involution must cover every symbol")
        for i, j in enumerate(self.inverse):
            if not 0 <= j < len(self.symbols) or self.inverse[j] != i:
                raise InputError("inverse map is not an involution")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("duplicate symbol names")
        self._index = {name: i for i, name in enumerate(self.symbols)}

    def __len__(self):
        return len(self.symbols)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown symbol {name!r}") from None

    @classmethod
    def from_generators(cls, names, self_inverse=()):
        """Build an alphabet listing each generator followed by its inverse.

        Generators named in ``self_inverse`` are their own inverse and get a
        single symbol; every other generator ``x`` also contributes ``x'``.
        """
        symbols, inverse = [], []
        for name in names:
            if "'" in name or " " in name or not name:
                raise InputError(f"bad generator name {name!r}")
            if name in self_inverse:
                inverse.append(len(symbols))
                symbols.append(name)
            else:
                i = len(symbols)
                symbols.extend((name, name + "'"))
                inverse.extend((i + 1, i))
        return cls(symbols, inverse)


def _spell(alphabet, word):
    return "".join(alphabet.symbols[i] for i in word) if word else "1"


def _free_reduce(inverse, word):
    out = []
    for s in word:
        if out and out[-1] == inverse[s]:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _window_state(table, word):
    """State of a window table's walk after reading word from the start."""
    q = 0
    for s in word:
        q = table[q][s]
    return q


def _walk(table, letters, state):
    """Yield the states of the walks table[state, letter] along the rows
    of letters (the last axis of state), before and after each column in
    turn; the -1 padding reads the table's last column."""
    yield state
    for column in letters.T:
        state = table[state, column]
        yield state


def _invert_word(inverse, word):
    return tuple(inverse[s] for s in reversed(word))


def _shortlex_key(word):
    return (len(word), word)


def common_prefix_len(u, w):
    """Number of leading letters two words share."""
    n = 0
    for a, b in zip(u, w):
        if a != b:
            break
        n += 1
    return n


class GroupPresentation:
    """A group model: alphabet, kind, and normal-form machinery.

    Instances are compared by identity; elements of distinct presentations
    never mix. Caches for canonical forms live on the presentation.
    """

    def __init__(self, alphabet, kind, relators=(), factor_orders=None, label=None):
        if kind not in ("free", "free-product", "small-cancellation"):
            raise InputError(f"unknown presentation kind {kind!r}")
        self.alphabet = alphabet
        self.kind = kind
        self.relators = tuple(tuple(r) for r in relators)
        self.label = label or kind
        # free-product data: factor id and exponent-in-factor per symbol.
        self._factor = None
        self._factor_orders = None
        self._sym_exponent = None
        self._sym_of = None
        if kind == "free-product":
            self._init_free_product(factor_orders)
        # small-cancellation data: all cyclic rotations of relators and their
        # inverses, plus the Dehn replacement threshold per rotation.
        self._rotations = None
        if kind == "small-cancellation":
            self._init_small_cancellation()
        self._canon_cache = {}
        self.identity = GroupElement(self, ())

    # -- construction -------------------------------------------------

    def _init_free_product(self, factor_orders):
        if not factor_orders:
            raise InputError("free-product kind needs factor orders")
        self._factor_orders = tuple(factor_orders)
        factor = [None] * len(self.alphabet.symbols)
        expo = [None] * len(self.alphabet.symbols)
        pos = 0
        for fid, order in enumerate(factor_orders):
            if order < 2:
                raise InputError("cyclic factor orders must be >= 2")
            take = 1 if order == 2 else 2
            for k in range(take):
                factor[pos + k] = fid
                expo[pos + k] = 1 if k == 0 else order - 1
            pos += take
        if pos != len(self.alphabet.symbols):
            raise InputError("alphabet does not match factor orders")
        self._factor = tuple(factor)
        self._sym_exponent = tuple(expo)
        # first symbol spelling each (factor, exponent), for normal forms
        self._sym_of = {}
        for i, key in enumerate(zip(factor, expo)):
            self._sym_of.setdefault(key, i)

    def _init_small_cancellation(self):
        inv = self.alphabet.inverse
        if not self.relators:
            raise InputError("small-cancellation kind needs relators")
        rotations = []
        for r in self.relators:
            if _free_reduce(inv, r) != r or (len(r) > 1 and r[0] == inv[r[-1]]):
                raise InputError("relators must be cyclically reduced")
            if len(r) < 2:
                raise InputError("relators must have length >= 2")
            for w in (r, _invert_word(inv, r)):
                for i in range(len(w)):
                    rotations.append(w[i:] + w[:i])
        if len(set(rotations)) != len(rotations):
            raise InputError("relator set is degenerate (repeated rotation)")
        self._rotations = tuple(rotations)
        self._check_sixth()
        # a relator match starting at a letter needs a rotation starting
        # with it; buckets keep the order of _rotations
        self._rotations_by_first = tuple(
            tuple(rot for rot in rotations if rot[0] == s)
            for s in range(len(self.alphabet)))

    def _check_sixth(self):
        """Reject presentations whose pieces reach 1/6 of a relator length."""
        rots = self._rotations
        max_piece = 0
        for u, v in itertools.permutations(rots, 2):
            if u == v:
                continue
            # longest common prefix of distinct rotations = piece candidate
            m = common_prefix_len(u, v)
            max_piece = max(max_piece, m)
            if 6 * m >= len(u):
                raise InputError(
                    f"presentation is not C'(1/6): piece ratio {m}/{len(u)}"
                )
        self._max_piece = max_piece
        self._min_relator = min(len(r) for r in rots)

    @functools.cached_property
    def _relator_windows(self):
        """Dehn reduction's (table, accept): len(rot)//2 + 1 letters."""
        return self._window_table(lambda n: n // 2 + 1)

    @functools.cached_property
    def _move_windows(self):
        """(table, accept) for `_sc_moves`' windows of ceil(len(rot)/2)
        letters: a reduced word whose walk ends outside `accept` has none."""
        return self._window_table(lambda n: (n + 1) // 2)

    @functools.cached_property
    def _move_walk(self):
        """`_move_windows` as plain lists, for walks one letter at a time."""
        table, accept = self._move_windows
        return table.tolist(), accept.tolist()

    def _window_table(self, width):
        """Prefix-transition table that finds windows, the first
        width(len(rot)) letters of any rotation (Aho-Corasick, CACM 1975).

        Its states are the prefixes of all windows; `table[q, s]` is the
        state after symbol s, the last column sending the -1 padding to
        the start state 0.  The states that end a window accept and
        absorb, so a word holds a window exactly when its walk ends
        accepting.  Both widths used are at least half the rotation, and
        a window seen inside another state's word at any place but its
        start would make a piece of at least half a relator, which C'(1/6)
        rules out; so a walk that reads a window is in its end state.
        Returns (table, accept).
        """
        children, ends = [{}], [False]
        for rot in self._rotations:
            q = 0
            for s in rot[: width(len(rot))]:
                if s not in children[q]:
                    children[q][s] = len(children)
                    children.append({})
                    ends.append(False)
                q = children[q][s]
            ends[q] = True
        table = np.zeros((len(children), len(self.alphabet) + 1),
                         dtype=np.min_scalar_type(len(children)))
        accept = np.array(ends)
        fail = [0] * len(children)
        # breadth first: a failure link points to a shallower, finished state
        queue = collections.deque([0])
        while queue:
            q = queue.popleft()
            table[q] = table[fail[q]]
            for s, child in children[q].items():
                fail[child] = table[q, s]
                table[q, s] = child
                queue.append(child)
        hit = np.flatnonzero(accept)
        table[hit] = hit[:, None]
        return table, accept

    def _syllable_merge(self, runs):
        """merge[u, v] = i + j - |u^-1 v| for free-product syllables u = s^i
        and v = t^j, i, j <= runs, numbered s + (i - 1) k over k symbols:
        i + j - min(x, n - x), x = j e(t) - i e(s) mod n, in one factor of
        order n; 0 across factors and at the padding (last row, column)."""
        f = np.array(self._factor)
        run = np.arange(1, min(max(self._factor_orders) // 2, runs) + 1)
        n = np.tile(np.array(self._factor_orders)[f], len(run))[:, None]
        x = np.outer(run, self._sym_exponent).ravel()
        f, run = np.tile(f, len(run)), np.repeat(run, len(f))
        d = (x - x[:, None]) % n
        return np.pad(np.where(f == f[:, None],
                               run + run[:, None] - np.minimum(d, n - d), 0),
                      (0, 1))

    # -- normal forms ---------------------------------------------------

    def normalize(self, word):
        """Canonical word for the group element spelled by ``word``."""
        word = tuple(word)
        for s in word:
            if not 0 <= s < len(self.alphabet.symbols):
                raise InputError(f"symbol index {s} out of range")
        if self.kind == "free":
            return _free_reduce(self.alphabet.inverse, word)
        if self.kind == "free-product":
            return self._normalize_product(word)
        return self._canonical_sc(word)

    def _normalize_product(self, word):
        # stack of [factor, exponent mod order]
        stack = []
        for s in word:
            f, e = self._factor[s], self._sym_exponent[s]
            if stack and stack[-1][0] == f:
                stack[-1][1] = (stack[-1][1] + e) % self._factor_orders[f]
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append([f, e])
        out = []
        for f, e in stack:
            out.extend(self._syllable(f, e))
        return tuple(out)

    def _syllable(self, f, e):
        """Canonical spelling of exponent e in factor f: the fewer of e plain
        or n-e primed letters; ties go to the plain letter, which sorts
        first."""
        n = self._factor_orders[f]
        if e <= n - e:
            return (self._sym_of[(f, 1)],) * e
        return (self._sym_of[(f, n - 1)],) * (n - e)

    def multiply(self, u, w):
        """Canonical word of uw for canonical words u and w.

        The one rule for products; a single letter is a canonical word of
        the free and free-product kinds.  Both words are reduced, so free
        kinds cancel letters only where u meets w.  Free-product kinds
        cancel whole syllables at the junction and merge the two that
        meet in one factor.  Dehn forms need the whole word, so
        small-cancellation kinds normalize the concatenation (the
        canonical-form cache serves repeats).
        """
        if self.kind == "free":
            inv = self.alphabet.inverse
            i, j = len(u), 0
            while i and j < len(w) and u[i - 1] == inv[w[j]]:
                i, j = i - 1, j + 1
            return u[:i] + w[j:]
        if self.kind == "free-product":
            factor, expo = self._factor, self._sym_exponent
            i, j = len(u), 0
            while i and j < len(w) and factor[u[i - 1]] == factor[w[j]]:
                # a syllable is a run of one letter; neighbours differ in
                # factor
                a, b = i - 1, j + 1
                while a and u[a - 1] == u[i - 1]:
                    a -= 1
                while b < len(w) and w[b] == w[j]:
                    b += 1
                f = factor[w[j]]
                e = ((i - a) * expo[u[i - 1]]
                     + (b - j) * expo[w[j]]) % self._factor_orders[f]
                if e:
                    return u[:a] + self._syllable(f, e) + w[b:]
                i, j = a, b
            return u[:i] + w[j:]
        return self.normalize(u + w)

    def invert(self, u):
        """Canonical word of u^-1 for a canonical word u."""
        word = _invert_word(self.alphabet.inverse, u)
        # the inverse of a reduced word is reduced; other kinds respell
        # ties such as Z/4's tt, whose inverse t't' is not canonical
        if self.kind == "free":
            return word
        return self.normalize(word)

    def left_quotient(self, u, w):
        """Canonical word of u^-1 w for canonical words u and w.

        The one scalar route for x^-1 y.  In a free group only the common
        prefix of u and w cancels.  `bulk_product_lengths` calls it only
        on small-cancellation kinds whose pieces are longer than a letter.
        """
        return self.multiply(self.invert(u), w) if u else w

    def _relator_matches(self, word):
        """(i, rot, m) for each position i of word and each rotation rot
        starting with word[i], where rot's first m letters match word from
        i on; positions ascend and rotations keep their `_rotations`
        order (Dehn's algorithm, Lyndon-Schupp ch. V)."""
        n = len(word)
        for i, s in enumerate(word):
            for rot in self._rotations_by_first[s]:
                m = 1
                limit = min(len(rot), n - i)
                while m < limit and word[i + m] == rot[m]:
                    m += 1
                yield i, rot, m

    def _sc_moves(self, word):
        """Words reachable in one move: free reduction, or replacement of a
        relator subword of at least half the relator by its complement."""
        inv = self.alphabet.inverse
        reduced = _free_reduce(inv, word)
        if reduced != word:
            yield reduced
            return
        for i, rot, m in self._relator_matches(word):
            for take in range((len(rot) + 1) // 2, m + 1):
                repl = _invert_word(inv, rot[take:])
                yield _free_reduce(inv, word[:i] + repl + word[i + take :])

    def _canonical_sc(self, word):
        """Shortlex-least word of the move closure of the freely reduced
        word, cached for every word visited.  A word holding no move
        window has a closure of one word, so it is returned as it is,
        without a search and without a cache entry.  The cache keeps the
        newest `CANON_CACHE_ENTRIES` words: the oldest go after a search,
        and a hit costs no bookkeeping."""
        word = _free_reduce(self.alphabet.inverse, word)
        hit = self._canon_cache.get(word)
        if hit is not None:
            return hit
        table, accept = self._move_walk
        if not accept[_window_state(table, word)]:
            return word
        seen = {word}
        frontier = [word]
        best = word
        while frontier:
            new = []
            for w in frontier:
                for w2 in self._sc_moves(w):
                    if w2 not in seen:
                        seen.add(w2)
                        new.append(w2)
                        if _shortlex_key(w2) < _shortlex_key(best):
                            best = w2
            frontier = new
        cache = self._canon_cache
        for w in seen:
            # every visited word spells the same element
            cache.setdefault(w, best)
        excess = len(cache) - CANON_CACHE_ENTRIES
        if excess > 0:
            for w in list(itertools.islice(cache, excess)):
                del cache[w]
        return best

    def dehn_reduce(self, word):
        """Greedily replace relator subwords longer than half the relator
        until none remain; returns the Dehn-irreducible word."""
        inv = self.alphabet.inverse
        word = _free_reduce(inv, tuple(word))
        while word:
            for i, rot, m in self._relator_matches(word):
                if 2 * m > len(rot):
                    repl = _invert_word(inv, rot[m:])
                    word = _free_reduce(inv, word[:i] + repl + word[i + m :])
                    break
            else:
                break
        return word

    # -- element helpers ----------------------------------------------

    def element(self, spelling):
        """Parse a word like ``"aba'"`` or ``"a b a'"`` into an element."""
        return GroupElement(self, self.normalize(self.parse_word(spelling)))

    def parse_word(self, spelling):
        if isinstance(spelling, (tuple, list)):
            return tuple(spelling)
        text = spelling.strip()
        if text in ("", "1"):
            return ()
        word = []
        for tok in text.split():
            word.extend(self._scan_token(tok))
        return tuple(word)

    def _scan_token(self, tok):
        # greedy longest match against symbol names; extra apostrophes
        # after a match toggle the inverse, so s' works for self-inverse s
        index = self.alphabet._index
        inv = self.alphabet.inverse
        longest = max(len(s) for s in self.alphabet.symbols)
        out = []
        i = 0
        while i < len(tok):
            for size in range(min(longest, len(tok) - i), 0, -1):
                idx = index.get(tok[i : i + size])
                if idx is not None:
                    i += size
                    while i < len(tok) and tok[i] == "'":
                        idx = inv[idx]
                        i += 1
                    out.append(idx)
                    break
            else:
                raise InputError(f"unknown symbol at {tok[i:]!r}")
        return out

    def symmetry_generators(self):
        """Alphabet permutations, as tuples of symbol indices, that extend
        to length-preserving automorphisms.

        On free and free-product kinds, one swaps each generator with its
        inverse, and one swaps each pair of consecutive generators of the
        same type, and their inverses: every free generator has one type,
        a free-product generator's type is its factor order.  On
        small-cancellation kinds, every permutation but the identity that
        commutes with inversion and maps the set of relator rotations onto
        itself.
        """
        if self.kind == "small-cancellation":
            return self._relator_symmetries()
        inv = self.alphabet.inverse
        gens = [s for s in range(len(inv)) if s <= inv[s]]

        def swap(*pairs):
            perm = list(range(len(inv)))
            for a, b in pairs:
                perm[a], perm[b] = b, a
            return tuple(perm)

        out = [swap((s, inv[s])) for s in gens if inv[s] != s]
        by_type = {}
        for s in gens:
            key = self._factor_orders[self._factor[s]] if self._factor else 0
            by_type.setdefault(key, []).append(s)
        for same in by_type.values():
            out.extend(swap((x, y), (inv[x], inv[y]))
                       for x, y in zip(same, same[1:]))
        return out

    def _relator_symmetries(self):
        # such a permutation maps the first rotation onto a rotation of the
        # same length letter by letter, which fixes it on that rotation's
        # letters and their inverses; the candidate keeps the other letters
        inv = self.alphabet.inverse
        letters = range(len(inv))
        rots = set(self._rotations)
        first = self._rotations[0]
        out = []
        for rot in self._rotations:
            if len(rot) != len(first):
                continue
            image = {}
            for a, b in zip(first, rot):
                image.setdefault(a, b)
                image.setdefault(inv[a], inv[b])
            perm = tuple(image.get(s, s) for s in letters)
            if (perm != tuple(letters) and len(set(perm)) == len(perm)
                    and all(perm[inv[s]] == inv[perm[s]] for s in letters)
                    and {tuple(perm[s] for s in r) for r in rots} == rots):
                out.append(perm)
        return out

    def element_from_symbol(self, sym):
        if not 0 <= sym < len(self.alphabet.symbols):
            raise InputError(f"symbol index {sym} out of range")
        return GroupElement(self, self.multiply((), (sym,)))

    @property
    def rank(self):
        """Number of generator/inverse symbol pairs (free kind only)."""
        if self.kind != "free":
            raise InputError("rank is defined for free presentations")
        return len(self.alphabet.symbols) // 2

    def __repr__(self):
        return f"GroupPresentation({self.label})"


class GroupElement:
    """Immutable group element carrying its canonical word."""

    __slots__ = ("pres", "word")

    def __init__(self, pres, word):
        self.pres = pres
        self.word = word

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.pres is not self.pres:
            raise InputError("elements live in different presentations")
        return GroupElement(self.pres,
                            self.pres.multiply(self.word, other.word))

    def inverse(self):
        return GroupElement(self.pres, self.pres.invert(self.word))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.pres.identity
        for _ in range(n):
            out = out * self
        return out

    def length(self):
        """Word length of the canonical representative."""
        return len(self.word)

    def is_identity(self):
        return not self.word

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.pres is other.pres and self.word == other.word

    def __hash__(self):
        return hash((id(self.pres), self.word))

    def __lt__(self, other):
        return _shortlex_key(self.word) < _shortlex_key(other.word)

    def spelled(self):
        return _spell(self.pres.alphabet, self.word)

    def __repr__(self):
        return f"<{self.spelled()}>"


def cyclically_reduce(g):
    """Split a free-group element g = u c u^-1 with c cyclically reduced;
    returns (u, c)."""
    pres = g.pres
    if pres.kind != "free":
        raise UnsupportedElementError(
            f"cyclic reduction needs a free presentation, got {pres.kind!r}")
    inv = pres.alphabet.inverse
    word = g.word
    prefix = []
    while len(word) > 1 and word[0] == inv[word[-1]]:
        prefix.append(word[0])
        word = word[1:-1]
    # a prefix of a reduced word is reduced
    u = GroupElement(pres, tuple(prefix))
    c = GroupElement(pres, tuple(word))
    return u, c


class Ball:
    """Elements within a given word-metric radius, grouped by sphere.

    The one holder of what derives from the ball: its `elements` in sphere
    order and their word `lengths`; its step table `edges`, built by
    `enumerate_ball`, an (n+1) x (k+1) array in `np.min_scalar_type(n)`:
    `edges[i, s]` is the position of element i times letter s for every
    element i inside the outer sphere, the outer sphere's rows and the
    extra row n read n (outside, which absorbs), and the last column maps
    every position to itself, for the -1 padding; the word `distances`,
    filled in by `metrics.word_distance_matrix`; and the
    `representatives`, filled in by `metrics._orbit_labels`: one array of
    labels of the x rows at the identity, the least x of each orbit of the
    symmetries that keep those distances.

    A geodesic word read from the identity ends on its element, or on n
    once it leaves the ball: every prefix of a geodesic word is geodesic,
    so the walk steps from an outer-sphere row only after radius letters.
    Canonical words are geodesic, and so are their images under the
    length-preserving symmetries.
    """

    __slots__ = ("pres", "radius", "spheres", "elements", "lengths",
                 "edges", "distances", "representatives")

    def __init__(self, pres, radius, spheres, edges):
        self.pres = pres
        self.radius = radius
        self.spheres = spheres
        self.elements = [g for sol in spheres for g in sol]
        self.lengths = np.array([len(g.word) for g in self.elements],
                                dtype=np.int64)
        self.edges = edges
        self.distances = None
        self.representatives = None

    def sphere_sizes(self):
        return [len(s) for s in self.spheres]

    def _steps(self, starts, words):
        """`_walk` along `edges` from g at each start (axis 0) over each
        word w (axis 1), a tuple or a row of a letter array padded with
        -1: the positions of g w[:j], j = 0, 1, ..., staying put past w's
        end."""
        letters = (words if isinstance(words, np.ndarray) else _letters(
            self.pres, words, max(map(len, words), default=0)))
        return _walk(self.edges, letters, np.broadcast_to(
            np.asarray(starts)[:, None], (len(starts), len(letters))))

    def walk(self, starts, words):
        """Ball positions of g w (n off the ball): the last step of
        `_steps`."""
        return collections.deque(self._steps(starts, words), maxlen=1)[0]

    def symmetries(self):
        """Index permutations of the ball that keep word length, as arrays:
        element i goes to element img[i].

        Each of the presentation's `symmetry_generators` that maps the
        ball onto itself, and on free kinds the branch swaps: at a vertex
        v = a^k inside the ball, for each other child vt of v, the map
        v a u -> v t p(u), v t u -> v a p(u), where p swaps the letters a
        and t and their inverses, and every other element is fixed.  A
        branch swap exchanges two isomorphic subtrees of the Cayley tree,
        and together they move every element onto a^n, so each sphere is
        one orbit.  Each image is one walk of the ball's permuted letter
        rows.
        """
        pres, n = self.pres, len(self)
        words = _letters(pres, [g.word for g in self.elements], self.radius)
        for perm in pres.symmetry_generators():
            img = self.walk([0], np.array(perm + (-1,), words.dtype)[words])[0]
            if n not in img:
                yield img
        if pres.kind != "free":
            return
        inv = pres.alphabet.inverse
        a = 0
        for k in range(self.radius):
            below = (words[:, :k] == a).all(axis=1)
            for t in range(len(inv)):
                if t == a or (k and t == inv[a]):
                    continue
                p = list(range(len(inv))) + [-1]
                p[a], p[t] = t, a
                p[inv[a]], p[inv[t]] = inv[t], inv[a]
                rows = below & ((words[:, k] == a) | (words[:, k] == t))
                swapped = words.copy()
                swapped[rows, k:] = np.array(p, words.dtype)[words[rows, k:]]
                yield self.walk([0], swapped)[0]

    def __len__(self):
        return len(self.elements)


def free_sphere_size(pres, n):
    """Reduced words of length n over the alphabet's 2k letters,
    2k(2k-1)^(n-1): the exact sphere size on free kinds, and on the other
    kinds a bound from the free group covering them."""
    if n == 0:
        return 1
    k2 = len(pres.alphabet.symbols)
    return k2 * (k2 - 1) ** (n - 1)


def enumerate_ball(pres, radius):
    """Breadth-first ball enumeration with canonical-form deduplication.

    Each product g s it forms, for g inside the outer sphere and s a
    letter, is kept as the ball position of g s in the step table
    `Ball.edges`, built once at the end.  On small-cancellation kinds each
    element keeps its `_move_windows` state: a canonical g holding no move
    window has a prefix g[:-1] and windowless one-letter extensions g s
    that are canonical as they stand, so only the products whose step
    accepts go through `multiply`.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    if pres.kind == "free":
        total = sum(free_sphere_size(pres, n) for n in range(radius + 1))
        if total > ELEMENT_CAP:
            raise ResourceLimitError(
                f"ball would hold {total} elements (cap {ELEMENT_CAP})"
            )
    letters = range(len(pres.alphabet.symbols))
    inv = pres.alphabet.inverse
    sc = pres.kind == "small-cancellation"
    # other kinds have one state, which accepts: every product multiplies
    table, accept = (pres._move_walk if sc
                     else ([[0] * len(letters)], [True]))
    spheres = [[pres.identity]]
    states = [0]
    # word -> discovery id; `final` maps ids to positions in sorted spheres
    found = {(): 0}
    final = [np.zeros(1, dtype=np.int64)]
    edges = [np.zeros((0, len(letters)), dtype=np.int64)]
    for _ in range(radius):
        start = len(found)
        layer, layer_states, targets = [], [], []
        for g, q in zip(spheres[-1], states):
            word = g.word
            for s in letters:
                step = table[q][s]
                if accept[step]:
                    w = pres.multiply(word, (s,))
                elif word and s == inv[word[-1]]:
                    w = word[:-1]
                else:
                    w = word + (s,)
                n = len(found)
                i = found.setdefault(w, n)
                if i == n:
                    # new, so one letter longer than g: products no
                    # longer than g are in the ball already
                    layer.append(GroupElement(pres, w))
                    if sc and accept[step]:
                        step = _window_state(table, w)
                    layer_states.append(step)
                    if n >= ELEMENT_CAP:
                        raise ResourceLimitError(
                            f"ball exceeded the cap of {ELEMENT_CAP} elements"
                        )
                targets.append(i)
        order = sorted(range(len(layer)), key=lambda k: layer[k].word)
        rank = np.empty(len(layer), dtype=np.int64)
        rank[order] = np.arange(start, start + len(layer))
        final.append(rank)
        edges.append(np.array(targets, dtype=np.int64).reshape(-1, len(letters)))
        spheres.append([layer[k] for k in order])
        states = [layer_states[k] for k in order]
    n, k = len(found), len(letters)
    table = np.full((n + 1, k + 1), n, dtype=np.min_scalar_type(n))
    inner = np.concatenate(edges)
    table[:len(inner), :k] = np.concatenate(final)[inner]
    table[:, k] = np.arange(n + 1)
    return Ball(pres, radius, spheres, table)


def distance_dtype(top):
    """The narrowest signed integer dtype that holds 2 * top.

    Word distances up to top stored in it keep every doubled Gromov
    product and every difference of two of them in range: int8 while
    top is at most 63, which covers every preset ball.
    """
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= 2 * top)


def bulk_product_lengths(pres, lefts, rights):
    """Matrix of canonical lengths |l^-1 r| over two element lists.

    This is the single route from canonical words to word-metric
    distances: `metrics.word_distance_matrix` and the Busemann rows of
    `cocycles` both go through it.  No length exceeds max |l| + max |r|,
    and the matrix is stored in `distance_dtype` of that bound.

    Free kinds reduce l^-1 r by cancelling the common prefix of l and r,
    so only prefix comparisons are needed; free products compare whole
    syllables (`_syllable_lengths`); small-cancellation kinds whose pieces
    are single letters also finish the few products that hold a window
    (`_vectorized_lengths`), and the others take one `left_quotient` call
    per pair, or per unordered pair when `lefts` and `rights` are one
    list.  A call whose estimated allocation passes `DISTANCE_BYTES_CAP`
    raises ResourceLimitError before allocating.
    """
    nl, nr = len(lefts), len(rights)
    lv = [len(l.word) for l in lefts]
    lx = [len(r.word) for r in rights]
    top = max(lv, default=0) + max(lx, default=0)
    dtype = distance_dtype(top)
    if nl == 0 or nr == 0:
        return np.zeros((nl, nr), dtype=dtype)
    # a word's arrays count as 8 pairs a letter (see PAIR_BYTES)
    need = ((nl * nr + 8 * (nl + nr) * (top + 1))
            * PAIR_BYTES[pres.kind] * dtype.itemsize + CALL_BYTES)
    if need > DISTANCE_BYTES_CAP:
        raise ResourceLimitError(
            f"word distances over {nl} x {nr} elements would allocate about "
            f"{need / 2**30:.1f} GiB (cap {DISTANCE_BYTES_CAP / 2**30:g} GiB)")
    lens = _vectorized_lengths(pres, lefts, rights,
                               np.array(lv, dtype=dtype),
                               np.array(lx, dtype=dtype))
    if lens is not None:
        return lens
    # |l^-1 r| = |r^-1 l|, so a square call fills row i from column i on
    # and mirrors it into column i
    square = lefts is rights
    out = np.empty((nl, nr), dtype=dtype)
    for i, l in enumerate(lefts):
        j = i if square else 0
        out[i, j:] = [len(pres.left_quotient(l.word, r.word))
                      for r in rights[j:]]
        if square:
            out[j:, i] = out[i, j:]
    return out


def _letters(pres, words, width):
    """Words as the rows of a (len(words), width) array, cut at width and
    padded with -1.  Symbols and padding share the narrowest signed type
    that holds every index, so alphabets past 128 symbols widen instead
    of overflow."""
    pad = (-1,) * width
    return np.fromiter(
        itertools.chain.from_iterable((w + pad)[:width] for w in words),
        dtype=np.min_scalar_type(-len(pres.alphabet.symbols)),
        count=len(words) * width).reshape(len(words), width)


def _inverse_letters(pres, letters, lengths):
    """Rows l^-1 for the rows l, of the given lengths, of a letter array:
    read backwards, mapped through the inverse table, padded with -1."""
    inverse = np.array(pres.alphabet.inverse + (-1,), dtype=letters.dtype)
    back = lengths[:, None] - np.arange(1, letters.shape[1] + 1,
                                        dtype=lengths.dtype)
    # past a row's length, -1 reads its last column, which is padding
    return inverse[np.take_along_axis(letters, np.maximum(back, -1), axis=1)]


def _syllables(pres, letters, codes):
    """Letters numbered, in the type that holds -1 to codes, by the rest of
    their syllable (a run of one letter) as in `_syllable_merge`: two rows
    agree up to a column exactly when whole syllables do."""
    k = len(pres.alphabet)
    code = letters.astype(np.min_scalar_type(-codes))
    for j in range(letters.shape[1] - 2, -1, -1):
        same = (letters[:, j] == letters[:, j + 1]) & (letters[:, j] >= 0)
        code[same, j] = code[same, j + 1] + k
    return code


def _common_prefix_lengths(left, right):
    """Common prefix lengths of the rows of the letter arrays left and
    right (`_letters`), a (len(left), len(right)) array in `distance_dtype`
    of the narrower width.  Each depth numbers the prefixes of both sides
    by `np.unique` over the last depth's number and the next letter, so
    the length counts the depths whose numbers match.  Padded rows are
    numbered -1 on the left and -2 on the right, so padding matches
    nothing."""
    width = min(left.shape[1], right.shape[1])
    lcp = np.zeros((len(left), len(right)), dtype=distance_dtype(width))
    hit = np.empty(lcp.shape, dtype=bool)
    span = np.iinfo(np.result_type(left, right)).max + 2
    narrow = np.min_scalar_type(-(len(left) + len(right) + 2))
    ids = np.zeros(len(left) + len(right), dtype=np.intp)
    for k in range(width):
        column = np.concatenate([left[:, k], right[:, k]])
        _, ids = np.unique(ids * span + column, return_inverse=True)
        pad = column < 0
        ids[pad] = -1
        pr = np.where(pad, -2, ids)[len(left):].astype(narrow)
        np.equal(ids[:len(left), None].astype(narrow), pr[None, :], out=hit)
        lcp += hit
    return lcp


def _vectorized_lengths(pres, lefts, rights, lv, lx):
    """Vectorized |l^-1 r| in the dtype of the word lengths lv and lx;
    None on small-cancellation kinds whose pieces are longer than one
    letter, which take the scalar route.

    Small-cancellation kinds find the reduced words l^-1 r that hold a
    window (`_window_hits`) and finish only those: when every product is
    shorter than every relator, a Dehn-irreducible word is geodesic, so
    relator windows go to dehn_reduce; past that, a word holding no move
    window is its own normal form, so move windows go to normalize.
    """
    if pres.kind == "small-cancellation" and pres._max_piece != 1:
        return None
    left = _letters(pres, [l.word for l in lefts], int(lv.max()))
    right = _letters(pres, [r.word for r in rights], int(lx.max()))
    if pres.kind == "free-product":
        return _syllable_lengths(pres, left, right, np.add.outer(lv, lx))
    # cancellation at the l^-1 | r junction = common prefix of l and r
    lcp = _common_prefix_lengths(left, right)
    lens = np.add.outer(lv, lx)
    lens -= lcp
    lens -= lcp
    if pres.kind == "free":
        return lens
    windows, finish = ((pres._relator_windows, pres.dehn_reduce)
                       if int(lens.max()) < pres._min_relator
                       else (pres._move_windows, pres.normalize))
    # r^-1 l is the inverse of l^-1 r, and the windows are closed under
    # inversion: the per-state table goes on the shorter list
    if len(rights) > len(lefts):
        js, hits = _window_hits(windows, pres, right, left, lcp.T, lx)
    else:
        hits, js = _window_hits(windows, pres, left, right, lcp, lv)
    if lefts is rights:     # |l^-1 r| = |r^-1 l|: one word of each pair
        hits, js = hits[hits <= js], js[hits <= js]
    inv = pres.alphabet.inverse
    for i, j, c in zip(hits.tolist(), js.tolist(), lcp[hits, js].tolist()):
        word = _invert_word(inv, lefts[i].word[c:]) + rights[j].word[c:]
        lens[i, j] = len(finish(word))
    if lefts is rights:
        lens[js, hits] = lens[hits, js]
    return lens


def _syllable_lengths(pres, left, right, lens):
    """|l^-1 r| on free products, in place from lens = |l| + |r| over the
    letter arrays l and r: their common prefix in `_syllables` numbers
    cancels whole syllables, and the two after it merge if they lie in one
    factor (the normal form theorem, Lyndon-Schupp ch. IV), one pass a
    depth; no syllable is longer than the wider array."""
    merge = pres._syllable_merge(max(left.shape[1], right.shape[1]))
    left, right = (_syllables(pres, a, len(merge)) for a in (left, right))
    lcp = _common_prefix_lengths(left, right)
    lens -= lcp
    lens -= lcp
    merge = merge.astype(lens.dtype)
    block = np.empty_like(lens)
    for k in range(min(left.shape[1], right.shape[1])):
        # the -1 padding wraps to merge's last column
        np.take(merge[left[:, k]], right[:, k], axis=1, out=block, mode="wrap")
        np.subtract(lens, block, out=lens, where=lcp == k)
    return lens


def _window_hits(windows, pres, left, right, lcp, lv):
    """Index arrays (i, j) of the reduced words l^-1 r that hold a window
    of `windows`, a `_window_table` (table, accept), for l row i of the
    letter array left, of lengths lv, and r row j of right.

    The walk over l^-1 r factors at the junction: the state after the
    kept part of l^-1 depends on l and the common prefix length c, the
    state after r[c:] on r, c and the state before it.  One walk over
    each l^-1 and one table over every state, r and c give these; one
    gather per pair joins them, for `WINDOW_BLOCK_PAIRS` pairs at a
    time.  Accepting states absorb, so the word holds a window exactly
    when the joined state accepts.
    """
    table, accept = windows
    ia = _inverse_letters(pres, left, lv)
    # after[i, k]: the state after the first k letters of l_i^-1
    after = np.stack(list(_walk(table, ia, np.zeros(len(left), table.dtype))),
                     axis=1)
    # onward[j, c, q]: the state after r_j[c:] read from state q, built
    # from the end; the -1 padding resets only states that do not accept
    states = len(table)
    onward = np.empty((len(right), right.shape[1] + 1, states),
                      dtype=table.dtype)
    onward[:, -1] = np.arange(states)
    for c in range(right.shape[1] - 1, -1, -1):
        onward[:, c] = np.take_along_axis(onward[:, c + 1],
                                          table[:, right[:, c]].T, axis=1)
    onward = onward.reshape(len(right), -1)
    rows = max(1, WINDOW_BLOCK_PAIRS // len(right))
    found = []
    for lo in range(0, len(left), rows):
        c = lcp[lo:lo + rows].astype(np.intp)
        # the kept part of l^-1 is its first |l| - c letters
        joint = np.take_along_axis(after[lo:lo + rows],
                                   lv[lo:lo + rows, None] - c, axis=1)
        c *= states
        c += joint
        i, j = np.nonzero(accept[onward[np.arange(len(right)), c]])
        found.append((i + lo, j))
    return tuple(map(np.concatenate, zip(*found)))


# -- presets and presentation files ------------------------------------


def free_group(rank):
    if rank < 1:
        raise InputError("free rank must be >= 1")
    names = [chr(ord("a") + i) for i in range(rank)] if rank <= 26 else [
        f"x{i}" for i in range(rank)
    ]
    alph = Alphabet.from_generators(names)
    return GroupPresentation(alph, "free", label=f"free:{rank}")


def cyclic_free_product(orders, names=None, label=None):
    """Free product of finite cyclic groups of the given orders."""
    if len(orders) < 2:
        raise InputError("need at least two cyclic factors")
    if names is None:
        names = [chr(ord("s") + i) for i in range(len(orders))]
    self_inv = {n for n, o in zip(names, orders) if o == 2}
    alph = Alphabet.from_generators(names, self_inverse=self_inv)
    return GroupPresentation(
        alph, "free-product", factor_orders=orders, label=label or "free-product"
    )


def small_cancellation_group(generator_names, relator_spellings, label=None):
    alph = Alphabet.from_generators(generator_names)
    probe = GroupPresentation(alph, "free")
    relators = [probe.parse_word(r) for r in relator_spellings]
    return GroupPresentation(
        alph, "small-cancellation", relators=relators, label=label
    )


def surface_group(genus=2):
    """Genus-g orientable surface group, one relator of length 4g."""
    if genus < 2:
        raise InputError("surface presets need genus >= 2")
    names = [chr(ord("a") + i) for i in range(2 * genus)]
    rel = ""
    for i in range(0, 2 * genus, 2):
        x, y = names[i], names[i + 1]
        rel += f"{x}{y}{x}'{y}'"
    return small_cancellation_group(names, [rel], label=f"surface:{genus}")


def modular_group():
    """Free product Z/2 * Z/3 with generators s, t."""
    return cyclic_free_product([2, 3], names=["s", "t"], label="modular")


def preset(spec):
    """Resolve a group spec string: free:k, surface:2, modular, or a file path."""
    spec = spec.strip()
    if spec.startswith("free:"):
        try:
            rank = int(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad free rank in {spec!r}") from None
        return free_group(rank)
    if spec.startswith("surface:"):
        try:
            genus = int(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad surface genus in {spec!r}") from None
        return surface_group(genus)
    if spec == "modular":
        return modular_group()
    if spec.startswith("@") or "/" in spec or spec.endswith(".txt"):
        return load_presentation(spec.lstrip("@"))
    raise InputError(f"unknown group spec {spec!r}")


def parse_presentation(text, label=None):
    """Parse the plain-text format: a ``generators:`` line, then one relator
    per line, with inverses written with a trailing apostrophe."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("generators:"):
        raise InputError("presentation file must start with a generators: line")
    names = lines[0].split(":", 1)[1].split()
    if not names:
        raise InputError("empty generator list")
    relators = lines[1:]
    if not relators:
        alph = Alphabet.from_generators(names)
        return GroupPresentation(alph, "free", label=label or "free(file)")
    return small_cancellation_group(names, relators, label=label or "file")


def load_presentation(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read presentation file {path}: {exc}") from exc
    return parse_presentation(text, label=path)
