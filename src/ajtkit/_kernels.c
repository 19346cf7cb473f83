/* Compiled kernels: the S_1 search, the log S_1 construction, the
   first-hit progression scan, the affine product of reduced polynomials,
   the sweep's group-ring products and the witness search. The module
   exports these six kernels and API, nothing else.

   Inside, a subset of Z/p is a mask of L = ceil(p/64) 64-bit limbs, least
   significant limb first, allocated per call, so one code path serves every
   p. Masks cross the Python boundary, both ways, as ints, bit i for
   residue i, copied straight into and out of the limbs (read_mask,
   mask_int).

   s1_exhaust mirrors _kernels_py.s1_exhaust and takes any p >= 5: the same
   traversal, so the found mask, the exhausted flag and the node count agree
   with the pure twin bit for bit. The visited table is open addressing with
   linear probing. A slot whose low limb is 0 is empty: every reachable set
   contains {0, 1}. Each node finds the element it repairs with the scan's
   own window code. The table's slots and the stack's masks, L limbs each,
   are capped at a number of words: the search stops before its first
   node when the first table and stack pass it, and at the visit or push
   that would grow either past it, where the pure twin, which counts the
   same slots and masks, stops too.

   s1_log mirrors _kernels_py.s1_log: the 2 bitlen(s) + 2 bits of the
   logarithmic construction, set in a zeroed mask.

   first_hit_scan mirrors _kernels_py.first_hit_scan, for any p >= 3 and
   1 <= k <= (p - 1)/2, with the same hits in the same order by another
   method. A centered scan asks, for each a in A, the least d with a + i*d
   in A for 0 < |i| <= k; a forward scan asks, for each b outside A, the
   least d with b + i*d in A for 1 <= i <= k. The pure twin rotates the
   mask; this one visits the elements e in ascending order and reads the
   candidates d with e + d in A off 64-bit windows of the doubled mask,
   ANDed, centered, with windows of its mirror, which keep those with e - d
   in A too. The forward scan at k = 1 fills each gap below an element as
   one run. Asked for them, the scan returns its hits (struct Hits) as one
   bytes buffer of int32, the elements and then their steps, and it stops
   at the first element left without a witness, which it returns in place
   of the hits.

   affine_product mirrors _kernels_py.affine_product: a reduced polynomial
   over F_p in n variables, held as its p^n int64 coefficients, times a list
   of affine factors c0 + c1 x_1 + ... + cn x_n, reduced by x_j^p = x_j.

   products_vanish mirrors _kernels_py.products_vanish: for each of a stack
   of matrices that share n - 1 head rows and differ in their last row,
   whether prod (1 - g^(e_i)) * prod (1 - g^(a_i)) over Z[(Z/p)^n] is zero,
   and zero mod p. The shared factors are applied as t <- t - roll(t, v)
   to p^n int64 entries; each last row's factor is read off t one entry at
   a time, up to the first entry that decides both answers.

   first_witness mirrors _kernels_py.first_witness: for each instance, the
   first x in depth-first order, coordinates by ascending slack and values
   in the order given, with no image <row, x> in its row's forbidden mask.
   The same nodes in the same order, so the same witness and units; the
   running row sums live in one int64 array, updated and taken back as a
   value is tried and left, and the shared rows are laid out by position
   once for a whole batch.
   API names this contract; ajtkit.kernels refuses an extension built from
   another. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define API 12           /* bumped whenever a kernel's signature or result changes */
#define TABLE_START 1024 /* slots; the table doubles at 60% load */
#define STACK_START 256  /* masks; the stack doubles when full */

typedef uint64_t u64;

enum { TABLE_FULL = -2, NO_MEMORY = -1, NONE_FOUND = 0, FOUND = 1, OVER_BUDGET = 2 };

typedef struct {
    int p, L;
    u64 *keys;       /* cap * L limbs */
    size_t cap, used;
    u64 *stack;      /* scap * L limbs */
    size_t scap, sp;
    size_t masks;    /* the cap on cap + scap: the cap in words over L */
} Search;

/* 1 if a table of cap slots and a stack of scap masks fit the cap. */
static int fits(const Search *s, size_t cap, size_t scap) { return cap + scap <= s->masks; }

static u64 mix64(u64 z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* The slot holding key, or the empty slot where it belongs. */
static u64 *probe(u64 *keys, size_t cap, int L, const u64 *key)
{
    u64 h = 0;
    for (int i = 0; i < L; i++)
        h = mix64(h ^ key[i]);
    for (size_t i = h & (cap - 1);; i = (i + 1) & (cap - 1)) {
        u64 *slot = keys + i * L;
        if (slot[0] == 0 || memcmp(slot, key, L * sizeof(u64)) == 0)
            return slot;
    }
}

/* 1 if key is new (and now recorded), 0 if seen before, TABLE_FULL when
   the table must grow past the cap first. */
static int visit(Search *s, const u64 *key)
{
    int L = s->L;
    if ((s->used + 1) * 10 >= s->cap * 6) {
        size_t cap = s->cap * 2;
        if (!fits(s, cap, s->scap))
            return TABLE_FULL;
        u64 *fresh = calloc(cap * L, sizeof(u64));
        if (fresh == NULL)
            return NO_MEMORY;
        for (size_t i = 0; i < s->cap; i++) {
            const u64 *k = s->keys + i * L;
            if (k[0])
                memcpy(probe(fresh, cap, L, k), k, L * sizeof(u64));
        }
        free(s->keys);
        s->keys = fresh;
        s->cap = cap;
    }
    u64 *slot = probe(s->keys, s->cap, L, key);
    if (slot[0])
        return 0;
    memcpy(slot, key, L * sizeof(u64));
    s->used++;
    return 1;
}

static int push(Search *s, const u64 *mask)
{
    if (s->sp == s->scap) {
        if (!fits(s, s->cap, 2 * s->scap))
            return TABLE_FULL;
        u64 *grown = realloc(s->stack, 2 * s->scap * s->L * sizeof(u64));
        if (grown == NULL)
            return NO_MEMORY;
        s->stack = grown;
        s->scap *= 2;
    }
    memcpy(s->stack + s->sp++ * s->L, mask, s->L * sizeof(u64));
    return 0;
}

static int has(const u64 *a, int i) { return (a[i >> 6] >> (i & 63)) & 1; }

/* The 64 bits of the doubled mask D = A | A << p from bit `bit` on: limb i
   of the translate A - s is the window from bit 64 * i + s. */
static u64 window(const u64 *D, size_t bit)
{
    size_t q = bit >> 6;
    int r = bit & 63;
    return r ? (D[q] >> r) | (D[q + 1] << (64 - r)) : D[q];
}

/* Limbs of a doubled mask: 2p bits and one spare limb for window's read
   past the end. */
static size_t doubled_limbs(int p) { return (2 * (size_t)p + 63) / 64 + 1; }

/* x with its 64 bits in reverse order. */
static u64 reverse_bits(u64 x)
{
    x = (x >> 1 & 0x5555555555555555ULL) | (x & 0x5555555555555555ULL) << 1;
    x = (x >> 2 & 0x3333333333333333ULL) | (x & 0x3333333333333333ULL) << 2;
    x = (x >> 4 & 0x0F0F0F0F0F0F0F0FULL) | (x & 0x0F0F0F0F0F0F0F0FULL) << 4;
    return __builtin_bswap64(x);
}

/* The doubled mask D = A | A << p of the n-limb mask a, in O(n). */
static void double_mask(const u64 *a, int n, int p, u64 *D)
{
    int q = p >> 6, r = p & 63;
    memcpy(D, a, n * sizeof(u64));
    memset(D + n, 0, (doubled_limbs(p) - n) * sizeof(u64));
    for (int i = 0; i < n; i++) {
        D[i + q] |= a[i] << r;
        if (r)
            D[i + q + 1] |= a[i] >> (64 - r);
    }
}

/* The mirror M of the doubled mask D, a doubled mask too: bit j of M is
   bit 2p - 1 - j of D, so bit p - e + j says e - j - 1 is in A. */
static void mirror_mask(const u64 *D, int p, u64 *M)
{
    /* D reversed as 64 m bits holds bit 2p - 1 - j of D at bit j + 64 m - 2p */
    int m = (int)doubled_limbs(p) - 1, shift = 64 * m - 2 * p;
    for (int i = 0; i < m; i++)
        M[i] = reverse_bits(D[m - 1 - i]);
    M[m] = 0;
    for (int i = 0; i < m && shift; i++)
        M[i] = M[i] >> shift | M[i + 1] << (64 - shift);
}

/* The hits a scan returns: one bytes buffer of 2 count int32, count the
   elements it asks about, allocated once and filled as they are found, the
   elements in ascending order and then their steps, 8 bytes a hit. buf is
   NULL when none are asked for. */
typedef struct {
    PyObject *buf;
    int32_t *at;
    Py_ssize_t count, filled;
} Hits;

static void hits_add(Hits *h, int e, int d)
{
    if (h->buf == NULL)
        return;
    h->at[h->filled] = e;
    h->at[h->count + h->filled++] = d;
}

/* 1 if e + i*d lies in A for every 2 <= i <= k, and e - i*d too when
   centered: bits e + id and e + p - id of the doubled mask D, id = i*d mod p. */
static int covers(const u64 *D, int e, int d, int k, int p, int centered)
{
    for (int i = 2, id = d; i <= k; i++) {
        id = id >= p - d ? id - (p - d) : id + d;
        if (!has(D, e + id) || (centered && !has(D, e + p - id)))
            return 0;
    }
    return 1;
}

/* e's least witness d, or 0 for none: d <= (p - 1)/2 for a centered scan
   (M given), d <= p - 1 for a forward one (M NULL). Bit j of the window of
   D from bit e + 1 + t says e + t + j + 1 is in A, and bit j of the window
   of M from bit p - e + t says e - t - j - 1 is; their AND, or the first
   alone when forward, lists the candidates d = t + j + 1, 64 at a time,
   and only the steps 2 <= |i| <= k are left to test. */
static int least_witness(const u64 *D, const u64 *M, int e, int p, int k)
{
    int last = M ? (p - 1) / 2 : p - 1;
    for (int t = 0; t < last; t += 64) {
        u64 cand = window(D, e + 1 + (size_t)t);
        if (M)
            cand &= window(M, p - e + (size_t)t);
        if (last - t < 64)
            cand &= (1ULL << (last - t)) - 1;
        for (; cand; cand &= cand - 1) {
            int d = t + __builtin_ctzll(cand) + 1;
            if (covers(D, e, d, k, p, M != NULL))
                return d;
        }
    }
    return 0;
}

/* The scan of the n-limb mask a, with two doubled masks of scratch: the
   elements it asks about, A centered or its complement forward, ascending,
   each hit added to h as found. Returns the first element left without a
   witness, where it stops, or -1 for none. The cost is O(n) for the doubled
   mask and, centered, its mirror, then ceil(d_e / 64) windows an element e
   of witness d_e, or the whole range for one without. */
static int scan_elements(const u64 *a, int n, int p, int k, int forward, u64 *scratch,
                         Hits *h)
{
    u64 *D = scratch, *M = forward ? NULL : D + doubled_limbs(p);
    double_mask(a, n, p, D);
    if (M)
        mirror_mask(D, p, M);
    for (int i = 0; i < n; i++) {
        u64 w = forward ? ~a[i] : a[i];
        if (i == n - 1 && p & 63)
            w &= (1ULL << (p & 63)) - 1;
        for (; w; w &= w - 1) {
            int e = 64 * i + __builtin_ctzll(w);
            int d = least_witness(D, M, e, p, k);
            if (!d)
                return e;
            hits_add(h, e, d);
        }
    }
    return -1;
}

/* The forward hits at k = 1 of the nonempty n-limb mask a, into the buffer
   of h: each b outside A at its distance to the next element of A,
   cyclically. One pass over A's elements, ascending, fills the gap below
   each as one run, and the last gap wraps to the first element. */
static void gap_hits(const u64 *a, int n, int p, Hits *h)
{
    int32_t *at = h->at, *step = h->at + h->count;
    int first = -1, b = 0;
    for (int i = 0; i < n; i++)
        for (u64 w = a[i]; w; w &= w - 1) {
            int e = 64 * i + __builtin_ctzll(w);
            first = first < 0 ? e : first;
            for (; b < e; b++)
                *at++ = b, *step++ = e - b;
            b = e + 1;
        }
    for (; b < p; b++)
        *at++ = b, *step++ = first + p - b;
}

/* found is 3 L zeroed limbs, the found mask, the node and a child, then
   the scan's scratch. */
static int search(Search *s, int limit, long long budget, u64 *found,
                  long long *nodes)
{
    int p = s->p, L = s->L, half = (p - 1) / 2;
    size_t bytes = L * sizeof(u64);
    u64 *a = found + L, *child = a + L, *scratch = child + L;
    Hits none = {NULL, NULL, 0, 0};

    a[0] = 3;
    if (visit(s, a) < 0 || push(s, a) < 0)
        return NO_MEMORY;
    while (s->sp > 0) {
        memcpy(a, s->stack + --s->sp * L, bytes);
        if (++*nodes > budget)
            return OVER_BUDGET;
        /* the least element without a centered witness, by the scan's code */
        int e = scan_elements(a, L, p, 1, 0, scratch, &none);
        if (e < 0) {
            memcpy(found, a, bytes);
            return FOUND;
        }
        /* repair it with the pair e - d, e + d */
        int size = 0;
        for (int i = 0; i < L; i++)
            size += __builtin_popcountll(a[i]);
        /* descending d, so that pops see ascending d and the visits and
           pushes come in the pure twin's order, which fixes where a cap on
           words stops both */
        for (int d = half; d >= 1; d--) {
            int lo = e - d < 0 ? e - d + p : e - d;
            int hi = e + d >= p ? e + d - p : e + d;
            if (size + !has(a, lo) + !has(a, hi) > limit)
                continue;
            memcpy(child, a, bytes);
            child[lo >> 6] |= 1ULL << (lo & 63);
            child[hi >> 6] |= 1ULL << (hi & 63);
            int fresh = visit(s, child);
            if (fresh < 0 || (fresh && (fresh = push(s, child)) < 0))
                return fresh;
        }
    }
    return NONE_FOUND;
}

/* The int obj as the n-limb mask of a subset of Z/p in out, or -1 with
   ValueError set when it is negative or has a bit at or above p. */
static int read_mask(PyObject *obj, int p, u64 *out, int n)
{
    /* Python 3.13 gave _PyLong_AsByteArray a sixth argument, with_exceptions */
#if PY_VERSION_HEX >= 0x030D0000
    int status = _PyLong_AsByteArray((PyLongObject *)obj, (unsigned char *)out,
                                     n * sizeof(u64), 1, 0, 1);
#else
    int status = _PyLong_AsByteArray((PyLongObject *)obj, (unsigned char *)out,
                                     n * sizeof(u64), 1, 0);
#endif
    /* unsigned, so a negative int and one past n limbs are OverflowErrors */
    if (status < 0 && !PyErr_ExceptionMatches(PyExc_OverflowError))
        return -1;
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    for (int i = 0; status == 0 && i < n; i++)
        out[i] = __builtin_bswap64(out[i]);
#endif
    int top = p - 64 * (n - 1); /* the last limb's bits below p */
    if (status < 0 || (top < 64 && out[n - 1] >> top)) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "mask has bits at or above p = %d", p);
        return -1;
    }
    return 0;
}

/* The n-limb mask m as an int, 0 for NULL; m is reordered in place on a
   big-endian host. */
static PyObject *mask_int(u64 *m, int n)
{
    if (m == NULL)
        return PyLong_FromLong(0);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    for (int i = 0; i < n; i++)
        m[i] = __builtin_bswap64(m[i]);
#endif
    return _PyLong_FromByteArray((const unsigned char *)m, n * sizeof(u64), 1, 0);
}

/* The long long value of an int, clamped to [lo, LLONG_MAX]; -1 with an
   exception set when obj is not an int. */
static int clamped_ll(PyObject *obj, long long lo, long long *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow)
        v = overflow > 0 ? LLONG_MAX : lo;
    *out = v < lo ? lo : v;
    return 0;
}

static PyObject *s1_exhaust(PyObject *self, PyObject *args)
{
    int p;
    Py_ssize_t limit;
    PyObject *budget_obj, *words_obj;
    long long budget, words;
    if (!PyArg_ParseTuple(args, "inOO:s1_exhaust", &p, &limit, &budget_obj, &words_obj))
        return NULL;
    if (p < 5)
        return PyErr_Format(PyExc_ValueError, "s1_exhaust needs p >= 5, got %d", p);
    if (clamped_ll(budget_obj, LLONG_MIN, &budget) < 0 || clamped_ll(words_obj, 0, &words) < 0)
        return NULL;

    int L = (int)(((size_t)p + 63) / 64);
    Search s = {p, L, NULL, TABLE_START, 0, NULL, STACK_START, 0, (size_t)words / L};
    u64 *found = NULL;
    long long nodes = 0;
    int status = limit < 2 ? NONE_FOUND : fits(&s, s.cap, s.scap) ? NO_MEMORY : TABLE_FULL;
    if (status == NO_MEMORY) {
        s.keys = calloc(s.cap * s.L, sizeof(u64));
        s.stack = malloc(s.scap * s.L * sizeof(u64));
        found = calloc(3 * (size_t)s.L + 2 * doubled_limbs(p), sizeof(u64));
        if (s.keys != NULL && s.stack != NULL && found != NULL) {
            Py_BEGIN_ALLOW_THREADS
            status = search(&s, (int)(limit > p ? p : limit), budget, found, &nodes);
            Py_END_ALLOW_THREADS
        }
    }
    PyObject *result = status == NO_MEMORY
        ? PyErr_NoMemory()
        : Py_BuildValue("(NOLO)", mask_int(status == FOUND ? found : NULL, L),
                        status == OVER_BUDGET || status == TABLE_FULL ? Py_False : Py_True,
                        nodes, status == TABLE_FULL ? Py_True : Py_False);
    free(s.keys);
    free(s.stack);
    free(found);
    return result;
}

/* s1_log(p) -> the mask of the log construction at p >= 5 as an int:
   0, (p - 1)/2 and the chain s, s >> 1, ..., 1 with the negative of each,
   s = (p - 1)/4 for p = 1 mod 4 and (p + 1)/4 for p = 3 mod 4. */
static PyObject *s1_log(PyObject *self, PyObject *arg)
{
    long p = PyLong_AsLong(arg);
    if (p == -1 && PyErr_Occurred())
        return NULL;
    if (p < 5 || p > INT_MAX)
        return PyErr_Format(PyExc_ValueError, "s1_log needs 5 <= p < 2^31, got %ld", p);
    int L = (int)((p + 63) / 64);
    u64 *m = calloc(L, sizeof(u64));
    if (m == NULL)
        return PyErr_NoMemory();
    long s = p % 4 == 1 ? (p - 1) / 4 : (p + 1) / 4, half = (p - 1) / 2;
    m[0] = 1;
    m[half >> 6] |= 1ULL << (half & 63);
    for (long c = s; c; c >>= 1) {
        m[c >> 6] |= 1ULL << (c & 63);
        m[(p - c) >> 6] |= 1ULL << ((p - c) & 63);
    }
    PyObject *result = mask_int(m, L);
    free(m);
    return result;
}

/* first_hit_scan(mask, p, k, forward, hits) -> (hits or None, the least
   element left without a witness or None). A centered scan targets A
   itself, a forward one the complement of A. The hits, when asked for and
   every target has a witness, are a bytes buffer of 2 count int32: the
   count targets ascending, then their steps. A forward scan at k = 1 hits
   every b outside A, at its distance to the next element, unless A is
   empty, which leaves 0; it answers in one pass over A (gap_hits), and
   asked for no hits from whether A is empty, in O(L). */
static PyObject *first_hit_scan(PyObject *self, PyObject *args)
{
    PyObject *mask;
    int p, k, forward, want;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "O!iipp:first_hit_scan", &PyLong_Type, &mask, &p, &k,
                          &forward, &want))
        return NULL;
    Hits h = {NULL, NULL, 0, 0};
    u64 *a = NULL;
    if (p < 3 || k < 1 || k > (p - 1) / 2) {
        PyErr_Format(PyExc_ValueError, "scans need p >= 3 and 2k + 1 <= p, got p = %d, "
                     "k = %d", p, k);
        goto done;
    }
    int n = (int)(((size_t)p + 63) / 64);
    /* A, then the scan's scratch */
    a = malloc((n + 2 * doubled_limbs(p)) * sizeof(u64));
    if (a == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_mask(mask, p, a, n) < 0)
        goto done;
    int size = 0;
    for (int i = 0; i < n; i++)
        size += __builtin_popcountll(a[i]);
    h.count = forward ? p - size : size;
    if (want) {
        h.buf = PyBytes_FromStringAndSize(NULL, 2 * h.count * (Py_ssize_t)sizeof(int32_t));
        if (h.buf == NULL)
            goto done;
        h.at = (int32_t *)PyBytes_AS_STRING(h.buf);
    }
    int least;
    if (forward && k == 1) {
        least = size ? -1 : 0;
        if (size && want)
            gap_hits(a, n, p, &h);
    } else {
        least = scan_elements(a, n, p, k, forward, a + n, &h);
    }
    if (least >= 0)
        Py_CLEAR(h.buf);
    PyObject *hits = h.buf ? h.buf : Py_None;
    result = least < 0 ? Py_BuildValue("(OO)", hits, Py_None)
                       : Py_BuildValue("(Oi)", hits, least);
done:
    Py_XDECREF(h.buf);
    free(a);
    return result;
}

/* Multiply the p^n coefficients in src by c0 + sum_j c[j] x_j into dst,
   unreduced. Axis j has stride s = p^(n-1-j); in each block of p slots
   along it, x_j sends slot t to t + 1 for 1 <= t <= p - 2, and both 0 and
   p - 1 to 1 (x_j^p = x_j): target slots 2..p-1 read the one contiguous
   run of sources 1..p-2, slot 1 reads sources 0 and p - 1, slot 0 gets
   nothing. */
static void affine_step(const int64_t *restrict src, int64_t *restrict dst,
                        size_t size, long long p, int n, const long long *c)
{
    if (c[0])
        for (size_t i = 0; i < size; i++)
            dst[i] = c[0] * src[i];
    else
        memset(dst, 0, size * sizeof(int64_t));
    size_t s = size;
    for (int j = 0; j < n; j++) {
        s /= (size_t)p;
        int64_t cj = c[j + 1];
        if (cj == 0)
            continue;
        size_t block = (size_t)p * s, run = (size_t)(p - 2) * s;
        for (size_t o = 0; o < size; o += block) {
            const int64_t *restrict from = src + o;
            int64_t *restrict to = dst + o;
            for (size_t i = 0; i < run; i++)
                to[2 * s + i] += cj * from[s + i];
            for (size_t i = 0; i < s; i++)
                to[s + i] += cj * (from[i] + from[block - s + i]);
        }
    }
}

/* affine_product(tensor, p, n, factors) -> bytearray of the p^n product
   coefficients as int64, each in [0, p). The input is reduced into [0, p)
   as it is copied in; then each factor maps one buffer into the other.
   Entries stay nonnegative and below an exact bound B: a factor of weight
   w = c0 + 2 * sum c_j at most multiplies B by w (slot 1 takes two
   sources), so the entries are reduced mod p only when B * w could pass
   INT64_MAX, and once at the end. p, the factors and the tensor's length
   are all checked before the tensor is read. */
static PyObject *affine_product(PyObject *self, PyObject *args)
{
    Py_buffer buf;
    long long p;
    int n;
    PyObject *factors_obj, *factors = NULL, *result = NULL;
    long long *coef = NULL;
    int64_t *spare = NULL;
    if (!PyArg_ParseTuple(args, "y*LiO:affine_product", &buf, &p, &n, &factors_obj))
        return NULL;
    if (p < 2 || n < 0) {
        PyErr_Format(PyExc_ValueError, "affine_product needs p >= 2 and n >= 0, "
                     "got p = %lld, n = %d", p, n);
        goto done;
    }
    /* a reduced entry, at most p - 1, times the heaviest factor's weight,
       (2n + 1)(p - 1), must fit in int64 */
    if (p - 1 > LLONG_MAX / (2 * (long long)n + 1) / (p - 1)) {
        PyErr_Format(PyExc_ValueError, "(2n + 1)(p - 1)^2 overflows int64 at "
                     "p = %lld, n = %d", p, n);
        goto done;
    }
    factors = PySequence_Fast(factors_obj, "factors must be a sequence");
    if (factors == NULL)
        goto done;
    Py_ssize_t k = PySequence_Fast_GET_SIZE(factors), width = (Py_ssize_t)n + 1;
    coef = malloc((k * width + 1) * sizeof(long long));
    if (coef == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t f = 0; f < k; f++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(factors, f),
                                        "each factor must be a sequence");
        if (row == NULL)
            goto done;
        int ok = PySequence_Fast_GET_SIZE(row) == width;
        if (!ok)
            PyErr_Format(PyExc_ValueError, "each factor needs n + 1 = %zd "
                         "coefficients", width);
        for (Py_ssize_t j = 0; ok && j < width; j++) {
            int overflow;
            long long c = PyLong_AsLongLongAndOverflow(
                PySequence_Fast_GET_ITEM(row, j), &overflow);
            if (c == -1 && PyErr_Occurred())
                ok = 0;
            else if (overflow || c < 0 || c >= p) {
                PyErr_Format(PyExc_ValueError, "factor coefficients must lie in "
                             "[0, p) for p = %lld", p);
                ok = 0;
            }
            coef[f * width + j] = c;
        }
        Py_DECREF(row);
        if (!ok)
            goto done;
    }
    size_t size = 1, most = PY_SSIZE_T_MAX / sizeof(int64_t);
    for (int j = 0; j < n && size; j++)
        size = (size_t)p <= most / size ? size * (size_t)p : 0; /* 0: too large */
    if (size == 0 || buf.len != (Py_ssize_t)(size * sizeof(int64_t))) {
        PyErr_Format(PyExc_ValueError, "tensor must hold p^n int64 entries for "
                     "p = %lld, n = %d, got %zd bytes", p, n, buf.len);
        goto done;
    }
    result = PyByteArray_FromStringAndSize(NULL, size * sizeof(int64_t));
    spare = malloc(size * sizeof(int64_t));
    if (result == NULL || spare == NULL) {
        if (result != NULL)
            PyErr_NoMemory();
        Py_CLEAR(result);
        goto done;
    }
    int64_t *out = (int64_t *)PyByteArray_AS_STRING(result), *cur = out, *nxt = spare;
    const int64_t *in = buf.buf;
    Py_BEGIN_ALLOW_THREADS
    for (size_t i = 0; i < size; i++)
        cur[i] = (in[i] % p + p) % p;
    long long bound = p - 1;
    for (Py_ssize_t f = 0; f < k; f++) {
        const long long *c = coef + f * width;
        long long w = c[0];
        for (int j = 1; j <= n; j++)
            w += 2 * c[j];
        if (w > 0 && bound > LLONG_MAX / w) {
            for (size_t i = 0; i < size; i++)
                cur[i] %= p;
            bound = p - 1;
        }
        affine_step(cur, nxt, size, p, n, c);
        bound *= w;
        int64_t *t = cur;
        cur = nxt;
        nxt = t;
    }
    for (size_t i = 0; i < size; i++)
        out[i] = cur[i] % p;
    Py_END_ALLOW_THREADS
done:
    Py_XDECREF(factors);
    free(coef);
    free(spare);
    PyBuffer_Release(&buf);
    return result;
}

/* The rows of t - roll(t, v) for a table t of p^n int64 entries,
   row-major: entry i is t[i] - t[i - v], the index taken mod p along each
   axis, with every shift v[a] in [0, p). Along the last axis a row is two
   contiguous runs: its first v[n-1] slots read the end of the source row,
   the others its start. The source row sits at the row's outer digits
   minus v; an odometer over the n - 1 outer axes steps both, the row's
   digits in place[] and the source's in digit[], with the source row's
   offset in from. */
typedef struct {
    int p, n, place[31], digit[31];
    size_t stride[31], from;
} Rows;

static void rows_start(Rows *r, int p, int n, const int *v)
{
    size_t s = (size_t)p;
    r->p = p;
    r->n = n;
    r->from = 0;
    for (int a = n - 2; a >= 0; a--, s *= (size_t)p) {
        r->stride[a] = s;
        r->place[a] = 0;
        r->digit[a] = v[a] ? p - v[a] : 0;
        r->from += (size_t)r->digit[a] * s;
    }
}

static void rows_next(Rows *r)
{
    for (int a = r->n - 2; a >= 0; a--) {
        r->from += r->stride[a];
        if (++r->digit[a] == r->p) {
            r->digit[a] = 0;
            r->from -= (size_t)r->p * r->stride[a];
        }
        if (++r->place[a] < r->p)
            break;
        r->place[a] = 0;
    }
}

/* dst = src - roll(src, v), row by row. */
static void roll_sub(const int64_t *restrict src, int64_t *restrict dst, size_t size,
                     int p, int n, const int *v)
{
    Rows r;
    int last = v[n - 1];
    rows_start(&r, p, n, v);
    for (size_t row = 0; row < size; row += (size_t)p, rows_next(&r)) {
        const int64_t *same = src + row, *back = src + r.from;
        int64_t *out = dst + row;
        for (int x = 0; x < last; x++)
            out[x] = same[x] - back[p - last + x];
        for (int x = last; x < p; x++)
            out[x] = same[x] - back[x - last];
    }
}

/* Whether t - roll(t, v) is zero (*zero) and zero mod p (*modp), its
   entries read in roll_sub's order and none written: the Z test stops at
   the first nonzero entry, and the mod p test goes on from there to the
   first entry nonzero mod p, which decides both. So the walk reads all
   p^n entries only when the product vanishes mod p. */
static void roll_sub_zero(const int64_t *t, size_t size, int p, int n, const int *v,
                          char *zero, char *modp)
{
    Rows r;
    int last = v[n - 1], z = 1;
    rows_start(&r, p, n, v);
    for (size_t row = 0; row < size; row += (size_t)p, rows_next(&r)) {
        const int64_t *same = t + row, *back = t + r.from;
        for (int x = 0; x < p; x++) {
            int64_t d = same[x] - back[x < last ? p - last + x : x - last];
            if (d != 0) {
                z = 0;
                if (d % p != 0) {
                    *zero = *modp = 0;
                    return;
                }
            }
        }
    }
    *zero = (char)z;
    *modp = 1;
}

/* The n entries of a row, reduced mod p into [0, p). */
static void read_shifts(const int64_t *row, int n, int p, int *v)
{
    for (int a = 0; a < n; a++) {
        int64_t r = row[a] % p;
        v[a] = (int)(r < 0 ? r + p : r);
    }
}

/* products_vanish(head, last, p, n) -> (int_zero, modp_zero), two
   bytearrays of B bytes, 1 where matrix b's product
   prod (1 - g^(e_i)) * prod (1 - g^(a_i)) is zero over Z, respectively
   mod p. The matrices share the n - 1 rows in `head` and matrix b ends in
   row b of `last`, all native int64, read mod p. The unit vectors and the
   head rows are applied once, to one table, and each last row's factor is
   then read off it entry by entry (roll_sub_zero), never written out, up
   to the entry that decides both flags. 2n factors keep every entry at
   most 2^(2n-1), so n <= 31 keeps int64 exact. p, n and the buffer lengths
   are checked before either buffer is read. */
static PyObject *products_vanish(PyObject *self, PyObject *args)
{
    Py_buffer head, last;
    int p, n;
    PyObject *zero = NULL, *modp = NULL, *result = NULL;
    int64_t *tables = NULL;
    if (!PyArg_ParseTuple(args, "y*y*ii:products_vanish", &head, &last, &p, &n))
        return NULL;
    if (p < 3 || n < 1 || n > 31) {
        PyErr_Format(PyExc_ValueError, "products_vanish needs p >= 3 and 1 <= n <= 31, "
                     "got p = %d, n = %d", p, n);
        goto done;
    }
    size_t size = 1, most = PY_SSIZE_T_MAX / (2 * sizeof(int64_t));
    for (int a = 0; a < n && size; a++)
        size = (size_t)p <= most / size ? size * (size_t)p : 0; /* 0: too large */
    Py_ssize_t row = n * (Py_ssize_t)sizeof(int64_t);
    if (size == 0 || head.len != (n - 1) * row || last.len % row) {
        PyErr_Format(PyExc_ValueError, "products_vanish needs p^n table entries, (n - 1) "
                     "* n head and B * n last int64 entries, got p = %d, n = %d, %zd and "
                     "%zd bytes", p, n, head.len, last.len);
        goto done;
    }
    Py_ssize_t count = last.len / row;
    zero = PyByteArray_FromStringAndSize(NULL, count);
    modp = PyByteArray_FromStringAndSize(NULL, count);
    tables = malloc(2 * size * sizeof(int64_t));
    if (zero == NULL || modp == NULL || tables == NULL) {
        if (tables == NULL)
            PyErr_NoMemory();
        goto done;
    }
    char *z = PyByteArray_AS_STRING(zero), *m = PyByteArray_AS_STRING(modp);
    const int64_t *heads = head.buf, *lasts = last.buf;
    Py_BEGIN_ALLOW_THREADS
    int v[31];
    int64_t *cur = tables, *nxt = tables + size;
    memset(cur, 0, size * sizeof(int64_t));
    cur[0] = 1;
    for (int f = 0; f < 2 * n - 1; f++) {
        if (f < n)
            for (int a = 0; a < n; a++)
                v[a] = a == f;
        else
            read_shifts(heads + (size_t)(f - n) * n, n, p, v);
        roll_sub(cur, nxt, size, p, n, v);
        int64_t *t = cur;
        cur = nxt;
        nxt = t;
    }
    for (Py_ssize_t b = 0; b < count; b++) {
        read_shifts(lasts + (size_t)b * n, n, p, v);
        roll_sub_zero(cur, size, p, n, v, z + b, m + b);
    }
    Py_END_ALLOW_THREADS
    result = PyTuple_Pack(2, zero, modp);
done:
    Py_XDECREF(zero);
    Py_XDECREF(modp);
    free(tables);
    PyBuffer_Release(&head);
    PyBuffer_Release(&last);
    return result;
}

/* The search's fixed part, all by position (coordinates in ascending-slack
   order): the values each position tries, in order, vals[vstart[i]..
   vstart[i+1]); the shared rows nonzero there with their entries, (trow,
   ta)[tstart[i]..tstart[i+1]]; and the shared rows whose last nonzero entry
   is there, drow[dstart[i]..dstart[i+1]]. A last row, when there is one, is
   row R, with its entries given per instance. */
typedef struct {
    long long p, n, R, width;   /* width: bytes a forbidden mask */
    const unsigned char *masks; /* one mask a row, the last row's at R */
    const long long *vstart, *vals, *tstart, *trow, *ta, *dstart, *drow;
} Plan;

static int banned(const Plan *w, long long r, long long s)
{
    return w->masks[r * w->width + (s >> 3)] >> (s & 7) & 1;
}

/* One instance's search: 1 with x (by position) filled when a witness is
   found, 0 when none is or the units pass cap, with *units those used.
   lastc[i] is the last row's entry at position i (NULL: no last row) and
   lastdue its last nonzero position. sums holds R + 1 zeros, tried n. */
static int witness_walk(const Plan *w, const long long *lastc, long long lastdue,
                        long long cap, long long *sums, long long *tried, long long *x,
                        long long *units)
{
    long long p = w->p, R = w->R, pos = 0;
    *units = 0;
    while (pos >= 0) {
        const long long *vals = w->vals + w->vstart[pos];
        long long i = tried[pos], t0 = w->tstart[pos], t1 = w->tstart[pos + 1];
        long long lc = lastc ? lastc[pos] : 0;
        if (i) {
            /* take back the value tried last at this position */
            long long back = p - vals[i - 1];
            for (long long t = t0; t < t1; t++)
                sums[w->trow[t]] = (sums[w->trow[t]] + w->ta[t] * back) % p;
            if (lc)
                sums[R] = (sums[R] + lc * back) % p;
        }
        if (i == w->vstart[pos + 1] - w->vstart[pos]) {
            pos--;
            continue;
        }
        tried[pos] = i + 1;
        *units += 1 + (t1 - t0) + (lc != 0);
        if (*units > cap)
            return 0;
        long long v = x[pos] = vals[i];
        for (long long t = t0; t < t1; t++)
            sums[w->trow[t]] = (sums[w->trow[t]] + w->ta[t] * v) % p;
        if (lc)
            sums[R] = (sums[R] + lc * v) % p;
        int ok = !(lastdue == pos && banned(w, R, sums[R]));
        for (long long d = w->dstart[pos]; ok && d < w->dstart[pos + 1]; d++)
            ok = !banned(w, w->drow[d], sums[w->drow[d]]);
        if (ok) {
            if (++pos == w->n)
                return 1;
            tried[pos] = 0;
        }
    }
    return 0;
}

/* The n entries of a row at the positions, reduced into [0, p), in out;
   returns its last nonzero position, -1 for a zero row. */
static long long read_row(const int64_t *row, const long long *coord, long long n,
                          long long p, long long *out)
{
    long long due = -1;
    for (long long i = 0; i < n; i++) {
        long long r = row[coord[i]] % p;
        if ((out[i] = r < 0 ? r + p : r))
            due = i;
    }
    return due;
}

/* first_witness(rows, last, forbidden, orders, p, cap) -> (found, witness,
   units): bytearrays of B bytes, 1 where instance b has a witness, of
   B * n int64, the witnesses (zeros for none), and of B int64, the units
   each instance used. The instances share the R rows in `rows` and, unless
   last is None, instance b has row b of `last` as well; all are native
   int64, read mod p. The shared rows are laid out by position once for the
   whole batch, and each instance reads only its last row. p, n, the buffer
   lengths and the values are checked before any row is read. */
static PyObject *first_witness(PyObject *self, PyObject *args)
{
    Py_buffer rows, forbidden, last = {0};
    PyObject *last_obj, *orders_obj, *cap_obj, *orders = NULL, *fast = NULL, *result = NULL;
    PyObject *found = NULL, *witness = NULL, *units = NULL;
    long long p, *pool = NULL;
    if (!PyArg_ParseTuple(args, "y*Oy*OLO:first_witness", &rows, &last_obj, &forbidden,
                          &orders_obj, &p, &cap_obj))
        return NULL;
    int has_last = last_obj != Py_None, overflow;
    if (has_last && PyObject_GetBuffer(last_obj, &last, PyBUF_SIMPLE) < 0)
        goto done;
    long long cap = PyLong_AsLongLongAndOverflow(cap_obj, &overflow);
    if (cap == -1 && PyErr_Occurred())
        goto done;
    if (overflow)
        cap = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    orders = PySequence_Fast(orders_obj, "orders must be a sequence");
    if (orders == NULL)
        goto done;
    long long n = PySequence_Fast_GET_SIZE(orders);
    if (p < 2 || p > INT_MAX || n < 1) {
        PyErr_Format(PyExc_ValueError, "first_witness needs 2 <= p < 2^31 and n >= 1, "
                     "got p = %lld, n = %lld", p, n);
        goto done;
    }
    Py_ssize_t row = n * (Py_ssize_t)sizeof(int64_t), width = (Py_ssize_t)((p + 7) / 8);
    long long R = rows.len / row, B = has_last ? last.len / row : 1, total = 0;
    if (rows.len % row || (has_last && last.len % row) ||
        forbidden.len != (R + has_last) * width) {
        PyErr_SetString(PyExc_ValueError, "need R * n row entries, B * n last entries "
                        "and one mask a row");
        goto done;
    }
    /* each value order as a list or tuple, held so its length stays put */
    if ((fast = PyList_New(n)) == NULL)
        goto done;
    for (long long c = 0; c < n; c++) {
        PyObject *order = PySequence_Fast(PySequence_Fast_GET_ITEM(orders, c),
                                          "each value order must be a sequence");
        if (order == NULL)
            goto done;
        PyList_SET_ITEM(fast, c, order);
        total += PySequence_Fast_GET_SIZE(order);
    }
    /* coord, lens, the plan's arrays, then per row its due position, and
       per instance sums, x, the last row's entries and tried */
    size_t count = 8 * (size_t)n + 4 + total + 2 * (size_t)(R * n) + 3 * (size_t)R;
    if ((pool = malloc(count * sizeof(long long))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    long long *coord = pool, *lens = coord + n, *vstart = lens + n, *vals = vstart + n + 1,
              *tstart = vals + total, *trow = tstart + n + 1, *ta = trow + R * n,
              *dstart = ta + R * n, *drow = dstart + n + 1, *due = drow + R,
              *sums = due + R, *x = sums + R + 1, *lastc = x + n, *tried = lastc + n;
    /* the positions: coordinates by ascending slack, then by index */
    for (long long c = 0; c < n; c++) {
        long long at = c;
        lens[c] = PySequence_Fast_GET_SIZE(PyList_GET_ITEM(fast, c));
        for (; at > 0 && lens[coord[at - 1]] > lens[c]; at--)
            coord[at] = coord[at - 1];
        coord[at] = c;
    }
    vstart[0] = 0;
    for (long long i = 0; i < n; i++) {
        PyObject *order = PyList_GET_ITEM(fast, coord[i]);
        vstart[i + 1] = vstart[i] + lens[coord[i]];
        for (long long j = 0; j < lens[coord[i]]; j++) {
            long long v = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(order, j),
                                                       &overflow);
            if (!(v == -1 && PyErr_Occurred()) && (overflow || v < 0 || v >= p))
                PyErr_Format(PyExc_ValueError, "values must lie in [0, p) for p = %lld", p);
            if (PyErr_Occurred())
                goto done;
            vals[vstart[i] + j] = v;
        }
    }
    found = PyByteArray_FromStringAndSize(NULL, B);
    witness = PyByteArray_FromStringAndSize(NULL, B * row);
    units = PyByteArray_FromStringAndSize(NULL, B * (Py_ssize_t)sizeof(int64_t));
    if (found == NULL || witness == NULL || units == NULL)
        goto done;
    char *f = PyByteArray_AS_STRING(found);
    int64_t *wit = (int64_t *)PyByteArray_AS_STRING(witness);
    int64_t *used = (int64_t *)PyByteArray_AS_STRING(units);
    const int64_t *shared = rows.buf, *lasts = last.buf;
    Plan w = {p, n, R, width, forbidden.buf, vstart, vals, tstart, trow, ta, dstart, drow};
    Py_BEGIN_ALLOW_THREADS
    memset(f, 0, B);
    memset(wit, 0, B * row);
    memset(used, 0, B * sizeof(int64_t));
    /* touch and due by counting: the rows nonzero and the rows due at each
       position are counted into tstart and dstart, summed into offsets and
       filled, row by row, with tried and lastc as the two cursors; x holds
       the row being read, by position, until the instances need it */
    int dead = 0;
    for (long long i = 0; i <= n; i++)
        tstart[i] = dstart[i] = 0;
    for (long long r = 0; r < R; r++) {
        due[r] = read_row(shared + r * n, coord, n, p, x);
        dead |= due[r] < 0 && banned(&w, r, 0);
        dstart[due[r] + 1] += due[r] >= 0;
        for (long long i = 0; i < n; i++)
            tstart[i + 1] += x[i] != 0;
    }
    for (long long i = 0; i < n; i++) {
        tstart[i + 1] += tstart[i];
        dstart[i + 1] += dstart[i];
        tried[i] = tstart[i];
        lastc[i] = dstart[i];
    }
    for (long long r = 0; r < R; r++) {
        read_row(shared + r * n, coord, n, p, x);
        for (long long i = 0; i < n; i++)
            if (x[i]) {
                trow[tried[i]] = r;
                ta[tried[i]++] = x[i];
            }
        if (due[r] >= 0)
            drow[lastc[due[r]]++] = r;
    }
    for (long long b = 0; b < B && !dead; b++) {
        long long lastdue = has_last ? read_row(lasts + b * n, coord, n, p, lastc) : -1;
        if (has_last && lastdue < 0 && banned(&w, R, 0))
            continue;
        memset(sums, 0, (R + 1) * sizeof(long long));
        memset(tried, 0, n * sizeof(long long));
        long long spent;
        if (witness_walk(&w, has_last ? lastc : NULL, lastdue, cap, sums, tried, x, &spent)) {
            f[b] = 1;
            for (long long i = 0; i < n; i++)
                wit[b * n + coord[i]] = x[i];
        }
        used[b] = spent;
        if (spent > cap)
            break;
    }
    Py_END_ALLOW_THREADS
    result = PyTuple_Pack(3, found, witness, units);
done:
    Py_XDECREF(orders);
    Py_XDECREF(fast);
    Py_XDECREF(found);
    Py_XDECREF(witness);
    Py_XDECREF(units);
    free(pool);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&forbidden);
    PyBuffer_Release(&last);
    return result;
}

static PyMethodDef methods[] = {
    {"s1_exhaust", s1_exhaust, METH_VARARGS,
     "s1_exhaust(p, limit, node_budget, words) -> (found_mask, exhausted, nodes, full)\n\n"
     "Same contract and traversal as ajtkit._kernels_py.s1_exhaust: the\n"
     "found mask is an int, 0 when none was found."},
    {"s1_log", s1_log, METH_O,
     "s1_log(p) -> mask\n\n"
     "Same contract as ajtkit._kernels_py.s1_log: the log S_1 construction\n"
     "at p >= 5 as an int mask."},
    {"first_hit_scan", first_hit_scan, METH_VARARGS,
     "first_hit_scan(mask, p, k, forward, hits) -> (hits, least)\n\n"
     "Same contract as ajtkit._kernels_py.first_hit_scan, with the mask an\n"
     "int: TypeError for any other type."},
    {"affine_product", affine_product, METH_VARARGS,
     "affine_product(tensor, p, n, factors) -> bytearray\n\n"
     "Same contract as ajtkit._kernels_py.affine_product, with the tensor\n"
     "read from and returned as p^n native int64 entries."},
    {"products_vanish", products_vanish, METH_VARARGS,
     "products_vanish(head, last, p, n) -> (int_zero, modp_zero)\n\n"
     "Same contract as ajtkit._kernels_py.products_vanish, with the rows read\n"
     "from native int64 buffers and the flags returned as two bytearrays of\n"
     "B bytes, 1 for zero."},
    {"first_witness", first_witness, METH_VARARGS,
     "first_witness(rows, last, forbidden, orders, p, cap) -> (found, witness, units)\n\n"
     "Same contract and traversal as ajtkit._kernels_py.first_witness, with the\n"
     "rows read from native int64 buffers and the results returned as\n"
     "bytearrays of B bytes, B * n int64 and B int64."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled S_1 search, the log S_1 construction, the first-hit\n"
    "scan, the affine product of reduced polynomials, the sweep's group-ring\n"
    "products and the witness search; see ajtkit._kernels_py for the pure twins.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "API", API) < 0)
        Py_CLEAR(m);
    return m;
}
