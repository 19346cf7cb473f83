/* Compiled S_1 search kernel.

   Mirror of _kernels_py.s1_exhaust: the same traversal, so the found mask,
   the exhausted flag and the node count agree with the pure twin bit for
   bit. A subset of Z/p is a mask of L = ceil(p/64) 64-bit limbs, least
   significant limb first; one code path serves every L up to MAX_LIMBS.
   The visited table is open addressing with linear probing. A slot whose
   low limb is 0 is empty: every reachable set contains {0, 1}. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define MAX_LIMBS 5 /* p <= 320 covers every appendix row (p <= 257) */
#define MIN_P 5
#define MAX_P (64 * MAX_LIMBS)
#define TABLE_START 1024 /* slots; the table doubles at 60% load */
#define STACK_START 256  /* masks; the stack doubles when full */

typedef uint64_t u64;

enum { NO_MEMORY = -1, NONE_FOUND = 0, FOUND = 1, OVER_BUDGET = 2 };

typedef struct {
    int p, L;
    u64 *keys;       /* cap * L limbs */
    size_t cap, used;
    u64 *stack;      /* scap * L limbs */
    size_t scap, sp;
} Search;

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

/* 1 if key is new (and now recorded), 0 if seen before. */
static int visit(Search *s, const u64 *key)
{
    int L = s->L;
    if ((s->used + 1) * 10 >= s->cap * 6) {
        size_t cap = s->cap * 2;
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
        u64 *grown = realloc(s->stack, 2 * s->scap * s->L * sizeof(u64));
        if (grown == NULL)
            return NO_MEMORY;
        s->stack = grown;
        s->scap *= 2;
    }
    memcpy(s->stack + s->sp++ * s->L, mask, s->L * sizeof(u64));
    return 0;
}

/* Rotate the p-bit word x by one place: up maps A to A + 1, down to A - 1.
   rotate_up leaves the bits it shifts past p - 1 in place; they only move
   further up, and the witness scan ANDs them with a rotate_down result,
   which has none. */
static void rotate_up(u64 *x, const Search *s)
{
    u64 carry = (x[s->L - 1] >> ((s->p - 1) & 63)) & 1;
    for (int i = 0; i < s->L; i++) {
        u64 out = x[i] >> 63;
        x[i] = (x[i] << 1) | carry;
        carry = out;
    }
}

static void rotate_down(u64 *x, const Search *s)
{
    u64 low = x[0] & 1;
    for (int i = 0; i + 1 < s->L; i++)
        x[i] = (x[i] >> 1) | (x[i + 1] << 63);
    x[s->L - 1] = (x[s->L - 1] >> 1) | (low << ((s->p - 1) & 63));
}

static int has(const u64 *a, int i) { return (a[i >> 6] >> (i & 63)) & 1; }

static int search(Search *s, int limit, long long budget, u64 *found,
                  long long *nodes)
{
    int p = s->p, L = s->L, half = (p - 1) / 2;
    size_t bytes = L * sizeof(u64);
    u64 a[MAX_LIMBS] = {3}, up[MAX_LIMBS], down[MAX_LIMBS], w[MAX_LIMBS];
    u64 child[MAX_LIMBS];

    if (visit(s, a) < 0 || push(s, a) < 0)
        return NO_MEMORY;
    while (s->sp > 0) {
        memcpy(a, s->stack + --s->sp * L, bytes);
        if (++*nodes > budget)
            return OVER_BUDGET;
        /* witness scan: w gathers the x of a with x - d and x + d in a */
        memcpy(up, a, bytes);
        memcpy(down, a, bytes);
        memset(w, 0, bytes);
        int covered = 0;
        for (int d = 1; d <= half && !covered; d++) {
            rotate_up(up, s);
            rotate_down(down, s);
            covered = 1;
            for (int i = 0; i < L; i++) {
                w[i] |= up[i] & down[i];
                if (a[i] & ~w[i])
                    covered = 0;
            }
        }
        if (covered) {
            memcpy(found, a, bytes);
            return FOUND;
        }
        /* repair the lowest uncovered element e with the pair e - d, e + d */
        int e = 0, size = 0;
        for (int i = L - 1; i >= 0; i--)
            if (a[i] & ~w[i])
                e = 64 * i + __builtin_ctzll(a[i] & ~w[i]);
        for (int i = 0; i < L; i++)
            size += __builtin_popcountll(a[i]);
        /* descending d, so that pops see ascending d like the pure twin;
           the children are distinct, so visit order among them is moot */
        for (int d = half; d >= 1; d--) {
            int lo = e - d < 0 ? e - d + p : e - d;
            int hi = e + d >= p ? e + d - p : e + d;
            if (size + !has(a, lo) + !has(a, hi) > limit)
                continue;
            memcpy(child, a, bytes);
            child[lo >> 6] |= 1ULL << (lo & 63);
            child[hi >> 6] |= 1ULL << (hi & 63);
            int fresh = visit(s, child);
            if (fresh < 0 || (fresh && push(s, child) < 0))
                return NO_MEMORY;
        }
    }
    return NONE_FOUND;
}

static PyObject *mask_to_int(const u64 *m, int L)
{
    char hex[16 * MAX_LIMBS + 1];
    for (int i = 0; i < L; i++)
        snprintf(hex + 16 * i, 17, "%016llx", (unsigned long long)m[L - 1 - i]);
    return PyLong_FromString(hex, NULL, 16);
}

static PyObject *s1_exhaust(PyObject *self, PyObject *args)
{
    int p, overflow;
    Py_ssize_t limit;
    PyObject *budget_obj;
    if (!PyArg_ParseTuple(args, "inO:s1_exhaust", &p, &limit, &budget_obj))
        return NULL;
    if (p < MIN_P || p > MAX_P)
        return PyErr_Format(PyExc_ValueError,
                            "compiled kernel supports %d <= p <= %d", MIN_P, MAX_P);
    long long budget = PyLong_AsLongLongAndOverflow(budget_obj, &overflow);
    if (budget == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        budget = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    if (limit < 2)
        return Py_BuildValue("(iOi)", 0, Py_True, 0);

    Search s = {p, (p + 63) / 64, NULL, TABLE_START, 0, NULL, STACK_START, 0};
    s.keys = calloc(s.cap * s.L, sizeof(u64));
    s.stack = malloc(s.scap * s.L * sizeof(u64));
    u64 found[MAX_LIMBS] = {0};
    long long nodes = 0;
    int status = NO_MEMORY;
    if (s.keys != NULL && s.stack != NULL) {
        Py_BEGIN_ALLOW_THREADS
        status = search(&s, limit > p ? p : (int)limit, budget, found, &nodes);
        Py_END_ALLOW_THREADS
    }
    free(s.keys);
    free(s.stack);
    if (status == NO_MEMORY)
        return PyErr_NoMemory();
    return Py_BuildValue("(NOL)", mask_to_int(found, s.L),
                         status == OVER_BUDGET ? Py_False : Py_True, nodes);
}

static PyMethodDef methods[] = {
    {"s1_exhaust", s1_exhaust, METH_VARARGS,
     "s1_exhaust(p, limit, node_budget) -> (found_mask, exhausted, nodes)\n\n"
     "Same contract and traversal as ajtkit._kernels_py.s1_exhaust."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled S_1 search kernel; see ajtkit._kernels_py for the pure twin.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module); }
