/* Native core loop for compiled traces.
 *
 * A 1:1 translation of the event sequence of MCDCore._run_generator,
 * the Python reference loop: same edge selection, same regulator
 * calls, same jitter-stream consumption, same floating-point
 * accumulation order.  All arithmetic is IEEE double
 * precision; the build disables FP contraction (-ffp-contract=off) so
 * a*b+c rounds exactly as CPython rounds it.
 *
 * State crosses the boundary once per run: compiled-trace columns come
 * in as int64 buffers, and the loop allocates the per-run caches,
 * predictor tables and BTB itself as flat arrays, initialised exactly
 * as CacheHierarchy and CombiningBranchPredictor initialise theirs.
 * Their contents never cross back (only their hit/miss counters do).
 * When the argument dict asks for a warm-up, the loop first replays the
 * trace's head through those tables — MCDCore.warm_up's replay — with
 * the same access helpers the event loop calls, so the two cannot
 * drift.  A stock
 * Attack/Decay controller (paper Listing 1, plus the regulator's
 * request quantisation) is marshalled into flat registers and run
 * inline at each interval rollover — the closed-loop run then makes
 * zero per-interval Python crossings.  Custom controllers and interval
 * recording fall back to the per-interval `rollover` Python callback.
 * Likewise a stock GaussianJitter hands over its numpy bit generator and
 * the loop draws each jitter block itself with numpy's own
 * random_normal (numpy/random/distributions.h, linked from the
 * libnpyrandom.a numpy ships) — the same function Generator.normal
 * calls once per element, so the stream is byte-identical.  Any other
 * jitter model falls back to the per-block `refill` Python callback.
 * See repro/uarch/native.py for the build/load glue and controller
 * marshalling, and MCDCore.native_marshal for the marshal layer.
 *
 * Execution is staged around a per-run RunState struct so a whole
 * sweep can run on a thread pool inside one process:
 *
 *   1. marshal   — all PyObject access and buffer extraction, plus the
 *                  allocation of the per-run tables (GIL held);
 *   2. compute   — the warm-up replay, then the event loop, pure C over
 *                  RunState-local data, with the GIL RELEASED
 *                  (PyEval_SaveThread).  Its only Python crossing is the
 *                  per-interval `rollover` callback, for custom
 *                  controllers and interval recording; non-stock jitter
 *                  models add the per-block `refill`.  Both go through
 *                  shims that re-acquire the GIL for the call;
 *   3. writeback — build the per-run result dict (GIL held); the caller
 *                  folds it into the owning objects.
 *
 * Two entry points share the stages.  run_compiled drives one RunState
 * through all three.  run_batch amortises the boundary across a sweep
 * cell: it marshals a *vector* of argument dicts up front, releases the
 * GIL once, computes every run back to back, and then returns one
 * result dict per run — exactly what the single entry returns, so
 * batched results are byte-identical by construction.
 *
 * Reentrancy audit: this file holds NO mutable state with static
 * storage duration — every array, ring buffer and counter lives on the
 * compute stage's stack or in per-RunState PyMem allocations, and the
 * writable buffers handed in through the argument dict are created per
 * run by MCDCore.native_marshal (the trace columns are only read).
 * Concurrent run_compiled/run_batch
 * calls from different threads therefore never share writable memory,
 * which is what makes the thread-pool sweep backend sound.
 *
 * The one piece of shared-looking state is a GaussianJitter's bit
 * generator, which the compute stage advances without the GIL and
 * without taking numpy's BitGenerator.lock (Generator.normal takes it).
 * That is sound because each GaussianJitter is private to one core —
 * MCDCore builds a fresh, separately seeded generator per domain — and
 * a core runs on one thread at a time, so no other thread can draw
 * from the same generator while the loop does.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include "numpy/random/distributions.h"
#include <stdint.h>
#include <string.h>

#define RING 2048
#define RING_MASK (RING - 1)
#define EPS_NS 1e-6
#define MIN_STEP_NS 1e-6
#define QMAX 256 /* upper bound on issue-queue capacity */

/* ---------------------------------------------------------------- util */

static int
get_long(PyObject *dict, const char *key, long long *out)
{
    PyObject *v = PyDict_GetItemString(dict, key);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "hotpath: missing int arg %s", key);
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
get_double(PyObject *dict, const char *key, double *out)
{
    PyObject *v = PyDict_GetItemString(dict, key);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "hotpath: missing float arg %s", key);
        return -1;
    }
    *out = PyFloat_AsDouble(v);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

typedef struct {
    Py_buffer views[64];
    int count;
} ViewPool;

static void *
get_buffer(PyObject *dict, const char *key, ViewPool *pool, int writable,
           Py_ssize_t itemsize, Py_ssize_t *len_out)
{
    PyObject *v = PyDict_GetItemString(dict, key);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "hotpath: missing buffer arg %s", key);
        return NULL;
    }
    int flags = writable ? (PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE)
                         : PyBUF_C_CONTIGUOUS;
    Py_buffer *view = &pool->views[pool->count];
    if (PyObject_GetBuffer(v, view, flags) < 0)
        return NULL;
    pool->count++;
    if (view->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError, "hotpath: %s has itemsize %zd, want %zd",
                     key, view->itemsize, itemsize);
        return NULL;
    }
    if (len_out != NULL)
        *len_out = view->len / itemsize;
    return view->buf;
}

static void
release_views(ViewPool *pool)
{
    for (int i = 0; i < pool->count; i++)
        PyBuffer_Release(&pool->views[i]);
    pool->count = 0;
}

/* ------------------------------------------- caches, predictor, BTB */

/* One tag-only LRU cache (SetAssociativeCache): tags[set * ways + j]
 * holds set `set`'s valid tags, most recently used last, and cnt[set]
 * counts them. */
typedef struct {
    int64_t *tags;
    int32_t *cnt;
    int64_t nsets;
    int ways;
} Cache;

/* The combining predictor's tables and its BTB
 * (CombiningBranchPredictor, BranchTargetBuffer); the BTB keeps
 * (tag, target) pairs in btb_tags/btb_tgts, most recently used last. */
typedef struct {
    int64_t *hist, *pl2, *bim, *meta;
    int64_t hist_len, pl2_len, bim_len, meta_len, hist_mask;
    int64_t *btb_tags, *btb_tgts;
    int32_t *btb_cnt;
    int64_t btb_nsets;
    int btb_ways;
} Predictor;

/* Allocate an empty cache (GIL held). */
static int
cache_alloc(Cache *c, long long nsets, long long ways)
{
    if (nsets < 1 || ways < 1) {
        PyErr_SetString(PyExc_ValueError, "hotpath: bad cache geometry");
        return -1;
    }
    c->nsets = nsets;
    c->ways = (int)ways;
    c->tags = PyMem_Malloc(nsets * ways * sizeof(int64_t));
    c->cnt = PyMem_Calloc(nsets, sizeof(int32_t));
    if (c->tags == NULL || c->cnt == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Allocate a predictor table of n counters set to init (GIL held). */
static int64_t *
table_alloc(long long n, int64_t init)
{
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "hotpath: empty predictor table");
        return NULL;
    }
    int64_t *table = PyMem_Malloc(n * sizeof(int64_t));
    if (table == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (long long i = 0; i < n; i++)
        table[i] = init;
    return table;
}

static void
cache_free(Cache *c)
{
    PyMem_Free(c->tags);
    PyMem_Free(c->cnt);
}

static void
predictor_free(Predictor *p)
{
    PyMem_Free(p->hist);
    PyMem_Free(p->pl2);
    PyMem_Free(p->bim);
    PyMem_Free(p->meta);
    PyMem_Free(p->btb_tags);
    PyMem_Free(p->btb_tgts);
    PyMem_Free(p->btb_cnt);
}

/* SetAssociativeCache.access on a line number: LRU lookup, allocate on
 * a miss.  Returns 1 on a hit. */
static inline int
cache_access(Cache *c, int64_t line)
{
    int64_t si = line % c->nsets;
    int64_t tag = line / c->nsets;
    int64_t *setp = &c->tags[si * c->ways];
    int cnt = c->cnt[si];
    for (int j = 0; j < cnt; j++) {
        if (setp[j] == tag) {
            for (int k = j; k < cnt - 1; k++)
                setp[k] = setp[k + 1];
            setp[cnt - 1] = tag;
            return 1;
        }
    }
    if (cnt == c->ways) {
        for (int k = 0; k < cnt - 1; k++)
            setp[k] = setp[k + 1];
        setp[cnt - 1] = tag;
    } else {
        setp[cnt] = tag;
        c->cnt[si] = cnt + 1;
    }
    return 0;
}

/* CacheHierarchy.instruction_access/data_access on a line number: the
 * L1 and, on an L1 miss, the shared L2.  Counts accesses and misses
 * into l1_stats[0..1] and l2_stats[0..1]; returns the servicing level
 * (1 L1, 2 L2, 3 memory). */
static inline int
hierarchy_access(Cache *l1, Cache *l2, int64_t line, int64_t *l1_stats,
                 int64_t *l2_stats)
{
    l1_stats[0]++;
    if (cache_access(l1, line))
        return 1;
    l1_stats[1]++;
    l2_stats[0]++;
    if (cache_access(l2, line))
        return 2;
    l2_stats[1]++;
    return 3;
}

static inline int64_t
counter_update(int64_t value, int up)
{
    if (up)
        return value < 3 ? value + 1 : 3;
    return value > 0 ? value - 1 : 0;
}

/* CombiningBranchPredictor.access: predict, train, and refresh the BTB
 * for a taken branch.  Returns 0 for a correct prediction, 1 for a
 * direction mispredict and 2 for a taken branch whose target the BTB
 * could not supply. */
static inline int
predictor_access(Predictor *p, int64_t pc, int64_t tk, int64_t target)
{
    int64_t word = pc >> 2;
    int64_t hist_i = word % p->hist_len;
    int64_t history = p->hist[hist_i];
    int64_t pl2_i = (history ^ word) % p->pl2_len;
    int two_level = p->pl2[pl2_i] >= 2;
    int64_t bim_i = word % p->bim_len;
    int bimodal = p->bim[bim_i] >= 2;
    int prediction = p->meta[word % p->meta_len] >= 2 ? two_level : bimodal;
    int outcome = 0;
    int64_t bs = word % p->btb_nsets;
    int64_t btag = word / p->btb_nsets;
    int64_t *btags = &p->btb_tags[bs * p->btb_ways];
    int64_t *btgts = &p->btb_tgts[bs * p->btb_ways];
    int bcnt = p->btb_cnt[bs];
    if (prediction != (int)tk) {
        outcome = 1;
    } else if (tk) {
        /* BTB lookup; a hit moves the entry to the MRU slot. */
        int found = 0;
        int64_t found_tgt = 0;
        for (int j = 0; j < bcnt; j++) {
            if (btags[j] == btag) {
                found = 1;
                found_tgt = btgts[j];
                for (int k = j; k < bcnt - 1; k++) {
                    btags[k] = btags[k + 1];
                    btgts[k] = btgts[k + 1];
                }
                btags[bcnt - 1] = btag;
                btgts[bcnt - 1] = found_tgt;
                break;
            }
        }
        if (!found || found_tgt != target)
            outcome = 2;
    }
    p->pl2[pl2_i] = counter_update(p->pl2[pl2_i], (int)tk);
    p->bim[bim_i] = counter_update(p->bim[bim_i], (int)tk);
    if (two_level != bimodal) {
        int64_t meta_i = word % p->meta_len;
        p->meta[meta_i] = counter_update(p->meta[meta_i], two_level == (int)tk);
    }
    p->hist[hist_i] = ((history << 1) | (tk ? 1 : 0)) & p->hist_mask;
    if (tk) {
        /* BTB update: drop any stale entry, evict the LRU one when the
         * set is full, install as MRU. */
        for (int j = 0; j < bcnt; j++) {
            if (btags[j] == btag) {
                for (int k = j; k < bcnt - 1; k++) {
                    btags[k] = btags[k + 1];
                    btgts[k] = btgts[k + 1];
                }
                bcnt--;
                break;
            }
        }
        if (bcnt == p->btb_ways) {
            for (int k = 0; k < bcnt - 1; k++) {
                btags[k] = btags[k + 1];
                btgts[k] = btgts[k + 1];
            }
            bcnt--;
        }
        btags[bcnt] = btag;
        btgts[bcnt] = target;
        p->btb_cnt[bs] = bcnt + 1;
    }
    return outcome;
}

/* ---------------------------------------------------- GIL bridge shims */

/* The compute stage runs with the GIL released; these shims are its
 * only Python crossings.  Each re-acquires the GIL just for the
 * callback and releases it again before returning, so other threads'
 * compute stages keep running while this one calls back.  On failure
 * the Python exception is left pending in this thread's state and -1
 * is returned; the caller must break out of the loop and touch no
 * Python API until the compute stage ends with the GIL re-acquired. */

static int
refill_jitter(PyObject *refill, int d, double **jbuf, Py_ssize_t *jlen,
              PyThreadState **tstate)
{
    int status = -1;
    PyEval_RestoreThread(*tstate);
    PyObject *arr = PyObject_CallFunction(refill, "i", d);
    if (arr != NULL) {
        Py_buffer jview;
        if (PyObject_GetBuffer(arr, &jview, PyBUF_C_CONTIGUOUS) == 0) {
            Py_ssize_t k = jview.len / sizeof(double);
            double *fresh = PyMem_Malloc((k ? k : 1) * sizeof(double));
            if (fresh == NULL) {
                PyErr_NoMemory();
            } else {
                memcpy(fresh, jview.buf, k * sizeof(double));
                PyMem_Free(*jbuf);
                *jbuf = fresh;
                *jlen = k;
                status = 0;
            }
            PyBuffer_Release(&jview);
        }
        Py_DECREF(arr);
    }
    *tstate = PyEval_SaveThread();
    return status;
}

/* Draw one jitter block for a stock GaussianJitter, GIL released:
 * Generator.normal(0, sigma, n) calls random_normal once per element,
 * and the clip matches np.clip(raw, -clip, clip) for finite samples. */
static void
draw_jitter(bitgen_t *gen, double sigma, double clip, double *buf,
            Py_ssize_t n)
{
    for (Py_ssize_t j = 0; j < n; j++) {
        double x = random_normal(gen, 0.0, sigma);
        if (clip > 0) {
            if (x < -clip)
                x = -clip;
            else if (x > clip)
                x = clip;
        }
        buf[j] = x;
    }
}

static int
rollover_callback(PyObject *rollover, long long index, long long retired,
                  double t, double duration, long long occ1, long long occ2,
                  long long occ3, const int64_t busy[4], long long mem,
                  PyThreadState **tstate)
{
    int status = -1;
    PyEval_RestoreThread(*tstate);
    PyObject *res = PyObject_CallFunction(
        rollover, "LLddLLLLLLLL", index, retired, t, duration, occ1, occ2,
        occ3, (long long)busy[0], (long long)busy[1], (long long)busy[2],
        (long long)busy[3], mem);
    if (res != NULL) {
        Py_DECREF(res);
        status = 0;
    }
    *tstate = PyEval_SaveThread();
    return status;
}

/* ------------------------------------------------------------ the loop */

/* All state one simulation needs across the three stages.  A RunState
 * is filled by marshal_run (GIL held), consumed by compute_run (GIL
 * released) and drained by writeback_run (GIL held); free_run drops
 * the buffer views and per-run allocations.  run_compiled wraps one
 * RunState; run_batch marshals a whole vector of them, releases the
 * GIL once, and computes the runs back to back. */
typedef struct {
    ViewPool pool;
    /* scalars */
    int64_t total;
    int decode_width, retire_width;
    int64_t rob_cap, l1_cycles, l2_cycles, mispredict_penalty, interval_len;
    int mcd_mode;
    int64_t kind_load, kind_store, kind_branch;
    int shift;
    int64_t warmup;
    int call_rollover;
    double mem_latency, window, vmin, fmin, vslope, vmax_sq_inv;
    double e_l1i, e_l2, e_bpred, e_retire, e_disp_fetch;
    /* native closed-loop controller */
    int native_ctrl;
    double ad_dev, ad_reaction, ad_decay, ad_perf_deg, ad_alpha;
    double cfg_min_mhz, cfg_max_mhz, freq_step;
    long long ad_endstop, ad_literal, freq_points;
    const int64_t *ad_ctrl;
    double *ad_freq, *ad_prev_util, *ad_ipc;
    int64_t *ad_upper, *ad_lower, *ad_attacks_up, *ad_attacks_down;
    int64_t *ad_decays, *ad_holds;
    const double *freq_table;
    int64_t *reg_requests, *reg_dirchg;
    /* column + state buffers (views owned by pool) */
    const int64_t *kinds, *pcs, *addrs, *taken_c, *targets_c;
    const int64_t *dest_c, *qd_c, *p1_c, *p2_c, *newline;
    const int64_t *lat_cycles, *complex_op, *simple_w, *complex_w, *q_cap;
    const double *clock_e, *idle_e, *e_issue_a, *e_simple_a, *e_complex_a;
    double *reg_cur, *reg_tgt, *reg_last;
    const double *reg_slew;
    double *reg_slew_acc;
    double *edge_ns;
    int64_t *cycle_idx;
    double *acc_clock, *acc_struct;
    int64_t *n_busy, *n_idle, *q_occ, *q_writes, *cache_stats, *bp_stats;
    double *cur_freq;
    /* per-run PyMem allocations */
    Cache l1i, l1d, l2;
    Predictor bp;
    double *jbuf[4];
    Py_ssize_t jlen[4];
    /* native jitter draw per domain; jgen NULL means the refill bridge */
    bitgen_t *jgen[4];
    double jsigma[4], jclip[4];
    Py_ssize_t jblock[4];
    int64_t *rob_seq;
    /* callbacks (borrowed from the argument dict, which the caller keeps
     * alive for the duration of the call) */
    PyObject *refill, *rollover;
    /* compute outputs */
    int64_t int_free, fp_free;
    int64_t retired, memory_accesses, dispatch_stall_cycles;
    double wall;
    const char *error;
} RunState;

/* Refill domain d's empty jitter buffer.  A stock GaussianJitter draws
 * in C with the GIL still released; any other model goes through the
 * refill bridge (see refill_jitter for the error contract). */
static int
next_jitter_block(RunState *rs, int d, PyThreadState **tstate)
{
    if (rs->jgen[d] == NULL)
        return refill_jitter(rs->refill, d, &rs->jbuf[d], &rs->jlen[d],
                             tstate);
    draw_jitter(rs->jgen[d], rs->jsigma[d], rs->jclip[d], rs->jbuf[d],
                rs->jblock[d]);
    rs->jlen[d] = rs->jblock[d];
    return 0;
}

/* Release everything a RunState owns (GIL held).  Safe on a zeroed or
 * partially-marshalled state: every allocation lands in the struct the
 * moment it is made, and PyMem_Free/release_views tolerate NULL/empty. */
static void
free_run(RunState *rs)
{
    release_views(&rs->pool);
    cache_free(&rs->l1i);
    cache_free(&rs->l1d);
    cache_free(&rs->l2);
    predictor_free(&rs->bp);
    PyMem_Free(rs->rob_seq);
    for (int d = 0; d < 4; d++)
        PyMem_Free(rs->jbuf[d]);
    memset(rs, 0, sizeof(*rs));
}

/* Stage 1: all PyObject access and buffer extraction, and the per-run
 * tables (GIL held).  Fills *rs from the argument dict; on failure a
 * Python exception is set and whatever was already acquired stays in
 * *rs for free_run. */
static int
marshal_run(PyObject *a, RunState *rs)
{
    ViewPool *pool = &rs->pool;
    /* --- scalars ------------------------------------------------------ */
    long long n_ll, decode_width_ll, retire_width_ll, rob_cap_ll;
    long long l1_cycles_ll, l2_cycles_ll, mispredict_penalty_ll;
    long long interval_len_ll, mcd_ll, int_free_ll, fp_free_ll;
    long long kind_load_ll, kind_store_ll, kind_branch_ll, line_shift_ll;
    long long l1i_nsets_ll, l1i_ways_ll, l1d_nsets_ll, l1d_ways_ll;
    long long l2_nsets_ll, l2_ways_ll, hist_mask_ll, btb_nsets_ll, btb_ways_ll;
    long long hist_len_ll, pl2_len_ll, bim_len_ll, meta_len_ll;
    long long warmup_ll, call_rollover_ll;
    double mem_latency, window, vmin, fmin, vslope, vmax_sq_inv;
    double e_l1i, e_l2, e_bpred, e_retire, e_disp_fetch;
    if (get_long(a, "n", &n_ll) || get_long(a, "decode_width", &decode_width_ll)
        || get_long(a, "retire_width", &retire_width_ll)
        || get_long(a, "rob_cap", &rob_cap_ll)
        || get_long(a, "l1_cycles", &l1_cycles_ll)
        || get_long(a, "l2_cycles", &l2_cycles_ll)
        || get_long(a, "mispredict_penalty", &mispredict_penalty_ll)
        || get_long(a, "interval_len", &interval_len_ll)
        || get_long(a, "mcd", &mcd_ll)
        || get_long(a, "int_free", &int_free_ll)
        || get_long(a, "fp_free", &fp_free_ll)
        || get_long(a, "kind_load", &kind_load_ll)
        || get_long(a, "kind_store", &kind_store_ll)
        || get_long(a, "kind_branch", &kind_branch_ll)
        || get_long(a, "line_shift", &line_shift_ll)
        || get_long(a, "l1i_nsets", &l1i_nsets_ll)
        || get_long(a, "l1i_ways", &l1i_ways_ll)
        || get_long(a, "l1d_nsets", &l1d_nsets_ll)
        || get_long(a, "l1d_ways", &l1d_ways_ll)
        || get_long(a, "l2_nsets", &l2_nsets_ll)
        || get_long(a, "l2_ways", &l2_ways_ll)
        || get_long(a, "hist_mask", &hist_mask_ll)
        || get_long(a, "btb_nsets", &btb_nsets_ll)
        || get_long(a, "btb_ways", &btb_ways_ll)
        || get_long(a, "hist_len", &hist_len_ll)
        || get_long(a, "pl2_len", &pl2_len_ll)
        || get_long(a, "bim_len", &bim_len_ll)
        || get_long(a, "meta_len", &meta_len_ll)
        || get_long(a, "warmup", &warmup_ll)
        || get_long(a, "call_rollover", &call_rollover_ll)
        || get_double(a, "mem_latency", &mem_latency)
        || get_double(a, "window", &window)
        || get_double(a, "vmin", &vmin) || get_double(a, "fmin", &fmin)
        || get_double(a, "vslope", &vslope)
        || get_double(a, "vmax_sq_inv", &vmax_sq_inv)
        || get_double(a, "e_l1i", &e_l1i) || get_double(a, "e_l2", &e_l2)
        || get_double(a, "e_bpred", &e_bpred)
        || get_double(a, "e_retire", &e_retire)
        || get_double(a, "e_disp_fetch", &e_disp_fetch))
        goto fail;

    const int64_t total = n_ll;
    const int decode_width = (int)decode_width_ll;
    const int retire_width = (int)retire_width_ll;
    const int64_t rob_cap = rob_cap_ll;
    const int64_t l1_cycles = l1_cycles_ll, l2_cycles = l2_cycles_ll;
    const int64_t mispredict_penalty = mispredict_penalty_ll;
    const int64_t interval_len = interval_len_ll;
    const int mcd_mode = (int)mcd_ll;
    const int64_t kind_load = kind_load_ll, kind_store = kind_store_ll,
                  kind_branch = kind_branch_ll;
    const int shift = (int)line_shift_ll;
    const int call_rollover = (int)call_rollover_ll;
    int64_t int_free = int_free_ll, fp_free = fp_free_ll;

    /* --- native closed-loop controller (attack/decay, Listing 1) ------ */
    long long native_ctrl_ll = 0;
    if (get_long(a, "native_ctrl", &native_ctrl_ll))
        goto fail;
    const int native_ctrl = (int)native_ctrl_ll;
    double ad_dev = 0.0, ad_reaction = 0.0, ad_decay = 0.0, ad_perf_deg = 0.0;
    double ad_alpha = 1.0, cfg_min_mhz = 0.0, cfg_max_mhz = 0.0, freq_step = 1.0;
    long long ad_endstop = 0, ad_literal = 0, freq_points = 0;
    const int64_t *ad_ctrl = NULL;
    double *ad_freq = NULL, *ad_prev_util = NULL, *ad_ipc = NULL;
    int64_t *ad_upper = NULL, *ad_lower = NULL;
    int64_t *ad_attacks_up = NULL, *ad_attacks_down = NULL;
    int64_t *ad_decays = NULL, *ad_holds = NULL;
    const double *freq_table = NULL;
    int64_t *reg_requests = NULL, *reg_dirchg = NULL;

    /* --- column buffers ----------------------------------------------- */
    Py_ssize_t col_n;
    const int64_t *kinds = get_buffer(a, "kinds", pool, 0, 8, &col_n);
    if (kinds == NULL || col_n < total) goto fail;
    const int64_t *pcs = get_buffer(a, "pcs", pool, 0, 8, NULL);
    const int64_t *addrs = get_buffer(a, "addrs", pool, 0, 8, NULL);
    const int64_t *taken_c = get_buffer(a, "taken", pool, 0, 8, NULL);
    const int64_t *targets_c = get_buffer(a, "targets", pool, 0, 8, NULL);
    const int64_t *dest_c = get_buffer(a, "dest", pool, 0, 8, NULL);
    const int64_t *qd_c = get_buffer(a, "domain", pool, 0, 8, NULL);
    const int64_t *p1_c = get_buffer(a, "p1", pool, 0, 8, NULL);
    const int64_t *p2_c = get_buffer(a, "p2", pool, 0, 8, NULL);
    const int64_t *newline = get_buffer(a, "newline", pool, 0, 8, NULL);
    if (!pcs || !addrs || !taken_c || !targets_c || !dest_c || !qd_c || !p1_c
        || !p2_c || !newline)
        goto fail;
    if (warmup_ll < 0 || warmup_ll > total) {
        PyErr_SetString(PyExc_ValueError, "hotpath: warm-up outside the trace");
        goto fail;
    }

    const int64_t *lat_cycles = get_buffer(a, "lat_cycles", pool, 0, 8, NULL);
    const int64_t *complex_op = get_buffer(a, "complex_op", pool, 0, 8, NULL);
    const int64_t *simple_w = get_buffer(a, "simple_w", pool, 0, 8, NULL);
    const int64_t *complex_w = get_buffer(a, "complex_w", pool, 0, 8, NULL);
    const int64_t *q_cap = get_buffer(a, "q_cap", pool, 0, 8, NULL);
    const double *clock_e = get_buffer(a, "clock_e", pool, 0, 8, NULL);
    const double *idle_e = get_buffer(a, "idle_e", pool, 0, 8, NULL);
    const double *e_issue_a = get_buffer(a, "e_issue", pool, 0, 8, NULL);
    const double *e_simple_a = get_buffer(a, "e_simple", pool, 0, 8, NULL);
    const double *e_complex_a = get_buffer(a, "e_complex", pool, 0, 8, NULL);
    double *reg_cur = get_buffer(a, "reg_cur", pool, 1, 8, NULL);
    double *reg_tgt = get_buffer(a, "reg_tgt", pool, 1, 8, NULL);
    double *reg_last = get_buffer(a, "reg_last", pool, 1, 8, NULL);
    const double *reg_slew = get_buffer(a, "reg_slew", pool, 0, 8, NULL);
    double *reg_slew_acc = get_buffer(a, "reg_slew_acc", pool, 1, 8, NULL);
    double *edge_ns = get_buffer(a, "edge", pool, 1, 8, NULL);
    int64_t *cycle_idx = get_buffer(a, "cyc", pool, 1, 8, NULL);
    double *acc_clock = get_buffer(a, "acc_clock", pool, 1, 8, NULL);
    double *acc_struct = get_buffer(a, "acc_struct", pool, 1, 8, NULL);
    int64_t *n_busy = get_buffer(a, "n_busy", pool, 1, 8, NULL);
    int64_t *n_idle = get_buffer(a, "n_idle", pool, 1, 8, NULL);
    int64_t *q_occ = get_buffer(a, "q_occ", pool, 1, 8, NULL);
    int64_t *q_writes = get_buffer(a, "q_writes", pool, 1, 8, NULL);
    int64_t *cache_stats = get_buffer(a, "cache_stats", pool, 1, 8, NULL);
    int64_t *bp_stats = get_buffer(a, "bp_stats", pool, 1, 8, NULL);
    double *cur_freq = get_buffer(a, "cur_freq", pool, 1, 8, NULL);
    if (!lat_cycles || !complex_op || !simple_w || !complex_w || !q_cap
        || !clock_e || !idle_e || !e_issue_a || !e_simple_a || !e_complex_a
        || !reg_cur || !reg_tgt || !reg_last || !reg_slew || !reg_slew_acc
        || !edge_ns || !cycle_idx || !acc_clock || !acc_struct || !n_busy
        || !n_idle || !q_occ || !q_writes || !cache_stats || !bp_stats
        || !cur_freq)
        goto fail;

    if (native_ctrl) {
        if (get_double(a, "ad_dev", &ad_dev)
            || get_double(a, "ad_reaction", &ad_reaction)
            || get_double(a, "ad_decay", &ad_decay)
            || get_double(a, "ad_perf_deg", &ad_perf_deg)
            || get_double(a, "ad_alpha", &ad_alpha)
            || get_long(a, "ad_endstop", &ad_endstop)
            || get_long(a, "ad_literal", &ad_literal)
            || get_long(a, "freq_points", &freq_points)
            || get_double(a, "freq_step", &freq_step)
            || get_double(a, "cfg_min_mhz", &cfg_min_mhz)
            || get_double(a, "cfg_max_mhz", &cfg_max_mhz))
            goto fail;
        ad_ctrl = get_buffer(a, "ad_ctrl", pool, 0, 8, NULL);
        ad_freq = get_buffer(a, "ad_freq", pool, 1, 8, NULL);
        ad_prev_util = get_buffer(a, "ad_prev_util", pool, 1, 8, NULL);
        ad_upper = get_buffer(a, "ad_upper", pool, 1, 8, NULL);
        ad_lower = get_buffer(a, "ad_lower", pool, 1, 8, NULL);
        ad_attacks_up = get_buffer(a, "ad_attacks_up", pool, 1, 8, NULL);
        ad_attacks_down = get_buffer(a, "ad_attacks_down", pool, 1, 8, NULL);
        ad_decays = get_buffer(a, "ad_decays", pool, 1, 8, NULL);
        ad_holds = get_buffer(a, "ad_holds", pool, 1, 8, NULL);
        ad_ipc = get_buffer(a, "ad_ipc", pool, 1, 8, NULL);
        Py_ssize_t table_n = 0;
        freq_table = get_buffer(a, "freq_table", pool, 0, 8, &table_n);
        reg_requests = get_buffer(a, "reg_requests", pool, 1, 8, NULL);
        reg_dirchg = get_buffer(a, "reg_dirchg", pool, 1, 8, NULL);
        if (!ad_ctrl || !ad_freq || !ad_prev_util || !ad_upper || !ad_lower
            || !ad_attacks_up || !ad_attacks_down || !ad_decays || !ad_holds
            || !ad_ipc || !freq_table || !reg_requests || !reg_dirchg)
            goto fail;
        if (freq_points < 1 || table_n < freq_points) {
            PyErr_SetString(PyExc_ValueError, "hotpath: bad frequency table");
            goto fail;
        }
    }

    PyObject *jlists = PyDict_GetItemString(a, "jbufs");
    PyObject *jdraw = PyDict_GetItemString(a, "jdraw");
    PyObject *refill = PyDict_GetItemString(a, "refill");
    PyObject *rollover = PyDict_GetItemString(a, "rollover");
    if (!jlists || !jdraw || !refill || !rollover) {
        PyErr_SetString(PyExc_KeyError, "hotpath: missing object arg");
        goto fail;
    }

    /* --- caches, predictor tables and BTB, initialised as
     * CacheHierarchy and CombiningBranchPredictor initialise theirs:
     * empty sets, no history, weakly-not-taken counters, and meta
     * counters weakly favouring the two-level component. -------------- */
    Predictor *bp = &rs->bp;
    if (cache_alloc(&rs->l1i, l1i_nsets_ll, l1i_ways_ll)
        || cache_alloc(&rs->l1d, l1d_nsets_ll, l1d_ways_ll)
        || cache_alloc(&rs->l2, l2_nsets_ll, l2_ways_ll))
        goto fail;
    bp->hist = table_alloc(hist_len_ll, 0);
    bp->pl2 = table_alloc(pl2_len_ll, 1);
    bp->bim = table_alloc(bim_len_ll, 1);
    bp->meta = table_alloc(meta_len_ll, 2);
    if (!bp->hist || !bp->pl2 || !bp->bim || !bp->meta)
        goto fail;
    bp->hist_len = hist_len_ll;
    bp->pl2_len = pl2_len_ll;
    bp->bim_len = bim_len_ll;
    bp->meta_len = meta_len_ll;
    bp->hist_mask = hist_mask_ll;
    if (btb_nsets_ll < 1 || btb_ways_ll < 1) {
        PyErr_SetString(PyExc_ValueError, "hotpath: bad BTB geometry");
        goto fail;
    }
    bp->btb_nsets = btb_nsets_ll;
    bp->btb_ways = (int)btb_ways_ll;
    bp->btb_tags = PyMem_Malloc(btb_nsets_ll * btb_ways_ll * sizeof(int64_t));
    bp->btb_tgts = PyMem_Malloc(btb_nsets_ll * btb_ways_ll * sizeof(int64_t));
    bp->btb_cnt = PyMem_Calloc(btb_nsets_ll, sizeof(int32_t));
    if (!bp->btb_tags || !bp->btb_tgts || !bp->btb_cnt) {
        PyErr_NoMemory();
        goto fail;
    }

    /* Jitter buffers (consumed from the tail, exactly like list.pop).
     * jdraw[d] is None (refill bridge) or (capsule, sigma, clip, block)
     * for a stock GaussianJitter, whose blocks the loop draws itself
     * into a buffer sized for the larger of the carried-over samples
     * and one block. */
    if (!PyList_Check(jdraw) || PyList_GET_SIZE(jdraw) != 4) {
        PyErr_SetString(PyExc_TypeError, "hotpath: jdraw must be a 4-list");
        goto fail;
    }
    for (int d = 0; d < 4; d++) {
        PyObject *lst = PyList_GET_ITEM(jlists, d);
        Py_ssize_t k = PyList_GET_SIZE(lst);
        Py_ssize_t cap = k;
        PyObject *spec = PyList_GET_ITEM(jdraw, d);
        if (spec != Py_None) {
            PyObject *capsule;
            if (!PyArg_ParseTuple(spec, "Oddn", &capsule, &rs->jsigma[d],
                                  &rs->jclip[d], &rs->jblock[d]))
                goto fail;
            rs->jgen[d] = PyCapsule_GetPointer(capsule, "BitGenerator");
            if (rs->jgen[d] == NULL)
                goto fail;
            if (rs->jblock[d] < 1) {
                PyErr_SetString(PyExc_ValueError, "hotpath: bad jitter block");
                goto fail;
            }
            if (rs->jblock[d] > cap)
                cap = rs->jblock[d];
        }
        rs->jbuf[d] = PyMem_Malloc((cap ? cap : 1) * sizeof(double));
        if (rs->jbuf[d] == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        for (Py_ssize_t j = 0; j < k; j++) {
            rs->jbuf[d][j] = PyFloat_AsDouble(PyList_GET_ITEM(lst, j));
            if (PyErr_Occurred())
                goto fail;
        }
        rs->jlen[d] = k;
    }

    /* Validation that used to sit in the run-local setup: raise while
     * errors still can be raised cheaply, before any compute starts. */
    rs->rob_seq = PyMem_Malloc(rob_cap * sizeof(int64_t));
    if (rs->rob_seq == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int d = 1; d < 4; d++) {
        if (q_cap[d] > QMAX) {
            PyErr_SetString(PyExc_ValueError, "hotpath: issue queue too large");
            goto fail;
        }
    }

    rs->total = total;
    rs->decode_width = decode_width;
    rs->retire_width = retire_width;
    rs->rob_cap = rob_cap;
    rs->l1_cycles = l1_cycles;
    rs->l2_cycles = l2_cycles;
    rs->mispredict_penalty = mispredict_penalty;
    rs->interval_len = interval_len;
    rs->mcd_mode = mcd_mode;
    rs->kind_load = kind_load;
    rs->kind_store = kind_store;
    rs->kind_branch = kind_branch;
    rs->shift = shift;
    rs->warmup = warmup_ll;
    rs->call_rollover = call_rollover;
    rs->int_free = int_free;
    rs->fp_free = fp_free;
    rs->mem_latency = mem_latency;
    rs->window = window;
    rs->vmin = vmin;
    rs->fmin = fmin;
    rs->vslope = vslope;
    rs->vmax_sq_inv = vmax_sq_inv;
    rs->e_l1i = e_l1i;
    rs->e_l2 = e_l2;
    rs->e_bpred = e_bpred;
    rs->e_retire = e_retire;
    rs->e_disp_fetch = e_disp_fetch;
    rs->native_ctrl = native_ctrl;
    rs->ad_dev = ad_dev;
    rs->ad_reaction = ad_reaction;
    rs->ad_decay = ad_decay;
    rs->ad_perf_deg = ad_perf_deg;
    rs->ad_alpha = ad_alpha;
    rs->cfg_min_mhz = cfg_min_mhz;
    rs->cfg_max_mhz = cfg_max_mhz;
    rs->freq_step = freq_step;
    rs->ad_endstop = ad_endstop;
    rs->ad_literal = ad_literal;
    rs->freq_points = freq_points;
    rs->ad_ctrl = ad_ctrl;
    rs->ad_freq = ad_freq;
    rs->ad_prev_util = ad_prev_util;
    rs->ad_ipc = ad_ipc;
    rs->ad_upper = ad_upper;
    rs->ad_lower = ad_lower;
    rs->ad_attacks_up = ad_attacks_up;
    rs->ad_attacks_down = ad_attacks_down;
    rs->ad_decays = ad_decays;
    rs->ad_holds = ad_holds;
    rs->freq_table = freq_table;
    rs->reg_requests = reg_requests;
    rs->reg_dirchg = reg_dirchg;
    rs->kinds = kinds;
    rs->pcs = pcs;
    rs->addrs = addrs;
    rs->taken_c = taken_c;
    rs->targets_c = targets_c;
    rs->dest_c = dest_c;
    rs->qd_c = qd_c;
    rs->p1_c = p1_c;
    rs->p2_c = p2_c;
    rs->newline = newline;
    rs->lat_cycles = lat_cycles;
    rs->complex_op = complex_op;
    rs->simple_w = simple_w;
    rs->complex_w = complex_w;
    rs->q_cap = q_cap;
    rs->clock_e = clock_e;
    rs->idle_e = idle_e;
    rs->e_issue_a = e_issue_a;
    rs->e_simple_a = e_simple_a;
    rs->e_complex_a = e_complex_a;
    rs->reg_cur = reg_cur;
    rs->reg_tgt = reg_tgt;
    rs->reg_last = reg_last;
    rs->reg_slew = reg_slew;
    rs->reg_slew_acc = reg_slew_acc;
    rs->edge_ns = edge_ns;
    rs->cycle_idx = cycle_idx;
    rs->acc_clock = acc_clock;
    rs->acc_struct = acc_struct;
    rs->n_busy = n_busy;
    rs->n_idle = n_idle;
    rs->q_occ = q_occ;
    rs->q_writes = q_writes;
    rs->cache_stats = cache_stats;
    rs->bp_stats = bp_stats;
    rs->cur_freq = cur_freq;
    rs->refill = refill;
    rs->rollover = rollover;
    return 0;

fail:
    return -1;
}

/* MCDCore.warm_up's replay: the trace's first rs->warmup instructions
 * touch the L1I once per new fetch line, the predictor and BTB once per
 * branch, and the L1D once per load or store, with no pipeline timing.
 * Its hit/miss counters are discarded — the measured run starts from
 * zero, as after MCDCore.warm_up resets the Python stats. */
static void
warm_up(RunState *rs)
{
    int64_t discard[6] = {0, 0, 0, 0, 0, 0};
    const int64_t *kinds = rs->kinds, *pcs = rs->pcs, *addrs = rs->addrs;
    const int64_t *newline = rs->newline;
    const int shift = rs->shift;
    for (int64_t i = 0; i < rs->warmup; i++) {
        if (newline[i])
            hierarchy_access(&rs->l1i, &rs->l2, pcs[i] >> shift, discard,
                             discard + 4);
        int64_t kind = kinds[i];
        if (kind == rs->kind_branch)
            predictor_access(&rs->bp, pcs[i], rs->taken_c[i],
                             rs->targets_c[i]);
        else if (kind == rs->kind_load || kind == rs->kind_store)
            hierarchy_access(&rs->l1d, &rs->l2, addrs[i] >> shift,
                             discard + 2, discard + 4);
    }
}

/* Stage 2: the warm-up, then the event loop.  Called with the GIL RELEASED (*tstate_p
 * holds the saved thread state); the refill/rollover shims re-acquire
 * it per crossing and the updated state flows back through tstate_p.
 * Returns 0 on success — including simulator-level "trace exhausted",
 * which reports through rs->error — and -1 when a Python callback
 * raised; the caller must PyEval_RestoreThread before touching the
 * pending exception. */
static int
compute_run(RunState *rs, PyThreadState **tstate_p)
{
    const int64_t total = rs->total;
    const int decode_width = rs->decode_width;
    const int retire_width = rs->retire_width;
    const int64_t rob_cap = rs->rob_cap;
    const int64_t l1_cycles = rs->l1_cycles, l2_cycles = rs->l2_cycles;
    const int64_t mispredict_penalty = rs->mispredict_penalty;
    const int64_t interval_len = rs->interval_len;
    const int mcd_mode = rs->mcd_mode;
    const int64_t kind_load = rs->kind_load, kind_store = rs->kind_store,
                  kind_branch = rs->kind_branch;
    const int shift = rs->shift;
    const int call_rollover = rs->call_rollover;
    int64_t int_free = rs->int_free, fp_free = rs->fp_free;
    const double mem_latency = rs->mem_latency, window = rs->window;
    const double vmin = rs->vmin, fmin = rs->fmin, vslope = rs->vslope,
                 vmax_sq_inv = rs->vmax_sq_inv;
    const double e_l1i = rs->e_l1i, e_l2 = rs->e_l2, e_bpred = rs->e_bpred,
                 e_retire = rs->e_retire, e_disp_fetch = rs->e_disp_fetch;
    const int native_ctrl = rs->native_ctrl;
    const double ad_dev = rs->ad_dev, ad_reaction = rs->ad_reaction,
                 ad_decay = rs->ad_decay, ad_perf_deg = rs->ad_perf_deg,
                 ad_alpha = rs->ad_alpha;
    const double cfg_min_mhz = rs->cfg_min_mhz, cfg_max_mhz = rs->cfg_max_mhz,
                 freq_step = rs->freq_step;
    const long long ad_endstop = rs->ad_endstop, ad_literal = rs->ad_literal,
                    freq_points = rs->freq_points;
    const int64_t *ad_ctrl = rs->ad_ctrl;
    double *ad_freq = rs->ad_freq, *ad_prev_util = rs->ad_prev_util,
           *ad_ipc = rs->ad_ipc;
    int64_t *ad_upper = rs->ad_upper, *ad_lower = rs->ad_lower;
    int64_t *ad_attacks_up = rs->ad_attacks_up,
            *ad_attacks_down = rs->ad_attacks_down;
    int64_t *ad_decays = rs->ad_decays, *ad_holds = rs->ad_holds;
    const double *freq_table = rs->freq_table;
    int64_t *reg_requests = rs->reg_requests, *reg_dirchg = rs->reg_dirchg;
    const int64_t *kinds = rs->kinds, *pcs = rs->pcs, *addrs = rs->addrs;
    const int64_t *taken_c = rs->taken_c, *targets_c = rs->targets_c;
    const int64_t *dest_c = rs->dest_c, *qd_c = rs->qd_c;
    const int64_t *p1_c = rs->p1_c, *p2_c = rs->p2_c;
    const int64_t *newline = rs->newline;
    const int64_t *lat_cycles = rs->lat_cycles, *complex_op = rs->complex_op;
    const int64_t *simple_w = rs->simple_w, *complex_w = rs->complex_w;
    const int64_t *q_cap = rs->q_cap;
    const double *clock_e = rs->clock_e, *idle_e = rs->idle_e;
    const double *e_issue_a = rs->e_issue_a, *e_simple_a = rs->e_simple_a,
                 *e_complex_a = rs->e_complex_a;
    double *reg_cur = rs->reg_cur, *reg_tgt = rs->reg_tgt,
           *reg_last = rs->reg_last;
    const double *reg_slew = rs->reg_slew;
    double *reg_slew_acc = rs->reg_slew_acc;
    double *edge_ns = rs->edge_ns;
    int64_t *cycle_idx = rs->cycle_idx;
    double *acc_clock = rs->acc_clock, *acc_struct = rs->acc_struct;
    int64_t *n_busy = rs->n_busy, *n_idle = rs->n_idle;
    int64_t *q_occ = rs->q_occ, *q_writes = rs->q_writes;
    int64_t *cache_stats = rs->cache_stats, *bp_stats = rs->bp_stats;
    double *cur_freq = rs->cur_freq;
    Cache *l1i = &rs->l1i, *l1d = &rs->l1d, *l2 = &rs->l2;
    Predictor *bp = &rs->bp;
    double **jbuf = rs->jbuf;
    Py_ssize_t *jlen = rs->jlen;
    int64_t *rob_seq = rs->rob_seq;
    PyObject *rollover = rs->rollover;
    PyThreadState *tstate = *tstate_p;
    if (rs->warmup)
        warm_up(rs);
    /* --- local run state ---------------------------------------------- */
    double fin_ns[RING];
    int64_t fin_cycle[RING];
    int32_t fin_domain[RING];
    for (int i = 0; i < RING; i++) {
        fin_ns[i] = -INFINITY;
        fin_cycle[i] = 0;
        fin_domain[i] = -1;
    }

    int64_t rob_head = 0, rob_n = 0; /* ring buffer over rob_cap slots */

    int64_t q_seq[4][QMAX];
    double q_t[4][QMAX];
    double q_retry[4][QMAX];
    int q_len[4] = {0, 0, 0, 0};

    double cur_period[4], cur_vscale[4];
    int slewing[4];
    for (int d = 0; d < 4; d++) {
        cur_period[d] = 1e3 / cur_freq[d];
        double v = vmin + (cur_freq[d] - fmin) * vslope;
        cur_vscale[d] = v * v * vmax_sq_inv;
        slewing[d] = reg_cur[d] != reg_tgt[d];
    }

    int active[4] = {1, 0, 0, 0};
    int64_t retired = 0, fetch_i = 0;
    int64_t line_fetched = -1; /* instruction whose fetch line was looked up */
    double fetch_resume_ns = 0.0;
    int64_t branch_stall_seq = -1;
    int64_t dispatch_stall_cycles = 0, memory_accesses = 0;
    double interval_start_ns = 0.0;
    int64_t next_interval = interval_len, interval_index = 0;
    int64_t busy_in_interval[4] = {0, 0, 0, 0};
    const char *error = NULL;

    /* ---- compute stage: pure C, GIL released ------------------------- */
    int py_error = 0;

    while (retired < total) {
        int d = 0;
        double t = edge_ns[0];
        if (active[1] && edge_ns[1] < t) { d = 1; t = edge_ns[1]; }
        if (active[2] && edge_ns[2] < t) { d = 2; t = edge_ns[2]; }
        if (active[3] && edge_ns[3] < t) { d = 3; t = edge_ns[3]; }

        if (slewing[d]) {
            /* regulator advance_to(t) */
            double dt = t - reg_last[d];
            reg_last[d] = t;
            double freq = reg_cur[d];
            if (dt > 0.0 && reg_cur[d] != reg_tgt[d]) {
                double max_delta = dt * reg_slew[d];
                double gap = reg_tgt[d] - reg_cur[d];
                if (fabs(gap) <= max_delta) {
                    reg_cur[d] = reg_tgt[d];
                    reg_slew_acc[d] += fabs(gap) / reg_slew[d];
                } else {
                    reg_cur[d] += gap > 0 ? max_delta : -max_delta;
                    reg_slew_acc[d] += dt;
                }
                freq = reg_cur[d];
            }
            if (freq == reg_tgt[d])
                slewing[d] = 0;
            if (freq != cur_freq[d]) {
                cur_freq[d] = freq;
                cur_period[d] = 1e3 / freq;
                double v = vmin + (freq - fmin) * vslope;
                cur_vscale[d] = v * v * vmax_sq_inv;
            }
        }
        double vscale = cur_vscale[d];

        if (d == 0) {
            double access_energy = 0.0;
            int worked = 0;

            /* ---- retire ---- */
            double cross_thresh = mcd_mode ? window : 0.5 * cur_period[0];
            int n_retire = 0;
            while (rob_n > 0 && n_retire < retire_width) {
                int64_t seq = rob_seq[rob_head];
                int64_t slot = seq & RING_MASK;
                if (fin_ns[slot] + cross_thresh > t + EPS_NS)
                    break;
                rob_head = (rob_head + 1) % rob_cap;
                rob_n--;
                int64_t dst = dest_c[seq - 1];
                if (dst == 0)
                    int_free++;
                else if (dst == 1)
                    fp_free++;
                n_retire++;
            }
            retired += n_retire;
            if (n_retire) {
                worked = 1;
                access_energy += (double)n_retire * e_retire;
            }

            /* ---- interval rollover ---- */
            if (retired >= next_interval) {
                interval_index++;
                next_interval += interval_len;
                double duration = t - interval_start_ns;
                if (duration <= 0)
                    duration = cur_period[0];
                for (int i = 1; i < 4; i++) {
                    /* regulator advance_to(t) */
                    double dt = t - reg_last[i];
                    reg_last[i] = t;
                    double ifreq = reg_cur[i];
                    if (dt > 0.0 && reg_cur[i] != reg_tgt[i]) {
                        double max_delta = dt * reg_slew[i];
                        double gap = reg_tgt[i] - reg_cur[i];
                        if (fabs(gap) <= max_delta) {
                            reg_cur[i] = reg_tgt[i];
                            reg_slew_acc[i] += fabs(gap) / reg_slew[i];
                        } else {
                            reg_cur[i] += gap > 0 ? max_delta : -max_delta;
                            reg_slew_acc[i] += dt;
                        }
                        ifreq = reg_cur[i];
                    }
                    slewing[i] = ifreq != reg_tgt[i];
                    if (ifreq != cur_freq[i]) {
                        cur_freq[i] = ifreq;
                        cur_period[i] = 1e3 / ifreq;
                        double v = vmin + (ifreq - fmin) * vslope;
                        cur_vscale[i] = v * v * vmax_sq_inv;
                    }
                    if (!active[i]) {
                        double edge = edge_ns[i];
                        if (t > edge) {
                            double period = cur_period[i];
                            double skipped = ceil((t - edge) / period);
                            edge_ns[i] = edge + skipped * period;
                            cycle_idx[i] += (int64_t)skipped;
                            acc_clock[i] += idle_e[i] * cur_vscale[i] * skipped;
                            n_idle[i] += (int64_t)skipped;
                        }
                    }
                }
                int64_t occ1 = q_occ[1], occ2 = q_occ[2], occ3 = q_occ[3];
                q_occ[1] = q_occ[2] = q_occ[3] = 0;
                if (call_rollover) {
                    if (rollover_callback(
                            rollover, (long long)(interval_index - 1),
                            (long long)retired, t, duration, (long long)occ1,
                            (long long)occ2, (long long)occ3,
                            busy_in_interval, (long long)memory_accesses,
                            &tstate) < 0) {
                        py_error = 1;
                        break;
                    }
                    /* Pick up controller-applied regulator changes.
                     * NOTE: vscale deliberately stays the value bound
                     * at the top of this cycle, like the Python path. */
                    for (int i = 0; i < 4; i++) {
                        slewing[i] = reg_cur[i] != reg_tgt[i];
                        if (reg_cur[i] != cur_freq[i]) {
                            cur_freq[i] = reg_cur[i];
                            cur_period[i] = 1e3 / reg_cur[i];
                            double v = vmin + (reg_cur[i] - fmin) * vslope;
                            cur_vscale[i] = v * v * vmax_sq_inv;
                        }
                    }
                } else if (native_ctrl) {
                    /* Attack/Decay (paper Listing 1) run inline: the
                     * same arithmetic, in the same order, as
                     * AttackDecayController.on_interval feeding
                     * VoltageFrequencyRegulator.request — with zero
                     * Python crossings. */
                    double raw_ipc = (double)interval_len
                                     / (duration * cur_freq[0] * 1e-3);
                    double ipc;
                    if (interval_index - 1 == 0 || ad_alpha >= 1.0)
                        ipc = raw_ipc;
                    else
                        ipc = ad_alpha * raw_ipc + (1.0 - ad_alpha) * ad_ipc[1];
                    ad_ipc[1] = ipc;
                    /* The PerfDegThreshold guard (Listing 1 l.19 & 25). */
                    int decrease_allowed = 0;
                    if (ipc > 0.0) {
                        if (ad_ipc[0] <= 0.0) {
                            decrease_allowed = 1;
                        } else {
                            double ratio = ad_ipc[0] / ipc;
                            decrease_allowed =
                                ad_literal ? (ratio >= ad_perf_deg)
                                           : (ratio - 1.0 <= ad_perf_deg);
                        }
                    }
                    int64_t occs[4] = {0, occ1, occ2, occ3};
                    for (int i = 0; i < 4; i++) {
                        if (!ad_ctrl[i])
                            continue;
                        double utilization =
                            (double)occs[i] / (double)interval_len;
                        double scale = 1.0; /* >1 slows the domain down */
                        if (ad_upper[i] >= ad_endstop) {
                            scale = 1.0 + ad_reaction; /* force decrease */
                            ad_attacks_down[i]++;
                        } else if (ad_lower[i] >= ad_endstop) {
                            scale = 1.0 - ad_reaction; /* force increase */
                            ad_attacks_up[i]++;
                        } else {
                            double prev = ad_prev_util[i];
                            double deviation = prev * ad_dev;
                            if (utilization - prev > deviation) {
                                scale = 1.0 - ad_reaction;
                                ad_attacks_up[i]++;
                            } else if (prev - utilization > deviation
                                       && decrease_allowed) {
                                scale = 1.0 + ad_reaction;
                                ad_attacks_down[i]++;
                            } else if (decrease_allowed && ad_decay > 0.0) {
                                scale = 1.0 + ad_decay;
                                ad_decays[i]++;
                            } else {
                                ad_holds[i]++;
                            }
                        }
                        double new_mhz = ad_freq[i] / scale;
                        /* min(max_f, max(min_f, new_mhz)) */
                        if (new_mhz < cfg_min_mhz)
                            new_mhz = cfg_min_mhz;
                        if (new_mhz > cfg_max_mhz)
                            new_mhz = cfg_max_mhz;
                        if (new_mhz != ad_freq[i]) {
                            ad_freq[i] = new_mhz;
                            /* regulator.request: quantize to the scale
                             * (nearbyint = round-half-even, matching
                             * Python's round()). */
                            double clamped = new_mhz < cfg_min_mhz
                                                 ? cfg_min_mhz
                                                 : new_mhz;
                            if (clamped > cfg_max_mhz)
                                clamped = cfg_max_mhz;
                            int64_t idx = (int64_t)nearbyint(
                                (clamped - cfg_min_mhz) / freq_step);
                            if (idx < 0)
                                idx = 0;
                            if (idx >= freq_points)
                                idx = freq_points - 1;
                            double snapped = freq_table[idx];
                            if (snapped != reg_tgt[i]) {
                                reg_requests[i]++;
                                double old_dir = reg_tgt[i] - reg_cur[i];
                                double new_dir = snapped - reg_cur[i];
                                if (old_dir * new_dir < 0.0)
                                    reg_dirchg[i]++;
                                reg_tgt[i] = snapped;
                            }
                        }
                        /* Endstop counters (Listing 1 l.38-47). */
                        int at_min = ad_freq[i] <= cfg_min_mhz + 1e-9;
                        int at_max = ad_freq[i] >= cfg_max_mhz - 1e-9;
                        if (at_min && ad_lower[i] != ad_endstop)
                            ad_lower[i]++;
                        else
                            ad_lower[i] = 0;
                        if (at_max && ad_upper[i] != ad_endstop)
                            ad_upper[i]++;
                        else
                            ad_upper[i] = 0;
                        ad_prev_util[i] = utilization;
                    }
                    ad_ipc[0] = ipc;
                    /* Pick up the new regulator targets, exactly as
                     * after the callback above (request never moves
                     * reg_cur, so the cur_freq refresh is a no-op kept
                     * for strict symmetry). */
                    for (int i = 0; i < 4; i++) {
                        slewing[i] = reg_cur[i] != reg_tgt[i];
                        if (reg_cur[i] != cur_freq[i]) {
                            cur_freq[i] = reg_cur[i];
                            cur_period[i] = 1e3 / reg_cur[i];
                            double v = vmin + (reg_cur[i] - fmin) * vslope;
                            cur_vscale[i] = v * v * vmax_sq_inv;
                        }
                    }
                }
                busy_in_interval[0] = busy_in_interval[1] = 0;
                busy_in_interval[2] = busy_in_interval[3] = 0;
                interval_start_ns = t;
            }

            /* ---- fetch / dispatch ---- */
            if (branch_stall_seq < 0 && t + EPS_NS >= fetch_resume_ns
                && fetch_i < total) {
                int fetched = 0, stalled = 0;
                int64_t fi = fetch_i;
                while (fetched < decode_width) {
                    if (fi >= total)
                        break;
                    if (newline[fi] && fi != line_fetched) {
                        line_fetched = fi;
                        access_energy += e_l1i;
                        int level = hierarchy_access(l1i, l2, pcs[fi] >> shift,
                                                     cache_stats,
                                                     cache_stats + 4);
                        if (level != 1) {
                            double delay =
                                (double)l2_cycles * cur_period[3] + 2.0 * window;
                            access_energy += e_l2;
                            if (level == 3) {
                                delay += mem_latency;
                                memory_accesses++;
                            }
                            fetch_resume_ns = t + delay;
                            break;
                        }
                    }
                    if (rob_n >= rob_cap) {
                        stalled = 1;
                        break;
                    }
                    int64_t qd = qd_c[fi];
                    if (q_len[qd] >= q_cap[qd]) {
                        stalled = 1;
                        break;
                    }
                    int64_t dst = dest_c[fi];
                    if (dst == 0) {
                        if (int_free <= 0) {
                            stalled = 1;
                            break;
                        }
                        int_free--;
                    } else if (dst == 1) {
                        if (fp_free <= 0) {
                            stalled = 1;
                            break;
                        }
                        fp_free--;
                    }

                    int64_t seq = fi + 1;
                    int64_t slot = seq & RING_MASK;
                    fin_ns[slot] = INFINITY;
                    fin_domain[slot] = -1;
                    int64_t kind = kinds[fi];
                    int mispredicted = 0;
                    if (kind == kind_branch) {
                        access_energy += e_bpred;
                        bp_stats[0]++; /* lookups */
                        int outcome = predictor_access(bp, pcs[fi], taken_c[fi],
                                                       targets_c[fi]);
                        if (outcome) {
                            /* [1] direction mispredicts, [2] BTB misses */
                            bp_stats[outcome]++;
                            mispredicted = 1;
                        }
                    }
                    int qn = q_len[qd];
                    q_seq[qd][qn] = seq;
                    q_t[qd][qn] = t;
                    q_retry[qd][qn] = 0.0;
                    q_len[qd] = qn + 1;
                    q_writes[qd]++;
                    if (!active[qd]) {
                        /* regulator advance_to(t) */
                        double dt = t - reg_last[qd];
                        reg_last[qd] = t;
                        double qfreq = reg_cur[qd];
                        if (dt > 0.0 && reg_cur[qd] != reg_tgt[qd]) {
                            double max_delta = dt * reg_slew[qd];
                            double gap = reg_tgt[qd] - reg_cur[qd];
                            if (fabs(gap) <= max_delta) {
                                reg_cur[qd] = reg_tgt[qd];
                                reg_slew_acc[qd] += fabs(gap) / reg_slew[qd];
                            } else {
                                reg_cur[qd] += gap > 0 ? max_delta : -max_delta;
                                reg_slew_acc[qd] += dt;
                            }
                            qfreq = reg_cur[qd];
                        }
                        slewing[qd] = qfreq != reg_tgt[qd];
                        if (qfreq != cur_freq[qd]) {
                            cur_freq[qd] = qfreq;
                            cur_period[qd] = 1e3 / qfreq;
                            double v = vmin + (qfreq - fmin) * vslope;
                            cur_vscale[qd] = v * v * vmax_sq_inv;
                        }
                        double edge = edge_ns[qd];
                        if (t > edge) {
                            double period = cur_period[qd];
                            double skipped = ceil((t - edge) / period);
                            edge_ns[qd] = edge + skipped * period;
                            cycle_idx[qd] += (int64_t)skipped;
                            acc_clock[qd] += idle_e[qd] * cur_vscale[qd] * skipped;
                            n_idle[qd] += (int64_t)skipped;
                        }
                        active[qd] = 1;
                    }
                    rob_seq[(rob_head + rob_n) % rob_cap] = seq;
                    rob_n++;
                    access_energy += e_disp_fetch;
                    fi++;
                    fetched++;
                    if (mispredicted) {
                        branch_stall_seq = seq;
                        break;
                    }
                }
                fetch_i = fi;
                if (fetched)
                    worked = 1;
                else if (stalled)
                    dispatch_stall_cycles++;
            }

            if (worked) {
                busy_in_interval[0]++;
                n_busy[0]++;
                acc_clock[0] += clock_e[0] * vscale;
                acc_struct[0] += access_energy * vscale;
            } else {
                n_idle[0]++;
                acc_clock[0] += idle_e[0] * vscale;
                if (access_energy != 0.0)
                    acc_struct[0] += access_energy * vscale;
            }
            /* inlined clock advance */
            double step;
            if (mcd_mode) {
                if (jlen[0] == 0 && next_jitter_block(rs, 0, &tstate) < 0) {
                    py_error = 1;
                    break;
                }
                step = cur_period[0] + jbuf[0][--jlen[0]];
                if (step < MIN_STEP_NS)
                    step = MIN_STEP_NS;
            } else {
                step = cur_period[0];
            }
            edge_ns[0] = t + step;
            cycle_idx[0]++;

        } else {
            /* ---- issue domain ---- */
            int64_t *seqs = q_seq[d];
            double *ts = q_t[d];
            double *retries = q_retry[d];
            int qn = q_len[d];
            q_occ[d] += qn;
            int issued_any = 0;
            double access_energy = 0.0;
            double e_issue = e_issue_a[d];
            double e_simple = e_simple_a[d];
            double e_complex = e_complex_a[d];
            double cross_thresh = mcd_mode ? window : 0.5 * cur_period[d];
            int64_t cyc = cycle_idx[d];
            double period = cur_period[d];
            int64_t sfree = simple_w[d];
            int64_t cfree = complex_w[d];
            for (int ei = 0; ei < qn; ei++) {
                if (retries[ei] > t)
                    continue;
                if (t - ts[ei] < cross_thresh)
                    break;
                int64_t seq = seqs[ei];
                int64_t p1 = p1_c[seq - 1];
                if (p1) {
                    int64_t slot1 = p1 & RING_MASK;
                    int fd = fin_domain[slot1];
                    if (fd < 0)
                        continue;
                    if (fd == d) {
                        if (fin_cycle[slot1] > cyc)
                            continue;
                    } else {
                        double nb = fin_ns[slot1] + cross_thresh;
                        if (nb > t + EPS_NS) {
                            retries[ei] = nb;
                            continue;
                        }
                    }
                }
                int64_t p2 = p2_c[seq - 1];
                if (p2) {
                    int64_t slot2 = p2 & RING_MASK;
                    int fd = fin_domain[slot2];
                    if (fd < 0)
                        continue;
                    if (fd == d) {
                        if (fin_cycle[slot2] > cyc)
                            continue;
                    } else {
                        double nb = fin_ns[slot2] + cross_thresh;
                        if (nb > t + EPS_NS) {
                            retries[ei] = nb;
                            continue;
                        }
                    }
                }
                int64_t kind = kinds[seq - 1];
                double lat;
                int64_t lat_c;
                if (complex_op[kind]) {
                    if (cfree <= 0)
                        continue;
                    cfree--;
                    access_energy += e_complex;
                    lat_c = lat_cycles[kind];
                    lat = (double)lat_c * period;
                } else if (sfree <= 0) {
                    if (cfree <= 0)
                        break;
                    continue;
                } else if (kind == kind_load) {
                    sfree--;
                    int level = hierarchy_access(l1d, l2, addrs[seq - 1] >> shift,
                                                 cache_stats + 2,
                                                 cache_stats + 4);
                    access_energy += e_simple; /* L1D probe */
                    if (level == 1) {
                        lat = (double)l1_cycles * period;
                        lat_c = l1_cycles;
                    } else if (level == 2) {
                        access_energy += e_l2;
                        lat = (double)l2_cycles * period;
                        lat_c = l2_cycles;
                    } else {
                        access_energy += e_l2;
                        memory_accesses++;
                        lat = (double)l2_cycles * period + mem_latency
                              + 2.0 * window;
                        lat_c = (int64_t)(lat / period) + 1;
                    }
                } else if (kind == kind_store) {
                    sfree--;
                    hierarchy_access(l1d, l2, addrs[seq - 1] >> shift,
                                     cache_stats + 2, cache_stats + 4);
                    access_energy += e_simple;
                    lat = period;
                    lat_c = 1;
                } else {
                    sfree--;
                    access_energy += e_simple;
                    lat_c = lat_cycles[kind];
                    lat = (double)lat_c * period;
                }
                /* Issue! */
                double finish = t + lat;
                int64_t slot = seq & RING_MASK;
                fin_ns[slot] = finish;
                fin_cycle[slot] = cyc + lat_c;
                fin_domain[slot] = d;
                access_energy += e_issue;
                issued_any = 1;
                if (seq == branch_stall_seq) {
                    branch_stall_seq = -1;
                    double resume = finish + window
                                    + (double)mispredict_penalty * cur_period[0];
                    if (resume > fetch_resume_ns)
                        fetch_resume_ns = resume;
                }
                if (sfree <= 0 && cfree <= 0)
                    break;
            }
            if (issued_any) {
                int w = 0;
                for (int ei = 0; ei < qn; ei++) {
                    if (fin_domain[seqs[ei] & RING_MASK] == -1) {
                        seqs[w] = seqs[ei];
                        ts[w] = ts[ei];
                        retries[w] = retries[ei];
                        w++;
                    }
                }
                q_len[d] = w;
                busy_in_interval[d]++;
                n_busy[d]++;
                acc_clock[d] += clock_e[d] * vscale;
                acc_struct[d] += access_energy * vscale;
                if (w == 0)
                    active[d] = 0;
            } else {
                n_idle[d]++;
                acc_clock[d] += idle_e[d] * vscale;
            }
            /* inlined clock advance */
            double step;
            if (mcd_mode) {
                if (jlen[d] == 0 && next_jitter_block(rs, d, &tstate) < 0) {
                    py_error = 1;
                    break;
                }
                step = cur_period[d] + jbuf[d][--jlen[d]];
                if (step < MIN_STEP_NS)
                    step = MIN_STEP_NS;
            } else {
                step = cur_period[d];
            }
            edge_ns[d] = t + step;
            cycle_idx[d]++;
        }

        /* Safety valve: the trace must keep draining. */
        if (fetch_i >= total && rob_n == 0 && retired < total) {
            error = "trace exhausted";
            break;
        }
    }

    double wall = edge_ns[0];
    if (!py_error && error == NULL) {
        /* Final catch-up: idle tails of inactive domains. */
        for (int i = 1; i < 4; i++) {
            double dt = wall - reg_last[i];
            reg_last[i] = wall;
            double ifreq = reg_cur[i];
            if (dt > 0.0 && reg_cur[i] != reg_tgt[i]) {
                double max_delta = dt * reg_slew[i];
                double gap = reg_tgt[i] - reg_cur[i];
                if (fabs(gap) <= max_delta) {
                    reg_cur[i] = reg_tgt[i];
                    reg_slew_acc[i] += fabs(gap) / reg_slew[i];
                } else {
                    reg_cur[i] += gap > 0 ? max_delta : -max_delta;
                    reg_slew_acc[i] += dt;
                }
                ifreq = reg_cur[i];
            }
            if (ifreq != cur_freq[i]) {
                cur_freq[i] = ifreq;
                double v = vmin + (ifreq - fmin) * vslope;
                cur_vscale[i] = v * v * vmax_sq_inv;
            }
            double edge = edge_ns[i];
            if (wall > edge) {
                double period = cur_period[i];
                double skipped = ceil((wall - edge) / period);
                edge_ns[i] = edge + skipped * period;
                cycle_idx[i] += (int64_t)skipped;
                acc_clock[i] += idle_e[i] * cur_vscale[i] * skipped;
                n_idle[i] += (int64_t)skipped;
            }
        }
    }

    rs->retired = retired;
    rs->wall = wall;
    rs->memory_accesses = memory_accesses;
    rs->dispatch_stall_cycles = dispatch_stall_cycles;
    rs->int_free = int_free;
    rs->fp_free = fp_free;
    rs->error = error;
    *tstate_p = tstate;
    return py_error ? -1 : 0;
}

/* Stage 3: the per-run result dict (GIL held).  The caches, predictor
 * and BTB die with the RunState; their counters went out through the
 * cache_stats/bp_stats buffers. */
static PyObject *
writeback_run(RunState *rs)
{
    const int64_t retired = rs->retired;
    const double wall = rs->wall;
    const int64_t memory_accesses = rs->memory_accesses;
    const int64_t dispatch_stall_cycles = rs->dispatch_stall_cycles;
    const int64_t int_free = rs->int_free, fp_free = rs->fp_free;
    const char *error = rs->error;
    return Py_BuildValue(
        "{s:L,s:d,s:L,s:L,s:L,s:L,s:s}", "retired", (long long)retired, "wall",
        wall, "memory_accesses", (long long)memory_accesses,
        "dispatch_stall_cycles", (long long)dispatch_stall_cycles, "int_free",
        (long long)int_free, "fp_free", (long long)fp_free, "error", error);
}

/* ------------------------------------------------------- entry points */

static PyObject *
run_compiled(PyObject *self, PyObject *args)
{
    PyObject *a; /* argument dict */
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &a))
        return NULL;

    RunState *rs = PyMem_Calloc(1, sizeof(RunState));
    if (rs == NULL)
        return PyErr_NoMemory();
    PyObject *result = NULL;
    if (marshal_run(a, rs) == 0) {
        PyThreadState *tstate = PyEval_SaveThread();
        int rc = compute_run(rs, &tstate);
        PyEval_RestoreThread(tstate);
        if (rc == 0)
            result = writeback_run(rs);
    }
    free_run(rs);
    PyMem_Free(rs);
    return result;
}

static PyObject *
run_batch(PyObject *self, PyObject *args)
{
    PyObject *list; /* list of argument dicts, one per run */
    if (!PyArg_ParseTuple(args, "O!", &PyList_Type, &list))
        return NULL;

    Py_ssize_t n = PyList_GET_SIZE(list);
    RunState *runs = PyMem_Calloc(n ? (size_t)n : 1, sizeof(RunState));
    if (runs == NULL)
        return PyErr_NoMemory();

    PyObject *out = NULL;
    int failed = 0;

    /* Stage 1: marshal every run with the GIL held. */
    for (Py_ssize_t i = 0; i < n && !failed; i++) {
        PyObject *a = PyList_GET_ITEM(list, i);
        if (!PyDict_Check(a)) {
            PyErr_SetString(PyExc_TypeError,
                            "hotpath: run_batch wants a list of dicts");
            failed = 1;
        } else if (marshal_run(a, &runs[i]) < 0) {
            failed = 1;
        }
    }

    /* Stage 2: one GIL release for the whole batch.  The only Python
     * crossings until every run has computed are the per-run
     * refill/rollover bridge shims. */
    if (!failed) {
        PyThreadState *tstate = PyEval_SaveThread();
        for (Py_ssize_t i = 0; i < n; i++) {
            if (compute_run(&runs[i], &tstate) < 0) {
                failed = 1; /* callback raised; exception is pending */
                break;
            }
        }
        PyEval_RestoreThread(tstate);
    }

    /* Stage 3: per-run result dicts. */
    if (!failed) {
        out = PyList_New(n);
        if (out != NULL) {
            for (Py_ssize_t i = 0; i < n; i++) {
                PyObject *res = writeback_run(&runs[i]);
                if (res == NULL) {
                    Py_CLEAR(out);
                    break;
                }
                PyList_SET_ITEM(out, i, res);
            }
        }
    }

    for (Py_ssize_t i = 0; i < n; i++)
        free_run(&runs[i]);
    PyMem_Free(runs);
    return out;
}

static PyMethodDef hotpath_methods[] = {
    {"run_compiled", run_compiled, METH_VARARGS,
     "Run the batched core loop over compiled-trace columns."},
    {"run_batch", run_batch, METH_VARARGS,
     "Run a vector of compiled simulations under one GIL release."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef hotpath_module = {
    PyModuleDef_HEAD_INIT, "_hotpath",
    "Native MCD core loop (byte-identical to the Python reference loop).", -1,
    hotpath_methods,
};

PyMODINIT_FUNC
PyInit__hotpath(void)
{
    return PyModule_Create(&hotpath_module);
}
