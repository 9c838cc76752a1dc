/* Jacobi window update, pipelined run driver and grid setup passes, the
 * compiled bodies of kernel.apply_window, pipeline.PipelineEngine.run_passes,
 * grid.fill_field's random rules and grid.Grid3.copy.
 *
 * Summation order per cell is fixed: ((((x- + x+) + y-) + y+) + z-) + z+,
 * then times 1/6, the same as the numpy oracle.  Build without fast-math and
 * with -ffp-contract=off so that no reassociation or fused multiply-add
 * changes a result bit.
 *
 * Arrays are (z, y, x) with unit x stride; sy and sz are the y and z strides
 * in elements.  src and dst may be one array written in a diagonally shifted
 * frame.  Rows then run ascending in z and y when dst_off < src_off and
 * descending when dst_off > src_off, so a store lands only where every cell
 * that reads it has already been updated.  A row's stores land in another
 * row than any it reads, so x always ascends.
 *
 * The run driver (pipeline_run) is one call per run that starts and joins
 * the run's threads.  It reads each pass from its pass plan (struct frame,
 * built by pipeline.PipelineEngine) and runs a thread's T levels of a block
 * as a wavefront over chunks of z planes (run_block), so that each level
 * reads the planes the level before it has just written while they are
 * still in cache.
 *
 * The window loop is compiled twice from one body: for baseline x86-64 (SSE2)
 * and, with GCC or clang on x86-64, for AVX2.  The copy is chosen once, when
 * the library loads, from CPUID; apply_window and the run driver both call
 * it.  Each vector lane adds the six neighbours in the order above and AVX2
 * brings no FMA, so every copy gives the same bits.
 */
#define _POSIX_C_SOURCE 200809L
#include <pthread.h>
#include <sched.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define AVX2_COPY 1
#endif

#define WINDOW_PARAMS const double *src, double *dst, ptrdiff_t sy, \
    ptrdiff_t sz, ptrdiff_t src_off, ptrdiff_t dst_off, ptrdiff_t xl, \
    ptrdiff_t xh, ptrdiff_t yl, ptrdiff_t yh, ptrdiff_t zl, ptrdiff_t zh, \
    int descending
#define WINDOW_ARGS src, dst, sy, sz, src_off, dst_off, xl, xh, yl, yh, zl, \
    zh, descending

/* The one body of the window loop; each copy below inlines it for its ISA. */
static inline __attribute__((always_inline)) void window_loop(WINDOW_PARAMS)
{
    const double sixth = 1.0 / 6.0;
    for (ptrdiff_t kz = 0; kz < zh - zl; kz++) {
        ptrdiff_t z = descending ? zh - 1 - kz : zl + kz;
        for (ptrdiff_t ky = 0; ky < yh - yl; ky++) {
            ptrdiff_t y = descending ? yh - 1 - ky : yl + ky;
            const double *c = src + (z + src_off) * sz + (y + src_off) * sy + src_off;
            double *d = dst + (z + dst_off) * sz + (y + dst_off) * sy + dst_off;
            for (ptrdiff_t x = xl; x < xh; x++)
                d[x] = (((((c[x - 1] + c[x + 1]) + c[x - sy]) + c[x + sy])
                         + c[x - sz]) + c[x + sz]) * sixth;
        }
    }
}

static void window_baseline(WINDOW_PARAMS) { window_loop(WINDOW_ARGS); }
#ifdef AVX2_COPY
__attribute__((target("avx2")))
static void window_avx2(WINDOW_PARAMS) { window_loop(WINDOW_ARGS); }
#endif

/* Copies by index (kernel.ISAS), which this CPU can run, and the chosen one. */
enum { ISA_BASELINE, ISA_AVX2, NISA };
typedef void window_fn(WINDOW_PARAMS);
static window_fn *const copies[NISA] = {
    window_baseline,
#ifdef AVX2_COPY
    window_avx2,
#endif
};
static int runnable[NISA] = {1};
static int chosen = ISA_BASELINE;

#ifdef AVX2_COPY
__attribute__((constructor)) static void choose_copy(void)
{
    __builtin_cpu_init();  /* constructors may run before libgcc's own */
    runnable[ISA_AVX2] = __builtin_cpu_supports("avx2") != 0;
    if (runnable[ISA_AVX2])
        chosen = ISA_AVX2;
}
#endif

/* The index of the copy jacobi_window runs. */
int jacobi_isa(void) { return chosen; }

void jacobi_window(WINDOW_PARAMS) { copies[chosen](WINDOW_ARGS); }

/* Copy isa's window loop, for tests: -1 without running it when this
 * library holds no such copy or the CPU cannot run it, else 0. */
int jacobi_window_isa(int isa, WINDOW_PARAMS)
{
    if (isa < 0 || isa >= NISA || !runnable[isa])
        return -1;
    copies[isa](WINDOW_ARGS);
    return 0;
}

/* Setup passes over a grid's whole storage, the compiled bodies of
 * grid.fill_field's random rules and Grid3.copy.  A pass splits the
 * storage's z planes over a team of threads (team), so that each thread
 * first-touches the pages it writes. */
typedef void share_fn(const void *job, int64_t z0, int64_t z1);

struct share {
    share_fn *fn;
    const void *job;
    int64_t z0, z1;
};

static void *share_main(void *arg)
{
    const struct share *s = arg;
    s->fn(s->job, s->z0, s->z1);
    return NULL;
}

/* Planes 0..nz-1 split into n near-equal runs, n clamped to [1, nz] (1
 * when nz is 0): run 0 in the calling thread, each other in a pthread
 * started here and joined before the return.  A run whose thread could not
 * start goes to the calling thread after its own, so every plane is done
 * either way.  Returns the number of threads that ran. */
static int64_t team(share_fn *fn, const void *job, int64_t nz, int64_t n)
{
    n = n > nz ? nz : n;
    n = n < 1 ? 1 : n;
    struct share s[n];
    pthread_t tid[n];
    int started[n];
    int64_t ran = 1;
    for (int64_t i = 0; i < n; i++) {
        s[i] = (struct share){fn, job, nz * i / n, nz * (i + 1) / n};
        started[i] = i > 0 && !pthread_create(&tid[i], NULL, share_main, &s[i]);
        ran += started[i];
    }
    for (int64_t i = 0; i < n; i++)
        if (!started[i])
            share_main(&s[i]);
    for (int64_t i = 1; i < n; i++)
        if (started[i])
            pthread_join(tid[i], NULL);
    return ran;
}

/* The seeded field of grid.fill_field over a C-contiguous nz * ny * nx
 * storage: each cell in the box lo..hi-1 (storage (z, y, x), half-open) at
 * box offset (x, y, z) takes the SplitMix64 value of global linear index
 * first + z * plane + y * row + x, as grid.splitmix64_unit_at gives it, and
 * every other cell 0, so each stored cell is written exactly once.  Integer
 * arithmetic wraps modulo 2**64 as numpy's uint64 does, and v >> 11
 * converts to a double exactly, so every cell is bitwise equal to the numpy
 * generator. */
struct fill {
    double *dst;
    int64_t ny, nx;
    const int64_t *lo, *hi;
    uint64_t first, row, plane, seed;
};

static void fill_planes(const void *job, int64_t z0, int64_t z1)
{
    const struct fill *f = job;
    const int64_t nx = f->nx, xl = f->lo[2], xh = f->hi[2];
    for (int64_t z = z0; z < z1; z++) {
        double *p = f->dst + z * f->ny * nx;
        if (z < f->lo[0] || z >= f->hi[0]) {
            memset(p, 0, (size_t)(f->ny * nx) * sizeof *p);
            continue;
        }
        for (int64_t y = 0; y < f->ny; y++) {
            double *d = p + y * nx;
            if (y < f->lo[1] || y >= f->hi[1]) {
                memset(d, 0, (size_t)nx * sizeof *d);
                continue;
            }
            memset(d, 0, (size_t)xl * sizeof *d);
            const uint64_t i = f->first + (uint64_t)(z - f->lo[0]) * f->plane
                               + (uint64_t)(y - f->lo[1]) * f->row
                               - (uint64_t)xl;
            for (int64_t x = xl; x < xh; x++) {
                uint64_t v = (i + (uint64_t)x) * 0x9E3779B97F4A7C15u + f->seed;
                v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9u;
                v = (v ^ (v >> 27)) * 0x94D049BB133111EBu;
                v ^= v >> 31;
                d[x] = (double)(v >> 11) * 0x1p-53;
            }
            memset(d + xh, 0, (size_t)(nx - xh) * sizeof *d);
        }
    }
}

/* The fill over a team of up to threads threads; the box must lie in the
 * storage with lo <= hi on every axis, and one empty on any axis leaves
 * every cell 0.  Returns the number of threads that ran. */
int64_t splitmix64_fill(double *dst, int64_t nz, int64_t ny, int64_t nx,
                        const int64_t *lo, const int64_t *hi, uint64_t first,
                        uint64_t row, uint64_t plane, uint64_t seed,
                        int64_t threads)
{
    struct fill f = {dst, ny, nx, lo, hi, first, row, plane, seed};
    return team(fill_planes, &f, nz, threads);
}

/* Grid3.copy's copy of nz planes of plane cells each. */
struct copy {
    double *dst;
    const double *src;
    int64_t plane;
};

static void copy_planes(const void *job, int64_t z0, int64_t z1)
{
    const struct copy *c = job;
    for (int64_t z = z0; z < z1; z++)
        memcpy(c->dst + z * c->plane, c->src + z * c->plane,
               (size_t)c->plane * sizeof *c->dst);
}

/* The copy over a team of up to threads threads; returns the number of
 * threads that ran. */
int64_t copy_grid(double *dst, const double *src, int64_t nz, int64_t plane,
                  int64_t threads)
{
    struct copy c = {dst, src, plane};
    return team(copy_planes, &c, nz, threads);
}

/* The run driver.  pipeline.py builds one work table per direction, a row
 * per (block, level) holding the window, the level u and a bit mask of the
 * Dirichlet ring sides (bit 2*axis + side) the window touches, and one pass
 * plan per run, a row per pass (struct frame).  The thread of position g
 * walks the rows of its levels g*T+1 .. (g+1)*T block by block, for every
 * pass of the plan, and enforces the relaxed conditions of ready() on the
 * shared counters, or a staggered lockstep on a sense-reversing barrier.
 * Every field is 8 bytes wide; kernel.RunSpec mirrors this layout. */
enum { XL, XH, YL, YH, ZL, ZH, LEVEL, SIDES, NCOL };
enum { ST_BLOCKS, ST_WINDOWS, ST_CELLS, ST_SPINS, ST_PRED_WAIT_NS,
       ST_SUCC_WAIT_NS, ST_PRED_GAP_MIN, ST_PRED_VIOLATIONS, ST_SUCC_GAP_MAX,
       NSTAT };
enum { SLOT = 8 };                    /* int64 per counter: one cache line */
enum { CTL_ABORT = 0, CTL_COUNT = SLOT, CTL_SENSE = 2 * SLOT };
enum { DONE = 0, DEADLOCK = 1, ABORTED = 2, NOT_STARTED = 3 };
enum { PRED, SUCC, BARRIER };

/* One row of the run's pass plan (pipeline.PipelineEngine._plan).  The pass
 * runs in direction dir (+1 forward, ascending z, with rows[0]; -1 backward
 * with rows[1]).  Level u reads grid[(parity+u-1)&1] at frame offset
 * base-shift*(u-1) and writes grid[(parity+u)&1] at base-shift*u. */
struct frame {
    int64_t dir, parity, base, shift;
};

/* Fixed when the engine is built; a run sets only plan and passes.  Before a
 * pass, the front thread rewrites the ring sides in restore from face[]. */
struct run_spec {
    const int64_t *rows[2];     /* nblocks x h rows of NCOL each */
    int64_t nblocks, h, T, nt, passes;
    const struct frame *plan;   /* one row per pass */
    double *grid[2];
    int64_t sy, sz;
    const double *face[6];      /* x0 x1 y0 y1 z0 z1, C-contiguous, or NULL */
    int64_t restore, nx, ny, nz;
    int64_t *counters;          /* counter i at counters[i*SLOT] */
    int64_t *ctl;               /* abort word, barrier count, barrier sense */
    const int64_t *d_l, *d_u;   /* effective distances per thread */
    int64_t barrier;            /* 0 relaxed, 1 barrier lockstep */
    double watchdog_s;
};

int64_t run_spec_size(void) { return (int64_t)sizeof(struct run_spec); }

static int64_t load(const int64_t *p) { return __atomic_load_n(p, __ATOMIC_ACQUIRE); }
static void store(int64_t *p, int64_t v) { __atomic_store_n(p, v, __ATOMIC_RELEASE); }

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* A short pause first; then give the core away, since pipeline threads may
 * outnumber the cores. */
static void relax(int64_t round)
{
    if (round >= 64)
        sched_yield();
#if defined(__x86_64__) || defined(__i386__)
    else
        __builtin_ia32_pause();
#endif
}

/* Whether thread g's condition holds; *seen is the value whose change counts
 * as progress for the watchdog.  PRED: the predecessor is at least d_l[g]
 * blocks ahead, so every cell g reads next is final.  SUCC: the successor is
 * at most d_u[g] blocks behind, which bounds the cache footprint.  The front
 * thread never tests PRED and the rear thread never tests SUCC. */
static int ready(const struct run_spec *p, int64_t g, int cond, int64_t sense,
                 int64_t *seen)
{
    const int64_t *c = p->counters;
    if (cond == PRED) {
        *seen = load(&c[(g - 1) * SLOT]);
        return *seen - load(&c[g * SLOT]) >= p->d_l[g];
    }
    if (cond == SUCC) {
        *seen = load(&c[(g + 1) * SLOT]);
        return load(&c[g * SLOT]) - *seen <= p->d_u[g];
    }
    *seen = load(&p->ctl[CTL_COUNT]);
    return load(&p->ctl[CTL_SENSE]) == sense;
}

/* Spin until the condition holds.  Each round checks the abort word and the
 * watchdog: no progress for watchdog_s sets the abort word and returns
 * DEADLOCK.  The clock is read only once a wait has begun. */
static int wait_until(const struct run_spec *p, int64_t g, int cond,
                      int64_t sense, int64_t *stats, int wait_slot)
{
    int64_t seen, last;
    if (ready(p, g, cond, sense, &seen))
        return DONE;
    const double budget_ns = p->watchdog_s * 1e9;  /* finite and > 0 */
    const int64_t start = now_ns();
    const int64_t budget = budget_ns < 9e18 ? (int64_t)budget_ns : INT64_MAX;
    int64_t now = start, since = start, rc = DONE;
    for (int64_t round = 0;; round++) {
        stats[ST_SPINS]++;
        last = seen;
        if (load(&p->ctl[CTL_ABORT])) {
            rc = ABORTED;
            break;
        }
        if (now - since > budget) {
            store(&p->ctl[CTL_ABORT], 1);
            rc = DEADLOCK;
            break;
        }
        relax(round);
        int ok = ready(p, g, cond, sense, &seen);
        now = now_ns();
        if (ok)
            break;
        if (seen != last)
            since = now;
    }
    stats[wait_slot] += now - start;
    return rc;
}

/* All nt threads meet.  With reset, the last to arrive zeroes every counter
 * before it releases the others: no thread reads a counter while it waits
 * here, and none reads one again before the release. */
static int barrier_wait(const struct run_spec *p, int64_t g, int64_t *sense,
                        int64_t *stats, int reset)
{
    *sense = !*sense;
    if (__atomic_sub_fetch(&p->ctl[CTL_COUNT], 1, __ATOMIC_ACQ_REL) == 0) {
        for (int64_t i = 0; reset && i < p->nt; i++)
            __atomic_store_n(&p->counters[i * SLOT], 0, __ATOMIC_RELAXED);
        __atomic_store_n(&p->ctl[CTL_COUNT], p->nt, __ATOMIC_RELAXED);
        store(&p->ctl[CTL_SENSE], *sense);
        return DONE;
    }
    return wait_until(p, g, BARRIER, *sense, stats, ST_PRED_WAIT_NS);
}

/* Dirichlet values next to a window at the destination frame, as
 * kernel.write_ring_strips: per side bit, the face's values over the
 * window's extent in the other two axes. */
static void ring_strips(const struct run_spec *p, double *dst, const int64_t *r,
                        ptrdiff_t o)
{
    const ptrdiff_t n[3] = {p->nx, p->ny, p->nz}, s[3] = {1, p->sy, p->sz};
    for (int bit = 0; bit < 6; bit++) {
        if (!(r[SIDES] >> bit & 1))
            continue;
        /* a face is (outer, inner) over the other two axes, outer the higher */
        const int ax = bit / 2, in = ax == 0, out = ax == 2 ? 1 : 2;
        const double *v = p->face[bit];
        double *d = dst + ((bit & 1 ? n[ax] : -1) + o) * s[ax];
        for (ptrdiff_t j = r[2 * out]; j < r[2 * out + 1]; j++)
            for (ptrdiff_t i = r[2 * in]; i < r[2 * in + 1]; i++)
                d[(j + o) * s[out] + (i + o) * s[in]] = v[j * n[in] + i];
    }
}

static int empty(const int64_t *r)
{
    return r[XL] >= r[XH] || r[YL] >= r[YH] || r[ZL] >= r[ZH];
}

static void count_row(const int64_t *r, int64_t *stats)
{
    stats[ST_WINDOWS]++;
    stats[ST_CELLS] += (r[XH] - r[XL]) * (r[YH] - r[YL]) * (r[ZH] - r[ZL]);
}

/* Planes za..zb-1 of row r's window, then the ring strips next to them.  A
 * z-face strip waits for the plane next to its face: written earlier, the
 * low one of a backward pass would overwrite the plane 0 of level u-1 that
 * this level has yet to read. */
static void run_planes(const struct run_spec *p, const struct frame *f,
                       const int64_t *r, int64_t za, int64_t zb)
{
    const int64_t u = r[LEVEL];
    const ptrdiff_t so = f->base - f->shift * (u - 1);
    const ptrdiff_t o = f->base - f->shift * u;
    double *dst = p->grid[(f->parity + u) & 1];
    jacobi_window(p->grid[(f->parity + u - 1) & 1], dst, p->sy, p->sz, so, o,
                  r[XL], r[XH], r[YL], r[YH], za, zb, o > so);
    const int64_t strips[NCOL] = {
        r[XL], r[XH], r[YL], r[YH], za, zb, u,
        r[SIDES] & ~(za > r[ZL] ? 16 : 0) & ~(zb < r[ZH] ? 32 : 0)};
    if (strips[SIDES])
        ring_strips(p, dst, strips, o);
}

/* Fewest z planes per chunk: enough that a chunk's x*y window holds at least
 * this many cells, so that a row of small planes stays one window call (a
 * T=1 row of 4 planes of 96x4 cells gets 22-plane chunks). */
enum { CHUNK_CELLS = 8192 };

/* A block's T rows as a wavefront over chunks of z planes, so that a level
 * reads the planes the level before it has just written while they are still
 * in cache.  Each step runs one chunk per level in level order, level i
 * trailing level i-1 by one plane in the pass's direction.  Windows slide
 * one cell per level against the traversal, so every plane that level i
 * reads is then final; in two-grid mode level i overwrites level i-2's
 * planes only once level i-1 has read them.  Level i's chunk ends at plane
 * lead - dir*i; lead starts at the first of the levels' starts + dir*i in
 * the pass's direction and advances one chunk per step, sized by the first
 * non-empty row's x*y window. */
static void run_block(const struct run_spec *p, const struct frame *f,
                      const int64_t *rows, int64_t *stats)
{
    const int64_t T = p->T, dir = f->dir;
    int64_t next[T];            /* each level's first plane not yet run */
    int64_t lead = 0, area = 0, left = 0;
    for (int64_t i = 0; i < T; i++) {
        const int64_t *r = rows + i * NCOL;
        if (empty(r)) {
            next[i] = dir > 0 ? r[ZH] : r[ZL];  /* at its end: nothing to run */
            continue;
        }
        next[i] = dir > 0 ? r[ZL] : r[ZH];
        count_row(r, stats);
        if (!left || dir * next[i] + i < dir * lead)
            lead = next[i] + dir * i;
        if (!left)
            area = (r[XH] - r[XL]) * (r[YH] - r[YL]);
        left++;
    }
    const int64_t chunk = (CHUNK_CELLS + area - 1) / (area ? area : 1);
    while (left > 0) {
        lead += dir * chunk;
        for (int64_t i = 0; i < T; i++) {
            const int64_t *r = rows + i * NCOL;
            const int64_t end = dir > 0 ? r[ZH] : r[ZL];
            int64_t to = lead - dir * i;
            if (dir * (to - end) > 0)
                to = end;
            if (dir * (to - next[i]) <= 0)
                continue;
            run_planes(p, f, r, dir > 0 ? next[i] : to, dir > 0 ? to : next[i]);
            next[i] = to;
            left -= to == end;
        }
    }
}

static void pause_s(double seconds)
{
    struct timespec ts = {(time_t)seconds,
                          (long)((seconds - (double)(time_t)seconds) * 1e9)};
    nanosleep(&ts, NULL);
}

/* Thread g's part of one pass: block by block, its T rows of each as a
 * wavefront of chunks (run_block).  The counter moves once per finished
 * block.  delays (NULL for none) holds a sleep in seconds per block. */
static int run_pass(const struct run_spec *p, const struct frame *f, int64_t g,
                    const double *delays, int64_t *stats, int64_t *sense)
{
    int64_t *own = &p->counters[g * SLOT];
    const int64_t last = p->nblocks - 1;
    int64_t gap, seen;
    int rc = DONE;
    if (g == 0 && p->restore) {
        const int64_t all[NCOL] = {0, p->nx, 0, p->ny, 0, p->nz, 0, p->restore};
        ring_strips(p, p->grid[0], all, f->base);
    }
    /* lockstep: in round r thread g works on block r-g */
    for (int64_t i = 0; p->barrier && i < g && rc == DONE; i++)
        rc = barrier_wait(p, g, sense, stats, 0);
    for (int64_t k = 0; k <= last && rc == DONE; k++) {
        if (!p->barrier && g > 0) {
            if ((rc = wait_until(p, g, PRED, 0, stats, ST_PRED_WAIT_NS)))
                break;
            gap = load(&p->counters[(g - 1) * SLOT]) - load(own);
            if (stats[ST_PRED_GAP_MIN] < 0 || gap < stats[ST_PRED_GAP_MIN])
                stats[ST_PRED_GAP_MIN] = gap;
            if (!ready(p, g, PRED, 0, &seen))
                stats[ST_PRED_VIOLATIONS]++;
        }
        if (delays && delays[k] > 0.0)
            pause_s(delays[k]);
        const int64_t *rows =
            p->rows[f->dir < 0] + (k * p->h + g * p->T) * NCOL;
        run_block(p, f, rows, stats);
        stats[ST_BLOCKS]++;
        if (p->barrier) {
            store(own, *own + 1);
            rc = barrier_wait(p, g, sense, stats, 0);
        } else if (k == last) {
            store(own, *own + p->d_u[g] + 1);  /* pipeline wind-down */
        } else {
            store(own, *own + 1);
            if (g < p->nt - 1) {
                gap = *own - load(&p->counters[(g + 1) * SLOT]);
                if (gap > stats[ST_SUCC_GAP_MAX])
                    stats[ST_SUCC_GAP_MAX] = gap;
                rc = wait_until(p, g, SUCC, 0, stats, ST_SUCC_WAIT_NS);
            }
        }
    }
    for (int64_t i = g + 1; p->barrier && i < p->nt && rc == DONE; i++)
        rc = barrier_wait(p, g, sense, stats, 0);
    return rc;
}

/* One position g of a run: where its code goes, and its NSTAT stats row,
 * summed over the passes, its gap fields -1 until a gap is seen.  delays
 * (NULL for none) holds a sleep in seconds per (pass, position, block). */
struct position {
    const struct run_spec *p;
    int64_t g;
    const double *delays;
    int64_t *stats, *code;
};

/* Position w's whole run: every pass.  A pass begins only once every
 * thread has finished the one before, at a barrier whose last arrival resets
 * the counters.  Its code is DONE, DEADLOCK or ABORTED. */
static void *pipeline_worker(void *arg)
{
    const struct position *w = arg;
    const struct run_spec *p = w->p;
    int64_t sense = 0;
    int rc = DONE;
    for (int64_t q = 0; q < p->passes && rc == DONE; q++) {
        if (q > 0 && (rc = barrier_wait(p, w->g, &sense, w->stats, 1)))
            break;
        rc = run_pass(p, &p->plan[q], w->g, w->delays ? w->delays
                      + (q * p->nt + w->g) * p->nblocks : NULL,
                      w->stats, &sense);
    }
    *w->code = rc;
    return NULL;
}

/* A whole run in one call: positions[0..n-1] (n >= 1) through every pass,
 * the first in the calling thread and each other in a pthread started for
 * the run and joined before the return.  stats holds an NSTAT row per
 * position of the team; codes[i] receives the code of positions[i] if it
 * runs.  If a pthread_create fails, the abort word is set, the threads
 * already started are joined, no other position runs, the one not started
 * gets NOT_STARTED and the errno is returned; else 0. */
int pipeline_run(const struct run_spec *p, const int64_t *positions, int64_t n,
                 const double *delays, int64_t *stats, int64_t *codes)
{
    struct position w[n];
    pthread_t tid[n];
    int err = 0;
    int64_t i;
    for (i = 0; i < n; i++) {
        w[i] = (struct position){p, positions[i], delays,
                                 stats + positions[i] * NSTAT, &codes[i]};
        if (i > 0 && (err = pthread_create(&tid[i], NULL, pipeline_worker,
                                           &w[i]))) {
            store(&p->ctl[CTL_ABORT], 1);
            codes[i] = NOT_STARTED;
            break;
        }
    }
    if (!err)
        pipeline_worker(&w[0]);
    while (--i > 0)
        pthread_join(tid[i], NULL);
    return err;
}
