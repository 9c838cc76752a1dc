/* Jacobi window update and pipelined run driver, the compiled bodies of
 * kernel.apply_window and pipeline.PipelineEngine.run_passes.
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
 */
#define _POSIX_C_SOURCE 200809L
#include <sched.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

void jacobi_window(const double *src, double *dst, ptrdiff_t sy, ptrdiff_t sz,
                   ptrdiff_t src_off, ptrdiff_t dst_off,
                   ptrdiff_t xl, ptrdiff_t xh, ptrdiff_t yl, ptrdiff_t yh,
                   ptrdiff_t zl, ptrdiff_t zh, int descending)
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

/* The run driver.  pipeline.py builds one work table per direction, a row
 * per (block, level) holding the window, the level u and a bit mask of the
 * Dirichlet ring sides (bit 2*axis + side) the window touches.  Thread g
 * walks the rows of its levels g*T+1 .. (g+1)*T block by block, for every
 * pass of the run, and enforces the same two conditions as
 * pipeline.predecessor_ready / successor_within on the shared counters, or a
 * staggered lockstep on a sense-reversing barrier.  Every field is 8 bytes
 * wide; kernel.RunSpec mirrors this layout. */
enum { XL, XH, YL, YH, ZL, ZH, LEVEL, SIDES, NCOL };
enum { ST_BLOCKS, ST_WINDOWS, ST_CELLS, ST_SPINS, ST_PRED_WAIT_NS,
       ST_SUCC_WAIT_NS, ST_PRED_GAP_MIN, ST_PRED_VIOLATIONS, ST_SUCC_GAP_MAX,
       NSTAT };
enum { SLOT = 8 };                    /* int64 per counter: one cache line */
enum { CTL_ABORT = 0, CTL_COUNT = SLOT, CTL_SENSE = 2 * SLOT };
enum { DONE = 0, DEADLOCK = 1, ABORTED = 2 };
enum { PRED, SUCC, BARRIER };

/* Pass q of a run is pass first+q of the engine: even ones run forward with
 * rows[0], odd ones backward with rows[1].  Level u of a pass reads
 * grid[(parity+u-1)&1] at frame offset base-shift*(u-1) and writes
 * grid[(parity+u)&1] at base-shift*u; shift is 0 (two grids) or the
 * direction (one array, compressed), and each pass starts where the last one
 * ended: parity grows by h, base moves by -shift*h. */
struct run_spec {
    const int64_t *rows[2];     /* nblocks x h rows of NCOL, or NULL if unused */
    int64_t nblocks, h, T, nt;
    int64_t passes, first;
    double *grid[2];
    int64_t parity;             /* of the first pass */
    int64_t sy, sz;
    int64_t base_off;           /* frame offset of the first pass's level 0 */
    int64_t shifting;           /* 1: frames shift by the direction per level */
    const double *face[6];      /* x0 x1 y0 y1 z0 z1, C-contiguous */
    int64_t ring;               /* sides restored in full before each pass */
    int64_t nx, ny, nz;
    int64_t *counters;          /* counter i at counters[i*SLOT] */
    int64_t *ctl;               /* abort word, barrier count, barrier sense */
    const int64_t *d_l, *d_u;   /* effective distances per thread */
    int64_t barrier;            /* 0 relaxed, 1 barrier lockstep */
    double watchdog_s;
};

struct frame {                  /* one pass of the run */
    const int64_t *rows;
    int64_t parity, base, shift;
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
 * as progress for the watchdog. */
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
 * kernel.write_ring_strips. */
static void ring_strips(const struct run_spec *p, double *dst, const int64_t *r,
                        ptrdiff_t o)
{
    const ptrdiff_t sy = p->sy, sz = p->sz, nx = p->nx, ny = p->ny;
    for (int side = 0; side < 2; side++) {
        if (r[SIDES] & (1 << side)) {
            const double *v = p->face[side];
            ptrdiff_t at = (side ? nx : -1) + o;
            for (ptrdiff_t z = r[ZL]; z < r[ZH]; z++)
                for (ptrdiff_t y = r[YL]; y < r[YH]; y++)
                    dst[(z + o) * sz + (y + o) * sy + at] = v[z * ny + y];
        }
        if (r[SIDES] & (4 << side)) {
            const double *v = p->face[2 + side];
            ptrdiff_t at = (side ? ny : -1) + o;
            for (ptrdiff_t z = r[ZL]; z < r[ZH]; z++)
                for (ptrdiff_t x = r[XL]; x < r[XH]; x++)
                    dst[(z + o) * sz + at * sy + x + o] = v[z * nx + x];
        }
        if (r[SIDES] & (16 << side)) {
            const double *v = p->face[4 + side];
            ptrdiff_t at = (side ? p->nz : -1) + o;
            for (ptrdiff_t y = r[YL]; y < r[YH]; y++)
                for (ptrdiff_t x = r[XL]; x < r[XH]; x++)
                    dst[at * sz + (y + o) * sy + x + o] = v[y * nx + x];
        }
    }
}

static void run_row(const struct run_spec *p, const struct frame *f,
                    const int64_t *r, int64_t *stats)
{
    if (r[XL] >= r[XH] || r[YL] >= r[YH] || r[ZL] >= r[ZH])
        return;  /* the window slid out of this block's share of the level */
    const int64_t u = r[LEVEL];
    const ptrdiff_t so = f->base - f->shift * (u - 1);
    const ptrdiff_t o = f->base - f->shift * u;
    double *dst = p->grid[(f->parity + u) & 1];
    jacobi_window(p->grid[(f->parity + u - 1) & 1], dst, p->sy, p->sz, so, o,
                  r[XL], r[XH], r[YL], r[YH], r[ZL], r[ZH], o > so);
    stats[ST_WINDOWS]++;
    stats[ST_CELLS] += (r[XH] - r[XL]) * (r[YH] - r[YL]) * (r[ZH] - r[ZL]);
    if (r[SIDES])
        ring_strips(p, dst, r, o);
}

static void pause_s(double seconds)
{
    struct timespec ts = {(time_t)seconds,
                          (long)((seconds - (double)(time_t)seconds) * 1e9)};
    nanosleep(&ts, NULL);
}

/* Thread g's part of one pass.  delays (NULL for none) holds a sleep in
 * seconds per block. */
static int run_pass(const struct run_spec *p, const struct frame *f, int64_t g,
                    const double *delays, int64_t *stats, int64_t *sense)
{
    int64_t *own = &p->counters[g * SLOT];
    const int64_t last = p->nblocks - 1;
    int64_t gap, seen;
    int rc = DONE;
    if (g == 0 && p->ring) {
        /* mid-pass strips span only the update windows, which may be
         * narrower than the first level's region: restore the whole ring at
         * this pass's read frame before any thread reads it */
        const int64_t all[NCOL] = {0, p->nx, 0, p->ny, 0, p->nz, 0, p->ring};
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
        const int64_t *row = f->rows + (k * p->h + g * p->T) * NCOL;
        for (int64_t i = 0; i < p->T; i++)
            run_row(p, f, row + i * NCOL, stats);
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

/* Thread g's whole run: every pass, in one call.  A pass begins only once
 * every thread has finished the one before, at a barrier whose last arrival
 * resets the counters.  delays (NULL for none) holds a sleep in seconds per
 * (pass, thread, block); stats is the thread's NSTAT row, summed over the
 * passes.  Returns DONE, DEADLOCK or ABORTED. */
int pipeline_worker(const struct run_spec *p, int64_t g, const double *delays,
                    int64_t *stats)
{
    int64_t sense = 0;
    int rc = DONE;
    struct frame f = {NULL, p->parity, p->base_off, 0};
    stats[ST_PRED_GAP_MIN] = stats[ST_SUCC_GAP_MAX] = -1;
    for (int64_t q = 0; q < p->passes && rc == DONE; q++) {
        const int back = (int)((p->first + q) & 1);
        if (q > 0 && (rc = barrier_wait(p, g, &sense, stats, 1)))
            break;
        f.rows = p->rows[back];
        f.shift = p->shifting * (back ? -1 : 1);
        rc = run_pass(p, &f, g,
                      delays ? delays + (q * p->nt + g) * p->nblocks : NULL,
                      stats, &sense);
        f.parity += p->h;
        f.base -= f.shift * p->h;
    }
    return rc;
}
