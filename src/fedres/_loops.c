/* The single-client loops of fedres.engine and fedres.erm, every round in C.

   Each function here is the C form of a Python loop - SgdSystem._run_single
   and ErmSystem._run_single - and of the 1-D paths of core.project_ball and
   solver.solve_gram that those loops call, written to give the same bits
   and the same failures. Products and solves go through the OpenBLAS entry
   points that NumPy itself calls; fedres.native resolves them in NumPy's
   OpenBLAS and passes them to fedres_bind. Everything else is one IEEE
   double operation per Python operation, in the Python order: the library
   is built with -ffp-contract=off and without fast-math, so no product and
   sum fuse and no sum is reassociated.

   ndarray.dot on contiguous 1-D and (m, n) C-order operands, as NumPy's
   cblas_matrixproduct dispatches it:
     (n,).(n,)     n = 1: the bare product; else 0.0 + ddot (DOUBLE_dot's sum)
     (m, n).(n,)   m = 1: as (n,).(n,); n = 1: daxpy into zeros;
                   else row-major dgemv into zeros
   solver's solve1 is dgesv on a column-major copy of the matrix, whose
   failure (info != 0) gives a NaN solution; np.linalg.solve raises
   LinAlgError on it instead. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t blasint; /* scipy-openblas64: ILP64 integers */

enum { ROW_MAJOR = 101, NO_TRANS = 111 }; /* CblasRowMajor, CblasNoTrans */

/* Statuses; the failing round goes to *failed_round. */
enum { OK = 0, LOCAL_NOT_FINITE = 1, GLOBAL_NOT_FINITE = 2, SINGULAR = 3, NO_MEMORY = 4 };

static const double BASE_RIDGE = 1e-10;      /* solver.BASE_RIDGE */
static const double BISECT_REL_TOL = 1e-10;  /* solver._BISECT_REL_TOL */

typedef double ddot_f(blasint, const double *, blasint, const double *, blasint);
typedef void dgemv_f(int, int, blasint, blasint, double, const double *, blasint,
                     const double *, blasint, double, double *, blasint);
typedef void daxpy_f(blasint, double, const double *, blasint, double *, blasint);
typedef void dgesv_f(const blasint *, const blasint *, double *, const blasint *, blasint *,
                     double *, const blasint *, blasint *);
static ddot_f *ddot;
static dgemv_f *dgemv;
static daxpy_f *daxpy;
static dgesv_f *dgesv;

void fedres_bind(ddot_f *dot, dgemv_f *gemv, daxpy_f *axpy, dgesv_f *gesv)
{
    ddot = dot, dgemv = gemv, daxpy = axpy, dgesv = gesv;
}

/* x.dot(y) for x, y of length n */
static double dot(const double *x, const double *y, blasint n)
{
    if (n == 1)
        return x[0] * y[0];
    return 0.0 + ddot(n, x, 1, y, 1);
}

/* out = a.dot(x) for a C-order (m, n) matrix */
static void matvec(const double *a, const double *x, blasint m, blasint n, double *out)
{
    if (m == 1) {
        out[0] = dot(a, x, n);
        return;
    }
    memset(out, 0, (size_t)m * sizeof(double));
    if (n == 1)
        daxpy(m, x[0], a, 1, out, 1);
    else
        dgemv(ROW_MAJOR, NO_TRANS, m, n, 1.0, a, n, x, 1, 0.0, out, 1);
}

/* core.project_ball(v, radius) into w; -1 when the norm is not finite */
static int project(const double *v, blasint d, double radius, double *w)
{
    double n = sqrt(dot(v, v, d)), f;
    blasint i;
    if (n <= radius) { /* NaN fails the screen */
        memcpy(w, v, (size_t)d * sizeof(double));
        return 0;
    }
    if (!isfinite(n))
        return -1;
    f = radius / n;
    for (i = 0; i < d; i++)
        w[i] = v[i] * f;
    while (sqrt(dot(w, w, d)) > radius) {
        f = nextafter(f, 0.0);
        for (i = 0; i < d; i++)
            w[i] = v[i] * f;
    }
    return 0;
}

/* Scratch of one solve: a column-major matrix, a trial solution, pivots. */
typedef struct {
    double *lu, *trial;
    blasint *pivots;
} Solver;

/* dgesv on (ata + ridge on the diagonal) w = atb; returns LAPACK's info */
static blasint ridge_solve(const double *ata, const double *atb, blasint d, double ridge,
                           Solver *s, double *w)
{
    blasint i, j, one = 1, info = 0;
    for (i = 0; i < d; i++)
        for (j = 0; j < d; j++)
            s->lu[j * d + i] = i == j ? ata[i * d + j] + ridge : ata[i * d + j];
    memcpy(w, atb, (size_t)d * sizeof(double));
    dgesv(&d, &one, s->lu, &d, s->pivots, w, &d, &info);
    return info;
}

/* solver._solve_one: the ridge solve, then bisection on the ridge */
static int solve_one(const double *ata, const double *atb, blasint d, double radius,
                     Solver *s, double *w)
{
    double norm, lo, hi, mid, limit;
    blasint i;
    if (ridge_solve(ata, atb, d, BASE_RIDGE, s, w))
        return SINGULAR;
    if (sqrt(dot(w, w, d)) <= radius)
        return OK;
    lo = BASE_RIDGE;
    hi = sqrt(dot(atb, atb, d)) / radius;
    limit = 2.0 * BASE_RIDGE;
    if (limit > hi) /* Python's max(hi, limit): NaN stays */
        hi = limit;
    for (;;) {
        if (ridge_solve(ata, atb, d, hi, s, s->trial))
            return SINGULAR;
        if (!(sqrt(dot(s->trial, s->trial, d)) > radius))
            break;
        hi *= 2.0;
    }
    while (hi - lo > BISECT_REL_TOL * hi) {
        mid = 0.5 * (lo + hi);
        if (ridge_solve(ata, atb, d, mid, s, s->trial))
            return SINGULAR;
        if (sqrt(dot(s->trial, s->trial, d)) > radius)
            lo = mid;
        else
            hi = mid;
    }
    if (ridge_solve(ata, atb, d, hi, s, w))
        return SINGULAR;
    norm = sqrt(dot(w, w, d));
    if (norm > radius) {
        double f = radius / norm;
        for (i = 0; i < d; i++)
            w[i] = w[i] * f;
    }
    return OK;
}

/* solver.solve_gram's path for one (d, d) problem, into w */
static int solve_gram(const double *ata, const double *atb, blasint d, double radius,
                      Solver *s, double *w)
{
    blasint i;
    if (ridge_solve(ata, atb, d, BASE_RIDGE, s, w))
        for (i = 0; i < d; i++) /* solve1 fills a failed solution with NaN */
            w[i] = NAN;
    if (sqrt(dot(w, w, d)) <= radius)
        return OK;
    return solve_one(ata, atb, d, radius, s, w);
}

/* sum += a b^T for a (m,) and b (n,), row by row */
static void add_outer(double *sum, const double *a, const double *b, blasint m, blasint n)
{
    blasint i, j;
    for (i = 0; i < m; i++)
        for (j = 0; j < n; j++)
            sum[i * n + j] += a[i] * b[j];
}

/* sum += c x */
static void add_scaled(double *sum, double c, const double *x, blasint n)
{
    blasint i;
    for (i = 0; i < n; i++)
        sum[i] += c * x[i];
}

/* Streams: round t reads xg + t sxg (dg,), xl + t sxl (dl,), y[t sy] and
   writes pred[t sp] (strides in doubles). */
typedef struct {
    blasint rows, dg, dl, sxg, sxl, sy, sp;
    const double *xg, *xl, *y;
    double *pred;
} Streams;

/* engine.SgdSystem._run_single: wg, wl hold the initial models and get the
   final ones; fetched gets the last round's fetch. */
int fedres_sgd(const Streams *in, double eta_g, double eta_l, double radius, double *wg,
               double *wl, double *fetched, int64_t *failed_round)
{
    blasint t, i, dg = in->dg, dl = in->dl;
    double *v = malloc((size_t)(dg > dl ? dg : dl) * sizeof(double));
    int status = OK;
    if (!v)
        return NO_MEMORY;
    for (t = 0; t < in->rows; t++) {
        const double *xg = in->xg + t * in->sxg, *xl = in->xl + t * in->sxl;
        double y = in->y[t * in->sy], gp, r, c, p;
        memcpy(fetched, wg, (size_t)dg * sizeof(double));
        gp = dot(xg, wg, dg) + 0.0;
        r = gp + dot(xl, wl, dl) - y;
        c = 2.0 * r;
        for (i = 0; i < dl; i++)
            v[i] = wl[i] - eta_l * (c * xl[i]);
        if (project(v, dl, radius, wl)) {
            status = LOCAL_NOT_FINITE;
            break;
        }
        p = in->pred[t * in->sp] = gp + dot(xl, wl, dl);
        r = p - y;
        c = 2.0 * r;
        for (i = 0; i < dg; i++)
            v[i] = wg[i] - eta_g * (0.0 + c * xg[i]);
        if (project(v, dg, radius, wg)) {
            status = GLOBAL_NOT_FINITE;
            break;
        }
    }
    *failed_round = t + 1;
    free(v);
    return status;
}

/* erm.ErmSystem._run_single, erm (re-applying) or fictitious: wg, wl and
   frozen_rhs_g hold the initial values and get the final ones, frozen_rhs
   is updated in place every round, fetched gets the last round's fetch. */
int fedres_erm(const Streams *in, int erm, double radius, double *wg, double *wl,
               double *fetched, double *frozen_rhs, double *frozen_rhs_g, int64_t *failed_round)
{
    blasint t, i, dg = in->dg, dl = in->dl, d = dg > dl ? dg : dl;
    /* client sums over rows [0, t): gram (dl, dl), ly (dl), cross (dl, dg);
       server sums over rows [0, t]: gram_g (dg, dg), gy (dg), cross_g (dg, dl) */
    size_t client = (size_t)(dl * dl + dl + dl * dg), server = (size_t)(dg * dg + dg + dg * dl);
    double *sums = calloc(client + server + (size_t)(d * d + 3 * d), sizeof(double));
    blasint *pivots = malloc((size_t)d * sizeof(blasint));
    double *gram, *ly, *cross, *gram_g, *gy, *cross_g, *rhs, *product;
    Solver s;
    int status = OK;
    if (!sums || !pivots) {
        free(sums);
        free(pivots);
        return NO_MEMORY;
    }
    gram = sums, ly = gram + dl * dl, cross = ly + dl;
    gram_g = sums + client, gy = gram_g + dg * dg, cross_g = gy + dg;
    s.lu = sums + client + server, s.trial = s.lu + d * d, s.pivots = pivots;
    rhs = s.trial + d, product = rhs + d;
    for (t = 0; t < in->rows; t++) {
        const double *xg = in->xg + t * in->sxg, *xl = in->xl + t * in->sxl;
        double y = in->y[t * in->sy], gp, lp;
        memcpy(fetched, wg, (size_t)dg * sizeof(double));
        if (t) { /* every archive holds a sample */
            const double *pxg = xg - in->sxg, *pxl = xl - in->sxl;
            double py = in->y[(t - 1) * in->sy];
            add_outer(gram, pxl, pxl, dl, dl);
            if (erm) {
                add_scaled(ly, py, pxl, dl);
                add_outer(cross, pxl, pxg, dl, dg);
                matvec(cross, wg, dl, dg, product);
                for (i = 0; i < dl; i++)
                    rhs[i] = ly[i] - product[i];
                status = solve_gram(gram, rhs, dl, radius, &s, wl);
            } else {
                status = solve_gram(gram, frozen_rhs, dl, radius, &s, wl);
            }
            if (status)
                break;
        }
        gp = dot(xg, wg, dg) + 0.0;
        lp = dot(xl, wl, dl) + 0.0;
        in->pred[t * in->sp] = gp + lp;
        add_outer(gram_g, xg, xg, dg, dg);
        if (erm) {
            add_scaled(gy, y, xg, dg);
            add_outer(cross_g, xg, xl, dg, dl);
            matvec(cross_g, wl, dg, dl, product);
            for (i = 0; i < dg; i++)
                rhs[i] = 0.0 + (gy[i] - product[i]);
            status = solve_gram(gram_g, rhs, dg, radius, &s, wg);
        } else {
            add_scaled(frozen_rhs, y - gp, xl, dl);
            add_scaled(frozen_rhs_g, y - lp, xg, dg);
            status = solve_gram(gram_g, frozen_rhs_g, dg, radius, &s, wg);
        }
        if (status)
            break;
    }
    *failed_round = t + 1;
    free(sums);
    free(pivots);
    return status;
}
