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
   solver's solve1 and np.linalg.solve are dgesv on a column-major copy of
   the matrix; where it fails (info != 0), solver._ridge_solve retries with
   the ridge doubled, as ridge_solve here does. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t blasint; /* scipy-openblas64: ILP64 integers */

enum { ROW_MAJOR = 101, NO_TRANS = 111 }; /* CblasRowMajor, CblasNoTrans */

/* Statuses (fedres.native's): which model failed, and how. */
enum { OK, LOCAL_NOT_FINITE, GLOBAL_NOT_FINITE, NO_MEMORY };

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

/* solver._ridge_solve: dgesv on (ata + ridge on the diagonal) w = atb, the
   ridge doubled while the system is singular; NaN if it still is at an
   infinite or NaN ridge */
static void ridge_solve(const double *ata, const double *atb, blasint d, double ridge,
                        Solver *s, double *w)
{
    blasint i, j, one = 1, info;
    for (;;) {
        for (i = 0; i < d; i++)
            for (j = 0; j < d; j++)
                s->lu[j * d + i] = i == j ? ata[i * d + j] + ridge : ata[i * d + j];
        memcpy(w, atb, (size_t)d * sizeof(double));
        dgesv(&d, &one, s->lu, &d, s->pivots, w, &d, &info);
        if (!info)
            return;
        if (!(ridge < INFINITY)) {
            for (i = 0; i < d; i++)
                w[i] = NAN;
            return;
        }
        ridge *= 2.0;
    }
}

/* solver._norm_over: ||v|| / radius, from v scaled by its largest |entry|
   where the plain sum of squares overflows; scaled gets v scaled */
static double norm_over(const double *v, blasint d, double radius, double *scaled)
{
    double norm = sqrt(dot(v, v, d)), top = 0.0;
    blasint i;
    for (i = 0; i < d; i++)
        if (fabs(v[i]) > top)
            top = fabs(v[i]);
    if (!(norm == INFINITY && top < INFINITY))
        return norm / radius;
    for (i = 0; i < d; i++)
        scaled[i] = v[i] / top;
    return top / radius * sqrt(dot(scaled, scaled, d));
}

/* solver.solve_gram's path for one (d, d) problem, into w: the ridge solve,
   then bisection on the ridge (solver._solve_one; solve1's first solve
   gives the same w where it succeeds, and ridge_solve's doubling where it
   does not). w ends as the solve that accepted hi. */
static void solve_gram(const double *ata, const double *atb, blasint d, double radius,
                       Solver *s, double *w)
{
    double lo, hi, mid, limit;
    ridge_solve(ata, atb, d, BASE_RIDGE, s, w);
    if (sqrt(dot(w, w, d)) <= radius)
        return;
    lo = BASE_RIDGE;
    hi = norm_over(atb, d, radius, s->trial);
    limit = 2.0 * BASE_RIDGE;
    if (limit > hi) /* Python's max(hi, limit): NaN stays */
        hi = limit;
    for (;;) {
        ridge_solve(ata, atb, d, hi, s, w);
        if (!(sqrt(dot(w, w, d)) > radius))
            break;
        hi *= 2.0;
    }
    while (hi - lo > BISECT_REL_TOL * hi) {
        mid = 0.5 * (lo + hi);
        ridge_solve(ata, atb, d, mid, s, s->trial);
        if (sqrt(dot(s->trial, s->trial, d)) > radius) {
            lo = mid;
        } else {
            hi = mid;
            memcpy(w, s->trial, (size_t)d * sizeof(double));
        }
    }
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

/* Streams: C-contiguous rows; round t reads xg + t dg (dg,), xl + t dl (dl,)
   and y[t] and writes pred[t]. */
typedef struct {
    blasint rows, dg, dl;
    const double *xg, *xl, *y;
    double *pred;
} Streams;

/* engine.SgdSystem._run_single: wg, wl hold the initial models and get the
   final ones; *last_round gets the failing round, or the rows. */
int fedres_sgd(const Streams *in, double eta_g, double eta_l, double radius, double *wg,
               double *wl, int64_t *last_round)
{
    blasint t, i, dg = in->dg, dl = in->dl;
    double *v = malloc((size_t)(dg > dl ? dg : dl) * sizeof(double));
    int status = OK;
    if (!v)
        return NO_MEMORY;
    for (t = 0; t < in->rows; t++) {
        const double *xg = in->xg + t * dg, *xl = in->xl + t * dl;
        double y = in->y[t], gp, r, c, p;
        gp = dot(xg, wg, dg) + 0.0;
        r = gp + dot(xl, wl, dl) - y;
        c = 2.0 * r;
        for (i = 0; i < dl; i++)
            v[i] = wl[i] - eta_l * (c * xl[i]);
        if (project(v, dl, radius, wl)) {
            status = LOCAL_NOT_FINITE;
            break;
        }
        p = in->pred[t] = gp + dot(xl, wl, dl);
        r = p - y;
        c = 2.0 * r;
        for (i = 0; i < dg; i++)
            v[i] = wg[i] - eta_g * (0.0 + c * xg[i]);
        if (project(v, dg, radius, wg)) {
            status = GLOBAL_NOT_FINITE;
            break;
        }
    }
    *last_round = t + (status != OK);
    free(v);
    return status;
}

/* erm.ErmSystem._run_single, erm (re-applying) or fictitious, as
   fedres_sgd. */
int fedres_erm(const Streams *in, int erm, double radius, double *wg, double *wl,
               int64_t *last_round)
{
    blasint t, i, dg = in->dg, dl = in->dl, d = dg > dl ? dg : dl;
    /* client sums over rows [0, t): gram (dl, dl), ly (dl), cross (dl, dg);
       server sums over rows [0, t]: gram_g (dg, dg), gy (dg), cross_g (dg, dl);
       fictitious keeps its frozen right-hand sums, of (y - gp) xl over rows
       [0, t) and of (y - lp) xg over rows [0, t], in ly and gy */
    size_t client = (size_t)(dl * dl + dl + dl * dg), server = (size_t)(dg * dg + dg + dg * dl);
    double *sums = calloc(client + server + (size_t)(d * d + 3 * d), sizeof(double));
    blasint *pivots = malloc((size_t)d * sizeof(blasint));
    double *gram, *ly, *cross, *gram_g, *gy, *cross_g, *rhs, *product;
    Solver s;
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
        const double *xg = in->xg + t * dg, *xl = in->xl + t * dl;
        double y = in->y[t], gp, lp;
        if (t) { /* every archive holds a sample */
            const double *pxg = xg - dg, *pxl = xl - dl;
            add_outer(gram, pxl, pxl, dl, dl);
            if (erm) {
                add_scaled(ly, in->y[t - 1], pxl, dl);
                add_outer(cross, pxl, pxg, dl, dg);
                matvec(cross, wg, dl, dg, product);
                for (i = 0; i < dl; i++)
                    rhs[i] = ly[i] - product[i];
            }
            solve_gram(gram, erm ? rhs : ly, dl, radius, &s, wl);
        }
        gp = dot(xg, wg, dg) + 0.0;
        lp = dot(xl, wl, dl) + 0.0;
        in->pred[t] = gp + lp;
        add_outer(gram_g, xg, xg, dg, dg);
        if (erm) {
            add_scaled(gy, y, xg, dg);
            add_outer(cross_g, xg, xl, dg, dl);
            matvec(cross_g, wl, dg, dl, product);
            for (i = 0; i < dg; i++)
                rhs[i] = 0.0 + (gy[i] - product[i]);
        } else {
            add_scaled(ly, y - gp, xl, dl);
            add_scaled(gy, y - lp, xg, dg);
        }
        solve_gram(gram_g, erm ? rhs : gy, dg, radius, &s, wg);
    }
    *last_round = t;
    free(sums);
    free(pivots);
    return OK;
}
