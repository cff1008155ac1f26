/* The rounds of fedres.engine and fedres.erm, every round in C.

   Each function here is the C form of a Python path, written to give the
   same bits and the same failures: fedres_rounds is SgdSystem's block path
   under the aligned rule at batch size 1, for any number of clients, and
   fedres_erm is ErmSystem's path for one client at zero delay, with the
   1-D path of solver.solve_gram that it calls. Both share one contract:
   a view of the system's own arrays, which fedres.native builds once with
   the system, and a call that runs its rounds t0 + 1 .. t0 + n in place
   and returns a status with the round and client it names. Every array,
   the running sums and scratch included, is the caller's: nothing here
   allocates. Products and solves go through the OpenBLAS entry points that
   NumPy itself calls; fedres.native resolves them in NumPy's OpenBLAS and
   passes them to fedres_bind. Everything else is one IEEE double operation
   per Python operation, in the Python order: the library is built with
   -ffp-contract=off and without fast-math, so no product and sum fuse and
   no sum is reassociated.

   The products, on unit-stride operands, as NumPy dispatches them:
     np.vecdot     every element 0.0 + ddot, DOUBLE_dot's sum: at n = 1 the
                   product added to 0.0 (never -0.0), at n = 0 +0.0
     (n,).(n,)     ndarray.dot, cblas_matrixproduct: n = 1 the bare product;
                   else 0.0 + ddot
     (m, n).(n,)   m = 1: as (n,).(n,); n = 1: daxpy into zeros;
                   else row-major dgemv into zeros
   solver's solve1 and np.linalg.solve are dgesv on a column-major copy of
   the matrix; where it fails (info != 0), solver._ridge_solve retries with
   the ridge doubled, as ridge_solve here does. */

#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t blasint; /* scipy-openblas64: ILP64 integers */

enum { ROW_MAJOR = 101, NO_TRANS = 111 }; /* CblasRowMajor, CblasNoTrans */

/* Statuses (fedres.native's): which model failed. */
enum { OK, LOCAL_NOT_FINITE, GLOBAL_NOT_FINITE };

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

/* dst[:n] = src[:n]: a loop, cheaper than a memcpy call for a model's few entries */
static void copy(double *dst, const double *src, blasint n)
{
    blasint i;
    for (i = 0; i < n; i++)
        dst[i] = src[i];
}

/* one element of np.vecdot(x, y) for x, y of length n */
static double vdot(const double *x, const double *y, blasint n)
{
    if (n == 0)
        return 0.0;
    if (n == 1)
        return 0.0 + x[0] * y[0];
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

/* core.project_ball(v, radius) into w, for a vector or a row of the 2-D
   path (both compute a row alike); -1, with w untouched, when the norm is
   not finite */
static int project(const double *v, blasint d, double radius, double *w)
{
    double n = sqrt(vdot(v, v, d)), f;
    blasint i;
    if (n <= radius) { /* NaN fails the screen */
        copy(w, v, d);
        return 0;
    }
    if (!isfinite(n))
        return -1;
    f = radius / n;
    for (i = 0; i < d; i++)
        w[i] = v[i] * f;
    while (sqrt(vdot(w, w, d)) > radius) {
        f = nextafter(f, 0.0);
        for (i = 0; i < d; i++)
            w[i] = v[i] * f;
    }
    return 0;
}

/* Exact: a one-client run of erm.ErmSystem at zero delay as fedres_erm
   reads and writes it. Round t (from 1) reads the rows xg + (t - 1) xg_row
   (dg,), the same of xl (dl,) and of y, and writes pred[t - 1]; strides
   count elements, and the feature axes are unit-stride. history is the
   channel's (reach + rows + 1, dg) C-order history, whose row reach + t
   gets the global model after round t; wg (dg,) and wl (dl,) are the
   models, solved in place at the fetch wg. erm picks the re-applying
   variant, else fictitious play. The running sums start at zero and carry
   over between calls: the client's solve in round t reads sums over rows
   [0, t - 1) of gram = xl xl^T (dl, dl), ly = y xl (dl,) and cross = xl xg^T
   (dl, dg), the server's over rows [0, t) of gram_g = xg xg^T (dg, dg),
   gy = y xg (dg,) and cross_g = xg xl^T (dg, dl). Fictitious play keeps the
   two grams, and in ly and gy its frozen right-hand sums of (y - gp) xl
   and (y - lp) xg over the same rows. Scratch, max(dg, dl) entries a side:
   a solve's column-major lu, trial solution and pivots, a right-hand side
   rhs and a product. */
typedef struct {
    blasint rows, dg, dl, reach, erm, xg_row, xl_row, y_row;
    const double *xg, *xl, *y;
    double *pred, *history, *wg, *wl;
    double *gram, *ly, *cross, *gram_g, *gy, *cross_g;
    double *lu, *trial, *rhs, *product;
    blasint *pivots;
    double radius;
} Exact;

/* solver._ridge_solve: dgesv on (ata + ridge on the diagonal) w = atb, the
   ridge doubled while the system is singular; NaN if it still is at an
   infinite or NaN ridge */
static void ridge_solve(const Exact *s, const double *ata, const double *atb, blasint d,
                        double ridge, double *w)
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
static void solve_gram(const Exact *s, const double *ata, const double *atb, blasint d,
                       double *w)
{
    double lo, hi, mid, limit, radius = s->radius;
    ridge_solve(s, ata, atb, d, BASE_RIDGE, w);
    if (sqrt(dot(w, w, d)) <= radius)
        return;
    lo = BASE_RIDGE;
    hi = norm_over(atb, d, radius, s->trial);
    limit = 2.0 * BASE_RIDGE;
    if (limit > hi) /* Python's max(hi, limit): NaN stays */
        hi = limit;
    for (;;) {
        ridge_solve(s, ata, atb, d, hi, w);
        if (!(sqrt(dot(w, w, d)) > radius))
            break;
        hi *= 2.0;
    }
    while (hi - lo > BISECT_REL_TOL * hi) {
        mid = 0.5 * (lo + hi);
        ridge_solve(s, ata, atb, d, mid, s->trial);
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

/* erm.ErmSystem's rounds t0 + 1 .. t0 + n for one client at zero delay,
   with the bits of its stacked path and of _run_single: the client solves
   at the fetch wg and predicts, and the server solves on the row just
   sent. failure[0] gets the last round; the solves always answer, so the
   status is OK. */
int fedres_erm(const Exact *s, int64_t t0, int64_t n, int64_t *failure)
{
    blasint dg = s->dg, dl = s->dl, t, i;
    for (t = t0 + 1; t <= t0 + n; t++) {
        const double *xg = s->xg + (t - 1) * s->xg_row, *xl = s->xl + (t - 1) * s->xl_row;
        double y = s->y[(t - 1) * s->y_row], gp, lp;
        if (t > 1) { /* every archive holds a sample */
            const double *pxg = xg - s->xg_row, *pxl = xl - s->xl_row;
            add_outer(s->gram, pxl, pxl, dl, dl);
            if (s->erm) {
                add_scaled(s->ly, s->y[(t - 2) * s->y_row], pxl, dl);
                add_outer(s->cross, pxl, pxg, dl, dg);
                matvec(s->cross, s->wg, dl, dg, s->product);
                for (i = 0; i < dl; i++)
                    s->rhs[i] = s->ly[i] - s->product[i];
            }
            solve_gram(s, s->gram, s->erm ? s->rhs : s->ly, dl, s->wl);
        }
        gp = dot(xg, s->wg, dg) + 0.0;
        lp = dot(xl, s->wl, dl) + 0.0;
        s->pred[t - 1] = gp + lp;
        add_outer(s->gram_g, xg, xg, dg, dg);
        if (s->erm) {
            add_scaled(s->gy, y, xg, dg);
            add_outer(s->cross_g, xg, xl, dg, dl);
            matvec(s->cross_g, s->wl, dg, dl, s->product);
            for (i = 0; i < dg; i++)
                s->rhs[i] = 0.0 + (s->gy[i] - s->product[i]);
        } else {
            add_scaled(s->ly, y - gp, xl, dl);
            add_scaled(s->gy, y - lp, xg, dg);
        }
        solve_gram(s, s->gram_g, s->erm ? s->rhs : s->gy, dg, s->wg);
        copy(s->history + (s->reach + t) * dg, s->wg, dg);
    }
    failure[0] = t - 1;
    return OK;
}

/* Rounds: a P-client run of engine.SgdSystem as fedres_rounds reads and
   writes it. Round t (from 1) of client i reads the rows
   xg + (t - 1) xg_row + i xg_client (dg,), the same of xl (dl,) and of y;
   strides count elements, and the feature axes are unit-stride. Its
   prediction and residual are entry (t - 1) clients + i of pred and resid.
   history is the channel's (reach + rows + 1, dg) C-order history: client
   i fetches row t + fetch[i] in round t, and row reach + t gets the global
   model after round t. wg (dg,) and wl (clients, dl) are the models,
   stepped in place. alpha and lag are each client's uplink delay and round
   trip, eta_local its step. Scratch of a round: the fetched products gp
   (clients,), the stepped local models next (clients, dl), a local step v
   (dl,) and the server's client sum gsum (dg,). */
typedef struct {
    blasint rows, clients, dg, dl, reach;
    blasint xg_row, xg_client, xl_row, xl_client, y_row, y_client;
    const double *xg, *xl, *y;
    double *pred, *resid, *history, *wg, *wl;
    const blasint *fetch, *alpha, *lag;
    const double *eta_local;
    double *gp, *next, *v, *gsum;
    double eta_global, radius;
} Rounds;

/* Round t of fedres_rounds; the failing client goes to *client. */
static int one_round(const Rounds *s, blasint t, blasint min_alpha, blasint min_lag,
                     int64_t *client)
{
    blasint P = s->clients, dg = s->dg, dl = s->dl, row = t - 1, i, j, at;
    double *resid = s->resid + row * P;
    for (i = 0; i < P; i++)
        s->gp[i] = vdot(s->xg + row * s->xg_row + i * s->xg_client,
                        s->history + (t + s->fetch[i]) * dg, dg);
    if (min_lag == 0) /* a zero round trip steps on its pre-step residual */
        for (i = 0; i < P; i++)
            resid[i] = s->gp[i] + vdot(s->xl + row * s->xl_row + i * s->xl_client,
                                       s->wl + i * dl, dl)
                       - s->y[row * s->y_row + i * s->y_client];
    /* every live client steps on the residual of round t - lag: the block
       path's 2-D projection, row by row; wl changes only if every row does */
    for (i = 0; i < P; i++) {
        const double *w = s->wl + i * dl, *x;
        double c, eta = s->eta_local[i];
        at = t - s->lag[i] - 1; /* the row of round t - lag */
        if (at < 0) {
            copy(s->next + i * dl, w, dl);
            continue;
        }
        c = 2.0 * s->resid[at * P + i];
        x = s->xl + at * s->xl_row + i * s->xl_client;
        for (j = 0; j < dl; j++)
            s->v[j] = w[j] - eta * (c * x[j]);
        if (project(s->v, dl, s->radius, s->next + i * dl)) {
            *client = i;
            return LOCAL_NOT_FINITE;
        }
    }
    copy(s->wl, s->next, P * dl);
    for (i = 0; i < P; i++) {
        double p = s->gp[i] + vdot(s->xl + row * s->xl_row + i * s->xl_client, s->wl + i * dl,
                                   dl);
        s->pred[row * P + i] = p;
        resid[i] = p - s->y[row * s->y_row + i * s->y_client];
    }
    /* the server steps on the residuals of round t - alpha, summed in client
       order from the first client; a client not live yet adds (2.0 * 0.0) x
       of the row the block path reads, (t - alpha - 1) modulo the rows */
    if (t > min_alpha) {
        for (i = 0; i < P; i++) {
            const double *x;
            double c;
            at = t - s->alpha[i] - 1; /* the row of round t - alpha */
            if (at >= 0) {
                c = 2.0 * s->resid[at * P + i];
            } else { /* not live yet: 2.0 * 0.0 */
                c = 0.0;
                at %= s->rows;
                if (at < 0)
                    at += s->rows;
            }
            x = s->xg + at * s->xg_row + i * s->xg_client;
            for (j = 0; j < dg; j++)
                s->gsum[j] = i ? s->gsum[j] + c * x[j] : c * x[j];
        }
        for (j = 0; j < dg; j++) /* the step to project, in place of the sum */
            s->gsum[j] = s->wg[j] - s->eta_global * (0.0 + s->gsum[j]);
        if (project(s->gsum, dg, s->radius, s->wg)) {
            *client = -1;
            return GLOBAL_NOT_FINITE;
        }
    }
    copy(s->history + (s->reach + t) * dg, s->wg, dg);
    return OK;
}

/* engine.SgdSystem's rounds t0 + 1 .. t0 + n under the aligned rule at
   batch size 1, with the block path's bits. failure[0] gets the last round
   run; on a failure it is the failing round, failure[1] gets its client
   (-1 for the global model), and the models stay those in force when it
   failed. */
int fedres_rounds(const Rounds *s, int64_t t0, int64_t n, int64_t *failure)
{
    blasint min_alpha = INT64_MAX, min_lag = INT64_MAX, t, i;
    int status = OK;
    for (i = 0; i < s->clients; i++) {
        if (s->alpha[i] < min_alpha)
            min_alpha = s->alpha[i];
        if (s->lag[i] < min_lag)
            min_lag = s->lag[i];
    }
    for (t = t0 + 1; t <= t0 + n && status == OK; t++)
        status = one_round(s, t, min_alpha, min_lag, &failure[1]);
    failure[0] = t - 1;
    return status;
}
