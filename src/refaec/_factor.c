/* The per-chunk work of the Wiener solver: the window sums of the packed
 * augmented normal equations, their load and factor-and-solve, and the
 * residual of the taps.
 *
 * A chunk holds bins units of frames frames each, frames innermost: x and y
 * are [bins][frames], and an array over units is [n], n = bins * frames. The
 * buffer g holds, entry-major, taps (taps + 3) / 2 complex entries per unit:
 * row i of a unit is A[i, i:] followed by b[i].
 *
 * Every operation of the numpy statement of the same computation
 * (numpy_products, numpy_windowed_sums, numpy_factor_solve and
 * numpy_residual in tests/helpers.py) is made in its order, with its
 * operands: a delay stack that reads zero before frame 0, a real operand of
 * a complex product taken as a complex one with a zero imaginary part, and
 * cmul rounding as numpy's complex multiply does with fused multiply-adds.
 * So the results are numpy's bits on such a host, and the same bits on any
 * host.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#define TILE 32

typedef struct {
    double re, im;
} cplx;

static inline cplx cmul(cplx a, cplx b)
{
    cplx p = {fma(a.re, b.re, -(a.im * b.im)), fma(a.re, b.im, a.im * b.re)};
    return p;
}

static inline cplx conj_(cplx a)
{
    cplx c = {a.re, -a.im};
    return c;
}

static ptrdiff_t row_start(ptrdiff_t i, ptrdiff_t taps)
{
    return i * (taps + 1) - i * (i - 1) / 2;
}

/* xp[taps + t - k] is the delay stack's x[t - k], zero before frame 0 */
static void pad(cplx *xp, const cplx *x, ptrdiff_t taps, ptrdiff_t frames)
{
    memset(xp, 0, sizeof(cplx) * taps);
    memcpy(xp + taps, x, sizeof(cplx) * frames);
}

/* Sliding sums over [t - window, t] of the frames of r, in place: running
 * sums, then each frame from window + 1 on less the running sum window + 1
 * frames back. */
static void window_sum(cplx *r, ptrdiff_t window, ptrdiff_t frames)
{
    for (ptrdiff_t t = 1; t < frames; t++) {
        r[t].re = r[t - 1].re + r[t].re;
        r[t].im = r[t - 1].im + r[t].im;
    }
    for (ptrdiff_t t = frames - 1; t > window; t--) {
        r[t].re -= r[t - window - 1].re;
        r[t].im -= r[t - window - 1].im;
    }
}

/* The window sums of every unit's normal equations into g: entry j of row i
 * at frame t is w[t] x[t - i] conj(x[t - j]) (conj(y[t]) for j = taps, the
 * entry of b[i]), summed over [t - window, t]. Returns -1 if the scratch
 * cannot be allocated. */
int window_sums(const cplx *x, const cplx *y, const double *w, cplx *g, ptrdiff_t taps,
                ptrdiff_t window, ptrdiff_t bins, ptrdiff_t frames)
{
    ptrdiff_t n = bins * frames;
    cplx *xp = malloc(sizeof(cplx) * (taps + 2 * frames));
    if (!xp)
        return -1;
    cplx *wx = xp + taps + frames;
    for (ptrdiff_t b = 0; b < bins; b++) {
        const cplx *yb = y + b * frames;
        const double *wb = w + b * frames;
        pad(xp, x + b * frames, taps, frames);
        for (ptrdiff_t i = 0, s = 0; i < taps; s += taps + 1 - i, i++) {
            const cplx *xi = xp + taps - i;
            for (ptrdiff_t t = 0; t < frames; t++)
                wx[t] = cmul(xi[t], (cplx){wb[t], 0.0});
            for (ptrdiff_t e = 0; e <= taps - i; e++) {
                const cplx *xj = e < taps - i ? xp + taps - i - e : yb;
                cplx *r = g + (s + e) * n + b * frames;
                for (ptrdiff_t t = 0; t < frames; t++)
                    r[t] = cmul(wx[t], conj_(xj[t]));
                window_sum(r, window, frames);
            }
        }
    }
    free(xp);
    return 0;
}

/* Load, factor and solve the units [0, m) of g, [rows][n], whose first unit
 * g points at, in the scratch sc: each unit's entries are copied to planes of
 * real and imaginary parts, TILE units wide, so that every loop below runs
 * over TILE lanes. Lanes from m on are zero and are not written out. */
static void tile(const cplx *g, double diag_load, cplx *h, double *root, unsigned char *bad,
                 ptrdiff_t taps, ptrdiff_t n, ptrdiff_t m, double *sc)
{
    ptrdiff_t rows = taps * (taps + 3) / 2;
    double *re = sc, *im = re + rows * TILE, *inv = im + rows * TILE;
    double *hre = inv + taps * TILE, *him = hre + taps * TILE, trace[TILE];
    unsigned char flag[TILE];
    for (ptrdiff_t e = 0; e < rows; e++) {
        const cplx *ge = g + e * n;
        double *ar = re + e * TILE, *ai = im + e * TILE;
        for (ptrdiff_t u = 0; u < m; u++) {
            ar[u] = ge[u].re;
            ai[u] = ge[u].im;
        }
        for (ptrdiff_t u = m; u < TILE; u++)
            ar[u] = ai[u] = 0.0;
    }

    /* the load: diag_load times the mean of A's diagonal, added to it */
    for (ptrdiff_t u = 0; u < TILE; u++)
        trace[u] = 0.0;
    for (ptrdiff_t i = 0; i < taps; i++) {
        double *d = re + row_start(i, taps) * TILE;
        for (ptrdiff_t u = 0; u < TILE; u++)
            trace[u] = trace[u] + d[u];
    }
    for (ptrdiff_t u = 0; u < TILE; u++)
        flag[u] = !(fabs(trace[u]) <= DBL_MAX) | (trace[u] <= 0.0);
    for (ptrdiff_t i = 0; i < taps; i++) {
        double *d = re + row_start(i, taps) * TILE;
        for (ptrdiff_t u = 0; u < TILE; u++)
            d[u] = d[u] + diag_load * trace[u] / taps;
    }

    for (ptrdiff_t i = 0, s = 0; i < taps; s += taps + 1 - i, i++) {
        ptrdiff_t len = taps - i; /* entries after the pivot: A[i, i+1:], b[i] */
        double *pivot = re + s * TILE, *v = inv + i * TILE;
        for (ptrdiff_t u = 0; u < TILE; u++) {
            pivot[u] = sqrt(pivot[u]);
            v[u] = 1.0 / pivot[u];
        }
        for (ptrdiff_t e = 1; e <= len; e++) {
            double *ar = re + (s + e) * TILE, *ai = im + (s + e) * TILE;
            for (ptrdiff_t u = 0; u < TILE; u++) {
                cplx q = cmul((cplx){ar[u], ai[u]}, (cplx){v[u], 0.0});
                ar[u] = q.re;
                ai[u] = q.im;
            }
        }
        /* row k = i + 1 + j, len - j entries, less conj(R[i, k]) R[i, k:] */
        for (ptrdiff_t j = 0, t = s + len + 1; j < len - 1; t += len - j, j++) {
            const double *cr = re + (s + 1 + j) * TILE, *ci = im + (s + 1 + j) * TILE;
            for (ptrdiff_t e = 0; e < len - j; e++) {
                const double *rr = cr + e * TILE, *ri = ci + e * TILE;
                double *ar = re + (t + e) * TILE, *ai = im + (t + e) * TILE;
                for (ptrdiff_t u = 0; u < TILE; u++) {
                    cplx q = cmul((cplx){cr[u], -ci[u]}, (cplx){rr[u], ri[u]});
                    ar[u] -= q.re;
                    ai[u] -= q.im;
                }
            }
        }
    }
    /* back substitution, one column of R at a time */
    for (ptrdiff_t i = 0; i < taps; i++) {
        ptrdiff_t z = row_start(i, taps) + taps - i;
        for (ptrdiff_t u = 0; u < TILE; u++) {
            hre[i * TILE + u] = re[z * TILE + u];
            him[i * TILE + u] = im[z * TILE + u];
        }
    }
    for (ptrdiff_t i = taps - 1; i >= 0; i--) {
        double *xr = hre + i * TILE, *xi = him + i * TILE, *v = inv + i * TILE;
        for (ptrdiff_t u = 0; u < TILE; u++) {
            cplx q = cmul((cplx){xr[u], xi[u]}, (cplx){v[u], 0.0});
            xr[u] = q.re;
            xi[u] = q.im;
        }
        for (ptrdiff_t k = 0; k < i; k++) {
            ptrdiff_t c = row_start(k, taps) + i - k;
            const double *cr = re + c * TILE, *ci = im + c * TILE;
            double *kr = hre + k * TILE, *ki = him + k * TILE;
            for (ptrdiff_t u = 0; u < TILE; u++) {
                cplx q = cmul((cplx){cr[u], ci[u]}, (cplx){xr[u], xi[u]});
                kr[u] -= q.re;
                ki[u] -= q.im;
            }
        }
    }

    /* a pivot that is not positive or taps that are not finite flag the unit */
    for (ptrdiff_t i = 0; i < taps; i++) {
        const double *d = re + row_start(i, taps) * TILE;
        for (ptrdiff_t u = 0; u < TILE; u++)
            flag[u] |= !(d[u] > 0.0);
        for (ptrdiff_t u = 0; u < m; u++)
            root[i * n + u] = d[u];
    }
    for (ptrdiff_t k = 0; k < taps; k++)
        for (ptrdiff_t u = 0; u < TILE; u++)
            flag[u] |= !(fabs(hre[k * TILE + u]) <= DBL_MAX) | !(fabs(him[k * TILE + u]) <= DBL_MAX);
    for (ptrdiff_t u = 0; u < m; u++)
        bad[u] = flag[u];
    for (ptrdiff_t k = 0; k < taps; k++)
        for (ptrdiff_t u = 0; u < m; u++)
            h[k * n + u] = flag[u] ? (cplx){0.0, 0.0} : (cplx){hre[k * TILE + u], him[k * TILE + u]};
}

/* Load, factor and solve every unit of the window sums g, [rows][n].
 *
 * The load adds diag_load times the mean of A's diagonal to that diagonal.
 * Every unit is then factored as A = R^H R, right-looking: row i becomes
 * R[i, i:] followed by z[i], the forward solution of R^H z = b, since b[i]
 * ends the row that the pivot scales and b[k] ends each trailing row that it
 * updates. The back substitution R h = z writes the taps to h, [taps][n],
 * and R[i, i] goes to root, [taps][n]. A unit whose trace or a pivot is not
 * positive, or whose taps are not finite, is flagged in bad, [n], and gets
 * the zero filter. The units are taken in tiles of TILE. Returns -1 if the
 * scratch cannot be allocated. */
int factor_solve(const cplx *g, double diag_load, cplx *h, double *root, unsigned char *bad,
                 ptrdiff_t taps, ptrdiff_t n)
{
    ptrdiff_t rows = taps * (taps + 3) / 2;
    double *sc = malloc(sizeof(double) * TILE * (2 * rows + 3 * taps));
    if (!sc)
        return -1;
    for (ptrdiff_t u0 = 0; u0 < n; u0 += TILE)
        tile(g + u0, diag_load, h + u0, root + u0, bad + u0, taps, n,
             n - u0 < TILE ? n - u0 : TILE, sc);
    free(sc);
    return 0;
}

/* The residual y - sum_k conj(h_k conj(x[t - k])) into res, [bins][frames],
 * from the taps h, [taps][n]; a unit whose taps are all zero passes y
 * through. Returns -1 if the scratch cannot be allocated. */
int apply_taps(const cplx *x, const cplx *y, const cplx *h, cplx *res, ptrdiff_t taps,
               ptrdiff_t bins, ptrdiff_t frames)
{
    ptrdiff_t n = bins * frames;
    cplx *xp = malloc(sizeof(cplx) * (taps + frames) + frames);
    if (!xp)
        return -1;
    unsigned char *nonzero = (unsigned char *)(xp + taps + frames);
    for (ptrdiff_t b = 0; b < bins; b++) {
        const cplx *yb = y + b * frames;
        cplx *p = res + b * frames; /* the prediction, summed from zero */
        pad(xp, x + b * frames, taps, frames);
        memset(p, 0, sizeof(cplx) * frames);
        memset(nonzero, 0, frames);
        for (ptrdiff_t k = 0; k < taps; k++) {
            const cplx *hk = h + k * n + b * frames, *xk = xp + taps - k;
            for (ptrdiff_t t = 0; t < frames; t++) {
                cplx q = cmul(hk[t], conj_(xk[t]));
                p[t].re = p[t].re + q.re;
                p[t].im = p[t].im + q.im;
                nonzero[t] |= hk[t].re != 0.0 || hk[t].im != 0.0;
            }
        }
        for (ptrdiff_t t = 0; t < frames; t++) {
            cplx r = {yb[t].re - p[t].re, yb[t].im - -p[t].im};
            p[t] = nonzero[t] ? r : yb[t];
        }
    }
    free(xp);
    return 0;
}
