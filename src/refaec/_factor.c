/* The Wiener solver's kernel. solve_bins walks each bin a tile of TILE frames
 * at a time: the window sums of the packed augmented normal equations of the
 * tile's frames, their load and factor-and-solve, and the residual of the
 * taps. factor_solve loads and solves explicit augmented buffers with the
 * same code.
 *
 * x, y and w are [bins][frames], frames innermost; a unit is one frame of
 * one bin. A unit's augmented buffer holds taps (taps + 3) / 2 complex
 * entries: row i is A[i, i:] followed by b[i]. A tile holds the entries of
 * TILE units as planes of real and imaginary parts, so that every loop over
 * units runs over TILE lanes.
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

#define TILE 32

typedef struct {
    double re, im;
} cplx;

/* The planes of one tile: the entries, [rows][TILE] each, then the
 * reciprocal pivots and the taps, [taps][TILE] each. */
typedef struct {
    double *re, *im, *inv, *hre, *him;
} planes;

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

static ptrdiff_t entries(ptrdiff_t taps)
{
    return taps * (taps + 3) / 2;
}

static ptrdiff_t row_start(ptrdiff_t i, ptrdiff_t taps)
{
    return i * (taps + 1) - i * (i - 1) / 2;
}

static size_t plane_size(ptrdiff_t taps)
{
    return sizeof(double) * TILE * (2 * entries(taps) + 3 * taps);
}

static planes split(double *sc, ptrdiff_t taps)
{
    ptrdiff_t rows = entries(taps);
    planes p = {sc, sc + rows * TILE, sc + 2 * rows * TILE};
    p.hre = p.inv + taps * TILE;
    p.him = p.hre + taps * TILE;
    return p;
}

/* Load the units [0, m) of g, [rows][n], whose first unit g points at, into
 * the planes; lanes from m on are zero. */
static void load_tile(planes p, const cplx *g, ptrdiff_t taps, ptrdiff_t n, ptrdiff_t m)
{
    for (ptrdiff_t e = 0; e < entries(taps); e++) {
        const cplx *ge = g + e * n;
        double *ar = p.re + e * TILE, *ai = p.im + e * TILE;
        for (ptrdiff_t u = 0; u < m; u++) {
            ar[u] = ge[u].re;
            ai[u] = ge[u].im;
        }
        for (ptrdiff_t u = m; u < TILE; u++)
            ar[u] = ai[u] = 0.0;
    }
}

/* Factor and solve every lane of the loaded planes, and write the flags of
 * the units [0, m) to bad[u * stride] and, where h is not NULL, their taps to
 * h[u * stride * taps + k].
 *
 * The load adds diag_load times the mean of A's diagonal to that diagonal.
 * Every lane is then factored as A = R^H R, right-looking: row i becomes
 * R[i, i:] followed by z[i], the forward solution of R^H z = b, since b[i]
 * ends the row that the pivot scales and b[k] ends each trailing row that it
 * updates. The back substitution R h = z leaves the taps in hre and him. A
 * lane whose trace or a pivot is not positive, or whose taps are not finite,
 * is flagged and gets the zero filter. */
static void factor_tile(planes p, double diag_load, unsigned char *bad, cplx *h, ptrdiff_t stride,
                        ptrdiff_t taps, ptrdiff_t m)
{
    double *re = p.re, *im = p.im, *inv = p.inv, *hre = p.hre, *him = p.him, trace[TILE];
    unsigned char flag[TILE];

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

    /* a pivot that is not positive or taps that are not finite flag the lane */
    for (ptrdiff_t i = 0; i < taps; i++) {
        const double *d = re + row_start(i, taps) * TILE;
        for (ptrdiff_t u = 0; u < TILE; u++)
            flag[u] |= !(d[u] > 0.0);
    }
    for (ptrdiff_t k = 0; k < taps; k++)
        for (ptrdiff_t u = 0; u < TILE; u++)
            flag[u] |= !(fabs(hre[k * TILE + u]) <= DBL_MAX) | !(fabs(him[k * TILE + u]) <= DBL_MAX);
    for (ptrdiff_t k = 0; k < taps; k++)
        for (ptrdiff_t u = 0; u < TILE; u++)
            if (flag[u])
                hre[k * TILE + u] = him[k * TILE + u] = 0.0;
    for (ptrdiff_t u = 0; u < m; u++) {
        bad[u * stride] = flag[u];
        for (ptrdiff_t k = 0; h && k < taps; k++)
            h[u * stride * taps + k] = (cplx){hre[k * TILE + u], him[k * TILE + u]};
    }
}

/* Load, factor and solve every unit of g, [rows][n], an explicit augmented
 * buffer of each unit's normal equations, a tile of TILE units at a time:
 * the taps go to h, [n][taps], and the flags to bad, [n]. g is read, not
 * written. Returns -1 if the scratch cannot be allocated. */
int factor_solve(const cplx *g, double diag_load, cplx *h, unsigned char *bad, ptrdiff_t taps,
                 ptrdiff_t n)
{
    double *sc = malloc(plane_size(taps));
    if (!sc)
        return -1;
    planes p = split(sc, taps);
    for (ptrdiff_t u0 = 0; u0 < n; u0 += TILE) {
        ptrdiff_t m = n - u0 < TILE ? n - u0 : TILE;
        load_tile(p, g + u0, taps, n, m);
        factor_tile(p, diag_load, bad + u0, h + u0 * taps, 1, taps, m);
    }
    free(sc);
    return 0;
}

/* The window sums of the units [0, m) of the tile at frame t0 into its
 * planes; lanes from m on are zero. Entry j of row i of a frame's products is
 * w[t] x[t - i] conj(x[t - j]), or w[t] x[t - i] conj(y[t]) for j = taps, the
 * entry of b[i]; xl[taps - 1 + u - k] is the tile's x[t - k] at lane u, and y
 * and w start at the tile's first frame. Each entry's running sum is carried
 * on from the tile before, and from frame window + 1 on the running sum
 * window + 1 frames back is subtracted. The ring holds each entry's last span
 * running sums, real parts then imaginary parts, frame t at slot t % span;
 * span is window + 1, or the frame count where that is less, so that no frame
 * subtracts. */
static void tile_sums(planes p, double *ring, const cplx *xl, const cplx *y, const double *w,
                      ptrdiff_t taps, ptrdiff_t span, ptrdiff_t window, ptrdiff_t t0, ptrdiff_t m)
{
    ptrdiff_t first = t0 % span, last = (first ? first : span) - 1;
    cplx wx[TILE];
    for (ptrdiff_t i = 0, s = 0; i < taps; s += taps + 1 - i, i++) {
        const cplx *xi = xl + taps - 1 - i;
        for (ptrdiff_t u = 0; u < m; u++)
            wx[u] = cmul(xi[u], (cplx){w[u], 0.0});
        for (ptrdiff_t e = 0; e <= taps - i; e++) {
            const cplx *xj = e < taps - i ? xi - e : y;
            double *ar = p.re + (s + e) * TILE, *ai = p.im + (s + e) * TILE;
            double *cr = ring + 2 * (s + e) * span, *ci = cr + span;
            for (ptrdiff_t u = 0; u < m; u++) {
                cplx q = cmul(wx[u], conj_(xj[u]));
                ar[u] = q.re;
                ai[u] = q.im;
            }
            /* -0.0 + a is a, bit for bit: frame 0's running sum is its product */
            double sr = t0 ? cr[last] : -0.0, si = t0 ? ci[last] : -0.0;
            for (ptrdiff_t u = 0, slot = first; u < m; u++, slot = slot + 1 < span ? slot + 1 : 0) {
                sr = sr + ar[u];
                si = si + ai[u];
                ar[u] = t0 + u > window ? sr - cr[slot] : sr;
                ai[u] = t0 + u > window ? si - ci[slot] : si;
                cr[slot] = sr;
                ci[slot] = si;
            }
            for (ptrdiff_t u = m; u < TILE; u++)
                ar[u] = ai[u] = 0.0;
        }
    }
}

/* y - sum_k conj(h_k conj(x[t - k])) of the units [0, m) of a solved tile
 * into res[u * width], from its taps and the tile's xl; a unit whose taps are
 * all zero passes y through. */
static void tile_residual(planes p, const cplx *xl, const cplx *y, cplx *res, ptrdiff_t width,
                          ptrdiff_t taps, ptrdiff_t m)
{
    double pr[TILE] = {0.0}, pi[TILE] = {0.0}; /* the prediction, summed from zero */
    unsigned char nonzero[TILE] = {0};
    for (ptrdiff_t k = 0; k < taps; k++) {
        const double *hr = p.hre + k * TILE, *hi = p.him + k * TILE;
        const cplx *xk = xl + taps - 1 - k;
        for (ptrdiff_t u = 0; u < m; u++) {
            cplx q = cmul((cplx){hr[u], hi[u]}, conj_(xk[u]));
            pr[u] = pr[u] + q.re;
            pi[u] = pi[u] + q.im;
            nonzero[u] |= hr[u] != 0.0 || hi[u] != 0.0;
        }
    }
    for (ptrdiff_t u = 0; u < m; u++) {
        cplx r = {y[u].re - pr[u], y[u].im - -pi[u]};
        res[u * width] = nonzero[u] ? r : y[u];
    }
}

/* Solve every unit of the bins of x and y, [bins][frames], weighted by w,
 * [bins][frames], over the window [t - window, t] truncated at frame 0, a
 * tile of TILE frames at a time: the window sums are formed in the tile's
 * planes, factored and solved as factor_tile does, and the tile's taps are
 * applied to its frames. The outputs are frame-major, width units to a
 * frame, with the first bin first: the residual goes to res and the flags to
 * bad, [frames][width], and the taps to h, [frames][width][taps], where h is
 * not NULL. The scratch is one tile and a ring of rows * min(window + 1,
 * frames) running sums. Returns -1 if the scratch cannot be allocated. */
int solve_bins(const cplx *x, const cplx *y, const double *w, double diag_load, cplx *res,
               unsigned char *bad, cplx *h, ptrdiff_t taps, ptrdiff_t window, ptrdiff_t bins,
               ptrdiff_t frames, ptrdiff_t width)
{
    ptrdiff_t rows = entries(taps), span = window < frames ? window + 1 : frames;
    double *sc = malloc(plane_size(taps) + sizeof(double) * 2 * rows * span +
                        sizeof(cplx) * (taps - 1 + TILE));
    if (!sc)
        return -1;
    planes p = split(sc, taps);
    double *ring = sc + plane_size(taps) / sizeof(double);
    cplx *xl = (cplx *)(ring + 2 * rows * span);
    for (ptrdiff_t b = 0; b < bins; b++) {
        const cplx *xb = x + b * frames, *yb = y + b * frames;
        const double *wb = w + b * frames;
        for (ptrdiff_t t0 = 0; t0 < frames; t0 += TILE) {
            ptrdiff_t m = frames - t0 < TILE ? frames - t0 : TILE, o = t0 * width + b;
            /* xl[taps - 1 + u - k] is x[t0 + u - k], zero before frame 0 */
            for (ptrdiff_t j = 0, t = t0 - taps + 1; j < taps - 1 + m; j++, t++)
                xl[j] = t < 0 ? (cplx){0.0, 0.0} : xb[t];
            tile_sums(p, ring, xl, yb + t0, wb + t0, taps, span, window, t0, m);
            factor_tile(p, diag_load, bad + o, h ? h + o * taps : NULL, width, taps, m);
            tile_residual(p, xl, yb + t0, res + o, width, taps, m);
        }
    }
    free(sc);
    return 0;
}
