/* Factor-and-solve of packed augmented normal equations, in place.
 *
 * g holds, entry-major, n units of taps (taps + 3) / 2 complex entries each:
 * row i of a unit is its loaded A[i, i:] followed by b[i]. Every unit is
 * factored as A = R^H R, right-looking: row i becomes R[i, i:] followed by
 * z[i], the forward solution of R^H z = b, since b[i] ends the row that the
 * pivot scales and b[k] ends each trailing row that it updates. The real part
 * of each diagonal entry becomes R[i, i]. The back substitution R h = z then
 * writes the taps to h, [taps][n]. inv, [taps][n], is scratch for 1 / R[i, i].
 *
 * The units are taken in tiles of TILE, and every operation of the numpy
 * statement of the same elimination (numpy_factor_solve in tests/helpers.py)
 * is made in its order, with its operands: a real operand of a complex product
 * is a complex one with a zero imaginary part, and cmul rounds as numpy's
 * complex multiply does with fused multiply-adds. So the results are numpy's
 * bits on such a host, and the same bits on any host. A pivot that is not
 * positive turns its unit to inf or nan, which the caller flags.
 */
#include <math.h>
#include <stddef.h>

#define TILE 64

typedef struct {
    double re, im;
} cplx;

static inline cplx cmul(cplx a, cplx b)
{
    cplx p = {fma(a.re, b.re, -(a.im * b.im)), fma(a.re, b.im, a.im * b.re)};
    return p;
}

/* p - a * b */
static inline cplx cmsub(cplx p, cplx a, cplx b)
{
    cplx q = cmul(a, b);
    p.re -= q.re;
    p.im -= q.im;
    return p;
}

static ptrdiff_t row_start(ptrdiff_t i, ptrdiff_t taps)
{
    return i * (taps + 1) - i * (i - 1) / 2;
}

static void tile(cplx *g, cplx *h, double *inv, ptrdiff_t taps, ptrdiff_t n, ptrdiff_t m)
{
    for (ptrdiff_t i = 0, s = 0; i < taps; s += taps + 1 - i, i++) {
        ptrdiff_t len = taps - i; /* entries after the pivot: A[i, i+1:], b[i] */
        cplx *pivot = g + s * n;
        double *v = inv + i * n;
        for (ptrdiff_t u = 0; u < m; u++) {
            pivot[u].re = sqrt(pivot[u].re);
            v[u] = 1.0 / pivot[u].re;
        }
        for (ptrdiff_t e = 1; e <= len; e++) {
            cplx *r = g + (s + e) * n;
            for (ptrdiff_t u = 0; u < m; u++)
                r[u] = cmul(r[u], (cplx){v[u], 0.0});
        }
        /* row k = i + 1 + j, len - j entries, less conj(R[i, k]) R[i, k:] */
        for (ptrdiff_t j = 0, t = s + len + 1; j < len - 1; t += len - j, j++) {
            cplx *rc = g + (s + 1 + j) * n;
            for (ptrdiff_t e = 0; e < len - j; e++) {
                cplx *r = rc + e * n, *a = g + (t + e) * n;
                for (ptrdiff_t u = 0; u < m; u++)
                    a[u] = cmsub(a[u], (cplx){rc[u].re, -rc[u].im}, r[u]);
            }
        }
    }
    /* back substitution, one column of R at a time */
    for (ptrdiff_t i = 0; i < taps; i++) {
        cplx *z = g + (row_start(i, taps) + taps - i) * n, *hi = h + i * n;
        for (ptrdiff_t u = 0; u < m; u++)
            hi[u] = z[u];
    }
    for (ptrdiff_t i = taps - 1; i >= 0; i--) {
        cplx *hi = h + i * n;
        double *v = inv + i * n;
        for (ptrdiff_t u = 0; u < m; u++)
            hi[u] = cmul(hi[u], (cplx){v[u], 0.0});
        for (ptrdiff_t k = 0; k < i; k++) {
            cplx *col = g + (row_start(k, taps) + i - k) * n, *hk = h + k * n;
            for (ptrdiff_t u = 0; u < m; u++)
                hk[u] = cmsub(hk[u], col[u], hi[u]);
        }
    }
}

void factor_solve(cplx *g, cplx *h, double *inv, ptrdiff_t taps, ptrdiff_t n)
{
    for (ptrdiff_t u0 = 0; u0 < n; u0 += TILE)
        tile(g + u0, h + u0, inv + u0, taps, n, n - u0 < TILE ? n - u0 : TILE);
}
